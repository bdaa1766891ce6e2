"""Config enumeration, optimization, sweeps, and re-verification of winners.

The optimizer oracle below re-derives best DoF by raw product enumeration
(every used-mode vector, every partition, every group mode count, validity
checked from first principles, DoF from stream counting), independent of
the canonicalized enumeration under test.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasym import (
    BestEntry,
    GroupingConfig,
    SearchSpace,
    config_sum_dof,
    draw_channels,
    enumerate_configs,
    grouped_length,
    grouped_pattern,
    optimize,
    random_symbols,
    sweep,
    sweep_to_csv,
    verify_receivers,
)
from biasym.dof import sum_dof_flat
from biasym.patterns import flat_length
from biasym.search import CLASS_LIMIT, _class_configs, _count_classes, _count_vectors


# ======================================================================
# Independent oracle
# ======================================================================

def _oracle_partitions(users, group_size):
    if not users:
        yield []
        return
    head, rest = users[0], users[1:]
    for combo in itertools.combinations(rest, group_size - 1):
        remaining = [u for u in rest if u not in combo]
        for tail in _oracle_partitions(remaining, group_size):
            yield [[head, *combo]] + tail


def _oracle_flat_length(counts):
    block = prod(c - 1 for c in counts)
    return block + sum(block // (c - 1) for c in counts)


def _oracle_dof_and_length(elem, grp):
    l1 = _oracle_flat_length(elem)
    l2 = _oracle_flat_length(grp) if len(grp) > 1 or grp[0] > 1 else 1
    total = Fraction(0)
    for i in range(len(grp)):
        for k in range(len(elem)):
            streams = prod(elem[p] - 1 for p in range(len(elem)) if p != k) * prod(
                grp[q] - 1 for q in range(len(grp)) if q != i
            )
            total += Fraction(elem[k] * grp[i] * streams, l1 * l2)
    return total, l1 * l2


def oracle_best(equipped, budget, grouped_only=False):
    """(dof, length) of the best config by exhaustive raw enumeration."""
    K = len(equipped)
    best = None
    for used in itertools.product(*(range(2, m + 1) for m in equipped)):
        for kg in (d for d in range(1, K + 1) if K % d == 0):
            if grouped_only and kg == 1:
                continue
            if kg == 1:
                elem = tuple(sorted(used, reverse=True))
                candidates = [(elem, (1,))]
            else:
                candidates = []
                for part in _oracle_partitions(list(range(K)), K // kg):
                    ordered = [sorted((used[j] for j in g), reverse=True) for g in part]
                    for mgs in itertools.product(
                        range(2, max(used) + 1), repeat=kg
                    ):
                        elems = [
                            tuple(u // m for u in g) for g, m in zip(ordered, mgs)
                        ]
                        valid = all(
                            u == e * m
                            for g, m, es in zip(ordered, mgs, elems)
                            for u, e in zip(g, es)
                        )
                        valid = valid and len(set(elems)) == 1
                        valid = valid and all(e >= 2 for e in elems[0])
                        if valid:
                            candidates.append((elems[0], mgs))
            for elem, mgs in candidates:
                dof, length = _oracle_dof_and_length(elem, mgs)
                if budget is not None and length > budget:
                    continue
                if best is None or (dof, -length) > (best[0], -best[1]):
                    best = (dof, length)
    return best


def reference_canonical_strings(equipped, allow_reduction):
    """Canonical strings of every valid config, from raw index partitions.

    Used vectors are one per multiset within each class of equal equipped
    counts, non-increasing by user index; every partition and every group
    mode count dividing all members is tried, validated by the config
    itself, and the groups put in canonical order.
    """
    K = len(equipped)
    if allow_reduction:
        used_vectors = [
            used
            for used in itertools.product(*(range(2, m + 1) for m in equipped))
            if all(
                used[a] >= used[b]
                for a, b in itertools.combinations(range(K), 2)
                if equipped[a] == equipped[b]
            )
        ]
    else:
        used_vectors = [tuple(equipped)]
    out = set()
    for used in used_vectors:
        for kg in (d for d in range(1, K + 1) if K % d == 0):
            for part in _oracle_partitions(list(range(K)), K // kg):
                options = [(1,)] if kg == 1 else itertools.product(*(
                    [m for m in range(2, max(used) + 1) if all(used[j] % m == 0 for j in g)]
                    for g in part
                ))
                for mgs in options:
                    try:
                        cfg = GroupingConfig.grouped(equipped, part, mgs, used)
                    except ValueError:
                        continue
                    order = sorted(range(kg), key=lambda i: (
                        tuple(-used[j] for j in cfg.groups[i]),
                        tuple(-equipped[j] for j in cfg.groups[i]),
                        cfg.groups[i],
                    ))
                    canonical = GroupingConfig(
                        equipped, used, [cfg.groups[i] for i in order],
                        [cfg.group_mode_counts[i] for i in order],
                    )
                    out.add(canonical.canonical_string())
    return out


def assert_each_config_once(equipped, allow_reduction):
    """The enumeration yields the oracle's canonical strings, each once, and
    each class fills its configs in ascending canonical-string order."""
    space = SearchSpace(equipped, allow_reduction=allow_reduction)
    got = [c.canonical_string() for c in enumerate_configs(space)]
    assert len(got) == len(set(got))
    assert set(got) == reference_canonical_strings(equipped, allow_reduction)
    for g, e, length, desired in _count_classes(space, None):
        configs = list(_class_configs(space, g, e))
        assert all(grouped_length(c) == length for c in configs)
        assert all(config_sum_dof(c) * length == desired for c in configs)
        fill = [c.canonical_string() for c in configs]
        assert fill == sorted(fill)
        assert fill[0] == min(fill)


def tie_break_key(entry):
    return (-entry.dof, entry.length, entry.config.num_groups,
            entry.config.canonical_string())


# ======================================================================
# Enumeration
# ======================================================================

class TestSearchSpace:
    @pytest.mark.parametrize("equipped,message", [
        ((), "equipped mode list must be nonempty"),
        ((6, 1, 4), "every equipped mode count must be >= 2"),
        ((4.7, 4), "mode counts must be integers, got 4.7"),
        (("6", 4), "mode counts must be integers, got '6'"),
    ])
    def test_refuses_before_enumerating(self, equipped, message):
        with pytest.raises(ValueError, match=message):
            SearchSpace(equipped)

    def test_numpy_integer_counts_are_accepted(self):
        space = SearchSpace(tuple(np.array([6, 6, 4, 4])))
        assert space.equipped == (6, 6, 4, 4)
        assert all(type(m) is int for m in space.equipped)


class TestEnumerateConfigs:
    def test_without_reduction_exact_set(self):
        space = SearchSpace((6, 6, 4, 4), allow_reduction=False)
        got = sorted(c.canonical_string() for c in enumerate_configs(space))
        assert got == [
            "KG=1;G1=[6,6,4,4]/MG1;used=6,6,4,4",
            "KG=2;G1=[6,4]/MG2;G2=[6,4]/MG2;used=6,4,6,4",
            "KG=2;G1=[6,6]/MG3;G2=[4,4]/MG2;used=6,6,4,4",
            "KG=4;G1=[6]/MG3;G2=[6]/MG3;G3=[4]/MG2;G4=[4]/MG2;used=6,6,4,4",
        ]

    def test_every_config_is_valid_and_unique(self):
        space = SearchSpace((6, 6, 4, 4))
        seen = set()
        count = 0
        for cfg in enumerate_configs(space):
            key = cfg.canonical_string()
            assert key not in seen
            seen.add(key)
            count += 1
            assert isinstance(cfg, GroupingConfig)  # already validated
        assert count > 50

    def test_prime_user_count_has_no_proper_grouping(self):
        # five users form one group or five; 4 = 2 x 2 lets five groups through
        space = SearchSpace((4,) * 5, allow_reduction=False)
        assert {c.num_groups for c in enumerate_configs(space)} == {1, 5}

    def test_reduction_explores_smaller_used_counts(self):
        space = SearchSpace((4, 4))
        used = {c.used for c in enumerate_configs(space) if c.num_groups == 1}
        assert used == {(4, 4), (4, 3), (4, 2), (3, 3), (3, 2), (2, 2)}

    @pytest.mark.parametrize("equipped", [(6, 6, 4, 4), (4, 6, 4, 6), (6,) * 6, (9, 6),
                                          (4,) * 8])
    @pytest.mark.parametrize("allow_reduction", [True, False])
    def test_matches_brute_force_canonical_set(self, equipped, allow_reduction):
        assert_each_config_once(equipped, allow_reduction)

    @pytest.mark.parametrize("equipped", [(6, 6, 6, 6, 4, 4, 4, 4), (4, 6, 8, 9, 12, 16),
                                          (12, 12, 8, 6, 6, 4), (16, 8, 4, 4, 8, 16)])
    def test_matches_brute_force_without_reduction(self, equipped):
        # with reduction the oracle takes seconds here, so only the equipped
        # counts: every cell of a grid fill then takes exactly its used count
        assert_each_config_once(equipped, False)

    @settings(max_examples=30, deadline=None)
    @given(equipped=st.lists(st.integers(2, 12), min_size=1, max_size=4).map(tuple),
           allow_reduction=st.booleans())
    def test_each_config_once_on_random_spaces(self, equipped, allow_reduction):
        assert_each_config_once(equipped, allow_reduction)

    def test_tied_used_counts_are_ordered_by_equipped_count(self):
        # at used 4,4,4,4 the pairings {4,6},{4,6} of (4,6,4,6) are one config
        # however the users are labeled, so both mode orders list the same configs
        lists = [
            [c.canonical_string() for c in enumerate_configs(SearchSpace(equipped))]
            for equipped in [(4, 6, 4, 6), (6, 4, 6, 4)]
        ]
        assert len(lists[0]) == 97
        assert lists[0] == lists[1]

    @pytest.mark.parametrize("equipped", [(6, 6, 5, 4), (6, 6, 3, 4), (6, 6, 2, 4),
                                          (9, 7)])
    def test_prime_or_small_used_count_yields_only_flat(self, equipped):
        space = SearchSpace(equipped, allow_reduction=False)
        assert list(enumerate_configs(space)) == [GroupingConfig.flat(equipped)]

    @pytest.mark.parametrize("equipped", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4), (4, 6, 4, 6),
                                          (9, 6), (3, 2), (8,) * 6])
    @pytest.mark.parametrize("allow_reduction", [True, False])
    def test_cap_yields_the_uncapped_configs_that_fit(self, equipped, allow_reduction):
        space = SearchSpace(equipped, allow_reduction=allow_reduction)
        every = list(enumerate_configs(space))
        for cap in (1, 4, 9, 15, 25, 40, 64, 200, None):
            got = [c.canonical_string() for c in enumerate_configs(space, cap)]
            assert len(got) == len(set(got))
            assert set(got) == {
                c.canonical_string() for c in every
                if cap is None or grouped_length(c) <= cap
            }

    @pytest.mark.parametrize("slots", [[(1, 1)], [(5, 3)], [(2, 6), (2, 5), (3, 6)],
                                       [(4, 4), (2, 7), (2, 3), (2, 9)]])
    def test_count_vectors_match_brute_force_over_the_slot_box(self, slots):
        box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in slots)))
        for cap in (None, 1, 4, 12, 40, 60, 150):
            assert list(_count_vectors(slots, cap)) == [
                (v, flat_length(v), sum_dof_flat(v) * flat_length(v)) for v in box
                if all(a >= b for a, b in itertools.pairwise(v))
                and (cap is None or flat_length(v) <= cap)
            ]

    @pytest.mark.parametrize("equipped,cap,yielded,best", [
        ((6, 6, 6, 4, 4, 4), 64, 42, (Fraction(21, 10), 20)),
        ((6, 6, 4, 4), None, 97, None),
        ((8,) * 6, 400, 131, None),
    ], ids=["666444-cap64", "6644-uncapped", "8x6-cap400"])
    def test_cap_prunes_configs_before_building_them(self, monkeypatch, equipped, cap,
                                                     yielded, best):
        # every config built is yielded: none is refused by its constructor or
        # dropped over the cap (the partition search built 77, 108 and 283 here)
        built, refused = [], []
        post_init = GroupingConfig.__post_init__

        def counted(self):
            try:
                post_init(self)
            except ValueError:
                refused.append(self)
                raise
            built.append(self)

        monkeypatch.setattr(GroupingConfig, "__post_init__", counted)
        configs = list(enumerate_configs(SearchSpace(equipped), cap))
        assert refused == []
        assert len(built) == len(configs) == yielded
        assert all(b is c for b, c in zip(built, configs))
        if best is not None:
            result = optimize(SearchSpace(equipped), cap)
            assert (result.grouped.dof, result.grouped.length) == best

    def test_grouped_configs_use_only_composite_counts(self):
        def composite(u):
            return any(u % d == 0 for d in range(2, isqrt(u) + 1))

        grouped = [c for c in enumerate_configs(SearchSpace((9, 6, 6, 4)))
                   if c.num_groups >= 2]
        assert grouped
        assert all(composite(u) for c in grouped for u in c.used)


# ======================================================================
# Optimizer
# ======================================================================

class TestOptimize:
    def test_mixed_example_at_budget_15(self):
        result = optimize(SearchSpace((6, 6, 4, 4)), 15)
        assert result.grouped.dof == Fraction(28, 15)
        assert result.grouped.length == 15
        assert result.grouped.config.canonical_string() in (
            "KG=2;G1=[6,4]/MG2;G2=[6,4]/MG2;used=6,4,6,4",
            "KG=2;G1=[6,6]/MG3;G2=[4,4]/MG2;used=6,6,4,4",
        )
        # best plain reduction within 15 slots: four users on (4,2,2,2)
        assert result.conventional.dof == Fraction(22, 13)
        assert result.conventional.length == 13

    def test_grouped_strictly_beats_conventional_at_15(self):
        result = optimize(SearchSpace((6, 6, 4, 4)), 15)
        assert result.grouped.dof > result.conventional.dof

    def test_six_users_unconstrained(self):
        result = optimize(SearchSpace((6,) * 6, require_grouping=True))
        assert result.conventional.dof == Fraction(36, 11)
        assert result.conventional.length == 34375
        assert result.grouped.dof == Fraction(12, 5)
        assert result.grouped.length == 60

    def test_tie_breaks_prefer_fewer_groups(self):
        # two proper groupings of six same-mode users reach 12/5 in 60 slots;
        # the two-group one must win
        result = optimize(SearchSpace((6,) * 6, require_grouping=True))
        assert result.grouped.config.num_groups == 2

    def test_sixteen_users_group_in_four_at_budget_25(self):
        # the sqrt(K) grouping of the paper: four groups of four 4-mode users
        # beat every mode reduction of the flat pattern at L = 25
        start = time.perf_counter()
        result = optimize(SearchSpace((4,) * 16), 25)
        elapsed = time.perf_counter() - start
        grouped, conventional = result.grouped, result.conventional
        assert grouped.config.canonical_string() == ";".join(
            ["KG=4", *(f"G{i}=[4,4,4,4]/MG2" for i in range(1, 5)), "used=" + ",".join("4" * 16)]
        )
        assert (grouped.dof, grouped.length) == (Fraction(64, 25), 25)
        assert conventional.config.canonical_string() == (
            "KG=1;G1=[" + ",".join("4" * 16) + "]/MG1;used=" + ",".join("2" * 16)
        )
        assert (conventional.dof, conventional.length) == (Fraction(32, 17), 17)
        assert elapsed < 5

    @pytest.mark.parametrize("equipped", [(9,) * 8, (8,) * 12])
    def test_large_spaces_answer_without_a_cap(self, equipped):
        # the flat pattern over every equipped mode wins both strategies
        result = optimize(SearchSpace(equipped))
        flat = GroupingConfig.flat(equipped)
        assert result.conventional.config == result.grouped.config == flat
        assert result.grouped.dof == config_sum_dof(flat)

    def test_many_distinct_composite_counts_answer_without_reduction(self):
        # twelve users of distinct equipped counts, many composite: the
        # search walks count classes, not partitions of the users
        equipped = (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21)
        start = time.perf_counter()
        result = optimize(SearchSpace(equipped, allow_reduction=False))
        elapsed = time.perf_counter() - start
        flat = GroupingConfig.flat(equipped)
        assert result.conventional.config == result.grouped.config == flat
        assert elapsed < 1

    def test_search_over_the_class_limit_is_refused_before_building(self, monkeypatch):
        def refuse(space, g, e):
            raise AssertionError("configs must not be built")

        monkeypatch.setattr("biasym.search._class_configs", refuse)
        space = SearchSpace((9,) * 16)  # 245,157 flat classes, over 2**16 within 10**12 slots
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"above the {CLASS_LIMIT} limit"):
            optimize(space)
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match=f"above the {CLASS_LIMIT} limit"):
            sweep(space, [25, 10**12])

    def test_users_of_one_count_are_indexed_by_decreasing_used_count(self):
        # group-major indexing would give (8, 6, 6, 8, 6, 6): the same string,
        # but not the canonical config
        result = optimize(SearchSpace((8,) * 6), 100)
        assert result.grouped.config.used == (8, 8, 6, 6, 6, 6)

    @staticmethod
    def spy_on_fills(monkeypatch) -> list:
        fills = []

        def spy(space, g, e):
            fills.append((g, e))
            return _class_configs(space, g, e)

        monkeypatch.setattr("biasym.search._class_configs", spy)
        return fills

    @pytest.mark.parametrize("equipped,budget,filled", [
        ((6, 6, 6, 4, 4, 4), 64, 2),  # one winning class per strategy
        ((9,) * 8, None, 1),  # the flat class over every mode wins both
    ])
    def test_only_the_answering_classes_are_filled(self, equipped, budget, filled, monkeypatch):
        fills = self.spy_on_fills(monkeypatch)
        optimize(SearchSpace(equipped), budget)
        assert len(fills) == filled

    @pytest.mark.parametrize("budgets", [range(1, 121), range(10, 121, 10)], ids=["every", "tenth"])
    def test_a_sweep_fills_only_its_winners_and_their_ties(self, budgets, monkeypatch):
        space = SearchSpace((6, 6, 4, 4))

        def key(config):
            return config_sum_dof(config), grouped_length(config), config.num_groups

        winners = {
            key(e.config) for r in sweep(space, budgets).rows
            for e in (r.conventional, r.grouped) if e
        }
        ties = {(g, e) for g, e, *_ in _count_classes(space, max(budgets))
                if key(next(_class_configs(space, g, e))) in winners}
        fills = self.spy_on_fills(monkeypatch)
        sweep(space, budgets)
        assert len(fills) == len(set(fills)) and set(fills) <= ties

    def test_infeasible_returns_none(self):
        # used count 5 is prime, so no proper grouping exists
        result = optimize(SearchSpace((5,) * 5, allow_reduction=False, require_grouping=True))
        assert result.conventional is not None and result.grouped is None
        tight = optimize(SearchSpace((6, 6, 4, 4)), 4)
        assert tight.conventional is None and tight.grouped is None

    def test_budget_below_one_is_refused_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes must not be walked, nor configs built")

        monkeypatch.setattr("biasym.search._count_classes", refuse)
        monkeypatch.setattr("biasym.search._class_configs", refuse)
        space = SearchSpace((4, 4))
        for budget in (0, -3):
            with pytest.raises(ValueError, match="length budget must be >= 1"):
                optimize(space, budget)
        with pytest.raises(ValueError, match="length budget must be >= 1"):
            sweep(space, range(0, 4))

    def test_fractional_budget_is_refused_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes must not be walked, nor configs built")

        monkeypatch.setattr("biasym.search._count_classes", refuse)
        monkeypatch.setattr("biasym.search._class_configs", refuse)
        space = SearchSpace((4, 4))
        # refused, where int() would answer budget 9
        with pytest.raises(ValueError, match="length budget must be an integer, got 9.8"):
            sweep(space, [9.8])
        with pytest.raises(ValueError, match="length budget must be an integer, got 9.8"):
            optimize(space, 9.8)
        with pytest.raises(ValueError, match="length budget must be an integer, got '9'"):
            sweep(space, [5, "9"])

    @pytest.mark.parametrize("budget", [5, 9, 13, 15, 40, 100, None])
    def test_matches_brute_force_oracle(self, budget):
        result = optimize(SearchSpace((6, 6, 4, 4)), budget)
        expect = oracle_best([6, 6, 4, 4], budget)
        assert (result.grouped.dof, result.grouped.length) == expect
        expect_grouped_only = oracle_best([6, 6, 4, 4], budget, grouped_only=True)
        restricted = optimize(SearchSpace((6, 6, 4, 4), require_grouping=True), budget)
        if expect_grouped_only is None:
            assert restricted.grouped is None
        else:
            assert (restricted.grouped.dof, restricted.grouped.length) == expect_grouped_only

    def test_matches_oracle_on_two_user_space(self):
        for budget in (3, 9, 20, None):
            result = optimize(SearchSpace((9, 6)), budget)
            assert result.grouped is not None
            assert (result.grouped.dof, result.grouped.length) == oracle_best(
                [9, 6], budget
            )


# ======================================================================
# Sweeps
# ======================================================================

@pytest.fixture(scope="module")
def mixed_sweep():
    return sweep(SearchSpace((6, 6, 4, 4)), range(5, 101))


class TestSweep:
    def test_dof_nondecreasing(self, mixed_sweep):
        for name in ("conventional", "grouped"):
            values = [
                getattr(r, name).dof for r in mixed_sweep.rows if getattr(r, name)
            ]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_strict_band(self, mixed_sweep):
        assert mixed_sweep.strict_band() == (9, 39)
        strict = [
            r.length_budget for r in mixed_sweep.rows
            if r.grouped and (r.conventional is None or r.grouped.dof > r.conventional.dof)
        ]
        assert strict == list(range(9, 40))

    def test_spot_values(self, mixed_sweep):
        rows = {r.length_budget: r for r in mixed_sweep.rows}
        assert rows[9].grouped.dof == Fraction(16, 9)
        assert rows[9].grouped.length == 9
        assert rows[15].grouped.dof == Fraction(28, 15)
        assert rows[15].conventional.dof == Fraction(22, 13)
        assert rows[40].grouped.dof == rows[40].conventional.dof == Fraction(19, 10)

    @pytest.mark.parametrize("equipped", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4)])
    @pytest.mark.parametrize("require_grouping", [False, True])
    def test_every_budget_picks_the_minimum_key(self, equipped, require_grouping):
        space = SearchSpace(equipped, require_grouping=require_grouping)
        entries = [
            BestEntry(c, config_sum_dof(c), grouped_length(c))
            for c in enumerate_configs(space)
        ]
        budgets = range(1, 121)
        rows = sweep(space, budgets).rows
        for budget, row in zip(budgets, rows):
            feasible = [e for e in entries if e.length <= budget]
            conv = [e for e in feasible if e.config.num_groups == 1]
            grp = [e for e in feasible
                   if e.config.num_groups >= 2 or not require_grouping]
            expect = (min(conv, key=tie_break_key, default=None),
                      min(grp, key=tie_break_key, default=None))
            result = optimize(space, budget)
            assert (result.conventional, result.grouped) == expect
            assert result == row
            assert (row.length_budget, row.conventional, row.grouped) == (budget, *expect)

    def test_infeasible_budgets_render_empty(self):
        result = sweep(SearchSpace((6, 6, 4, 4)), range(3, 6))
        text = sweep_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "# biasym sweep v1"
        assert any(line.startswith("L,conv_dof_num") for line in lines)
        assert "3,,,,infeasible,,,,infeasible" in lines
        assert lines[-1].startswith("5,8,5,1.6,")

    def test_csv_columns_and_quoting(self, mixed_sweep):
        lines = sweep_to_csv(mixed_sweep).strip().split("\n")
        header = [line for line in lines if line.startswith("L,")][0]
        assert header == (
            "L,conv_dof_num,conv_dof_den,conv_dof_dec,conv_config,"
            "grp_dof_num,grp_dof_den,grp_dof_dec,grp_config"
        )
        row15 = [line for line in lines if line.startswith("15,")][0]
        assert (
            row15
            == '15,22,13,1.69231,"KG=1;G1=[4,6,6,4]/MG1;used=4,2,2,2",'
            '28,15,1.86667,"KG=2;G1=[6,4]/MG2;G2=[6,4]/MG2;used=6,4,6,4"'
        )

    def test_band_info_line_present(self, mixed_sweep):
        lines = sweep_to_csv(mixed_sweep).split("\n")
        assert lines[1] == (
            "# info: grouped strictly exceeds conventional for L in [9,39] "
            "within this sweep"
        )


class TestVerifySweep:
    def test_winning_configs_verify(self):
        result = sweep(SearchSpace((6, 6, 4, 4)), range(5, 17))
        winners = {e.config for r in result.rows for e in (r.conventional, r.grouped) if e}
        for cfg in winners:
            pattern = grouped_pattern(cfg)
            for seed in (1, 2):
                channels = draw_channels(cfg, None, seed)
                receivers = verify_receivers(pattern, channels, random_symbols(pattern))
                assert all(r.match for r in receivers)
        assert len(winners) >= 3

    def test_misaligned_group_pattern_fails_verification(
        self, example_config, example_pattern, misaligned_pattern
    ):
        # one user's group-level sequence out of step with its group:
        # measured ranks must disagree with predictions
        good, broken = example_pattern, misaligned_pattern
        # streams depend on the config alone, so the misaligned pattern keeps
        # the good pattern's slots
        assert all((b == g).all() for b, g in zip(broken.streams, good.streams))
        channels = draw_channels(example_config, None, 1)
        receivers = verify_receivers(broken, channels, random_symbols(broken))
        assert not all(r.match for r in receivers)
        bad_rx = receivers[3]
        assert bad_rx.measured.desired < bad_rx.predicted.desired
