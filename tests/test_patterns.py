"""Pattern construction: frozen small cases, then structural properties."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from conftest import composite, composite_seq, factored, physical, physical_seq
from hypothesis import given, settings
from hypothesis import strategies as st

import biasym.patterns
from biasym import (
    GroupingConfig,
    SearchSpace,
    base_pattern,
    enumerate_configs,
    flat_length,
    grouped_length,
    grouped_pattern,
    pattern_table,
    user_label,
)

mode_lists = st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5)


def render(seq) -> str:
    return "(" + ",".join(str(m) for m in seq) + ")"


class TestFlatConstruction:
    def test_two_users_three_and_two_modes(self):
        seqs = base_pattern([3, 2])
        assert seqs[0] == (1, 2, 3, 1, 2)
        assert seqs[1] == (1, 1, 1, 2, 2)
        assert render(seqs[0]) == "(1,2,3,1,2)"
        assert render(seqs[1]) == "(1,1,1,2,2)"

    def test_two_users_two_modes_each(self):
        seqs = base_pattern([2, 2])
        assert seqs[0] == (1, 2, 1)
        assert seqs[1] == (1, 1, 2)

    def test_three_users_two_modes_each(self):
        # interleaving block is the single all-ones slot, then one hold
        # segment per user
        seqs = base_pattern([2, 2, 2])
        assert seqs[0] == (1, 2, 1, 1)
        assert seqs[1] == (1, 1, 2, 1)
        assert seqs[2] == (1, 1, 1, 2)

    def test_single_user_cycles_all_modes(self):
        assert base_pattern([4]) == [(1, 2, 3, 4)]

    def test_last_user_digit_moves_fastest(self):
        seqs = base_pattern([3, 3])
        # interleaving block: (1,1),(1,2),(2,1),(2,2) with user 2 fastest
        assert seqs[0][:4] == (1, 1, 2, 2)
        assert seqs[1][:4] == (1, 2, 1, 2)

    def test_rejects_degenerate_modes(self):
        with pytest.raises(ValueError):
            base_pattern([3, 1])
        with pytest.raises(ValueError):
            base_pattern([])
        with pytest.raises(ValueError):
            flat_length([2, 1])
        with pytest.raises(ValueError):
            flat_length(())

    def test_one_user_with_one_mode_is_one_slot(self):
        # a single group's level: no interleaving block, a one-slot hold segment
        assert base_pattern((1,)) == [(1,)]
        assert flat_length((1,)) == 1

    @pytest.mark.parametrize("users", [1, 2, 3, 4, 5])
    def test_matches_a_slot_by_slot_walk(self, users):
        # oracle: the schedule written out digit tuple by digit tuple
        def walk(counts):
            seqs = [[] for _ in counts]
            for digits in itertools.product(*(range(1, m) for m in counts)):
                for seq, digit in zip(seqs, digits):
                    seq.append(digit)
            for k, m in enumerate(counts):
                others = [q for q in range(len(counts)) if q != k]
                for digits in itertools.product(*(range(1, counts[q]) for q in others)):
                    for q, digit in zip(others, digits):
                        seqs[q].append(digit)
                    seqs[k].append(m)
            return [tuple(seq) for seq in seqs]

        top = {1: 12, 2: 9, 3: 7, 4: 5, 5: 4}[users]
        for counts in itertools.product(range(2, top + 1), repeat=users):
            seqs = base_pattern(counts)
            assert seqs == walk(counts), counts
            assert all(type(m) is int for seq in seqs for m in seq)

    @given(mode_lists)
    @settings(max_examples=60)
    def test_length_formula_matches_construction(self, modes):
        seqs = base_pattern(modes)
        expected = flat_length(modes)
        assert all(len(s) == expected for s in seqs)

    @given(mode_lists)
    @settings(max_examples=60)
    def test_final_mode_only_in_own_segment(self, modes):
        seqs = base_pattern(modes)
        block = 1
        for m in modes:
            block *= m - 1
        offsets = [block]
        for k, m in enumerate(modes):
            offsets.append(offsets[-1] + block // (m - 1))
        for k, (m, seq) in enumerate(zip(modes, seqs)):
            for t, mode in enumerate(seq):
                in_own_segment = offsets[k] <= t < offsets[k + 1]
                assert (mode == m) == in_own_segment

    @given(mode_lists)
    @settings(max_examples=60)
    def test_every_digit_tuple_has_full_mode_coverage(self, modes):
        # group slots by the other users' digits: each user must see every
        # own mode exactly once inside each recurrence of a tuple
        seqs = base_pattern(modes)
        K = len(modes)
        for k in range(K):
            groups: dict[tuple, list[int]] = {}
            for t in range(len(seqs[0])):
                others = tuple(
                    seqs[q][t] for q in range(K) if q != k and seqs[q][t] != modes[q]
                )
                # only slots where no other user holds its final mode define
                # a recurrence of user k's stream tuples
                if len(others) == K - 1:
                    groups.setdefault(others, []).append(seqs[k][t])
            for own_modes in groups.values():
                assert sorted(own_modes) == list(range(1, modes[k] + 1))

    @pytest.mark.parametrize("build", [flat_length, base_pattern])
    def test_fractional_mode_counts_are_refused(self, build):
        # refused, where int() would truncate 4.9 to 4
        with pytest.raises(ValueError, match="mode counts must be integers, got 4.9"):
            build([4.9, 3])
        with pytest.raises(ValueError, match="mode counts must be integers, got '3'"):
            build([3, "3"])
        assert build(np.array([3, 2])) == build([3, 2])


class TestGroupingConfig:
    def test_canonical_string(self, example_config):
        assert (
            example_config.canonical_string()
            == "KG=2;G1=[6,4]/MG2;G2=[6,4]/MG2;used=6,4,6,4"
        )

    def test_element_counts_derived(self, example_config):
        assert example_config.element_counts == (3, 2)

    def test_alternative_grouping_same_lengths(self):
        cfg = GroupingConfig.grouped([6, 6, 4, 4], [[0, 1], [2, 3]], [3, 2])
        assert cfg.element_counts == (2, 2)
        assert grouped_length(cfg) == 15

    def test_group_count_must_divide_users(self):
        with pytest.raises(ValueError, match="divisible"):
            GroupingConfig([6, 6, 4], [6, 6, 4], ((0, 1), (2,)), (2, 2))

    def test_group_mode_count_must_divide_used(self):
        with pytest.raises(ValueError, match="divide"):
            GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [4, 4])

    def test_element_counts_must_match_across_groups(self):
        # groups (6,6) and (4,4) with equal group mode counts leave element
        # counts 3 vs 2 at each position
        with pytest.raises(ValueError, match="match across groups"):
            GroupingConfig.grouped([6, 6, 4, 4], [[0, 1], [2, 3]], [2, 2])

    def test_groups_of_unequal_size_are_refused(self):
        with pytest.raises(ValueError, match="all groups must have exactly users-per-group members"):
            GroupingConfig((4,) * 4, (4,) * 4, ((0, 1, 2), (3,)), (2, 2))

    def test_several_groups_need_group_mode_counts_of_two(self):
        with pytest.raises(ValueError, match="must be >= 2 when there are several groups"):
            GroupingConfig.grouped((4,) * 4, [[0, 1], [2, 3]], (1, 2))

    def test_single_group_requires_unit_group_count(self):
        with pytest.raises(ValueError, match="group mode count 1"):
            GroupingConfig([6, 6], (6, 6), ((0, 1),), (2,))

    def test_used_cannot_exceed_equipped(self):
        with pytest.raises(ValueError, match="exceed"):
            GroupingConfig.flat([4, 4], used=[5, 4])

    def test_used_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            GroupingConfig.flat([4, 4], used=[1, 4])

    def test_used_list_must_match_user_count(self):
        with pytest.raises(ValueError, match="user count"):
            GroupingConfig.flat((3, 3), (3,))
        with pytest.raises(ValueError, match="user count"):
            GroupingConfig.grouped((4, 4), [[0], [1]], (2, 2), (4,))
        with pytest.raises(ValueError, match="user count"):
            GroupingConfig((3, 3), (3,), ((0, 1),), (1,))

    def test_fractional_or_text_mode_counts_are_refused(self):
        # refused, where int() would truncate 4.9 to 4
        with pytest.raises(ValueError, match="mode counts must be integers, got 4.9"):
            GroupingConfig.flat([4.9, 3])
        with pytest.raises(ValueError, match="mode counts must be integers, got 2.5"):
            GroupingConfig.flat([4, 3], used=[2.5, 3])
        with pytest.raises(ValueError, match="mode counts must be integers, got '4'"):
            GroupingConfig((4, 4), ("4", 4), ((0, 1),), (1,))
        with pytest.raises(ValueError, match="mode counts must be integers, got 2.5"):
            GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2.5, 2])

    def test_numpy_integer_mode_counts_are_accepted(self):
        cfg = GroupingConfig.flat(np.array([6, 4]), used=np.array([4, 4]))
        assert str(cfg) == "KG=1;G1=[6,4]/MG1;used=4,4"
        assert all(type(m) is int for m in cfg.equipped + cfg.used)

    def test_flat_config_is_the_one_group_config(self):
        cfg = GroupingConfig.flat((4, 6, 4), (3, 4, 4))
        assert cfg.groups == ((1, 2, 0),) and cfg.element_counts == (4, 4, 3)
        assert cfg == GroupingConfig((4, 6, 4), (3, 4, 4), ((1, 2, 0),), (1,))

    def test_constructor_requires_both_mode_lists(self):
        with pytest.raises(TypeError):
            GroupingConfig((3, 3), None, ((0, 1),), (1,))
        with pytest.raises(ValueError, match="nonempty"):
            GroupingConfig((), (3,), ((0,),), (1,))

    def test_groups_must_partition_users(self):
        with pytest.raises(ValueError, match="partition"):
            GroupingConfig([6, 6, 4, 4], [6, 6, 4, 4], ((0, 2), (0, 3)), (2, 2))

    def test_grouped_rejects_user_indices_out_of_range(self):
        # refused as a bad partition before the members are ordered by count
        for bad in ([[0], [5]], [[0], [-1]]):
            with pytest.raises(ValueError, match="groups must partition the users"):
                GroupingConfig.grouped((4, 4), bad, (2, 2))

    def test_non_integer_user_indices_are_refused(self):
        # refused, where int() would truncate 0.9 to 0 and read '0' as 0
        with pytest.raises(ValueError, match="user indices must be integers, got 0.9"):
            GroupingConfig((4,) * 4, (4,) * 4, ((0.9, 1.2), (2, 3.5)), (2, 2))
        with pytest.raises(ValueError, match="user indices must be integers, got '0'"):
            GroupingConfig((4, 4), (4, 4), (("0", 1),), (1,))
        # converted before the range check, so both entry points refuse alike
        with pytest.raises(ValueError, match="user indices must be integers, got 0.2"):
            GroupingConfig.grouped((4, 4), [[0.2, 1.9]], (1,))

    def test_constructor_orders_members_by_descending_counts(self):
        cfg = GroupingConfig([6, 6, 4, 4], [6, 6, 4, 4], ((2, 0), (3, 1)), (2, 2))
        assert cfg.groups == ((0, 2), (1, 3))
        assert cfg == GroupingConfig.grouped([6, 6, 4, 4], [[2, 0], [3, 1]], [2, 2])

    def test_constructor_orders_tied_used_counts_by_equipped(self):
        # equal used counts: the larger equipped count comes first
        cfg = GroupingConfig((4, 6), (4, 4), ((0, 1),), (1,))
        assert cfg.groups == ((1, 0),)
        assert cfg == GroupingConfig.flat((4, 6), (4, 4))
        assert str(cfg) == "KG=1;G1=[6,4]/MG1;used=4,4"

    @pytest.mark.parametrize("equipped, budget", [((6, 6, 4, 4), 300), ((6, 6, 6, 4, 4, 4), 150)])
    def test_member_order_within_groups_does_not_matter(self, equipped, budget):
        for cfg in enumerate_configs(SearchSpace(equipped), budget):
            for groups in itertools.product(*(itertools.permutations(g) for g in cfg.groups)):
                other = GroupingConfig(cfg.equipped, cfg.used, groups, cfg.group_mode_counts)
                assert other == cfg and hash(other) == hash(cfg)
                assert other.canonical_string() == cfg.canonical_string()

    @pytest.mark.parametrize("build, groups", [
        (lambda: GroupingConfig.flat([6, 6, 4, 4]), 1),
        (lambda: GroupingConfig.grouped([6, 6, 4, 4], [[2, 0], [3, 1]], [2, 2]), 2),
    ])
    def test_one_conversion_and_one_ordering_per_group(self, monkeypatch, build, groups):
        # one pass per config: the constructors leave conversion and order to it
        calls = {"_mode_counts": 0, "_member_order": 0}
        for name in calls:
            real = getattr(biasym.patterns, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(f"biasym.patterns.{name}", spy)
        build()
        assert calls == {"_mode_counts": 1, "_member_order": groups}

    def test_labels_and_user_order(self, example_config):
        assert example_config.labels() == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert example_config.user_order() == [0, 2, 1, 3]

    def test_one_label_format_for_every_user(self, example_config, example_pattern):
        assert user_label(2, 1) == "u2.1"
        labels = [user_label(*label) for label in example_config.labels()]
        assert labels == ["u1.1", "u2.1", "u1.2", "u2.2"]
        assert pattern_table(example_pattern).split("\n")[1] == ",".join(["slot", *labels])

    def test_used_in_order_is_group_major(self, example_config):
        assert example_config.used_in_order() == [
            example_config.used[u] for u in example_config.user_order()
        ] == [6, 4, 6, 4]
        cfg = GroupingConfig.flat([4, 6, 5], used=[3, 6, 2])
        assert cfg.user_order() == [1, 0, 2]
        assert cfg.used_in_order() == [6, 3, 2]


class TestGroupedPattern:
    def test_example_factored_patterns(self, example_pattern):
        assert [factored(example_pattern, u) for u in range(4)] == [
            "(1,2,3,1,2)x(1,2,1)",
            "(1,1,1,2,2)x(1,2,1)",
            "(1,2,3,1,2)x(1,1,2)",
            "(1,1,1,2,2)x(1,1,2)",
        ]

    def test_level_sequences_are_read_only_family_rows(self, example_pattern):
        # element rows by within-group position, group rows by group
        assert example_pattern.element_seq.shape == (4, 5)
        assert example_pattern.group_seq.shape == (4, 3)
        elements, groups = base_pattern([3, 2]), base_pattern([2, 2])
        for u, (k, i) in enumerate(example_pattern.config.labels()):
            assert tuple(example_pattern.element_seq[u]) == elements[k - 1]
            assert tuple(example_pattern.group_seq[u]) == groups[i - 1]
        for seq in (example_pattern.element_seq, example_pattern.group_seq):
            assert not seq.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                seq[0, 0] = 2

    def test_example_composite_expansion(self, example_pattern):
        assert composite_seq(example_pattern, 0) == tuple(
            zip(
                (1, 2, 3, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2),
                (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1),
            )
        )

    def test_physical_mode_map(self, example_pattern):
        # physical mode is (m2 - 1) * element_count + m1
        elem = example_pattern.config.element_counts
        for u, (k, _) in enumerate(example_pattern.config.labels()):
            for t in range(1, example_pattern.length + 1):
                m1, m2 = composite(example_pattern, u, t)
                assert physical(example_pattern, u, t) == (m2 - 1) * elem[k - 1] + m1
                assert example_pattern.physical_modes[u, t - 1] == physical(example_pattern, u, t)
        assert physical_seq(example_pattern, 1) == (
            1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 1, 1, 1, 2, 2,
        )

    def test_example_length(self, example_pattern, example_config):
        assert example_pattern.length == 15
        assert grouped_length(example_config) == 15

    def test_physical_modes_are_the_users_sequences(self, example_pattern, misaligned_pattern):
        # one read-only array, read off each user's own sequences
        assert factored(misaligned_pattern, 3) == "(1,1,1,2,2)x(1,2,1)"
        for pattern in (example_pattern, misaligned_pattern,
                        grouped_pattern(GroupingConfig.flat([4, 3, 3])),
                        grouped_pattern(GroupingConfig.grouped([9, 9], [[0], [1]], [3, 3]))):
            modes = pattern.physical_modes
            users = pattern.config.num_users
            assert modes.shape == (users, pattern.length)
            assert not modes.flags.writeable
            assert modes.tolist() == [list(physical_seq(pattern, u)) for u in range(users)]
            assert pattern.physical_modes is modes

    def test_equal_configs_share_one_pattern(self, example_config, misaligned_pattern):
        # the canonical member order makes these groups the example's
        same = GroupingConfig([6, 6, 4, 4], [6, 6, 4, 4], [[2, 0], [3, 1]], [2, 2])
        assert same == example_config
        assert grouped_pattern(same) is grouped_pattern(example_config)
        # a pattern with other rows is its own instance, with no plans of its own
        assert misaligned_pattern is not grouped_pattern(example_config)
        assert misaligned_pattern._plans == {}

    def test_single_group_matches_flat_construction(self):
        # one group degenerates to the flat pattern over the used modes
        for modes in ([3, 2], [6, 6, 4, 4], [2, 2, 2]):
            cfg = GroupingConfig.flat(modes)
            pattern = grouped_pattern(cfg)
            flat = base_pattern(modes)
            for u, orig in enumerate(cfg.user_order()):
                assert physical_seq(pattern, u) == flat[orig]
            assert pattern.length == flat_length(modes)

    def test_grouped_length_equals_construction(self):
        cases = [
            GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
            GroupingConfig.grouped([6, 6, 4, 4], [[0, 1], [2, 3]], [3, 2]),
            GroupingConfig.grouped([9, 9], [[0], [1]], [3, 3]),
            GroupingConfig.grouped(
                [8, 8, 8, 8], [[0], [1], [2], [3]], [2, 2, 2, 2], used=[4, 4, 4, 4]
            ),
            GroupingConfig.flat([5, 3, 2]),
        ]
        for cfg in cases:
            assert grouped_pattern(cfg).length == grouped_length(cfg)

    def test_mode_reduction_shrinks_pattern(self):
        cfg = GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2])
        pattern = grouped_pattern(cfg)
        assert pattern.length == 9
        for u, orig in enumerate(cfg.user_order()):
            assert max(physical_seq(pattern, u)) == cfg.used[orig]

    def test_table_round_trips_slot_entries(self, example_pattern):
        text = pattern_table(example_pattern)
        lines = text.strip().split("\n")
        assert lines[0] == "# biasym pattern table v1"
        assert lines[1] == "slot,u1.1,u2.1,u1.2,u2.2"
        assert len(lines) == 2 + 15
        first = lines[2].split(",")
        assert first == ["1", "1.1/1", "1.1/1", "1.1/1", "1.1/1"]
        t8 = lines[9].split(",")
        assert t8 == ["8", "3.2/6", "1.2/3", "3.1/3", "1.1/1"]

    def test_enumerated_tables_match_golden_digest(self):
        # the v1 table is fixed byte for byte: one SHA-256 over the tables of
        # every enumerated config of five spaces, 509 in all
        spaces = [((6, 6, 4, 4), 300), ((6, 6, 6, 4, 4, 4), 150), ((4,) * 6, 200),
                  ((9, 9, 9, 9), 250), ((6, 4, 8, 3), 200)]
        digest, tables = hashlib.sha256(), 0
        for modes, cap in spaces:
            for cfg in enumerate_configs(SearchSpace(modes), cap):
                digest.update(pattern_table(grouped_pattern(cfg)).encode())
                tables += 1
        assert tables == 509
        assert digest.hexdigest() == (
            "b1b1694dda1a5d2377f3a0f7d12a7b37a6482a23126aac92a88ebd71b12df486"
        )


class TestPatternInvariants:
    @given(
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
        st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_two_level_pattern_is_cartesian_expansion(self, elem, grp):
        # every user's physical modes must expand the product of its two
        # level sequences, element level running fastest: the mode at 1-based
        # slot (j - 1) * len(a) + i is (b[j] - 1) * M1 + a[i]
        used = [e * g for g in grp for e in elem]
        equipped = used
        groups = []
        idx = 0
        for _ in grp:
            groups.append(list(range(idx, idx + len(elem))))
            idx += len(elem)
        cfg = GroupingConfig.grouped(equipped, groups, grp, used)
        pattern = grouped_pattern(cfg)
        for u, ((k, _), dim) in enumerate(zip(cfg.labels(), cfg.used_in_order())):
            a, b = pattern.element_seq[u], pattern.group_seq[u]
            out = pattern.physical_modes[u]
            assert len(out) == len(a) * len(b) == pattern.length
            for j in range(len(b)):
                for i in range(len(a)):
                    assert out[j * len(a) + i] == (b[j] - 1) * cfg.element_counts[k - 1] + a[i]
            assert len(set(out.tolist())) == dim

    def test_all_groups_share_element_family(self, example_pattern):
        by_position: dict[int, set] = {}
        for seq, (k, _) in zip(example_pattern.element_seq, example_pattern.config.labels()):
            by_position.setdefault(k, set()).add(tuple(seq))
        for seqs in by_position.values():
            assert len(seqs) == 1
