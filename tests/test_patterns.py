"""Pattern construction: frozen small cases, then structural properties."""

from __future__ import annotations

import itertools

import pytest
from conftest import composite, factored, physical
from hypothesis import given, settings
from hypothesis import strategies as st

from biasym import (
    GroupingConfig,
    base_pattern,
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

    def test_descending_order_enforced_and_normalized(self):
        with pytest.raises(ValueError, match="descending"):
            GroupingConfig([6, 6, 4, 4], [6, 6, 4, 4], ((2, 0), (3, 1)), (2, 2))
        cfg = GroupingConfig.grouped([6, 6, 4, 4], [[2, 0], [3, 1]], [2, 2])
        assert cfg.groups == ((0, 2), (1, 3))

    def test_tied_used_counts_must_be_in_member_order(self):
        # equal used counts: the larger equipped count comes first
        with pytest.raises(ValueError, match="descending"):
            GroupingConfig((4, 6), (4, 4), ((0, 1),), (1,))
        assert str(GroupingConfig.flat((4, 6), (4, 4))) == "KG=1;G1=[6,4]/MG1;used=4,4"

    def test_labels_and_user_order(self, example_config):
        assert example_config.labels() == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert example_config.user_order() == [0, 2, 1, 3]

    def test_one_label_format_for_every_user(self, example_config, example_pattern):
        assert user_label(2, 1) == "u2.1"
        assert [user_label(*label) for label in example_config.labels()] == [
            u.label for u in example_pattern.users
        ]


class TestGroupedPattern:
    def test_example_factored_patterns(self, example_pattern):
        assert [factored(u) for u in example_pattern.users] == [
            "(1,2,3,1,2)x(1,2,1)",
            "(1,1,1,2,2)x(1,2,1)",
            "(1,2,3,1,2)x(1,1,2)",
            "(1,1,1,2,2)x(1,1,2)",
        ]

    def test_example_composite_expansion(self, example_pattern):
        u11 = example_pattern.users[0]
        assert u11.label == "u1.1"
        assert u11.composite_seq() == tuple(
            zip(
                (1, 2, 3, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 1, 2),
                (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1),
            )
        )

    def test_physical_mode_map(self, example_pattern):
        # physical mode is (m2 - 1) * element_count + m1
        for u in example_pattern.users:
            for t in range(1, example_pattern.length + 1):
                m1, m2 = composite(u, t)
                assert physical(u, t) == (m2 - 1) * u.element_modes + m1
        u21 = example_pattern.users[1]
        assert u21.label == "u2.1"
        assert u21.physical_seq() == (
            1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 1, 1, 1, 2, 2,
        )

    def test_example_length(self, example_pattern, example_config):
        assert example_pattern.length == 15
        assert grouped_length(example_config) == 15

    def test_single_group_matches_flat_construction(self):
        # one group degenerates to the flat pattern over the used modes
        for modes in ([3, 2], [6, 6, 4, 4], [2, 2, 2]):
            cfg = GroupingConfig.flat(modes)
            pattern = grouped_pattern(cfg)
            flat = base_pattern(modes)
            for u in pattern.users:
                assert u.physical_seq() == flat[u.orig_index]
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
        for u in pattern.users:
            assert max(u.physical_seq()) == cfg.used[u.orig_index]

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


class TestPatternInvariants:
    @given(
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
        st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_two_level_pattern_is_cartesian_expansion(self, elem, grp):
        # every user's composite sequence must equal the product of its two
        # component sequences, element level running fastest: the pair at
        # 1-based slot (j - 1) * len(a) + i is (a[i], b[j])
        used = [e * g for g in grp for e in elem]
        equipped = used
        groups = []
        idx = 0
        for _ in grp:
            groups.append(list(range(idx, idx + len(elem))))
            idx += len(elem)
        cfg = GroupingConfig.grouped(equipped, groups, grp, used)
        pattern = grouped_pattern(cfg)
        for u in pattern.users:
            a, b = u.element_seq, u.group_seq
            out = u.composite_seq()
            assert len(out) == len(a) * len(b) == pattern.length
            for j in range(len(b)):
                for i in range(len(a)):
                    assert out[j * len(a) + i] == (a[i], b[j])
            assert len(set(u.physical_seq())) == u.used

    def test_all_groups_share_element_family(self, example_pattern):
        by_position: dict[int, set] = {}
        for u in example_pattern.users:
            by_position.setdefault(u.position, set()).add(u.element_seq)
        for seqs in by_position.values():
            assert len(seqs) == 1
