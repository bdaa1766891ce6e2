"""Exact DoF arithmetic: frozen anchors, then identities as properties."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasym import (
    GroupingConfig,
    SearchSpace,
    base_pattern,
    config_sum_dof,
    enumerate_configs,
    flat_length,
    grouped_length,
    grouped_pattern,
    per_user_dof,
    rank_predictions,
    reduction_ratio,
    render_decimal,
    render_rational,
    sum_dof_flat,
    sum_dof_grouped,
)

mode_lists = st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4)


class TestSumDof:
    def test_flat_anchors(self):
        assert sum_dof_flat([6, 6, 4, 4]) == Fraction(76, 31)
        assert sum_dof_flat([6] * 6) == Fraction(36, 11)
        assert sum_dof_flat([2, 2]) == Fraction(4, 3)
        assert sum_dof_flat([3, 2]) == Fraction(7, 5)
        assert sum_dof_flat([4]) == Fraction(1)

    def test_grouped_example_both_orientations(self):
        # element counts (3,2) with group counts (2,2), or (2,2) with (3,2),
        # describe the same 15-slot family and the same sum DoF
        assert sum_dof_grouped([3, 2], [2, 2]) == Fraction(28, 15)
        assert sum_dof_grouped([2, 2], [3, 2]) == Fraction(28, 15)

    def test_results_are_exact_rationals(self):
        assert isinstance(sum_dof_flat([6, 6, 4, 4]), Fraction)
        assert isinstance(sum_dof_grouped([3, 2], [2, 2]), Fraction)

    def test_fractional_mode_counts_are_refused(self):
        # int() would read [4.9, 3] as [4, 3], 17/11
        with pytest.raises(ValueError, match="mode counts must be integers, got 4.9"):
            sum_dof_flat([4.9, 3])
        with pytest.raises(ValueError, match="mode counts must be integers, got 2.5"):
            sum_dof_grouped([3, 2], [2.5, 2])

    def test_single_group_degenerates_to_flat(self):
        for modes in ([3, 2], [6, 6, 4, 4], [5]):
            assert sum_dof_grouped(modes, (1,)) == sum_dof_flat(modes)

    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4),
        st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=4),
    )
    @settings(max_examples=80)
    def test_grouped_dof_factors_into_flat_dofs(self, elem, grp):
        assert sum_dof_grouped(elem, grp) == sum_dof_flat(elem) * sum_dof_flat(grp)

    def test_one_user_with_one_mode_has_dof_one(self):
        assert sum_dof_flat((1,)) == 1

    @given(mode_lists)
    @settings(max_examples=80)
    def test_flat_dof_matches_textbook_formula(self, modes):
        # (sum M/(M-1)) / (1 + sum 1/(M-1)), independent of flat_length
        num = sum(Fraction(m, m - 1) for m in modes)
        den = 1 + sum(Fraction(1, m - 1) for m in modes)
        assert sum_dof_flat(modes) == num / den

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            sum_dof_flat([2, 1])
        with pytest.raises(ValueError):
            sum_dof_flat(())
        with pytest.raises(ValueError):
            sum_dof_grouped([1, 2], [2, 2])
        with pytest.raises(ValueError):
            sum_dof_grouped([2, 2], [2, 1])


def _config_cases() -> list[GroupingConfig]:
    return [
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 1], [2, 3]], [3, 2]),
        GroupingConfig.grouped([9, 9], [[0], [1]], [3, 3]),
        GroupingConfig.grouped([8, 8, 8, 8], [[0], [1], [2], [3]], [2, 2, 2, 2]),
        GroupingConfig.grouped(
            [6, 6, 6, 6, 6, 6], [[0, 1, 2], [3, 4, 5]], [2, 2]
        ),
        GroupingConfig.flat([6, 6, 4, 4]),
        GroupingConfig.flat([3, 2]),
        GroupingConfig.flat([4]),
    ]


class TestRankPredictions:
    def test_example_receiver_values(self, example_config):
        preds = rank_predictions(example_config)
        by_label = {p.label: p for p in preds}
        p11 = by_label[(1, 1)]
        assert (p11.desired, p11.iui_total, p11.igi_total) == (6, 4, 5)
        assert p11.per_interferer == {(2, 1): 4, (1, 2): 3, (2, 2): 2}
        # the same-group interferer (2, 1) alone is IUI
        assert p11.iui_total == p11.per_interferer[(2, 1)]
        assert p11.igi_total == p11.per_interferer[(1, 2)] + p11.per_interferer[(2, 2)]
        assert (p11.combined, p11.joint, p11.length) == (9, 15, 15)
        p21 = by_label[(2, 1)]
        assert (p21.desired, p21.iui_total, p21.igi_total) == (8, 2, 5)
        assert p21.per_interferer == {(1, 1): 2, (1, 2): 1, (2, 2): 4}

    def test_flat_predictions_have_no_igi(self):
        preds = rank_predictions(GroupingConfig.flat([3, 2]))
        assert [(p.desired, p.iui_total, p.igi_total) for p in preds] == [
            (3, 2, 0),
            (4, 1, 0),
        ]

    @pytest.mark.parametrize("cfg", _config_cases(), ids=str)
    def test_slot_accounting_identity(self, cfg):
        # desired and interference dimensions tile the supersymbol exactly
        length = grouped_length(cfg)
        for p in rank_predictions(cfg):
            assert p.length == length
            assert p.desired + p.iui_total + p.igi_total == length
            assert sum(p.per_interferer.values()) == p.iui_total + p.igi_total

    @pytest.mark.parametrize("equipped", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4), (9, 6)])
    def test_combined_and_joint_identities_over_search_space(self, equipped):
        # the combined rank is the IUI plus the IGI rank, and desired plus
        # combined fills the joint rank, which spans every slot
        configs = list(enumerate_configs(SearchSpace(equipped)))
        assert any(cfg.num_groups >= 2 for cfg in configs)
        for cfg in configs:
            length = grouped_length(cfg)
            for p in rank_predictions(cfg):
                assert p.combined == p.iui_total + p.igi_total
                assert p.desired + p.combined == p.joint == p.length == length

    @pytest.mark.parametrize("cfg", _config_cases(), ids=str)
    def test_per_user_dof_sums_to_config_dof(self, cfg):
        values = per_user_dof(cfg)
        assert all(isinstance(v, Fraction) for v in values)
        assert sum(values) == config_sum_dof(cfg)

    def test_example_per_user_values(self, example_config):
        assert per_user_dof(example_config) == [
            Fraction(6, 15),
            Fraction(8, 15),
            Fraction(6, 15),
            Fraction(8, 15),
        ]


class TestReductionRatio:
    def test_four_modes_four_users(self):
        rr = reduction_ratio(4, 4)
        assert rr.flat_slots == 189
        assert rr.grouped_slots == 9
        assert rr.ratio == Fraction(21)

    def test_closed_forms_match_constructions(self):
        rr = reduction_ratio(4, 4)
        assert rr.flat_slots == flat_length([4, 4, 4, 4])
        assert rr.flat_slots == len(base_pattern([4, 4, 4, 4])[0])
        cfg = GroupingConfig.grouped([4, 4, 4, 4], [[0, 1], [2, 3]], [2, 2])
        assert rr.grouped_slots == grouped_length(cfg)
        assert rr.grouped_slots == grouped_pattern(cfg).length

    def test_nine_modes_four_users(self):
        rr = reduction_ratio(9, 4)
        assert rr.flat_slots == 6144
        assert rr.grouped_slots == 64
        assert rr.ratio == Fraction(96)

    def test_ratio_strictly_increases_with_users(self):
        ratios = [reduction_ratio(4, k).ratio for k in (4, 9, 16, 25)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(isinstance(r, Fraction) for r in ratios)

    def test_single_user_has_no_grouping_gain(self):
        rr = reduction_ratio(9, 1)
        assert rr.grouped_slots == rr.flat_slots == 9
        assert rr.ratio == 1

    def test_asymptotic_order_grows(self):
        orders = [reduction_ratio(4, k).asymptotic_order for k in (4, 9, 16, 25)]
        assert all(b > a for a, b in zip(orders, orders[1:]))

    def test_rejects_non_squares(self):
        with pytest.raises(ValueError):
            reduction_ratio(5, 4)
        with pytest.raises(ValueError):
            reduction_ratio(4, 2)
        with pytest.raises(ValueError):
            reduction_ratio(1, 4)

    def test_rejects_non_integers(self):
        # int() would read 4.5 modes as 4
        with pytest.raises(ValueError, match="mode count must be an integer, got 4.5"):
            reduction_ratio(4.5, 4)
        with pytest.raises(ValueError, match="user count must be an integer, got 4.0"):
            reduction_ratio(4, 4.0)


class TestRendering:
    def test_rational(self):
        assert render_rational(Fraction(28, 15)) == "28/15"
        assert render_rational(Fraction(1)) == "1/1"

    def test_decimal_six_significant_digits(self):
        assert render_decimal(Fraction(28, 15)) == "1.86667"
        assert render_decimal(Fraction(2)) == "2"
        assert render_decimal(Fraction(36, 11)) == "3.27273"
