"""Command line behavior: exit codes, determinism, config merging."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasym import (
    GroupingConfig,
    SearchSpace,
    SweepResult,
    draw_channels,
    grouped_pattern,
    sweep,
    sweep_to_csv,
)
from biasym.cli import _CONVERT, RunConfig, main
from biasym.signal import receiver_memory_bytes

EXAMPLE = ["--modes", "6,6,4,4", "--groups", "[6,4],[6,4]", "--mg", "2,2"]
SWEEP_6644 = ["--modes", "6,6,4,4", "--lmin", "5", "--lmax", "16"]


def distinct_winners(modes, budgets) -> list[str]:
    """Canonical strings of a sweep's distinct winners in row order, conventional first."""
    rows = sweep(SearchSpace(modes), budgets).rows
    winners = (e.config.canonical_string() for r in rows for e in (r.conventional, r.grouped) if e)
    return list(dict.fromkeys(winners))


class TestExitCodes:
    def test_verify_clean(self, capsys):
        assert main(["verify", *EXAMPLE, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "result: OK" in out

    def test_invalid_config_is_2(self, capsys):
        assert main(["pattern", "--modes", "6,6,4,4", "--groups",
                     "[6,6],[4,4]", "--mg", "2,2"]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("groups,mg,message", [
        ("[6,6],[6,4]", "2,2", "no unassigned user with equipped mode count 6"),
        ("[6,4]", "2", "groups must cover every user exactly once"),
    ], ids=["count-used-up", "user-left-over"])
    def test_groups_that_miss_the_equipped_users_are_2(self, groups, mg, message, capsys):
        assert main(["dof", "--modes", "6,6,4,4", "--groups", groups, "--mg", mg]) == 2
        captured = capsys.readouterr()
        assert f"invalid config: {message}" in captured.err
        assert captured.out == ""

    def test_unknown_command_is_2(self):
        assert main([]) == 2

    def test_coherence_violation_is_3(self, capsys):
        assert main(["verify", *EXAMPLE, "--seed", "1", "--coherence", "5"]) == 3
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("coherence", ["9223372036854775808", "1000000000000000000000"])
    def test_coherence_past_int64_is_the_whole_supersymbol(self, coherence, capsys):
        argv = ["verify", "--modes", "4,4", "--flat"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--coherence", coherence]) == 0
        assert capsys.readouterr().out == expected

    def test_sweep_without_feasible_config_is_4(self, capsys):
        assert main(["sweep", "--modes", "6,6,4,4", "--lmin", "2", "--lmax", "4"]) == 4
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_negative_or_nan_noise_is_2(self, noise, capsys):
        for extra in ([], ["--coherence", "5"]):
            argv = ["verify", "--modes", "6,6,4,4", "--flat", "--noise", noise, *extra]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "invalid config" in captured.err
            assert captured.out == ""

    def test_overflowing_noise_does_not_report_zero_error(self, capsys):
        # finite, but the samples overflow: a NaN error must reach the report
        # and fail the run, whatever the noise level
        assert main(["verify", *EXAMPLE, "--noise", "1e308"]) == 3
        out = capsys.readouterr().out
        assert "decode: max relative error 0.000e+00" not in out
        assert "result: MISMATCH" in out

    @pytest.mark.parametrize("argv, error", [
        (["--modes", "2,2", "--flat", "--noise", "1e308"], "nan"),
        ([*EXAMPLE, "--seed", "1", "--noise", "1e200"], "inf"),
    ], ids=["flat-1e308", "example-1e200"])
    def test_huge_finite_noise_fails_without_warnings(self, argv, error, capsys):
        # overflowed samples and error norms are the decode's answer: exit 3,
        # nothing on stderr (a RuntimeWarning is an error under this suite)
        assert main(["verify", *argv]) == 3
        captured = capsys.readouterr()
        assert f"decode: max relative error {error}\nresult: MISMATCH\n" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("lmin,lmax,lstep", [("20", "10", "1"), ("10", "20", "0"),
                                                 ("10", "20", "-1")])
    def test_bad_sweep_range_is_2(self, lmin, lmax, lstep, capsys):
        assert main(["sweep", "--modes", "6,6,4,4", "--lmin", lmin, "--lmax", lmax,
                     "--lstep", lstep]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_auto_grouping_infeasible_budget_is_4(self, capsys):
        assert main(["dof", "--modes", "6,6,4,4", "--groups", "auto",
                     "--budget", "3"]) == 4
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dof", "--modes", "4,4", "--groups", "auto", "--budget", "-3"],
        ["dof", "--modes", "4,4", "--groups", "auto", "--budget", "0"],
        ["sweep", "--modes", "4,4", "--lmin", "0", "--lmax", "3"],
    ], ids=["auto-negative", "auto-zero", "sweep-zero"])
    def test_budget_below_one_is_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid config: every length budget must be >= 1" in captured.err
        assert captured.out == ""
        # a budget of 1 is valid, though nothing fits it
        assert main(["dof", "--modes", "4,4", "--groups", "auto", "--budget", "1"]) == 4

    def test_verify_over_memory_limit_is_2_before_building(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("channels must not be drawn")

        # flat (5,5,5,5) needs about 0.89 MiB per receiver
        monkeypatch.setattr("biasym.cli.VERIFY_MEMORY_LIMIT", 2**19)
        monkeypatch.setattr("biasym.cli.draw_channels", refuse)
        assert main(["verify", "--modes", "5,5,5,5", "--flat"]) == 2
        captured = capsys.readouterr()
        assert "invalid config: verify needs about" in captured.err
        assert captured.out == ""

    def test_verify_of_a_huge_mode_count_is_2(self, capsys):
        # the estimate's cost does not grow with the mode counts
        assert main(["verify", "--modes", "1000000000000,4", "--flat"]) == 2
        captured = capsys.readouterr()
        assert "invalid config: verify needs about" in captured.err
        assert captured.out == ""

    def test_pattern_over_cell_limit_is_2_before_building(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the pattern must not be built")

        # flat (5,5,5,5) has 512 slots, 2048 cells
        monkeypatch.setattr("biasym.cli.PATTERN_CELL_LIMIT", 2047)
        monkeypatch.setattr("biasym.cli.grouped_pattern", refuse)
        assert main(["pattern", "--modes", "5,5,5,5", "--flat"]) == 2
        captured = capsys.readouterr()
        assert "invalid config: pattern table has 2048 cells" in captured.err
        assert captured.out == ""
        monkeypatch.setattr("biasym.cli.PATTERN_CELL_LIMIT", 2048)
        with pytest.raises(AssertionError, match="must not be built"):
            main(["pattern", "--modes", "5,5,5,5", "--flat"])

    def test_verify_memory_limit_counts_short_coherence(self, monkeypatch, capsys):
        # a fading block shorter than L keeps every interfering column, so the
        # limit that admits the ideal run refuses this one
        def refuse(*args, **kwargs):
            raise AssertionError("channels must not be drawn")

        limit = receiver_memory_bytes(GroupingConfig.flat([5, 5, 5, 5]))
        monkeypatch.setattr("biasym.cli.VERIFY_MEMORY_LIMIT", limit)
        monkeypatch.setattr("biasym.cli.draw_channels", refuse)
        assert main(["verify", "--modes", "5,5,5,5", "--flat", "--coherence", "100"]) == 2
        assert "invalid config: verify needs about" in capsys.readouterr().err
        with pytest.raises(AssertionError, match="channels must not be drawn"):
            main(["verify", "--modes", "5,5,5,5", "--flat"])

    def test_sweep_verify_over_memory_limit_is_2_before_verifying(self, monkeypatch, capsys):
        # the one budget admits flat (4,)*11 (L = 826686), whose receivers
        # would need about 4.5 GiB: verify refuses it, and so must sweep
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be verified")

        monkeypatch.setattr("biasym.cli.draw_channels", refuse)
        modes = ",".join(["4"] * 11)
        argv = ["--modes", modes, "--lmin", "826686", "--lmax", "826686"]
        assert main(["sweep", *argv, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "invalid config: verify needs about 4.51 GiB" in captured.err
        assert captured.out == ""
        assert main(["verify", "--modes", modes, "--flat"]) == 2
        assert "invalid config: verify needs about 4.51 GiB" in capsys.readouterr().err
        assert main(["sweep", *argv]) == 0  # without --verify the sweep is cheap
        assert f"KG=1;G1=[{modes}]/MG1;used={modes}" in capsys.readouterr().out

    def test_sweep_verify_mismatch_is_3(
        self, example_config, misaligned_pattern, monkeypatch, tmp_path, capsys
    ):
        # the L = 15 grouped winner is the example; rebuild it out of step
        example = example_config.canonical_string()
        assert example in distinct_winners((6, 6, 4, 4), range(5, 17))

        def pattern_of(config):
            if config.canonical_string() == example:
                return misaligned_pattern
            return grouped_pattern(config)

        monkeypatch.setattr("biasym.cli.grouped_pattern", pattern_of)
        assert main(["sweep", *SWEEP_6644, "--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"verification mismatch for: {example}\n"
        assert captured.out == ""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *SWEEP_6644, "--verify", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"verification mismatch for: {example}\n"
        assert not out.exists()

    def test_sweep_verify_checks_each_winner_once_at_seed(self, monkeypatch):
        calls = []

        def spy(config, coherence, seed):
            calls.append((config.canonical_string(), coherence, seed))
            return draw_channels(config, coherence, seed)

        monkeypatch.setattr("biasym.cli.draw_channels", spy)
        assert main(["sweep", *SWEEP_6644, "--verify", "--seed", "4"]) == 0
        winners = distinct_winners((6, 6, 4, 4), range(5, 17))
        assert len(winners) >= 3
        assert calls == [(c, None, 4) for c in winners]

    def test_sweep_over_row_limit_is_2_before_enumerating(self, monkeypatch, capsys):
        def no_rows(space, budgets):
            assert len(budgets) == 2**20
            return SweepResult(rows=())

        monkeypatch.setattr("biasym.cli.sweep", no_rows)
        assert main(["sweep", "--modes", "4,4", "--lmin", "1", "--lmax", str(2**20 + 1)]) == 2
        captured = capsys.readouterr()
        assert "invalid config: sweep has 1048577 budgets, above the 1048576 limit" in captured.err
        assert main(["sweep", "--modes", "4,4", "--lmin", "1", "--lmax", "100000000"]) == 2
        assert "invalid config: sweep has" in capsys.readouterr().err
        # at the limit the sweep runs: no rows here, so no feasible config
        assert main(["sweep", "--modes", "4,4", "--lmin", "2", "--lmax", str(2**20 + 1)]) == 4

    @pytest.mark.parametrize("argv", [
        ["dof", "--modes", "3,3", "--used", "3"],
        ["verify", "--modes", "4,4", "--flat", "--used", "4"],
        ["dof", "--modes", "4,4", "--groups", "[4],[4]", "--mg", "2,2", "--used", "4"],
    ], ids=["dof", "verify-flat", "dof-grouped"])
    def test_used_list_shorter_than_modes_is_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid config" in captured.err
        assert captured.out == ""

    def test_missing_modes_is_2(self, capsys):
        assert main(["dof"]) == 2

    def test_bad_config_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["dof", "--config", str(path)]) == 2
        path2 = tmp_path / "unknown.json"
        path2.write_text(json.dumps({"modes": [4, 4], "bogus": 1}), encoding="utf-8")
        assert main(["dof", "--config", str(path2)]) == 2


class TestInputConversion:
    """Flag text and config-file values go through one conversion per field."""

    def test_one_converter_per_run_parameter(self):
        assert set(_CONVERT) == {f.name for f in fields(RunConfig)} - {"command"}

    @pytest.mark.parametrize("command,values", [
        ("dof", {"modes": 5}),
        ("verify", {"modes": [6, 6, 4, 4], "flat": True, "seed": "abc"}),
        ("verify", {"modes": [6, 6, 4, 4], "flat": True, "coherence": "x"}),
        ("dof", {"modes": [6, 6, 4, 4], "flat": 1}),
        ("dof", {"modes": [6, 6, 4, 4], "flat": True, "out": 5}),
    ], ids=["modes-int", "seed-text", "coherence-text", "flat-int", "out-int"])
    def test_wrong_typed_config_value_is_2(self, command, values, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "invalid config" in captured.err
        assert captured.out == ""

    def test_groups_that_are_not_lists_are_2(self, capsys):
        assert main(["pattern", "--modes", "6,6,4,4", "--groups", "5", "--mg", "2,2"]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["dof", "--config", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--modes", "6,6,4,4", "--lmin", "5", "--lmax", "9", "--groups", "auto"],
        ["sweep", "--modes", "6,6,4,4", "--lmin", "5", "--lmax", "9", "--budget", "9"],
        ["pattern", "--modes", "6,6,4,4", "--flat", "--seed", "1"],
        ["dof", "--modes", "6,6,4,4", "--flat", "--seed", "1"],
    ])
    def test_flag_the_subcommand_does_not_read_is_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    @pytest.mark.parametrize("command", [
        ["verify", *EXAMPLE],
        ["sweep", *SWEEP_6644, "--verify"],
    ], ids=["verify", "sweep-verify"])
    def test_negative_seed_is_2_before_anything_runs(
        self, command, source, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may run")

        for name in ("sweep", "optimize", "grouped_pattern", "draw_channels"):
            monkeypatch.setattr(f"biasym.cli.{name}", refuse)
        argv = list(command)
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "file":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            argv += ["--config", str(path)]
        else:
            monkeypatch.setenv("BIASYM_SEED", "-1")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid config: seed: expected a non-negative integer, got -1" in captured.err
        assert captured.out == ""

    def test_seed_zero_is_accepted(self, capsys):
        assert main(["verify", *EXAMPLE, "--seed", "0"]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_conversion_error_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"modes": [6, 6, 4, 4], "flat": True, "seed": "abc"}),
                        encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        assert "invalid config: seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(_CONVERT))
    def test_any_json_value_of_a_field_exits_with_a_code(
        self, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # an "out" value writes a file here
        path = tmp_path / "run.json"
        for value in (None, True, False, 0, -1, 1.5, "x", "", [], {}):
            for command in ("pattern", "verify", "dof", "sweep"):
                # a sweep gets a range, so that its other fields are read too
                base = {"modes": [4, 4], **({"lmin": 1, "lmax": 20} if command == "sweep" else {})}
                path.write_text(json.dumps({**base, name: value}), encoding="utf-8")
                assert main([command, "--config", str(path)]) in (0, 2, 3, 4), (command, value)
        capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(
        f.name for f in fields(RunConfig) if f.name != "command" and f.default is not None
    ))
    def test_null_is_2_for_a_field_that_defaults_to_a_value(self, name, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"modes": [4, 4], name: None}), encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"invalid config: {name}: expected " in captured.err
        assert captured.out == ""

    def test_null_keeps_the_default_of_a_field_that_defaults_to_none(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"modes": [6, 6, 4, 4], "flat": True, "used": None,
                                    "budget": None, "out": None, "coherence": None}),
                        encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["verify", "--modes", "6,6,4,4", "--flat"]) == 0
        assert from_file == capsys.readouterr().out

    def test_unreadable_config_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        assert main(["dof", "--config", str(path)]) == 2
        assert f"invalid config: config file {path}: Expecting value" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--flat", "--budget", "3"],
        ["--groups", "[6,4],[6,4]", "--mg", "2,2", "--flat"],
        ["--groups", "auto", "--used", "3,2,2,2"],
        ["--groups", "auto", "--mg", "2,2"],
        ["--mg", "2,2"],
        ["--groups", "auto", "--flat"],
    ], ids=["flat-budget", "flat-groups", "auto-used", "auto-mg", "mg-alone", "auto-flat"])
    def test_parameter_the_config_form_ignores_is_2(self, extra, capsys):
        assert main(["dof", "--modes", "6,6,4,4", *extra]) == 2
        captured = capsys.readouterr()
        assert "invalid config" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field,extra", [
        ("modes", ["--modes", "6,,4,4", "--flat"]),
        ("modes", ["--modes", "6,6,4,4,", "--flat"]),
        ("modes", ["--modes", ""]),
        ("used", ["--modes", "6,6,4,4", "--flat", "--used", "4,3,,2,2"]),
        ("mg", ["--modes", "6,6,4,4", "--groups", "[6,4],[6,4]", "--mg", "2,,2"]),
    ], ids=["inner", "trailing", "empty", "used", "mg"])
    def test_empty_list_item_is_2(self, field, extra, capsys):
        assert main(["dof", *extra]) == 2
        captured = capsys.readouterr()
        assert f"invalid config: {field}" in captured.err
        assert captured.out == ""

    def test_config_file_switch_survives_unset_flag(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"modes": [6, 6, 4, 4], "per_user": True}), encoding="utf-8")
        assert main(["dof", "--config", str(path), "--flat"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5


@st.composite
def dof_arguments(draw):
    """``dof`` run parameters, valid or not: modes, a config form, maybe --used."""
    modes = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))
    argv = ["dof", "--modes", ",".join(map(str, modes))]
    form = draw(st.sampled_from(["flat", "groups", "auto"]))
    if form == "flat":
        argv.append("--flat")
    elif form == "groups":
        # the modes dealt round-robin into groups, so the values name real users
        n = draw(st.integers(1, len(modes)))
        groups = ",".join(str(modes[i::n]).replace(" ", "") for i in range(n))
        mg = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))
        argv += ["--groups", groups, "--mg", ",".join(map(str, mg))]
    else:
        argv += ["--groups", "auto", "--budget", str(draw(st.integers(1, 200)))]
    used = draw(st.none() | st.lists(st.integers(0, 7), max_size=5))
    if used is not None:
        argv.append("--used=" + ",".join(map(str, used)))
    return argv


@settings(max_examples=150, deadline=None)
@given(dof_arguments())
def test_malformed_run_parameters_exit_cleanly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in {0, 2, 4}


class TestDofCommand:
    def test_grouped_example_line(self, capsys):
        assert main(["dof", *EXAMPLE]) == 0
        assert capsys.readouterr().out == "28/15 (1.866667), length 15\n"

    def test_flat_six_users(self, capsys):
        assert main(["dof", "--modes", "6,6,6,6,6,6", "--flat"]) == 0
        assert capsys.readouterr().out == "36/11 (3.272727), length 34375\n"

    def test_single_user(self, capsys):
        assert main(["dof", "--modes", "4"]) == 0
        assert capsys.readouterr().out == "1/1 (1.000000), length 4\n"

    def test_per_user_lines(self, capsys):
        assert main(["dof", *EXAMPLE, "--per-user"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "u1.1: 2/5 (0.400000)"
        assert lines[2] == "u2.1: 8/15 (0.533333)"

    def test_sixteen_users_auto_grouping_at_budget_25(self, capsys):
        start = time.perf_counter()
        assert main(["dof", "--modes", ",".join("4" * 16), "--groups", "auto",
                     "--budget", "25"]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == "64/25 (2.560000), length 25\n"

    def test_sixteen_nine_mode_users_auto_grouping_at_budget_25(self, capsys):
        # the budget prunes the search before it builds anything longer
        start = time.perf_counter()
        assert main(["dof", "--modes", ",".join("9" * 16), "--groups", "auto",
                     "--budget", "25"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == "64/25 (2.560000), length 25\n"

    @pytest.mark.parametrize("budget,line", [
        (25, "12/5 (2.400000), length 20"),
        (40, "88/35 (2.514286), length 35"),
        (64, "8/3 (2.666667), length 60"),
        (100, "232/85 (2.729412), length 85"),
        (300, "209/70 (2.985714), length 280"),
        (1000, "10/3 (3.333333), length 972"),
    ])
    def test_twelve_distinct_composites_auto_grouping_answers(self, capsys, budget, line):
        # one class of these modes within 300 slots holds over a million
        # configs: the search ranks classes by their counts and builds winners
        start = time.perf_counter()
        assert main(["dof", "--modes", "4,6,8,9,10,12,14,15,16,18,20,21",
                     "--groups", "auto", "--budget", str(budget)]) == 0
        assert time.perf_counter() - start < 3
        assert capsys.readouterr().out == line + "\n"

    def test_unbounded_auto_search_over_the_limit_is_2(self, capsys):
        start = time.perf_counter()
        assert main(["dof", "--modes", ",".join("9" * 16), "--groups", "auto"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the 65536 limit" in captured.err


class TestOutputFiles:
    def test_pattern_table_versioned_header(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["pattern", *EXAMPLE, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "# biasym pattern table v1"
        assert lines[1] == "slot,u1.1,u2.1,u1.2,u2.2"

    def test_outputs_byte_identical_for_same_seed(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["sweep", "--modes", "6,6,4,4", "--lmin", "5",
                         "--lmax", "20", "--seed", "3", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        reports = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for p in reports:
            assert main(["verify", *EXAMPLE, "--seed", "5", "--out", str(p)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_verify_report_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify", *EXAMPLE, "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "# biasym alignment report v1"
        assert lines[2].startswith("u1.1,6,6,4,4,5,5,15,15,true")

    def test_verify_to_unwritable_path_prints_nothing(self, tmp_path, capsys):
        # the report is written before any line is printed: no half report
        out = tmp_path / "missing" / "report.csv"
        assert main(["verify", *EXAMPLE, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid config: [Errno 2]")

    def test_sweep_rows_re_derivable_from_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--modes", "6,6,4,4", "--lmin", "5", "--lmax",
                     "25", "--out", str(out)]) == 0
        expected = sweep_to_csv(sweep(SearchSpace((6, 6, 4, 4)), range(5, 26)))
        assert out.read_text(encoding="utf-8") == expected

    def test_sweep_with_verification_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--modes", "6,6,4,4", "--lmin", "5", "--lmax",
                     "16", "--verify", "--seed", "1", "--out", str(out)]) == 0
        assert out.exists()


class TestConfigMerging:
    def test_config_file_supplies_everything(self, tmp_path, capsys):
        cfg = {
            "modes": [6, 6, 4, 4],
            "groups": [[6, 4], [6, 4]],
            "mg": [2, 2],
            "seed": 1,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["dof", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "28/15 (1.866667), length 15\n"

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = {"modes": [6, 6, 4, 4], "flat": True}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["dof", "--config", str(path), "--modes", "3,2"]) == 0
        assert capsys.readouterr().out == "7/5 (1.400000), length 5\n"

    def test_seed_resolution_order(self, tmp_path, capsys, monkeypatch):
        # env var fills in when neither flag nor file sets a seed
        monkeypatch.setenv("BIASYM_SEED", "7")
        assert main(["verify", *EXAMPLE]) == 0
        from_env = capsys.readouterr().out
        monkeypatch.delenv("BIASYM_SEED")
        assert main(["verify", *EXAMPLE, "--seed", "7"]) == 0
        assert capsys.readouterr().out == from_env
        cfg = {"seed": 7}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["verify", *EXAMPLE, "--config", str(path)]) == 0
        assert capsys.readouterr().out == from_env


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biasym.cli", "dof", *EXAMPLE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "28/15 (1.866667), length 15\n"
