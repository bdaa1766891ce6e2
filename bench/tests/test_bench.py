"""Tests of the benchmark itself: generation, oracle, tracing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts the checkout's src on sys.path)
import biasym.search  # noqa: E402
from biasym import SearchSpace  # noqa: E402
from oracle import Outcome, check  # noqa: E402
from run import CALIBRATION_REF_S, percentile, scaled_passes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FLAT_LARGE, SWEEP_MODES, WORKLOADS, generate, load_golden, sweep_request,
    verify_request, warmup_request,
)

GOLDEN = load_golden()
DIGESTS = GOLDEN["digests"]


def _run(req, tmp_path):
    outcome, _ = worker.execute(req, tmp_path / "out.txt")
    return outcome


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic(workload):
    def snapshot(seed):
        return [(r.kind, r.argv, r.exit_code, r.writes_file, r.expect)
                for r in generate(workload, seed, GOLDEN)]

    assert snapshot(7) == snapshot(7)
    if workload != "sweep-wide":  # its three requests are fixed
        assert snapshot(7) != snapshot(8)


def test_cli_mix_composition():
    kinds = [r.kind for r in generate("cli-mix", 3, GOLDEN)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "pattern": 60, "dof": 60, "verify": 105, "auto": 45, "sweep": 30,
    }


def test_oracle_rejects_a_flipped_rank(tmp_path):
    req = warmup_request()
    outcome = _run(req, tmp_path)
    assert check(req, outcome, DIGESTS) == []
    lines = outcome.stdout.splitlines()
    lines[1] = lines[1].replace("desired 8/8", "desired 7/8")
    flipped = Outcome(outcome.code, "\n".join(lines) + "\n", outcome.stderr, outcome.file_text)
    assert flipped.stdout != outcome.stdout
    assert "rank lines differ from rank_predictions" in check(req, flipped, DIGESTS)


def test_oracle_rejects_an_altered_sweep_row(tmp_path):
    req = sweep_request(SWEEP_MODES, 1, 32, 1, verify_seed=5)
    outcome = _run(req, tmp_path)
    assert check(req, outcome, DIGESTS) == []
    # raise the conventional DoF numerator of the L=15 row by one
    lines = outcome.stdout.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("15,"))
    budget, num, rest = lines[row].split(",", 2)
    lines[row] = f"{budget},{int(num) + 1},{rest}"
    altered = "\n".join(lines) + "\n"
    problems = check(req, Outcome(0, altered, "", None), DIGESTS)
    assert any(p.startswith(f"conv DoF {int(num) + 1}/") for p in problems)
    assert f"digest mismatch for {req.expect['digest']!r}" in problems


def test_generator_wrapper_preserves_configs_and_order():
    space = SearchSpace((6, 6, 4, 4))
    plain = [c.canonical_string() for c in biasym.search.enumerate_configs(space)]
    tracer = Tracer()
    with tracer.installed():
        traced = [c.canonical_string() for c in biasym.search.enumerate_configs(space)]
    assert traced == plain
    assert tracer.calls["search.enumerate_configs"] == 1
    assert tracer.counts["search.enumerate_configs.yielded"] == len(plain)
    assert biasym.search.enumerate_configs is tracer.originals["search.enumerate_configs"]


def test_traced_flat_5555_verify_counts(tmp_path):
    req = verify_request(*FLAT_LARGE, seed=11)
    tracer = Tracer()
    with tracer.installed():
        outcome = _run(req, tmp_path)
    assert check(req, outcome, DIGESTS) == []
    assert tracer.calls["linalg.svd"] == 36
    assert tracer.calls["linalg.lstsq"] == 4
    assert tracer.calls["signal.effective_matrix"] == 48
    assert len(tracer.matrix_builds) == 16
    self_times = tracer.self_times()
    assert self_times["linalg.svd"] > 0.5 * sum(self_times.values())


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracer.self_times() == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([5, 1, 3], 90) == 5
    assert percentile([1, 1, 3, 3, 5, 5], 50) == 3
    assert percentile(range(1, 301), 90) == 270


def test_short_latencies_are_scaled_by_the_calibration_around_them():
    ref = CALIBRATION_REF_S
    latencies = [10.0] * 7 + [2000.0]
    # the host runs at half speed from the end of request 3 on
    calibration = [ref] * 4 + [2 * ref] * 5
    scaled = scaled_passes({"pass_latencies_ms": [latencies, latencies],
                            "pass_calibration_s": [[ref] * 9, calibration]})
    assert scaled[0] == latencies
    assert scaled[1] == pytest.approx([10.0, 10.0, 10.0, 10.0 / 1.5, 5.0, 5.0, 5.0, 2000.0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
