"""The suite's own settings and the benchmark's oracle, run from tier-1.

The benchmark in ``bench/`` checks every request it sends against its
oracle and the digests in ``bench/golden.json``; these tests send one pass
of each gated workload through the same code, read-only, so a change that
breaks the benchmark's outputs fails here first.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GATED = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


def test_a_failing_property_test_fails_alone(tmp_path):
    # hypothesis explains a failing @given test through libcst, whose import
    # warns of a deprecated name; under the suite's warning filters that must
    # fail the one test, not abort the session before the next one runs
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


@pytest.mark.parametrize("workload", GATED)
def test_one_pass_of_each_gated_workload_passes_the_bench_oracle(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    workloads, oracle, worker = map(importlib.import_module, ("workloads", "oracle", "worker"))
    golden = workloads.load_golden()
    requests = workloads.generate(workload, 1, golden)
    problems = []
    for req in requests:
        outcome, _ = worker.execute(req, tmp_path / "out.txt")
        problems += oracle.check(req, outcome, golden["digests"])
    assert requests and problems == []
