"""Shared fixtures: the four-user mixed-mode example used throughout.

Two users with 6 preset modes and two with 4 are paired into two groups of
(6, 4) with group mode count 2, giving element counts (3, 2) and a 15-slot
supersymbol.  Most rank and decode math has hand-checkable numbers here.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from biasym import GroupingConfig, build_streams, grouped_pattern

CRITERIA = {
    1: "pattern goldens reproduced exactly (string equality)",
    2: "worked-example measured ranks (6, 4, 3+2) and joint 15 across 10 seeds",
    3: "sum DoF 28/15 exact; per-user 6/15, 8/15, 6/15, 8/15 sum to it",
    4: "predicted ranks equal measured ranks on >= 20 sampled configs",
    5: "noiseless decode round trip < 1e-9 incl. subtraction-schedule row",
    6: "length formulas equal constructed lengths; 34375 and 15 anchors",
    7: "length reduction ratio 21 via closed forms and constructions",
    8: "six-user maxima 36/11 (conventional) and 12/5 (grouped)",
    9: "budget sweep frontiers match frozen tables; strict band reported",
    10: "coherence violation breaks alignment in all 10 seeded runs",
}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    n = int(match.group(1))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\ncriterion {n:2d}: {verdict} - {CRITERIA.get(n, '')}", flush=True)


def matrix_rank(matrix: np.ndarray) -> int:
    """Oracle: dense numerical rank, cutoff max(shape) * largest singular value * 1e-10.

    Written without the library, so that tests comparing its rank verdicts
    against dense matrices stay independent of the code under test.
    """
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > max(matrix.shape) * s[0] * 1e-10))


@pytest.fixture(scope="session")
def example_config() -> GroupingConfig:
    return GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2])


@pytest.fixture(scope="session")
def example_pattern(example_config):
    return grouped_pattern(example_config)


@pytest.fixture(scope="session")
def example_placement(example_pattern):
    return build_streams(example_pattern)
