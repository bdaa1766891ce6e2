"""Shared fixtures: the four-user mixed-mode example used throughout.

Two users with 6 preset modes and two with 4 are paired into two groups of
(6, 4) with group mode count 2, giving element counts (3, 2) and a 15-slot
supersymbol.  Most rank and decode math has hand-checkable numbers here.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from biasym import GroupingConfig, grouped_pattern

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


# Oracles below read only raw data: a pattern's two level sequences and its
# stream slots, and ChannelSet.gains with its coherence_length.  None goes
# through the library's block assembly or its per-slot mode arrays.

def factored(pattern, u: int) -> str:
    """User u's schedule written as '(element sequence)x(group sequence)'."""
    m1 = ",".join(str(m) for m in pattern.element_seq[u])
    m2 = ",".join(str(m) for m in pattern.group_seq[u])
    return f"({m1})x({m2})"


def composite(pattern, u: int, t: int) -> tuple[int, int]:
    """User u's (m1, m2) mode pair at 1-based slot t: the element sequence
    repeats once per group-level slot, so it runs fastest."""
    s2, s1 = divmod(t - 1, len(pattern.element_seq[u]))
    return int(pattern.element_seq[u][s1]), int(pattern.group_seq[u][s2])


def physical(pattern, u: int, t: int) -> int:
    """User u's 1-based physical preset mode at 1-based slot t, (m2 - 1) * M1
    + m1, with M1 its element mode count, the largest mode of its element
    sequence."""
    m1, m2 = composite(pattern, u, t)
    return (m2 - 1) * int(max(pattern.element_seq[u])) + m1


def composite_seq(pattern, u: int) -> tuple[tuple[int, int], ...]:
    """User u's (m1, m2) mode pair at every slot, expanded slot by slot."""
    slots = len(pattern.element_seq[u]) * len(pattern.group_seq[u])
    return tuple(composite(pattern, u, t) for t in range(1, slots + 1))


def physical_seq(pattern, u: int) -> tuple[int, ...]:
    """User u's physical preset mode at every slot, expanded slot by slot."""
    slots = len(pattern.element_seq[u]) * len(pattern.group_seq[u])
    return tuple(physical(pattern, u, t) for t in range(1, slots + 1))


def channel_row(channels, rx: int, tx: int, t: int, mode: int) -> np.ndarray:
    """Channel row rx sees in 1-based preset ``mode`` from tx at 1-based slot t."""
    return channels.gains[(rx, tx)][(t - 1) // channels.coherence_length, mode - 1, :]


def effective_block(pattern, channels, rx: int, tx: int) -> np.ndarray:
    """Dense effective matrix mapping tx's symbol vectors to rx's samples.

    Shape (supersymbol length, tx streams * tx used modes), filled slot by
    slot: row t holds, in the columns of stream s, the channel row rx sees
    from tx at slot t if the stream occupies it, and zeros otherwise.
    """
    streams = pattern.streams[tx]
    dim = streams.shape[1]
    block = np.zeros((pattern.length, streams.size), dtype=complex)
    for s, slots in enumerate(streams):
        for t in slots + 1:
            mode = physical(pattern, rx, t)
            block[t - 1, s * dim:(s + 1) * dim] = channel_row(channels, rx, tx, t, mode)
    return block


def reference_streams(pattern) -> list[np.ndarray]:
    """Oracle: every user's stream slots, scanned off the built sequences.

    A level's family is its distinct sequences in user order, and a user's
    mode count is its largest mode, the final one it holds.  Within a level,
    slot t joins user k's stream keyed by the other users' modes at t,
    unless one of them holds its final mode there.  A two-level stream pairs
    a group-level stream (outer) with an element-level one, keys ascending,
    and takes the element slots inside each of its group slots.
    """
    def scan(family, seq) -> list[list[int]]:
        others = [s for s in family if s != seq]
        finals = [max(s) for s in others]
        slots: dict[tuple, list[int]] = {}
        for t in range(len(seq)):
            key = tuple(s[t] for s in others)
            if all(m < final for m, final in zip(key, finals)):
                slots.setdefault(key, []).append(t)
        return [slots[key] for key in sorted(slots)]

    element_rows = [tuple(row) for row in pattern.element_seq.tolist()]
    group_rows = [tuple(row) for row in pattern.group_seq.tolist()]
    elements, groups = list(dict.fromkeys(element_rows)), list(dict.fromkeys(group_rows))
    out = []
    for element, group in zip(element_rows, group_rows):
        l1 = len(element)
        m1, m2 = scan(elements, element), scan(groups, group)
        out.append(np.array(
            [sorted(s2 * l1 + s1 for s2 in b for s1 in a) for b in m2 for a in m1],
            dtype=np.intp,
        ))
    return out


@pytest.fixture(scope="session")
def example_config() -> GroupingConfig:
    return GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2])


@pytest.fixture(scope="session")
def example_pattern(example_config):
    return grouped_pattern(example_config)


@pytest.fixture(scope="session")
def misaligned_pattern(example_pattern):
    """The example with u2.2's group-level sequence out of step with its group."""
    group_seq = example_pattern.group_seq.copy()
    group_seq[3] = (1, 2, 1)
    group_seq.flags.writeable = False
    return replace(example_pattern, group_seq=group_seq)
