"""Request generation for the three benchmark workloads.

A request is an argv list for ``biasym.cli.main`` plus what the oracle
expects of its output.  The inputs depend only on the workload seed and on
``golden.json`` (the config universe and the output digests recorded from
the program), so every commit is sent the same requests.  Expectations that
need exact DoF arithmetic are computed with the program's own closed-form
functions here, before anything is timed or traced.

Workloads (closed loop, one client, each request sent after the previous
one returns):

* ``verify-flat``: 8 ``verify`` requests, flat (4,4,4,4) x6 (L = 189) and
  flat (5,5,5,5) x2 (L = 512).  Large effective matrices: SVDs and matrix
  assembly do almost all the work and ``search`` does none.
* ``sweep-wide``: 3 ``sweep`` requests without ``--verify``.  ``search``
  does all the work and ``signal`` none; (8,)*6 over 2000 budgets is bound
  by frontier selection, (9,)*8 by enumeration.  Not listed in
  ``BENCHMARK.json``: one pass takes about 20 s, so its latencies are single
  samples per run and too unsteady for the regression bounds; run it with
  ``--trace 1`` to split enumeration from frontier selection.
* ``cli-mix``: 300 short requests on (6,6,4,4) and (6,6,6,4,4,4) configs
  with supersymbol length <= 64.  Fixed per-call costs dominate: argument
  parsing, config validation, pattern and DoF construction, tiny SVDs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from biasym import (
    GroupingConfig,
    SearchSpace,
    config_sum_dof,
    enumerate_configs,
    grouped_length,
    rank_predictions,
)

WORKLOADS = ("verify-flat", "sweep-wide", "cli-mix")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

MIX_MODES = ((6, 6, 4, 4), (6, 6, 6, 4, 4, 4))
MIX_MAX_LENGTH = 64
# per-pass request counts of cli-mix: 20% pattern, 20% dof --per-user,
# 35% verify, 15% dof --groups auto, 10% sweep --verify
MIX_COUNTS = {"pattern": 60, "dof": 60, "verify": 105, "auto": 45, "sweep": 30}
AUTO_BUDGETS = range(10, 65)
SWEEP_MODES = (6, 6, 4, 4)
SWEEP_WIDTH = 32  # cli-mix sweeps cover [lmin, lmin + 31] inside 1..64
SWEEP_WINDOWS = tuple((lo, lo + SWEEP_WIDTH - 1) for lo in range(1, 66 - SWEEP_WIDTH))

FLAT_SMALL = ((4, 4, 4, 4), "KG=1;G1=[4,4,4,4]/MG1;used=4,4,4,4")
FLAT_LARGE = ((5, 5, 5, 5), "KG=1;G1=[5,5,5,5]/MG1;used=5,5,5,5")

# (modes, lmin, lmax, lstep)
WIDE_SWEEPS = (
    ((6, 6, 6, 4, 4, 4), 1, 400, 1),
    ((8,) * 6, 1, 2000, 1),
    ((9,) * 8, 1, 2000, 50),
)

WARMUP_CONFIG = ((6, 6, 4, 4), "KG=2;G1=[6,4]/MG2;G2=[6,4]/MG2;used=6,4,6,4")


@dataclass(frozen=True)
class Request:
    """One CLI call and what its output must satisfy.

    ``writes_file`` appends ``--out <path>``; the oracle then digests that
    file instead of stdout.  ``expect`` holds kind-specific expectations.
    """

    kind: str
    argv: tuple[str, ...]
    exit_code: int = 0
    writes_file: bool = False
    expect: dict = field(default_factory=dict, compare=False)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ======================================================================
# Configs written as canonical strings
# ======================================================================

_GROUP = re.compile(r"G\d+=\[([\d,]+)\]/MG(\d+)")


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def parse_canonical(canon: str):
    """Split 'KG=..;G1=[..]/MG..;..;used=..' into equipped values per group,
    group mode counts and used counts, all in group-major order."""
    parts = canon.split(";")
    groups, mgs = [], []
    for part in parts[1:-1]:
        m = _GROUP.fullmatch(part)
        if m is None:
            raise ValueError(f"bad group field {part!r} in {canon!r}")
        groups.append([int(v) for v in m[1].split(",")])
        mgs.append(int(m[2]))
    if not parts[-1].startswith("used="):
        raise ValueError(f"no used field in {canon!r}")
    used = [int(v) for v in parts[-1][len("used="):].split(",")]
    return groups, mgs, used


def config_from_canonical(modes, canon: str) -> GroupingConfig:
    """The config the CLI builds for these groups of equipped values.

    Users are assigned to group slots the way the CLI maps ``--groups``:
    each equipped value takes the lowest unassigned user index holding it.
    """
    groups, mgs, used_gm = parse_canonical(canon)
    pool: dict[int, list[int]] = {}
    for j, m in enumerate(modes):
        pool.setdefault(int(m), []).append(j)
    index_groups = [[pool[v].pop(0) for v in g] for g in groups]
    used = [0] * len(modes)
    for j, u in zip((j for g in index_groups for j in g), used_gm):
        used[j] = u
    return GroupingConfig.grouped(modes, index_groups, mgs, used)


def config_argv(modes, canon: str) -> list[str]:
    """CLI flags selecting the config written as ``canon``."""
    groups, mgs, _ = parse_canonical(canon)
    cfg = config_from_canonical(modes, canon)
    argv = ["--modes", _join(modes)]
    if len(groups) == 1:
        argv.append("--flat")
    else:
        argv += ["--groups", ",".join(f"[{_join(g)}]" for g in groups), "--mg", _join(mgs)]
    if cfg.used != cfg.equipped:
        argv += ["--used", _join(cfg.used)]
    return argv


# ======================================================================
# Request builders
# ======================================================================

def pattern_request(modes, canon: str) -> Request:
    return Request("pattern", ("pattern", *config_argv(modes, canon)),
                   expect={"digest": f"pattern {canon}"})


def dof_request(modes, canon: str) -> Request:
    cfg = config_from_canonical(modes, canon)
    return Request(
        "dof", ("dof", *config_argv(modes, canon), "--per-user"), writes_file=True,
        expect={"digest": f"dof {canon}", "dof": str(config_sum_dof(cfg)),
                "length": grouped_length(cfg)},
    )


def verify_request(modes, canon: str, seed: int) -> Request:
    cfg = config_from_canonical(modes, canon)
    lines = [
        f"u{p.label[0]}.{p.label[1]}: desired {p.desired}/{p.desired}"
        f" iui {p.iui_total}/{p.iui_total} igi {p.igi_total}/{p.igi_total}"
        f" joint {p.length}/{p.length} ok"
        for p in rank_predictions(cfg)
    ]
    return Request(
        "verify", ("verify", *config_argv(modes, canon), "--seed", str(seed)),
        writes_file=True, expect={"digest": f"alignment {canon}", "rank_lines": lines},
    )


def auto_request(modes, budget: int, entries: list[tuple[Fraction, int]]) -> Request:
    """``entries`` lists (sum DoF, length) of every enumerated config."""
    feasible = [dof for dof, length in entries if length <= budget]
    best = max(feasible) if feasible else None
    return Request(
        "auto", ("dof", "--modes", _join(modes), "--groups", "auto", "--budget", str(budget)),
        exit_code=0 if feasible else 4,
        expect={"dof": None if best is None else str(best), "budget": budget},
    )


def sweep_request(modes, lmin: int, lmax: int, lstep: int = 1,
                  verify_seed: int | None = None) -> Request:
    argv = ["sweep", "--modes", _join(modes), "--lmin", str(lmin), "--lmax", str(lmax)]
    if lstep != 1:
        argv += ["--lstep", str(lstep)]
    if verify_seed is not None:
        argv += ["--verify", "--seed", str(verify_seed)]
    return Request(
        "sweep", tuple(argv),
        expect={"digest": f"sweep {_join(modes)} {lmin} {lmax} {lstep}", "modes": list(modes),
                "budgets": list(range(lmin, lmax + 1, lstep))},
    )


def warmup_request() -> Request:
    return verify_request(*WARMUP_CONFIG, seed=1)


# ======================================================================
# Workloads
# ======================================================================

def _deal(rng: random.Random, pool: list, n: int) -> list:
    """n items dealt from shuffled copies of ``pool``: every item appears
    equally often up to one, so the work per pass barely depends on the seed."""
    out: list = []
    while len(out) < n:
        deck = list(pool)
        rng.shuffle(deck)
        out.extend(deck)
    return out[:n]


def _channel_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def verify_flat(rng: random.Random) -> list[Request]:
    specs = [FLAT_SMALL] * 6 + [FLAT_LARGE] * 2
    rng.shuffle(specs)
    return [verify_request(modes, canon, _channel_seed(rng)) for modes, canon in specs]


def sweep_wide() -> list[Request]:
    return [sweep_request(*spec) for spec in WIDE_SWEEPS]


def _entries(modes) -> list[tuple[Fraction, int]]:
    return [(config_sum_dof(c), grouped_length(c)) for c in enumerate_configs(SearchSpace(modes))]


def cli_mix(rng: random.Random, golden: dict) -> list[Request]:
    universe = [
        (modes, canon)
        for modes in MIX_MODES
        for canon in golden["configs"][_join(modes)]
    ]
    entries = {modes: _entries(modes) for modes in MIX_MODES}
    # auto requests are split evenly by user count: six-user enumeration
    # costs about ten times the four-user one
    n_auto = MIX_COUNTS["auto"]
    autos = (
        [(MIX_MODES[0], b) for b in _deal(rng, list(AUTO_BUDGETS), n_auto - n_auto // 2)]
        + [(MIX_MODES[1], b) for b in _deal(rng, list(AUTO_BUDGETS), n_auto // 2)]
    )
    draws = {
        "pattern": iter(_deal(rng, universe, MIX_COUNTS["pattern"])),
        "dof": iter(_deal(rng, universe, MIX_COUNTS["dof"])),
        "verify": iter(_deal(rng, universe, MIX_COUNTS["verify"])),
        "auto": iter(autos),
        "sweep": iter(_deal(rng, list(SWEEP_WINDOWS), MIX_COUNTS["sweep"])),
    }
    kinds = [kind for kind, n in MIX_COUNTS.items() for _ in range(n)]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        item = next(draws[kind])
        if kind == "pattern":
            requests.append(pattern_request(*item))
        elif kind == "dof":
            requests.append(dof_request(*item))
        elif kind == "verify":
            requests.append(verify_request(*item, seed=_channel_seed(rng)))
        elif kind == "auto":
            modes, budget = item
            requests.append(auto_request(modes, budget, entries[modes]))
        else:
            lmin, lmax = item
            requests.append(sweep_request(SWEEP_MODES, lmin, lmax, 1, _channel_seed(rng)))
    return requests


def generate(workload: str, seed: int, golden: dict) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "verify-flat":
        return verify_flat(rng)
    if workload == "sweep-wide":
        return sweep_wide()
    if workload == "cli-mix":
        return cli_mix(rng, golden)
    raise ValueError(f"unknown workload {workload!r}")
