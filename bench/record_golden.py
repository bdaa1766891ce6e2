"""Record ``golden.json``: the cli-mix config universe and output digests.

Run from the root of a checkout whose outputs define correctness (the
benchmark's digests must not follow later changes of the program):

    python3 bench/record_golden.py

The universe is every config of (6,6,4,4) and (6,6,6,4,4,4) with
supersymbol length <= 64 that the CLI can name with ``--groups``/``--used``.
A digest is recorded for each byte-fixed v1 output any workload can
request: pattern tables, alignment CSVs and dof files per config, and sweep
CSVs per budget range.  Every recorded output must also pass the oracle.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker  # puts the checkout's src on sys.path
from biasym import SearchSpace, enumerate_configs, grouped_length
from oracle import check, digest, digested_output
from workloads import (
    FLAT_LARGE, FLAT_SMALL, GOLDEN_PATH, MIX_MAX_LENGTH, MIX_MODES, SWEEP_MODES,
    SWEEP_WINDOWS, WIDE_SWEEPS, config_from_canonical, dof_request, pattern_request,
    sweep_request, verify_request,
)


def universe(modes) -> list[str]:
    """Canonical strings of the configs the CLI reproduces exactly."""
    out = []
    for cfg in enumerate_configs(SearchSpace(modes)):
        canon = cfg.canonical_string()
        if grouped_length(cfg) > MIX_MAX_LENGTH:
            continue
        try:
            if config_from_canonical(modes, canon).canonical_string() == canon:
                out.append(canon)
        except ValueError:
            pass
    return sorted(out)


def main() -> int:
    configs = {",".join(map(str, modes)): universe(modes) for modes in MIX_MODES}
    requests = [
        build(modes, canon)
        for modes in MIX_MODES
        for canon in configs[",".join(map(str, modes))]
        for build in (pattern_request, dof_request, lambda m, c: verify_request(m, c, 1))
    ]
    requests += [verify_request(modes, canon, 1) for modes, canon in (FLAT_SMALL, FLAT_LARGE)]
    requests += [sweep_request(SWEEP_MODES, lo, hi) for lo, hi in SWEEP_WINDOWS]
    requests += [sweep_request(*spec) for spec in WIDE_SWEEPS]

    digests: dict[str, str] = {}
    outcomes = []
    with tempfile.TemporaryDirectory(dir=GOLDEN_PATH.parent) as scratch:
        for req in requests:
            outcome, _ = worker.execute(req, Path(scratch) / "out.txt")
            digests[req.expect["digest"]] = digest(digested_output(req, outcome) or "")
            outcomes.append((req, outcome))
    bad = [(req.argv, p) for req, outcome in outcomes if (p := check(req, outcome, digests))]
    if bad:
        for argv, problems in bad:
            print(" ".join(argv), problems, file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"configs": configs, "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"{sum(map(len, configs.values()))} configs, {len(digests)} digests -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
