"""Command line front end.

Subcommands construct patterns, verify alignment numerically, evaluate
DoF, and sweep length budgets.  Exit codes: 0 success, 2 invalid
configuration, 3 verification mismatch, 4 no feasible configuration.
All computation happens in the library modules; the CLI only parses,
dispatches, and renders.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dof import config_sum_dof, per_user_dof, render_rational
from .patterns import GroupingConfig, grouped_length, grouped_pattern, pattern_table
from .search import SearchSpace, optimize, sweep, sweep_to_csv, verify_sweep
from .signal import (
    build_streams,
    draw_channels,
    random_symbols,
    receiver_memory_bytes,
    report_to_csv,
    verify_receivers,
)

__all__ = ["RunConfig", "main", "entry"]

SEED_ENV_VAR = "BIASYM_SEED"
DOF_FILE_HEADER = "# biasym dof v1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_INFEASIBLE = 4

DECODE_RTOL = 1e-9
VERIFY_MEMORY_LIMIT = 2 * 1024**3  # bytes one receiver's verify pass may need


class InfeasibleError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything a run depends on; JSON config files mirror these fields."""

    command: str
    modes: list | None = None
    groups: list | str | None = None  # explicit value groups, or "auto"
    mg: list | None = None
    used: list | None = None
    flat: bool = False
    budget: int | None = None
    lmin: int | None = None
    lmax: int | None = None
    lstep: int = 1
    seed: int = 1
    out: str | None = None
    noise: float = 0.0
    coherence: int | None = None
    verify: bool = False
    per_user: bool = False
    require_grouping: bool = False
    no_reduction: bool = False


# ======================================================================
# Config resolution
# ======================================================================

def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]

def _parse_groups(text: str):
    if text.strip() == "auto":
        return "auto"
    parsed = json.loads(f"[{text}]")
    return [[int(v) for v in g] for g in parsed]


def _groups_to_indices(equipped, value_groups) -> list[list[int]]:
    """Map groups given as equipped-mode values to distinct user indices."""
    pool: dict[int, list[int]] = {}
    for j, m in enumerate(equipped):
        pool.setdefault(m, []).append(j)
    out = []
    for g in value_groups:
        idxs = []
        for v in g:
            candidates = pool.get(int(v))
            if not candidates:
                raise ValueError(
                    f"no unassigned user with equipped mode count {v}"
                )
            idxs.append(candidates.pop(0))
        out.append(idxs)
    if any(pool.values()):
        raise ValueError("groups must cover every user exactly once")
    return out


def _resolve_config(rc: RunConfig) -> GroupingConfig:
    if not rc.modes:
        raise ValueError("modes are required")
    modes = [int(m) for m in rc.modes]
    if rc.groups == "auto":
        space = SearchSpace(tuple(modes), length_budget=rc.budget)
        best = optimize(space).grouped
        if best is None:
            raise InfeasibleError("no config fits the length budget")
        return best.config
    if rc.flat or rc.groups is None:
        return GroupingConfig.flat(modes, rc.used)
    if not rc.mg:
        raise ValueError("group mode counts (--mg) are required with --groups")
    groups = _groups_to_indices(modes, rc.groups)
    return GroupingConfig.grouped(modes, groups, rc.mg, rc.used)


def _write_output(rc: RunConfig, text: str) -> None:
    if rc.out:
        with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ======================================================================
# Subcommands
# ======================================================================

def cmd_pattern(rc: RunConfig) -> int:
    config = _resolve_config(rc)
    pattern = grouped_pattern(config)
    _write_output(rc, pattern_table(pattern))
    return EXIT_OK


def cmd_verify(rc: RunConfig) -> int:
    config = _resolve_config(rc)
    needed = receiver_memory_bytes(config)
    if needed > VERIFY_MEMORY_LIMIT:
        raise ValueError(
            f"verify needs about {needed / 2**30:.3g} GiB per receiver, "
            f"above the {VERIFY_MEMORY_LIMIT / 2**30:.3g} GiB limit"
        )
    pattern = grouped_pattern(config)
    placement = build_streams(pattern)
    channels = draw_channels(config, rc.coherence, rc.seed)
    # own streams for symbols and noise: seed + 1 would replay the next seed's channels
    symbol_seed, noise_seed = np.random.SeedSequence(rc.seed).spawn(2)
    symbols = random_symbols(placement, symbol_seed)
    report, _, result = verify_receivers(
        placement, pattern, channels, symbols, rc.noise, noise_seed
    )
    for r in report.receivers:
        print(
            f"u{r.label[0]}.{r.label[1]}: desired {r.desired_measured}/{r.desired_predicted}"
            f" iui {r.iui_measured}/{r.iui_predicted} igi {r.igi_measured}/{r.igi_predicted}"
            f" joint {r.joint_measured}/{r.joint_predicted}"
            f" {'ok' if r.match else 'MISMATCH'}"
        )
    max_err = 0.0
    for user_syms, user_dec in zip(symbols, result.users):
        truth = np.concatenate(user_syms)
        est = np.concatenate(user_dec.estimates)
        max_err = max(max_err, float(np.linalg.norm(est - truth) / np.linalg.norm(truth)))
    print(f"decode: max relative error {max_err:.3e}")
    if not result.all_recoverable:
        bad = [f"u{u.label[0]}.{u.label[1]}" for u in result.users if not u.recoverable]
        print(f"decode: unrecoverable streams at {' '.join(bad)}")
    if rc.out:
        with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report_to_csv(report))
    ok = report.all_match and result.all_recoverable
    if rc.noise == 0.0:
        ok = ok and max_err < DECODE_RTOL
    print(f"result: {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_dof(rc: RunConfig) -> int:
    config = _resolve_config(rc)
    total = config_sum_dof(config)
    length = grouped_length(config)
    lines = [f"{render_rational(total)} ({float(total):.6f}), length {length}"]
    if rc.per_user:
        labels = config.labels()
        for (k, i), value in zip(labels, per_user_dof(config)):
            lines.append(f"u{k}.{i}: {render_rational(value)} ({float(value):.6f})")
    text = "\n".join(lines) + "\n"
    if rc.out:
        _write_output(rc, DOF_FILE_HEADER + "\n" + text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(rc: RunConfig) -> int:
    if not rc.modes:
        raise ValueError("modes are required")
    if rc.lmin is None or rc.lmax is None:
        raise ValueError("sweep requires --lmin and --lmax")
    if rc.lmin > rc.lmax or rc.lstep < 1:
        raise ValueError("sweep needs --lmin <= --lmax and --lstep >= 1")
    space = SearchSpace(
        tuple(int(m) for m in rc.modes),
        allow_reduction=not rc.no_reduction,
        require_grouping=rc.require_grouping,
    )
    budgets = range(rc.lmin, rc.lmax + 1, rc.lstep)
    result = sweep(space, budgets)
    if not any(r.conventional or r.grouped for r in result.rows):
        raise InfeasibleError("no config fits any budget in the sweep range")
    if rc.verify:
        report = verify_sweep(result, seeds=(rc.seed, rc.seed + 1, rc.seed + 2))
        if not report.all_ok:
            bad = [k for k, ok in report.checked.items() if not ok]
            print(
                "verification mismatch for: " + "; ".join(bad), file=sys.stderr
            )
            return EXIT_MISMATCH
    _write_output(rc, sweep_to_csv(result))
    return EXIT_OK


# ======================================================================
# Argument handling
# ======================================================================

@functools.cache  # parse_args leaves the parser unchanged: build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasym",
        description="Blind interference alignment supersymbol toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON file with RunConfig fields")
        p.add_argument("--modes", help="comma-separated equipped mode counts")
        p.add_argument(
            "--groups",
            help="groups of equipped mode values, e.g. [6,4],[6,4], or 'auto'",
        )
        p.add_argument("--mg", help="comma-separated group mode counts")
        p.add_argument("--used", help="comma-separated used mode counts")
        p.add_argument("--flat", action="store_true", help="single-group (flat) config")
        p.add_argument("--budget", type=int, help="length budget for 'auto' grouping")
        p.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 1)")
        p.add_argument("--out", help="output file path (default stdout)")

    p_pattern = sub.add_parser("pattern", help="print the per-slot mode table")
    common(p_pattern)

    p_verify = sub.add_parser("verify", help="measure alignment ranks and decode")
    common(p_verify)
    p_verify.add_argument("--coherence", type=int, help="fading block length in slots")
    p_verify.add_argument("--noise", type=float, help="noise scale (1/sqrt(SNR))")

    p_dof = sub.add_parser("dof", help="exact sum DoF of a config")
    common(p_dof)
    p_dof.add_argument("--per-user", action="store_true", help="also print per-user DoF")

    p_sweep = sub.add_parser("sweep", help="best DoF per strategy over length budgets")
    common(p_sweep)
    p_sweep.add_argument("--lmin", type=int, help="smallest length budget")
    p_sweep.add_argument("--lmax", type=int, help="largest length budget")
    p_sweep.add_argument("--lstep", type=int, help="budget step (default 1)")
    p_sweep.add_argument("--verify", action="store_true",
                         help="re-measure winning configs before writing")
    p_sweep.add_argument("--require-grouping", action="store_true",
                         help="grouped strategy must use at least two groups")
    p_sweep.add_argument("--no-reduction", action="store_true",
                         help="forbid using fewer modes than equipped")
    return parser


def _merge_run_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config file fields: {sorted(unknown)}")

    rc = RunConfig(command=args.command)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        flag = getattr(args, f.name.replace("-", "_"), None)
        if isinstance(flag, bool):
            value = flag or bool(file_values.get(f.name, False))
        elif flag is not None:
            value = flag
        elif f.name in file_values:
            value = file_values[f.name]
        else:
            continue
        setattr(rc, f.name, value)

    # flags arrive as comma strings; config files use real lists
    if isinstance(rc.modes, str):
        rc.modes = _parse_int_list(rc.modes)
    if isinstance(rc.groups, str) and rc.groups != "auto":
        rc.groups = _parse_groups(rc.groups)
    if isinstance(rc.mg, str):
        rc.mg = _parse_int_list(rc.mg)
    if isinstance(rc.used, str):
        rc.used = _parse_int_list(rc.used)

    if getattr(args, "seed", None) is None and "seed" not in file_values:
        rc.seed = int(os.environ.get(SEED_ENV_VAR, "1"))
    if getattr(args, "lstep", None) is None and "lstep" not in file_values:
        rc.lstep = 1
    return rc


_DISPATCH = {
    "pattern": cmd_pattern,
    "verify": cmd_verify,
    "dof": cmd_dof,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command not in _DISPATCH:
        parser.print_help(sys.stderr)
        return EXIT_INVALID
    try:
        rc = _merge_run_config(args)
        return _DISPATCH[args.command](rc)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
