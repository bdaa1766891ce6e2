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
from dataclasses import dataclass

import numpy as np

from .dof import config_sum_dof, per_user_dof, render_rational
from .patterns import GroupingConfig, grouped_length, grouped_pattern, pattern_table, user_label
from .search import SearchSpace, optimize, sweep, sweep_to_csv
from .signal import (
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
PATTERN_CELL_LIMIT = 2**24  # slots x users of a pattern table, about 125 bytes each
SWEEP_ROW_LIMIT = 2**20  # budgets in one sweep, about 80 bytes of CSV each


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

def _strict(convert, *types):
    """Apply ``convert`` to values of ``types`` only; true and false are no numbers."""
    def check(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ValueError(f"expected {convert.__name__}, got {value!r}")
        return convert(value)
    return check


_integer = _strict(int, int, str)
_real = _strict(float, int, float, str)
_text = _strict(str, str)
_switch = _strict(bool, bool)


def _seed(value) -> int:
    seed = _integer(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _int_list(value) -> list[int]:
    """Comma text, as flags give it, or a JSON list, as config files do."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return [_integer(x) for x in value]


def _groups(value):
    """'auto', or groups of equipped mode values: '[6,4],[6,4]' or [[6, 4], [6, 4]]."""
    if value == "auto":
        return value
    if isinstance(value, str):
        value = json.loads(f"[{value}]")
    if not isinstance(value, list) or not all(isinstance(g, list) for g in value):
        raise ValueError(f"groups must be lists of mode counts or 'auto', got {value!r}")
    return [_int_list(g) for g in value]


# one conversion per RunConfig field, for flag text and config-file values alike
_CONVERT = {
    "modes": _int_list, "groups": _groups, "mg": _int_list, "used": _int_list,
    "flat": _switch, "budget": _integer, "lmin": _integer, "lmax": _integer,
    "lstep": _integer, "seed": _seed, "out": _text, "noise": _real,
    "coherence": _integer, "verify": _switch, "per_user": _switch,
    "require_grouping": _switch, "no_reduction": _switch,
}


def _groups_to_indices(equipped, value_groups) -> list[list[int]]:
    """Map groups given as equipped-mode values to distinct user indices."""
    pool: dict[int, list[int]] = {}
    for j, m in enumerate(equipped):
        pool.setdefault(m, []).append(j)
    out = []
    for g in value_groups:
        idxs = []
        for v in g:
            candidates = pool.get(v)
            if not candidates:
                raise ValueError(f"no unassigned user with equipped mode count {v}")
            idxs.append(candidates.pop(0))
        out.append(idxs)
    if any(pool.values()):
        raise ValueError("groups must cover every user exactly once")
    return out


def _resolve_config(rc: RunConfig) -> GroupingConfig:
    # refuse parameters the chosen form would silently ignore
    if rc.flat and (rc.groups is not None or rc.mg is not None):
        raise ValueError("--flat takes neither --groups nor --mg")
    if rc.groups == "auto" and (rc.mg is not None or rc.used is not None):
        raise ValueError("--groups auto chooses --mg and --used itself")
    if rc.mg is not None and rc.groups is None:
        raise ValueError("--mg needs explicit --groups")
    if rc.budget is not None and rc.groups != "auto":
        raise ValueError("--budget needs --groups auto")
    if rc.groups == "auto":
        best = optimize(SearchSpace(tuple(rc.modes)), rc.budget).grouped
        if best is None:
            raise InfeasibleError("no config fits the length budget")
        return best.config
    if rc.groups is None:
        return GroupingConfig.flat(rc.modes, rc.used)
    if not rc.mg:
        raise ValueError("group mode counts (--mg) are required with --groups")
    groups = _groups_to_indices(rc.modes, rc.groups)
    return GroupingConfig.grouped(rc.modes, groups, rc.mg, rc.used)


def _refuse_oversized_verify(config: GroupingConfig, coherence: int | None) -> None:
    needed = receiver_memory_bytes(config, coherence)
    if needed > VERIFY_MEMORY_LIMIT:
        raise ValueError(
            f"verify needs about {needed / 2**30:.3g} GiB per receiver, "
            f"above the {VERIFY_MEMORY_LIMIT / 2**30:.3g} GiB limit"
        )


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
    cells = grouped_length(config) * config.num_users
    if cells > PATTERN_CELL_LIMIT:
        raise ValueError(f"pattern table has {cells} cells, above the {PATTERN_CELL_LIMIT} limit")
    pattern = grouped_pattern(config)
    _write_output(rc, pattern_table(pattern))
    return EXIT_OK


def _verify_config(config: GroupingConfig, coherence: int | None, seed: int, noise: float):
    """verify's check of one config on the channels of ``seed``: (one
    record per receiver, max relative decode error, verdict)."""
    pattern = grouped_pattern(config)
    channels = draw_channels(config, coherence, seed)
    # own streams for symbols and noise: seed + 1 would replay the next seed's channels
    symbol_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    symbols = random_symbols(pattern, symbol_seed)
    receivers = verify_receivers(pattern, channels, symbols, noise, noise_seed)
    errors = [
        np.linalg.norm(r.estimates - truth) / np.linalg.norm(truth)
        for truth, r in zip(symbols, receivers)
    ]
    max_err = float(np.max(errors))  # unlike max(), np.max lets a NaN error through
    tolerance = DECODE_RTOL if noise == 0.0 else np.inf  # NaN or inf fails at any noise
    # matching ranks leave no receiver a deficiency, so they imply a full decode
    ok = all(r.match for r in receivers) and max_err < tolerance
    return receivers, max_err, ok


def cmd_verify(rc: RunConfig) -> int:
    config = _resolve_config(rc)
    _refuse_oversized_verify(config, rc.coherence)
    receivers, max_err, ok = _verify_config(config, rc.coherence, rc.seed, rc.noise)
    if rc.out:  # first, so a failed write prints nothing
        _write_output(rc, report_to_csv(receivers))
    for r in receivers:
        m, p = r.measured, r.predicted
        print(
            f"{user_label(*m.label)}: desired {m.desired}/{p.desired}"
            f" iui {m.iui_total}/{p.iui_total} igi {m.igi_total}/{p.igi_total}"
            f" joint {m.joint}/{p.joint} {'ok' if r.match else 'MISMATCH'}"
        )
    print(f"decode: max relative error {max_err:.3e}")
    bad = [user_label(*r.measured.label) for r in receivers if r.deficiency]
    if bad:
        print(f"decode: unrecoverable streams at {' '.join(bad)}")
    print(f"result: {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_dof(rc: RunConfig) -> int:
    config = _resolve_config(rc)
    total = config_sum_dof(config)
    length = grouped_length(config)
    lines = [f"{render_rational(total)} ({float(total):.6f}), length {length}"]
    if rc.per_user:
        for label, value in zip(config.labels(), per_user_dof(config)):
            lines.append(f"{user_label(*label)}: {render_rational(value)} ({float(value):.6f})")
    header = DOF_FILE_HEADER + "\n" if rc.out else ""  # only files carry the header
    _write_output(rc, header + "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(rc: RunConfig) -> int:
    if rc.lmin is None or rc.lmax is None:
        raise ValueError("sweep requires --lmin and --lmax")
    if rc.lmin > rc.lmax or rc.lstep < 1:
        raise ValueError("sweep needs --lmin <= --lmax and --lstep >= 1")
    space = SearchSpace(
        tuple(rc.modes),
        allow_reduction=not rc.no_reduction,
        require_grouping=rc.require_grouping,
    )
    budgets = range(rc.lmin, rc.lmax + 1, rc.lstep)
    if len(budgets) > SWEEP_ROW_LIMIT:
        raise ValueError(f"sweep has {len(budgets)} budgets, above the {SWEEP_ROW_LIMIT} limit")
    result = sweep(space, budgets)
    if not any(r.conventional or r.grouped for r in result.rows):
        raise InfeasibleError("no config fits any budget in the sweep range")
    if rc.verify:
        winners = dict.fromkeys(  # distinct, in row order
            e.config for r in result.rows for e in (r.conventional, r.grouped) if e
        )
        for config in winners:
            _refuse_oversized_verify(config, None)
        bad = [
            c.canonical_string() for c in winners
            if not _verify_config(c, None, rc.seed, 0.0)[2]
        ]
        if bad:
            print("verification mismatch for: " + "; ".join(bad), file=sys.stderr)
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
    pattern = sub.add_parser("pattern", help="print the per-slot mode table")
    verify = sub.add_parser("verify", help="measure alignment ranks and decode")
    dof = sub.add_parser("dof", help="exact sum DoF of a config")
    sweep = sub.add_parser("sweep", help="best DoF per strategy over length budgets")
    one = (pattern, verify, dof)  # subcommands that act on one config

    # each subcommand registers only the flags it reads
    def flag(name, help_text, *parsers, switch=False):
        for p in parsers:
            p.add_argument(name, action="store_true" if switch else "store", help=help_text)

    flag("--config", "JSON file with RunConfig fields", *one, sweep)
    flag("--modes", "comma-separated equipped mode counts", *one, sweep)
    flag("--groups", "groups of equipped mode values, e.g. [6,4],[6,4], or 'auto'", *one)
    flag("--mg", "comma-separated group mode counts", *one)
    flag("--used", "comma-separated used mode counts", *one)
    flag("--flat", "single-group (flat) config", *one, switch=True)
    flag("--budget", "length budget for 'auto' grouping", *one)
    flag("--seed", f"RNG seed (default ${SEED_ENV_VAR} or 1)", verify, sweep)
    flag("--out", "output file path (default stdout)", *one, sweep)
    flag("--coherence", "fading block length in slots", verify)
    flag("--noise", "noise scale (1/sqrt(SNR))", verify)
    flag("--per-user", "also print per-user DoF", dof, switch=True)
    flag("--lmin", "smallest length budget", sweep)
    flag("--lmax", "largest length budget", sweep)
    flag("--lstep", "budget step (default 1)", sweep)
    flag("--verify", "re-measure winning configs before writing", sweep, switch=True)
    flag("--require-grouping", "grouped strategy needs two or more groups", sweep, switch=True)
    flag("--no-reduction", "forbid using fewer modes than equipped", sweep, switch=True)
    return parser


def _read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"must hold a JSON object, not {type(values).__name__}")
        unknown = set(values) - set(_CONVERT)  # the subcommand comes from the command line
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    return values


def _merge_run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig defaults, overridden by $BIASYM_SEED, then by the config
    file, then by flags; every value set goes through its field's conversion."""
    values = {}
    if SEED_ENV_VAR in os.environ:
        values["seed"] = os.environ[SEED_ENV_VAR]
    if args.config:
        values.update(_read_config_file(args.config))
    values.update(
        (name, v) for name, v in vars(args).items()
        if name in _CONVERT and v is not None and v is not False
    )
    converted = {}
    for name, v in values.items():
        try:
            converted[name] = None if v is None else _CONVERT[name](v)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return RunConfig(command=args.command, **converted)


_DISPATCH = {"pattern": cmd_pattern, "verify": cmd_verify, "dof": cmd_dof, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command not in _DISPATCH:
        parser.print_help(sys.stderr)
        return EXIT_INVALID
    try:
        rc = _merge_run_config(args)
        if not rc.modes:
            raise ValueError("modes are required")
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
