"""Output checks for benchmark requests.

Every request is checked on its own, independently of how the program
computed it:

* exit code equals the expected one;
* ``verify``: every rank line equals ``dof.rank_predictions``, the decode
  error is below 1e-9 and the result line reads OK;
* ``dof``: the sum DoF and length equal the closed forms;
* ``auto``: the chosen DoF is the best of all enumerated configs that fit
  the budget, and the chosen length fits it;
* ``sweep``: every winner fits its budget, its DoF equals
  ``config_sum_dof`` of its config, and each strategy's DoF never
  decreases as the budget grows;
* the byte-fixed v1 outputs (pattern table, alignment CSV, dof file, sweep
  CSV) have the SHA-256 digest recorded in ``golden.json``.  The decode
  error line is printed to stdout only and is never digested.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from biasym import config_sum_dof, grouped_length

from workloads import Request, config_from_canonical

DECODE_RTOL = 1e-9
_DOF_LINE = re.compile(r"(\d+)/(\d+) \([-\d.e+]+\), length (\d+)")
_DECODE_LINE = re.compile(r"decode: max relative error (\S+)")


@dataclass(frozen=True)
class Outcome:
    """What one CLI call returned and wrote."""

    code: int
    stdout: str
    stderr: str
    file_text: str | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digested_output(req: Request, outcome: Outcome) -> str | None:
    """The byte-fixed output of a request: its --out file, else stdout."""
    return outcome.file_text if req.writes_file else outcome.stdout


def check(req: Request, outcome: Outcome, digests: dict) -> list[str]:
    """Problems found in one request's output; empty when it is correct."""
    if outcome.code != req.exit_code:
        return [f"exit {outcome.code}, expected {req.exit_code}: {outcome.stderr.strip()[:200]}"]
    try:
        problems = _CHECKS[req.kind](req, outcome)
    except (ValueError, IndexError, KeyError) as exc:
        problems = [f"unparsable output: {exc!r}"]
    key = req.expect.get("digest")
    if key is not None:
        text = digested_output(req, outcome)
        if key not in digests:
            problems.append(f"no recorded digest for {key!r}")
        elif text is None or digest(text) != digests[key]:
            problems.append(f"digest mismatch for {key!r}")
    return problems


def _check_pattern(req: Request, outcome: Outcome) -> list[str]:
    return []


def _check_dof(req: Request, outcome: Outcome) -> list[str]:
    lines = (outcome.file_text or "").splitlines()
    m = _DOF_LINE.fullmatch(lines[1]) if len(lines) > 1 else None
    if m is None:
        return ["no sum DoF line in the dof file"]
    problems = []
    if Fraction(int(m[1]), int(m[2])) != Fraction(req.expect["dof"]):
        problems.append(f"sum DoF {m[1]}/{m[2]}, expected {req.expect['dof']}")
    if int(m[3]) != req.expect["length"]:
        problems.append(f"length {m[3]}, expected {req.expect['length']}")
    return problems


def _check_verify(req: Request, outcome: Outcome) -> list[str]:
    lines = outcome.stdout.splitlines()
    problems = []
    ranks = [line for line in lines if line.startswith("u")]
    if ranks != req.expect["rank_lines"]:
        problems.append("rank lines differ from rank_predictions")
    decode = [m for m in map(_DECODE_LINE.fullmatch, lines) if m]
    if len(decode) != 1 or not float(decode[0][1]) < DECODE_RTOL:
        problems.append("decode error missing or not below 1e-9")
    if not lines or lines[-1] != "result: OK":
        problems.append("result line is not OK")
    return problems


def _check_auto(req: Request, outcome: Outcome) -> list[str]:
    if req.exit_code != 0:
        return []
    m = _DOF_LINE.fullmatch(outcome.stdout.rstrip("\n"))
    if m is None:
        return ["no DoF line"]
    problems = []
    if Fraction(int(m[1]), int(m[2])) != Fraction(req.expect["dof"]):
        problems.append(f"DoF {m[1]}/{m[2]}, best feasible is {req.expect['dof']}")
    if int(m[3]) > req.expect["budget"]:
        problems.append(f"length {m[3]} exceeds budget {req.expect['budget']}")
    return problems


def _check_sweep(req: Request, outcome: Outcome) -> list[str]:
    modes = req.expect["modes"]
    rows = list(csv.reader(
        line for line in outcome.stdout.splitlines() if not line.startswith("#")
    ))
    if not rows or rows[0][:1] != ["L"]:
        return ["no sweep column header"]
    rows = rows[1:]
    if [int(r[0]) for r in rows] != req.expect["budgets"]:
        return ["sweep rows do not cover the requested budgets"]
    problems = []
    known: dict[str, tuple[Fraction, int]] = {}
    last: dict[str, Fraction] = {}
    for row in rows:
        budget = int(row[0])
        for name, (num, den, _, canon) in (("conv", row[1:5]), ("grp", row[5:9])):
            if canon == "infeasible":
                if name in last:
                    problems.append(f"{name} infeasible at L={budget} after a feasible budget")
                continue
            if canon not in known:
                cfg = config_from_canonical(modes, canon)
                known[canon] = (config_sum_dof(cfg), grouped_length(cfg))
            dof, length = known[canon]
            if length > budget:
                problems.append(f"{name} winner of length {length} at L={budget}")
            if Fraction(int(num), int(den)) != dof:
                problems.append(f"{name} DoF {num}/{den} at L={budget} is not config_sum_dof {dof}")
            if name in last and dof < last[name]:
                problems.append(f"{name} DoF decreased at L={budget}")
            last[name] = dof
    return problems


_CHECKS = {
    "pattern": _check_pattern,
    "dof": _check_dof,
    "verify": _check_verify,
    "auto": _check_auto,
    "sweep": _check_sweep,
}
