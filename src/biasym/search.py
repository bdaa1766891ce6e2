"""Exhaustive search over grouping configurations under a length budget.

The coherence time of the channel caps how long a supersymbol can be, so
the interesting question is which construction squeezes the most sum DoF
into at most L slots: plain mode reduction (use fewer presets than
equipped, no grouping) or a two-level grouping.  Both strategies are
searched exhaustively; configs are enumerated once in a canonical form so
that relabelings of interchangeable users or groups never appear twice.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .dof import config_sum_dof, render_decimal
from .patterns import GroupingConfig, grouped_length, grouped_pattern, member_order
from .signal import alignment_report, draw_channels

__all__ = [
    "SearchSpace",
    "BestEntry",
    "OptimizeResult",
    "SweepRow",
    "SweepResult",
    "VerificationReport",
    "enumerate_configs",
    "optimize",
    "sweep",
    "verify_sweep",
    "sweep_to_csv",
]

SWEEP_CSV_HEADER = "# biasym sweep v1"
SWEEP_COLUMNS = (
    "L,conv_dof_num,conv_dof_den,conv_dof_dec,conv_config,"
    "grp_dof_num,grp_dof_den,grp_dof_dec,grp_config"
)


@dataclass(frozen=True)
class SearchSpace:
    """What the search may vary.

    ``equipped`` fixes each user's available preset modes.  ``allow_reduction``
    admits using fewer modes than equipped (2 <= used <= equipped);
    ``require_grouping`` excludes the single-group fallback from the grouped
    strategy, for studying pure grouping.  ``length_budget`` caps the
    supersymbol length (None = none).
    """

    equipped: tuple[int, ...]
    length_budget: int | None = None
    allow_reduction: bool = True
    require_grouping: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "equipped", tuple(int(m) for m in self.equipped))
        if any(m < 2 for m in self.equipped):
            raise ValueError("every equipped mode count must be >= 2")


# ======================================================================
# Canonical enumeration
# ======================================================================

def _used_assignments(equipped, allow_reduction):
    """Canonical used-mode assignments: one per multiset of used values
    within each class of equal equipped counts (such users are
    interchangeable, so descending assignment inside a class loses nothing).
    """
    if not allow_reduction:
        yield tuple(equipped)
        return
    classes: dict[int, list[int]] = {}
    for j, m in enumerate(equipped):
        classes.setdefault(m, []).append(j)
    ordered = sorted(classes.items())
    option_lists = [
        list(itertools.combinations_with_replacement(range(m, 1, -1), len(members)))
        for m, members in ordered
    ]
    for combo in itertools.product(*option_lists):
        used = [0] * len(equipped)
        for (_, members), choice in zip(ordered, combo):
            for j, value in zip(members, choice):
                used[j] = value
        yield tuple(used)


def _partitions(users, group_size):
    """Set partitions into equal-size groups, each yielded exactly once."""
    if not users:
        yield []
        return
    first, rest = users[0], users[1:]
    for members in itertools.combinations(rest, group_size - 1):
        group = (first,) + members
        remaining = [u for u in rest if u not in members]
        for tail in _partitions(remaining, group_size):
            yield [group] + tail


def _groupable(used) -> bool:
    """Whether two or more groups can carry these used counts at all.

    Every user's used count must factor as element count times group mode
    count, both >= 2, so each must be a composite number >= 4.
    """
    return all(any(u % d == 0 for d in range(2, isqrt(u) + 1)) for u in used)


def enumerate_configs(space: SearchSpace):
    """Yield every valid config once, in canonical form.

    Covers all group counts dividing the user count, all used-mode
    assignments when reduction is allowed, all user partitions, and all
    group mode counts compatible with the cross-group alignment condition.
    ``require_grouping`` does not filter here; it only affects which
    configs the grouped strategy of :func:`optimize` may pick.  Flat configs
    are unique per used-mode assignment; only grouped ones need
    deduplicating.
    """
    seen: set[str] = set()
    K = len(space.equipped)
    for used in _used_assignments(space.equipped, space.allow_reduction):
        groupable = _groupable(used)
        for kg in (d for d in range(1, K + 1) if K % d == 0):
            if kg == 1:
                yield GroupingConfig.flat(space.equipped, used)
                continue
            if not groupable:
                continue
            for raw_parts in _partitions(list(range(K)), K // kg):
                groups = [member_order(g, space.equipped, used) for g in raw_parts]
                groups.sort(
                    key=lambda g: (
                        tuple(-used[j] for j in g),
                        tuple(-space.equipped[j] for j in g),
                        g,
                    )
                )
                lead = [used[j] for j in groups[0]]
                lead_gcd = gcd(*lead)
                for div in range(2, lead_gcd + 1):
                    if lead_gcd % div != 0:
                        continue
                    elem = [u // div for u in lead]
                    if any(e < 2 for e in elem):
                        continue
                    counts = [div]
                    for g in groups[1:]:
                        mg = used[g[0]] // elem[0]
                        if mg < 2 or any(used[j] != e * mg for j, e in zip(g, elem)):
                            break
                        counts.append(mg)
                    else:
                        cfg = GroupingConfig(
                            space.equipped, used, tuple(groups), tuple(counts)
                        )
                        key = cfg.canonical_string()
                        if key not in seen:
                            seen.add(key)
                            yield cfg


# ======================================================================
# Optimization
# ======================================================================

@dataclass(frozen=True)
class BestEntry:
    config: GroupingConfig
    dof: Fraction
    length: int


@dataclass(frozen=True)
class OptimizeResult:
    """Best config per strategy; None marks an infeasible strategy."""

    conventional: BestEntry | None
    grouped: BestEntry | None


def _frontier(space: SearchSpace, budgets) -> list[tuple[BestEntry | None, BestEntry | None]]:
    """(conventional, grouped) best entries at each budget, None = no cap.

    Enumerates once, skipping configs longer than every budget, and sorts
    the rest by length.  A running best per strategy under the key
    (-dof, length, num_groups, canonical string) then answers each budget
    with one bisection.  Canonical strings are unique, so the minimum does
    not depend on enumeration order.
    """
    cap = None if None in budgets else max(budgets, default=0)
    entries = []
    for cfg in enumerate_configs(space):
        length = grouped_length(cfg)
        if cap is None or length <= cap:
            entries.append(BestEntry(cfg, config_sum_dof(cfg), length))
    entries.sort(key=lambda e: e.length)
    conventional, grouped = [None], [None]
    conv_key = grp_key = None
    for e in entries:
        key = (-e.dof, e.length, e.config.num_groups, e.config.canonical_string())
        conv, grp = conventional[-1], grouped[-1]
        if e.config.num_groups == 1 and (conv_key is None or key < conv_key):
            conv, conv_key = e, key
        if (e.config.num_groups >= 2 or not space.require_grouping) and (
            grp_key is None or key < grp_key
        ):
            grp, grp_key = e, key
        conventional.append(conv)
        grouped.append(grp)
    lengths = [e.length for e in entries]
    out = []
    for budget in budgets:
        i = len(entries) if budget is None else bisect_right(lengths, budget)
        out.append((conventional[i], grouped[i]))
    return out


def optimize(space: SearchSpace) -> OptimizeResult:
    """Argmax of sum DoF within the length budget, per strategy.

    The conventional strategy only does mode reduction (single group); the
    grouped strategy may use any enumerated group count, or only proper
    groupings when ``require_grouping`` is set.  Ties break toward smaller
    supersymbols, then fewer groups, then the lexicographically smallest
    canonical string, making the result independent of enumeration order.
    """
    [(conventional, grouped)] = _frontier(space, [space.length_budget])
    return OptimizeResult(conventional=conventional, grouped=grouped)


# ======================================================================
# Budget sweeps
# ======================================================================

@dataclass(frozen=True)
class SweepRow:
    length_budget: int
    conventional: BestEntry | None
    grouped: BestEntry | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def strict_rows(self) -> list[int]:
        """Budgets where the grouped strategy strictly beats conventional."""
        return [
            row.length_budget
            for row in self.rows
            if row.grouped is not None
            and (row.conventional is None or row.grouped.dof > row.conventional.dof)
        ]

    def strict_band(self) -> tuple[int, int] | None:
        strict = self.strict_rows()
        return (min(strict), max(strict)) if strict else None


def sweep(space: SearchSpace, length_budgets) -> SweepResult:
    """Best config per strategy at every budget, from one enumeration pass.

    Each row equals :func:`optimize` at that budget; each strategy's best
    DoF is nondecreasing in the budget, since a larger budget only widens
    the feasible set.
    """
    budgets = sorted(int(b) for b in length_budgets)
    rows = tuple(
        SweepRow(length_budget=budget, conventional=conventional, grouped=grouped)
        for budget, (conventional, grouped) in zip(budgets, _frontier(space, budgets))
    )
    return SweepResult(rows=rows)


# ======================================================================
# Verification and serialization
# ======================================================================

@dataclass(frozen=True)
class VerificationReport:
    """Signal-level re-verification of every winning sweep config."""

    checked: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.checked.values())


def verify_sweep(result: SweepResult, seeds=(1, 2, 3)) -> VerificationReport:
    """Re-measure alignment ranks for each distinct winning config.

    Every winner is rebuilt, its channels redrawn per seed with one fading
    block covering the supersymbol, and all measured ranks must match the
    predictions.
    """
    checked: dict[str, bool] = {}
    for row in result.rows:
        for entry in (row.conventional, row.grouped):
            if entry is None:
                continue
            key = entry.config.canonical_string()
            if key in checked:
                continue
            pattern = grouped_pattern(entry.config)
            ok = True
            for seed in seeds:
                channels = draw_channels(entry.config, None, seed)
                report = alignment_report(pattern, channels)
                ok = ok and report.all_match
            checked[key] = ok
    return VerificationReport(checked=checked)


def _entry_fields(entry: BestEntry | None) -> list[str]:
    if entry is None:
        return ["", "", "", "infeasible"]
    return [
        str(entry.dof.numerator),
        str(entry.dof.denominator),
        render_decimal(entry.dof),
        entry.config.canonical_string(),
    ]


def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep as CSV (config fields quoted, they contain commas)."""
    lines = [SWEEP_CSV_HEADER, SWEEP_COLUMNS]
    band = result.strict_band()
    if band is not None:
        lines.insert(
            1,
            f"# info: grouped strictly exceeds conventional for L in "
            f"[{band[0]},{band[1]}] within this sweep",
        )
    for row in result.rows:
        fields = (
            [str(row.length_budget)]
            + _entry_fields(row.conventional)
            + _entry_fields(row.grouped)
        )
        quoted = [f'"{f}"' if "," in f else f for f in fields]
        lines.append(",".join(quoted))
    return "\n".join(lines) + "\n"
