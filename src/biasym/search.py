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
from math import isqrt

from .dof import config_sum_dof, render_decimal
from .patterns import GroupingConfig, grouped_length

__all__ = [
    "SearchSpace",
    "BestEntry",
    "SweepRow",
    "SweepResult",
    "enumerate_configs",
    "optimize",
    "sweep",
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
    strategy, for studying pure grouping.
    """

    equipped: tuple[int, ...]
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


def _splits(pool, size):
    """Each distinct ``size``-sub-multiset of the sorted list ``pool`` once,
    as a sorted tuple, with the sorted list of what remains."""
    if size == 0:
        yield (), pool
        return
    for i, t in enumerate(pool):
        if i == 0 or t != pool[i - 1]:
            for group, rest in _splits(pool[i + 1:], size - 1):
                yield (t,) + group, pool[:i] + rest


def _type_partitions(pool, size, floor=((), ())):
    """Each partition of the sorted type multiset ``pool`` into groups of
    ``size`` once: groups in member order, their keys (used tuple, equipped
    tuple) never decreasing from ``floor``; equal keys mean equal groups.
    A group holding a largest remaining used count has the smallest key
    possible, so a user of that count leads the next group.
    """
    if not pool:
        yield ()
        return
    for group, rest in _splits(pool, size):
        if group[0][0] != pool[0][0]:
            break
        key = (tuple(u for u, _ in group), tuple(e for _, e in group))
        if key < floor:
            continue
        for tail in _type_partitions(rest, size, key):
            yield (group,) + tail


def _groupable(used) -> bool:
    """Whether two or more groups can carry these used counts at all.

    Every user's used count must factor as element count times group mode
    count, both >= 2, so each must be a composite number >= 4.
    """
    return all(any(u % d == 0 for d in range(2, isqrt(u) + 1)) for u in used)


def enumerate_configs(space: SearchSpace):
    """Yield every valid config exactly once, in canonical form.

    Covers all group counts dividing the user count, all used-mode
    assignments when reduction is allowed, all groupings and all group mode
    counts.  Users of equal (used, equipped) counts are interchangeable, so a
    grouping is a partition of the multiset of these types, built once in
    canonical group order, each type's users assigned lowest index first.
    Group mode counts are proposed per divisor of the lead used count, and
    :class:`GroupingConfig` alone decides which satisfy the alignment
    condition.  ``require_grouping`` does not filter here; it only affects
    which configs the grouped strategy of :func:`optimize` may pick.
    """
    K = len(space.equipped)
    for used in _used_assignments(space.equipped, space.allow_reduction):
        yield GroupingConfig.flat(space.equipped, used)
        if not _groupable(used):
            continue
        types = [(-u, -m) for u, m in zip(used, space.equipped)]
        users_of = {t: [j for j in range(K) if types[j] == t] for t in types}
        for kg in (d for d in range(2, K + 1) if K % d == 0):
            for parts in _type_partitions(sorted(types), K // kg):
                free = {t: iter(js) for t, js in users_of.items()}
                groups = tuple(tuple(next(free[t]) for t in g) for g in parts)
                u0 = -parts[0][0][0]
                for d in (d for d in range(2, u0 + 1) if u0 % d == 0):
                    mgs = tuple(-g[0][0] * d // u0 for g in parts)
                    try:
                        cfg = GroupingConfig(space.equipped, used, groups, mgs)
                    except ValueError:
                        continue
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
class SweepRow:
    """Best config per strategy within one length budget (None = no cap);
    None in place of an entry marks an infeasible strategy."""

    length_budget: int | None
    conventional: BestEntry | None
    grouped: BestEntry | None


def _frontier(space: SearchSpace, budgets) -> list[SweepRow]:
    """The best entries per strategy at each budget, None = no cap.

    Refuses a budget below 1 before enumerating.  Then enumerates once,
    skipping configs longer than every budget, and sorts the rest by
    length.  A running best per strategy under the key
    (-dof, length, num_groups, canonical string) then answers each budget
    with one bisection.  Canonical strings are unique, so the minimum does
    not depend on enumeration order.
    """
    if any(b is not None and b < 1 for b in budgets):
        raise ValueError("every length budget must be >= 1")
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
        out.append(SweepRow(budget, conventional[i], grouped[i]))
    return out


def optimize(space: SearchSpace, budget: int | None = None) -> SweepRow:
    """Argmax of sum DoF within ``budget`` slots (None = no cap), per strategy.

    The conventional strategy only does mode reduction (single group); the
    grouped strategy may use any enumerated group count, or only proper
    groupings when ``require_grouping`` is set.  Ties break toward smaller
    supersymbols, then fewer groups, then the lexicographically smallest
    canonical string, making the result independent of enumeration order.
    """
    return _frontier(space, [budget])[0]


# ======================================================================
# Budget sweeps
# ======================================================================

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
    return SweepResult(rows=tuple(_frontier(space, budgets)))


# ======================================================================
# Serialization
# ======================================================================

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
