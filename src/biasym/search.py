"""Exhaustive search over grouping configurations under a length budget.

The coherence time of the channel caps how long a supersymbol can be, so
the interesting question is which construction squeezes the most sum DoF
into at most L slots: plain mode reduction (use fewer presets than
equipped, no grouping) or a two-level grouping.  Both strategies are
searched exhaustively; configs are enumerated once in a canonical form so
that relabelings of interchangeable users or groups never appear twice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, prod

from .dof import config_sum_dof, render_decimal
from .patterns import GroupingConfig, _mode_counts, flat_length, grouped_length

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

USED_VECTOR_LIMIT = 2**16  # flat used vectors one search may enumerate, about 70 us each

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
        # the checks GroupingConfig makes of equipped counts, made before enumerating
        object.__setattr__(self, "equipped", _mode_counts(self.equipped, self.equipped)[0])


# ======================================================================
# Canonical enumeration
# ======================================================================

def _count_vectors(slots, cap):
    """Each vector of counts with one count from ``lo`` to ``hi`` per
    ``(lo, hi, tied)`` slot, no larger than the previous count where
    ``tied``, whose flat length is at most ``cap`` (None = no cap).

    The flat length grows with every count, so once a prefix filled up
    with 2s is over the cap, so is every vector that extends it.  The
    depth-first search folds the length one count at a time, as
    :func:`flat_length` does, and cuts the prefix there.
    """
    prefix = []

    def extend(block, holds, prev):
        p = len(prefix)
        if p == len(slots):
            yield tuple(prefix)
            return
        lo, hi, tied = slots[p]
        rest = len(slots) - p - 1  # 2s add one block each
        for v in range(lo, min(hi, prev) + 1 if tied else hi + 1):
            b, h = block * (v - 1), holds * (v - 1) + block
            if cap is not None and b * (1 + rest) + h > cap:
                break
            prefix.append(v)
            yield from extend(b, h, v)
            prefix.pop()

    return extend(1, 0, 0)


def _classes(equipped) -> list[tuple[int, list[int]]]:
    """Users by equipped count, smallest count first: users of one class are
    interchangeable, so their used values are taken non-increasing by index."""
    classes: dict[int, list[int]] = {}
    for j, m in enumerate(equipped):
        classes.setdefault(m, []).append(j)
    return sorted(classes.items())


def _flat_used(space: SearchSpace, cap):
    """Canonical used vectors whose flat config fits ``cap``: one per
    multiset of used values within each class of equal equipped counts."""
    classes = _classes(space.equipped)
    users = [j for _, members in classes for j in members]
    slots = [
        (2 if space.allow_reduction else m, m, i > 0)
        for m, members in classes for i in range(len(members))
    ]
    for counts in _count_vectors(slots, cap):
        used = [0] * len(users)
        for j, u in zip(users, counts):
            used[j] = u
        yield tuple(used)


def _grouped_values(space: SearchSpace, kg: int, cap) -> list[tuple[int, ...]]:
    """Multisets of used values {e_k * g_i}, sorted descending, over the
    count classes of ``kg`` groups that fit the equipped counts: element
    counts e and group counts g, each >= 2, whose length
    ``flat_length(e) * flat_length(g)`` is at most ``cap``.

    A flat length is at least one more than its number of counts, so the
    group counts get the cap over the element level's least length (none
    at all when ``(ke + 1) * (kg + 1)`` is over the cap), and the element
    counts the cap over the group level's actual one.  Counts are taken
    non-increasing, and a class fits when its values, sorted, fit under
    the sorted equipped counts: the j-th group count times 2 needs j * ke
    users equipped with as much, and the k-th element count times the j-th
    group count needs k * j.  Without reduction the one used vector is the
    equipped one.
    """
    ke = len(space.equipped) // kg
    eq = sorted(space.equipped, reverse=True)
    if not space.allow_reduction:
        return [tuple(eq)] if cap is None or (ke + 1) * (kg + 1) <= cap else []
    out = set()
    g_slots = [(2, eq[(j + 1) * ke - 1] // 2, j > 0) for j in range(kg)]
    for g in _count_vectors(g_slots, None if cap is None else cap // (ke + 1)):
        e_slots = [
            (2, min(eq[(k + 1) * (j + 1) - 1] // gj for j, gj in enumerate(g)), k > 0)
            for k in range(ke)
        ]
        for e in _count_vectors(e_slots, None if cap is None else cap // flat_length(g)):
            values = sorted((x * y for x in e for y in g), reverse=True)
            if all(v <= m for v, m in zip(values, eq)):
                out.add(tuple(values))
    return sorted(out, reverse=True)


def _used_of_values(space: SearchSpace, values):
    """Canonical used vectors holding exactly the multiset ``values`` (sorted
    descending): each class of equal equipped counts m takes a sub-multiset
    of the values at most m (equal to m without reduction)."""
    classes = _classes(space.equipped)
    used = [0] * len(space.equipped)

    def place(c, pool):
        if c == len(classes):
            yield tuple(used)
            return
        m, members = classes[c]

        def fits(v):
            return v == m or (v < m and space.allow_reduction)

        others = [v for v in pool if not fits(v)]
        for chosen, rest in _splits([v for v in pool if fits(v)], len(members)):
            for j, v in zip(members, chosen):
                used[j] = v
            yield from place(c + 1, sorted(others + rest, reverse=True))

    return place(0, list(values))


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


def enumerate_configs(space: SearchSpace, cap: int | None = None):
    """Yield every valid config of length at most ``cap`` (None = no cap)
    exactly once, in canonical form.

    Covers all group counts dividing the user count, all used-mode
    assignments when reduction is allowed, all groupings and all group mode
    counts.  Flat configs come from a depth-first search over used values
    that cuts every prefix whose least flat length is over the cap.  A
    grouped config's length is ``flat_length(e) * flat_length(g)`` for its
    element counts e and group counts g, so a group count is tried only
    when ``flat_length((2,) * ke) * flat_length((2,) * kg)`` fits, and a
    used vector only when its values are the products e_k * g_i of a count
    class that fits.  Users of equal (used, equipped) counts are
    interchangeable, so a grouping is a partition of the multiset of these
    types, built once in canonical group order, each type's users assigned
    lowest index first.  Group mode counts are proposed per divisor of the
    lead used count, and :class:`GroupingConfig` alone decides which
    satisfy the alignment condition.  ``require_grouping`` does not filter
    here; it only affects which configs the grouped strategy of
    :func:`optimize` may pick.
    """
    for used in _flat_used(space, cap):
        yield GroupingConfig.flat(space.equipped, used)
    K = len(space.equipped)
    for kg in (d for d in range(2, K + 1) if K % d == 0):
        for values in _grouped_values(space, kg, cap):
            for used in _used_of_values(space, values):
                yield from _groupings(space, used, kg, cap)


def _groupings(space: SearchSpace, used, kg: int, cap):
    """The configs of ``kg`` groups over these used counts within ``cap``."""
    K = len(used)
    types = [(-u, -m) for u, m in zip(used, space.equipped)]
    users_of = {t: [j for j in range(K) if types[j] == t] for t in types}
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
            if cap is None or grouped_length(cfg) <= cap:
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

    Refuses a budget below 1, and a search with more than
    ``USED_VECTOR_LIMIT`` flat used vectors within the largest budget,
    before building any config; they are counted only when the space
    holds that many in all.  Then enumerates once, up to the largest
    budget, and sorts the configs by length.  A running best per strategy
    under the key (-dof, length, num_groups, canonical string) then
    answers each budget with one bisection.  Canonical strings are unique,
    so the minimum does not depend on enumeration order.
    """
    if any(b is not None and b < 1 for b in budgets):
        raise ValueError("every length budget must be >= 1")
    cap = None if None in budgets else max(budgets, default=0)
    # n users equipped with m modes take C(m + n - 2, n) multisets of 2..m
    total = prod(comb(m + len(js) - 2, len(js)) for m, js in _classes(space.equipped))
    if space.allow_reduction and total > USED_VECTOR_LIMIT and (
        cap is None
        or sum(1 for _ in islice(_flat_used(space, cap), USED_VECTOR_LIMIT + 1))
        > USED_VECTOR_LIMIT
    ):
        raise ValueError(
            f"search has more than {USED_VECTOR_LIMIT} used-mode vectors within the budget, "
            f"above the {USED_VECTOR_LIMIT} limit; give a smaller length budget"
        )
    entries = [
        BestEntry(cfg, config_sum_dof(cfg), grouped_length(cfg))
        for cfg in enumerate_configs(space, cap)
    ]
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
