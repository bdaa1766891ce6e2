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
from .patterns import GroupingConfig, _integer, _mode_counts, flat_length, grouped_length

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


def _grouped_classes(space: SearchSpace, kg: int, cap):
    """The count classes ``(g, e)`` of ``kg`` groups that fit the equipped
    counts and the cap: group counts g and element counts e, each >= 2 and
    non-increasing, with used count e_k * g_j in the cell of position k of
    group j and length ``flat_length(e) * flat_length(g)``.

    A flat length is at least one more than its number of counts, so the
    group counts get the cap over the element level's least length and
    the element counts the cap over the group level's actual one.  With
    the equipped counts eq sorted descending and k, j counted from 0, a
    cell that n cells are at least is at most eq[n - 1]: g_j * 2 <=
    eq[(j + 1) * ke - 1] and e_k * g_j <= eq[(k + 1) * (j + 1) - 1].
    Without reduction every cell is its user's equipped count, so a cell
    that n cells are at most is at least eq[K - n]: e_k * g_j >=
    eq[K - (ke - k) * (kg - j)].  There the largest cell e_0 * g_0 is
    eq[0], which fixes e_0 and puts e_0 * g_j between eq[K - ke * (kg - j)]
    and eq[j].  A class fits when its cells, sorted, are at most eq (equal
    to it without reduction).
    """
    K = len(space.equipped)
    ke = K // kg
    eq = sorted(space.equipped, reverse=True)
    exact = not space.allow_reduction
    g_slots = [(2, eq[(j + 1) * ke - 1] // 2, j > 0) for j in range(kg)]
    walks = [g_slots]
    if exact:  # one walk per lead group count g_0, with e_0 = eq[0] / g_0
        walks = []
        for g0 in range(2, g_slots[0][1] + 1):
            if eq[0] % g0 == 0:
                e0 = eq[0] // g0
                walks.append([(g0, g0, False)] + [
                    (max(2, -(-eq[K - ke * (kg - j)] // e0)), min(hi, eq[j] // e0), True)
                    for j, (_, hi, _) in enumerate(g_slots) if j > 0
                ])
    for slots in walks:
        for g in _count_vectors(slots, None if cap is None else cap // (ke + 1)):
            e_slots = [(
                max(2, *(-(-eq[K - (ke - k) * (kg - j)] // gj) for j, gj in enumerate(g)))
                if exact else 2,
                min(eq[(k + 1) * (j + 1) - 1] // gj for j, gj in enumerate(g)),
                k > 0,
            ) for k in range(ke)]
            for e in _count_vectors(e_slots, None if cap is None else cap // flat_length(g)):
                values = sorted((x * y for x in e for y in g), reverse=True)
                if values == eq if exact else all(v <= m for v, m in zip(values, eq)):
                    yield g, e


def _grid_configs(space: SearchSpace, g, e):
    """The configs of the class ``(g, e)``, each once in canonical form.

    A grid fill gives every cell an equipped count at least its used count
    (equal without reduction) from a pool of users left per equipped count.
    Members are ordered by used, then equipped count, so equipped counts do
    not increase along a run of equal element counts in a group; groups by
    used, then equipped tuple, so equipped tuples do not increase across a
    run of equal group counts.  Cells are filled by decreasing used count,
    then group-major position, each taking the lowest index left of its
    equipped count, as the canonical used vectors and groupings need.  In
    this order any count that fits a cell leaves a fill for the cells after
    it, which need no more, so the one check is that enough counts between
    the cell's used count and the one it takes are left for its run.
    """
    K, ke = len(space.equipped), len(e)
    used = [x * y for y in g for x in e]
    order = sorted(range(K), key=lambda c: -used[c])  # stable: group-major within a count
    members = dict(_classes(space.equipped))
    pool = {m: len(js) for m, js in reversed(members.items())}  # largest count first
    run = [e[k:].count(x) for k, x in enumerate(e)]  # cells from position k on in its run
    largest = max(space.equipped)
    cells, users = [0] * K, [0] * K

    def fill(n):
        if n == K:
            by_user = [0] * K
            for c, j in enumerate(users):
                by_user[j] = used[c]
            groups = tuple(tuple(users[i:i + ke]) for i in range(0, K, ke))
            yield GroupingConfig(space.equipped, tuple(by_user), groups, g)
            return
        c = order[n]
        i, k = divmod(c, ke)
        v = used[c]
        top = cells[c - 1] if k > 0 and e[k] == e[k - 1] else largest
        if i > 0 and g[i] == g[i - 1] and cells[c - k:c] == cells[c - ke - k:c - ke]:
            top = min(top, cells[c - ke])
        spare = sum(left for m, left in pool.items() if m >= v) - run[k]
        for m, left in pool.items():
            if m < v or spare < 0:
                break
            if left and m <= top and (m == v or space.allow_reduction):
                cells[c], users[c] = m, members[m][-left]  # lowest index left
                pool[m] -= 1
                yield from fill(n + 1)
                pool[m] += 1
            spare -= left

    return fill(0)


def enumerate_configs(space: SearchSpace, cap: int | None = None):
    """Yield every valid config of length at most ``cap`` (None = no cap)
    exactly once, in canonical form.

    Covers all group counts dividing the user count, all used-mode
    assignments when reduction is allowed, all groupings and all group mode
    counts.  Flat configs come from a depth-first search over used values
    that cuts every prefix whose least flat length is over the cap.  A
    grouped config is fixed by its (g, e) class, group counts g and element
    counts e, and by which user takes each cell of that grid.  The classes
    that fit the equipped counts and the cap are walked depth first, and a
    grid fill gives each class's cells their users in canonical form, so
    every config handed to :class:`GroupingConfig` is valid and within the
    cap: none is built to be refused.  ``require_grouping`` does not filter
    here; it only affects which configs the grouped strategy of
    :func:`optimize` may pick.
    """
    for used in _flat_used(space, cap):
        yield GroupingConfig.flat(space.equipped, used)
    K = len(space.equipped)
    for kg in (d for d in range(2, K + 1) if K % d == 0):
        for g, e in _grouped_classes(space, kg, cap):
            yield from _grid_configs(space, g, e)


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
    if budget is not None:
        budget = _integer(budget, "length budget must be an integer")
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
    budgets = sorted(_integer(b, "length budget must be an integer") for b in length_budgets)
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
