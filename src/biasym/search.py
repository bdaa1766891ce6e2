"""Exhaustive search over grouping configurations under a length budget.

The coherence time of the channel caps how long a supersymbol can be, so
the interesting question is which construction squeezes the most sum DoF
into at most L slots: plain mode reduction (use fewer presets than
equipped, no grouping) or a two-level grouping.  Both strategies are
searched exhaustively.  A config's length and sum DoF depend only on its
count class (g, e), group counts g and element counts e, a flat config
being the one-group class g = (1,).  One walk yields the classes that fit,
group count 1 first; the search ranks them and fills users into only the
classes that answer a budget, once per answered key.  Each fill yields its
configs once, in canonical form, through the one validating constructor,
so relabelings of interchangeable users or groups never appear twice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import groupby, islice
from operator import itemgetter

from .dof import render_decimal
from .patterns import GroupingConfig, _integer, _mode_counts

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

CLASS_LIMIT = 2**16  # count classes one search may walk

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
    """Each non-increasing vector of counts with one count from ``lo`` to
    ``hi`` per ``(lo, hi)`` slot whose flat length is at most ``cap``
    (None = no cap), as (vector, length, desired dimensions).

    The flat length grows with every count, so once a prefix filled up
    with 2s is over the cap, so is every vector that extends it.  The
    depth-first search folds the length one count at a time, block and
    holds as in the flat construction, cuts the prefix there, and yields
    each vector with its own fold: length B + H and, for p counts, desired
    dimensions p B + H, its flat sum DoF times its length.
    """
    prefix = []

    def extend(block, holds, prev):
        p = len(prefix)
        if p == len(slots):
            yield tuple(prefix), block + holds, p * block + holds
            return
        lo, hi = slots[p]
        rest = len(slots) - p - 1  # 2s add one block each
        for v in range(lo, min(hi, prev) + 1):
            b, h = block * (v - 1), holds * (v - 1) + block
            if cap is not None and b * (1 + rest) + h > cap:
                break
            prefix.append(v)
            yield from extend(b, h, v)
            prefix.pop()

    return extend(1, 0, slots[0][1])


def _count_classes(space: SearchSpace, cap):
    """Every count class that fits the equipped counts and the cap, as
    ``(g, e, length, desired)``, by group count kg, each divisor of the
    user count from 1 up: group counts g and element counts e,
    non-increasing, with used count e_k * g_j in the cell of position k of
    group j, and length and desired dimensions (the class's sum DoF is
    desired / length) the products of the two levels' own, each from its
    own walk.  One group is g = (1,), its e the used counts sorted
    descending; more groups take group counts >= 2.

    A flat length is at least one more than its number of counts, so the
    group counts get the cap over the element level's least length and
    the element counts the cap over the group level's walked one.  With
    the equipped counts eq sorted descending and k, j counted from 0, a
    cell that n cells are at least is at most eq[n - 1]: g_j * 2 <=
    eq[(j + 1) * ke - 1] and e_k * g_j <= eq[(k + 1) * (j + 1) - 1].
    Without reduction every cell is its user's equipped count, so a cell
    that n cells are at most is at least eq[K - n]: e_k * g_j >=
    eq[K - (ke - k) * (kg - j)].  There the largest cell e_0 * g_0 is
    eq[0], which fixes e_0 and puts e_0 * g_j between eq[K - ke * (kg - j)]
    and eq[j].  A class fits when its cells, sorted, are at most eq (equal
    to it without reduction).  A single row or column of cells, kg or ke
    of 1, is sorted as it stands, so there the bounds alone make it fit.
    """
    K = len(space.equipped)
    eq = sorted(space.equipped, reverse=True)
    exact = not space.allow_reduction
    for kg in (d for d in range(1, K + 1) if K % d == 0):
        ke = K // kg
        g_slots = [(1, 1)] if kg == 1 else [(2, eq[(j + 1) * ke - 1] // 2) for j in range(kg)]
        walks = [g_slots]
        if exact:  # one walk per lead group count g_0, with e_0 = eq[0] / g_0
            walks = []
            for g0 in range(g_slots[0][0], g_slots[0][1] + 1):
                if eq[0] % g0 == 0:
                    e0 = eq[0] // g0
                    walks.append([(g0, g0)] + [
                        (max(2, -(-eq[K - ke * (kg - j)] // e0)), min(hi, eq[j] // e0))
                        for j, (_, hi) in enumerate(g_slots) if j > 0
                    ])
        for slots in walks:
            for g, lg, ng in _count_vectors(slots, None if cap is None else cap // (ke + 1)):
                e_slots = [(
                    max(2, *(-(-eq[K - (ke - k) * (kg - j)] // gj) for j, gj in enumerate(g)))
                    if exact else 2,
                    min(eq[(k + 1) * (j + 1) - 1] // gj for j, gj in enumerate(g)),
                ) for k in range(ke)]
                for e, le, ne in _count_vectors(e_slots, None if cap is None else cap // lg):
                    if min(kg, ke) > 1:
                        cells = sorted((x * y for x in e for y in g), reverse=True)
                        if cells != eq if exact else any(v > m for v, m in zip(cells, eq)):
                            continue
                    yield g, e, lg * le, ng * ne


def _class_configs(space: SearchSpace, g, e):
    """The configs of the class ``(g, e)``, each once in canonical form, in
    ascending canonical-string order: the first is the class's least.

    Within a class the string varies only in the groups' equipped lists,
    so the cells are filled group-major, each with an equipped count at
    least its used count (equal without reduction), tried in the order of
    its text in the string: the count and then ``,``, or ``]`` at a
    group's last position, so "12," < "4," and "21]" < "2]".  Equipped
    counts do not increase along a run of equal element counts in a group,
    nor equipped tuples across a run of equal group counts.  A count is
    kept only while the counts left can still fill the cells left (a Hall
    check), so few branches die.  Users of one equipped count then take
    its cells by decreasing used count, then group-major position, lowest
    index first, as the canonical used vectors and groupings need.
    """
    K, ke = len(space.equipped), len(e)
    used = [x * y for y in g for x in e]
    order = sorted(range(K), key=lambda c: -used[c])  # stable: group-major within a count
    members = {m: [j for j, x in enumerate(space.equipped) if x == m]  # largest count first
               for m in sorted(set(space.equipped), reverse=True)}
    pool = {m: len(js) for m, js in members.items()}
    by_text = {end: sorted(pool, key=lambda m: f"{m}{end}") for end in ",]"}
    run = [e[k:].count(x) - 1 for k, x in enumerate(e)]  # cells after k in its run
    # cells after c that must not take more than c: the rest of its run and, at
    # a group's first position, the first runs of the later groups of its count
    capped = [run[k] + (k == 0) * (run[0] + 1) * g[i + 1:].count(g[i])
              for i in range(len(g)) for k in range(ke)]
    above = []  # per cell: (t, cells after it of used count >= t) for each larger count t after it
    for c, v in enumerate(used):
        after = used[c + 1:]
        above.append([(t, sum(u >= t for u in after)) for t in set(after) if t > v])
    cells = [0] * K

    def fits(c, v, m):
        # the pool filled cells c.. before taking m, so the cells after c can
        # be short only of counts in (v, m], and its capped cells, whose used
        # count is v, of counts in [v, m]
        r = capped[c]
        return (not r or r <= sum(n for x, n in pool.items() if v <= x <= m)) and all(
            sum(n for x, n in pool.items() if x >= t) >= need
            for t, need in above[c] if t <= m
        )

    def fill(c):
        if c == K:
            left = {m: iter(js) for m, js in members.items()}
            users, by_user = [0] * K, [0] * K
            for d in order:
                users[d] = j = next(left[cells[d]])
                by_user[j] = used[d]
            groups = tuple(tuple(users[i:i + ke]) for i in range(0, K, ke))
            yield GroupingConfig(space.equipped, tuple(by_user), groups, g)
            return
        i, k = divmod(c, ke)
        top = cells[c - 1] if k > 0 and e[k] == e[k - 1] else max(pool)
        if i > 0 and g[i] == g[i - 1] and cells[c - k:c] == cells[c - ke - k:c - ke]:
            top = min(top, cells[c - ke])
        v = used[c]
        for m in by_text["]" if k == ke - 1 else ","]:
            if pool[m] and v <= m <= top and (m == v or space.allow_reduction):
                pool[m] -= 1
                if fits(c, v, m):
                    cells[c] = m
                    yield from fill(c + 1)
                pool[m] += 1

    return fill(0)


def enumerate_configs(space: SearchSpace, cap: int | None = None):
    """Yield every valid config of length at most ``cap`` (None = no cap)
    exactly once, in canonical form: every count class times its fill.

    Covers all group counts dividing the user count, all used-mode
    assignments when reduction is allowed, all groupings and all group mode
    counts.  Every config handed to :class:`GroupingConfig` is valid and
    within the cap: none is built to be refused.  ``require_grouping`` does
    not filter here; it only affects which configs the grouped strategy of
    :func:`optimize` may pick.
    """
    for g, e, *_ in _count_classes(space, cap):
        yield from _class_configs(space, g, e)


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

    Refuses a budget below 1, and a search with more than ``CLASS_LIMIT``
    count classes within the largest budget, before building any config.
    A config's DoF, length and group count depend only on its class (g, e):
    desired / length, both integers the walk yields with the class, and
    len(g).  So the classes are sorted on the integers (length, -desired,
    num_groups) and cut into runs of equal key; a budget takes a whole run
    or none of it.  A running best run per strategy, the least (-dof,
    length, num_groups) so far, answers each budget with one bisection,
    and nothing is filled until then.  Each run that answers a budget is
    filled once, for the least canonical string of its classes' first
    configs, on which ties break; canonical strings are unique, so the
    answer does not depend on the order of the walk.
    """
    if any(b is not None and b < 1 for b in budgets):
        raise ValueError("every length budget must be >= 1")
    cap = None if None in budgets else max(budgets, default=0)
    classes = list(islice(_count_classes(space, cap), CLASS_LIMIT + 1))
    if len(classes) > CLASS_LIMIT:
        raise ValueError(
            f"search has more than {CLASS_LIMIT} count classes within the budget, "
            f"above the {CLASS_LIMIT} limit; give a smaller length budget"
        )
    ranked = sorted((length, -desired, len(g), g, e) for g, e, length, desired in classes)
    best = [None, None]  # (key, run) of the best run: conventional, grouped
    rows, lengths = [(None, None)], []
    for (length, neg, kg), run in groupby(ranked, itemgetter(0, 1, 2)):
        key, run = (Fraction(neg, length), length, kg), tuple(r[3:] for r in run)
        for i, admits in enumerate((kg == 1, kg >= 2 or not space.require_grouping)):
            if admits and (best[i] is None or key < best[i][0]):
                best[i] = (key, run)
        rows.append(tuple(best))
        lengths.append(length)

    @cache  # a key has one run, so each answered key is filled once
    def answer(best):
        if best is None:
            return None
        (neg_dof, length, _), run = best
        config = min((next(_class_configs(space, g, e)) for g, e in run), key=str)
        return BestEntry(config, -neg_dof, length)

    at = [len(lengths) if b is None else bisect_right(lengths, b) for b in budgets]
    answers = {n: tuple(map(answer, rows[n])) for n in set(at)}
    return [SweepRow(budget, *answers[n]) for budget, n in zip(budgets, at)]


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

    def strict_band(self) -> tuple[int, int] | None:
        """Least and greatest budgets where grouping strictly beats conventional."""
        strict = [
            row.length_budget
            for row in self.rows
            if row.grouped is not None
            and (row.conventional is None or row.grouped.dof > row.conventional.dof)
        ]
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
