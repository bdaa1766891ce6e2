"""Preset-mode switching patterns for blind interference alignment.

Users equipped with reconfigurable antennas switch among preset modes on a
fixed schedule (the supersymbol) so that, without any channel knowledge at
the transmitters, interference collapses into low-dimensional subspaces.

Two constructions live here:

* the flat pattern, where every user staggers its mode switches against
  every other user directly, and
* a two-level grouping construction, where users are partitioned into
  groups; each user follows the Cartesian product of an element-level
  pattern (m1, staggered within the group) and a group-level pattern
  (m2, staggered across groups).
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from math import prod

import numpy as np

__all__ = [
    "GroupingConfig",
    "PresetPattern",
    "base_pattern",
    "grouped_pattern",
    "flat_length",
    "grouped_length",
    "pattern_table",
    "user_label",
]

PATTERN_TABLE_HEADER = "# biasym pattern table v1"

# bytes the pattern cache may hold in all: shared patterns, their modes and
# streams, and the verify plans they keep
PATTERN_CACHE_BYTES = 32 * 2**20


# ======================================================================
# Grouping configurations
# ======================================================================

@dataclass(frozen=True)
class GroupingConfig:
    """A validated grouping of users plus per-user used mode counts.

    ``groups`` holds original user indices (0-based); the constructor puts
    each group's members in canonical order: descending used mode count,
    then descending equipped mode count, then original index.  Group order
    is kept, since group i owns ``group_mode_counts[i]``.
    ``element_counts[k]`` is the element-level mode count shared by the
    users at within-group position k of every group; it must satisfy
    ``used == element_counts[position] * group_mode_counts[group]`` for
    every user, which is exactly the condition that lets group-level
    switching align across groups.

    A single-group config carries ``group_mode_counts == (1,)``: its group
    level is the flat pattern of one user with one mode, a single slot, so
    the construction is the flat pattern over the used mode counts.
    """

    equipped: tuple[int, ...]
    used: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    group_mode_counts: tuple[int, ...]
    element_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        eq, us = _mode_counts(self.equipped, self.used)
        grs = tuple(tuple(_integer(u, "user indices must be integers") for u in g)
                    for g in self.groups)
        mgs = tuple(_integer(m, "mode counts must be integers") for m in self.group_mode_counts)
        if any(u < 2 for u in us):
            raise ValueError("every used mode count must be >= 2")
        if any(u > m for u, m in zip(us, eq)):
            raise ValueError("used mode counts cannot exceed equipped mode counts")

        K = len(eq)
        kg = len(grs)
        if kg < 1 or len(mgs) != kg:
            raise ValueError("one group mode count is required per group")
        if K % kg != 0:
            raise ValueError("user count must be divisible by the group count")
        ke = K // kg
        if any(len(g) != ke for g in grs):
            raise ValueError("all groups must have exactly users-per-group members")
        flat = [u for g in grs for u in g]
        if sorted(flat) != list(range(K)):
            raise ValueError("groups must partition the users")

        if kg == 1:
            if mgs != (1,):
                raise ValueError("a single group must have group mode count 1")
        elif any(m < 2 for m in mgs):
            raise ValueError("group mode counts must be >= 2 when there are several groups")

        # every index is in range now; group order stays, as group i owns mgs[i]
        grs = tuple(_member_order(g, eq, us) for g in grs)

        # alignment condition: element-level counts agree across groups per position
        elem = []
        for pos in range(ke):
            counts = set()
            for i, g in enumerate(grs):
                u = us[g[pos]]
                m = mgs[i]
                if u % m != 0:
                    raise ValueError(
                        "group mode count must divide every member's used mode count"
                    )
                counts.add(u // m)
            if len(counts) != 1:
                raise ValueError(
                    "element mode counts must match across groups at each position"
                )
            e = counts.pop()
            if e < 2:
                raise ValueError("element mode counts must be >= 2")
            elem.append(e)
        object.__setattr__(self, "equipped", eq)
        object.__setattr__(self, "used", us)
        object.__setattr__(self, "groups", grs)
        object.__setattr__(self, "group_mode_counts", mgs)
        object.__setattr__(self, "element_counts", tuple(elem))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def flat(cls, equipped, used=None) -> "GroupingConfig":
        """Single-group config: the plain flat construction over used modes."""
        return cls.grouped(equipped, [range(len(equipped))], (1,), used)

    @classmethod
    def grouped(cls, equipped, groups, group_mode_counts, used=None) -> "GroupingConfig":
        """Config from explicit user-index groups; ``used`` defaults to ``equipped``."""
        return cls(equipped, equipped if used is None else used, groups, group_mode_counts)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.equipped)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def users_per_group(self) -> int:
        return self.num_users // self.num_groups

    def labels(self) -> list[tuple[int, int]]:
        """(position, group) labels, 1-based, in group-major user order."""
        return [
            (k + 1, i + 1)
            for i in range(self.num_groups)
            for k in range(self.users_per_group)
        ]

    def user_order(self) -> list[int]:
        """Original user indices in group-major order."""
        return [u for g in self.groups for u in g]

    def used_in_order(self) -> list[int]:
        """Used mode counts in group-major order: each user's antenna dim."""
        return [self.used[u] for u in self.user_order()]

    def canonical_string(self) -> str:
        parts = [f"KG={self.num_groups}"]
        for i, g in enumerate(self.groups):
            eq = ",".join(str(self.equipped[u]) for u in g)
            parts.append(f"G{i + 1}=[{eq}]/MG{self.group_mode_counts[i]}")
        used = ",".join(str(self.used[u]) for u in self.user_order())
        parts.append(f"used={used}")
        return ";".join(parts)

    def __str__(self) -> str:
        return self.canonical_string()


def _integer(value, rule: str) -> int:
    """``value`` as an int; a fraction or text is refused with ``rule``, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{rule}, got {value!r}") from None


def _mode_counts(equipped, used) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Equipped and used mode counts as ints, checked to be a nonempty
    equipped list and to agree in length before anything indexes them by user."""
    eq = tuple(_integer(m, "mode counts must be integers") for m in equipped)
    us = tuple(_integer(m, "mode counts must be integers") for m in used)
    if not eq:
        raise ValueError("equipped mode list must be nonempty")
    if any(m < 2 for m in eq):
        raise ValueError("every equipped mode count must be >= 2")
    if len(us) != len(eq):
        raise ValueError("used mode list must match the user count")
    return eq, us


def _member_order(members, equipped, used) -> tuple[int, ...]:
    """Canonical within-group order of user indices: descending used mode
    count, then descending equipped mode count, then index.

    Users that tie on both counts are interchangeable, so every relabeling
    of them maps to the same order.
    """
    return tuple(sorted(members, key=lambda j: (-used[j], -equipped[j], j)))


# ======================================================================
# Flat construction
# ======================================================================

def _flat_counts(mode_counts) -> tuple[int, ...]:
    """Mode counts of one flat level as ints: each >= 2, or the lone (1,),
    one user with one mode (a single group's level)."""
    counts = tuple(_integer(m, "mode counts must be integers") for m in mode_counts)
    if not counts:
        raise ValueError("mode list must be nonempty")
    if counts != (1,) and any(m < 2 for m in counts):
        raise ValueError("every mode count must be >= 2")
    return counts


def base_pattern(mode_counts) -> list[tuple[int, ...]]:
    """Per-user mode sequences of the flat staggered construction.

    The schedule has two parts.  An interleaving block first enumerates, in
    mixed-radix order with the last user's digit moving fastest, every
    combination of non-final modes (user k cycling through 1..M_k - 1).
    Then one hold segment per user follows, in user order: inside segment k
    user k pins its final mode M_k while the other users re-enumerate their
    non-final modes in the same mixed-radix order.

    Args:
        mode_counts: per-user switching mode counts, each >= 2, or (1,).

    Returns:
        One tuple of 1-based mode indices per user, all of equal length
        ``flat_length(mode_counts)``: the rows of ``_level_modes``.
    """
    return [tuple(row) for row in _level_modes(_flat_counts(mode_counts)).tolist()]


@functools.lru_cache(maxsize=16)
def _level_modes(counts: tuple[int, ...]) -> np.ndarray:
    """``base_pattern`` of checked counts as one read-only (users, length)
    integer array, built once per distinct counts while they stay cached.

    With radix r_q = M_q - 1, the interleaving block is the mixed-radix
    numbering of its prod r_q slots, digits plus one; hold segment k is the
    same numbering with user k's radix taken as 1, its row then set to M_k.
    """
    radix = [m - 1 for m in counts]
    parts = [np.indices(radix).reshape(len(counts), -1) + 1]
    for k, m in enumerate(counts):
        hold = np.indices(radix[:k] + [1] + radix[k + 1:]).reshape(len(counts), -1) + 1
        hold[k] = m
        parts.append(hold)
    modes = np.concatenate(parts, axis=1)
    modes.flags.writeable = False
    return modes


def flat_length(mode_counts) -> int:
    """Supersymbol length of the flat construction.

    Equals prod(M_k - 1) for the interleaving block plus, for each user k,
    prod over q != k of (M_q - 1) for its hold segment; both are folded up
    one user at a time.  The lone count (1,) gives 1.
    """
    block, holds = 1, 0
    for m in _flat_counts(mode_counts):
        block, holds = block * (m - 1), holds * (m - 1) + block
    return block + holds


# ======================================================================
# Two-level construction
# ======================================================================

def user_label(position: int, group: int) -> str:
    """'u{position}.{group}': how tables, reports and the CLI name a user."""
    return f"u{position}.{group}"


@dataclass(frozen=True, eq=False)
class PresetPattern:
    """The full supersymbol: every user's two level sequences, group-major.

    ``element_seq[u]`` is user u's element-level sequence, the row of its
    within-group position in the element level's flat pattern, and
    ``group_seq[u]`` its group-level sequence, the row of its group in the
    group level's.  Both are read-only (users, level length) integer arrays
    of 1-based modes; every slot pairs one element slot with one group slot.

    ``grouped_pattern`` shares one pattern per config, which keeps the verify
    plans of ``signal`` in ``_plans``, by coherence length, while it stays
    cached (see ``_PatternCache``).  A pattern built by hand, or with
    ``dataclasses.replace``, is a new instance whose ``_plans`` starts empty,
    so it never reads another pattern's plan.
    """

    config: GroupingConfig
    element_seq: np.ndarray
    group_seq: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def length(self) -> int:
        return self.element_seq.shape[1] * self.group_seq.shape[1]

    @functools.cached_property
    def physical_modes(self) -> np.ndarray:
        """1-based physical preset mode of every user at every slot, one
        read-only (users, length) integer array: (m2 - 1) * M1 + m1, with M1
        the element mode count of the user's position."""
        m1, m2 = _slot_modes(self.element_seq, self.group_seq)
        config = self.config  # group-major: positions run fastest
        modes = (m2 - 1) * np.array(config.element_counts * config.num_groups)[:, None] + m1
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def streams(self) -> tuple[np.ndarray, ...]:
        """0-based slots of every user's streams: one read-only (streams, used)
        array per user, group-major.

        Row s lists the slots over which stream s repeats its one
        used-dimensional symbol vector.  The config's counts alone fix them:
        a two-level stream is a group-level stream (outer) times an
        element-level one, each from ``_flat_streams``, and takes its
        element slots inside each of its group slots.  So a stream sees every
        own physical mode once, and two streams of one user share no slot.
        """
        elem, grp = self.config.element_counts, self.config.group_mode_counts
        l1 = flat_length(elem)
        s1 = [_flat_streams(elem, k) for k in range(len(elem))]
        s2 = [_flat_streams(grp, i) for i in range(len(grp))]
        out = []
        for k, i in self.config.labels():
            a, b = s1[k - 1], s2[i - 1]
            slots = (b[:, None, :, None] * l1 + a[None, :, None, :]).reshape(len(b) * len(a), -1)
            slots.flags.writeable = False
            out.append(slots)
        return tuple(out)


def _holds(counts) -> list[int]:
    """Hold-segment length of every user of one flat level: for user k,
    H_k = prod over q != k of (counts[q] - 1), its stream count."""
    return [prod(m - 1 for q, m in enumerate(counts) if q != k) for k in range(len(counts))]


def _flat_streams(counts, k: int) -> np.ndarray:
    """0-based slots of user k's streams in the flat pattern of ``counts``,
    one ascending row per stream.

    With radix r_q = M_q - 1, the interleaving block numbers its B = prod r_q
    slots in mixed radix, and stream s is where the other users' digits spell
    s: the r_k block slots along user k's axis, then slot s of user k's own
    hold segment, which starts at B + sum over q < k of H_q.  The lone count
    (1,) has B = 0 and H = 1: the one stream [[0]].
    """
    radix = [m - 1 for m in counts]
    block = prod(radix)
    holds = _holds(counts)
    slots = np.moveaxis(np.arange(block).reshape(radix), k, -1).reshape(holds[k], radix[k])
    return np.column_stack([slots, block + sum(holds[:k]) + np.arange(holds[k])])


def grouped_pattern(config: GroupingConfig) -> PresetPattern:
    """Construct the two-level supersymbol pattern for a grouping config.

    Every group shares the element-level pattern family built from the
    common element mode counts; group i's members all follow group i's
    group-level sequence.  A single group's level is the one-slot flat
    pattern of the count (1,), so the result coincides with the flat
    pattern over the used mode counts.  Patterns are immutable, so equal
    configs share one while it stays cached (see ``_PatternCache``).
    """
    return _CACHE.pattern(config)


_CacheInfo = namedtuple("_CacheInfo", ["hits", "misses", "patterns", "plans", "bytes"])


class _PatternCache:
    """Shared patterns by config, least recently used first, and the verify
    plans they keep, within ``PATTERN_CACHE_BYTES`` in all.

    A pattern is charged what it holds once its physical modes and streams
    are built (``_pattern_bytes``), and each plan it keeps its ``nbytes``, so
    nothing built later takes the cache past its bound.  Each addition drops
    the least recently used patterns until the charges fit; a pattern that
    does not fit on its own, with the plan just built for it, is used and
    not kept.  A dropped pattern lets go of its plans, so only cached
    patterns hold any.  ``hits`` and ``misses`` count plan lookups.
    """

    def __init__(self) -> None:
        self.patterns: dict[GroupingConfig, PresetPattern] = {}
        self.charges: dict[GroupingConfig, int] = {}
        self.held = self.hits = self.misses = 0

    def pattern(self, config: GroupingConfig) -> PresetPattern:
        pattern = self.patterns.get(config)
        if pattern is None:
            pattern = PresetPattern(config, *_design_modes(config))
            self._keep(pattern, _pattern_bytes(config))
        else:
            self._keep(pattern, self._release(config))
        return pattern

    def plan(self, pattern: PresetPattern, key, build):
        """``pattern``'s plan for ``key``: kept, or built by ``build()`` and
        kept when ``pattern`` is the cached one and the two fit."""
        plan = pattern._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._keep(pattern, self._release(pattern.config))
            return plan
        self.misses += 1
        plan = build()
        if self.patterns.get(pattern.config) is pattern:
            pattern._plans[key] = plan
            self._keep(pattern, self._release(pattern.config) + plan.nbytes)
        return plan

    def _release(self, config: GroupingConfig) -> int:
        """Take ``config``'s pattern out of the order; returns its charge."""
        del self.patterns[config]
        charge = self.charges.pop(config)
        self.held -= charge
        return charge

    def _keep(self, pattern: PresetPattern, charge: int) -> None:
        """Keep ``pattern`` as the most recent entry, then drop the least
        recent ones until the charges fit the bound; a pattern charged more
        than the bound alone is dropped itself."""
        if charge > PATTERN_CACHE_BYTES:
            pattern._plans.clear()
            return
        self.patterns[pattern.config] = pattern
        self.charges[pattern.config] = charge
        self.held += charge
        while self.held > PATTERN_CACHE_BYTES:
            oldest = next(iter(self.patterns.values()))
            self._release(oldest.config)
            oldest._plans.clear()

    def clear(self) -> None:
        """Drop every kept pattern and plan, and zero the lookup counts."""
        for pattern in self.patterns.values():
            pattern._plans.clear()
        self.patterns.clear()
        self.charges.clear()
        self.held = self.hits = self.misses = 0


_CACHE = _PatternCache()


def _cache_info() -> _CacheInfo:
    """Plan lookups that hit and missed, kept patterns and plans, and the
    bytes charged for them, as ``functools.lru_cache``'s ``cache_info()``."""
    plans = sum(len(p._plans) for p in _CACHE.patterns.values())
    return _CacheInfo(_CACHE.hits, _CACHE.misses, len(_CACHE.patterns), plans, _CACHE.held)


def _pattern_bytes(config: GroupingConfig) -> int:
    """Bytes of a pattern's integer arrays once all are built: its two level
    sequences, its physical modes and its streams."""
    elem, grp = config.element_counts, config.group_mode_counts
    hold1, hold2 = _holds(elem), _holds(grp)
    labels, dims = config.labels(), config.used_in_order()
    streams = sum(hold1[k - 1] * hold2[i - 1] * d for (k, i), d in zip(labels, dims))
    cells = len(dims) * (flat_length(elem) + flat_length(grp) + grouped_length(config)) + streams
    return cells * np.dtype(np.intp).itemsize


def _design_modes(config: GroupingConfig) -> tuple[np.ndarray, np.ndarray]:
    """(element_seq, group_seq) of ``config``'s pattern: every user's row of
    its level's family, as two read-only (users, level length) arrays."""
    i, k = np.divmod(np.arange(config.num_users), config.users_per_group)  # group-major
    rows = _level_modes(config.element_counts)[k], _level_modes(config.group_mode_counts)[i]
    for seq in rows:  # fancy-indexed rows are copies
        seq.flags.writeable = False
    return rows


def _slot_modes(element_seq: np.ndarray, group_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every user's (element, group) mode at every slot, as two (users,
    length) arrays: the element sequence repeats once per group-level slot."""
    users, length1 = element_seq.shape
    return (np.repeat(element_seq[:, None], group_seq.shape[1], axis=1).reshape(users, -1),
            np.repeat(group_seq, length1, axis=1))


def grouped_length(config: GroupingConfig) -> int:
    """Supersymbol length of a config without constructing the pattern."""
    return flat_length(config.element_counts) * flat_length(config.group_mode_counts)


# ======================================================================
# Serialization
# ======================================================================

def pattern_table(pattern: PresetPattern) -> str:
    """Plain-text table: one row per slot, one column per user.

    Entries read "m1.m2/phys".  Intended for golden-file comparisons and
    for eyeballing small supersymbols.  Each user's cells are formatted
    once per physical mode and looked up slot by slot.
    """
    config = pattern.config
    columns = []
    for modes, (k, _) in zip(pattern.physical_modes.tolist(), config.labels()):
        m = config.element_counts[k - 1]  # M1: the element level runs fastest in p - 1
        cells = {p: f"{(p - 1) % m + 1}.{(p - 1) // m + 1}/{p}" for p in set(modes)}
        columns.append([cells[p] for p in modes])
    header = ["slot", *(user_label(*label) for label in config.labels())]
    lines = [PATTERN_TABLE_HEADER, ",".join(header)]
    lines += [f"{t}," + ",".join(row) for t, row in enumerate(zip(*columns), 1)]
    return "\n".join(lines) + "\n"
