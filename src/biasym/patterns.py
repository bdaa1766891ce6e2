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
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupingConfig",
    "member_order",
    "UserPattern",
    "PresetPattern",
    "base_pattern",
    "grouped_pattern",
    "flat_length",
    "grouped_length",
    "pattern_table",
    "user_label",
]

PATTERN_TABLE_HEADER = "# biasym pattern table v1"


# ======================================================================
# Grouping configurations
# ======================================================================

@dataclass(frozen=True)
class GroupingConfig:
    """A validated grouping of users plus per-user used mode counts.

    ``groups`` holds original user indices (0-based), already in canonical
    within-group order (see :func:`member_order`): descending used mode
    count, then descending equipped mode count, then original index.
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
        grs = tuple(tuple(int(u) for u in g) for g in self.groups)
        mgs = tuple(int(m) for m in self.group_mode_counts)
        object.__setattr__(self, "equipped", eq)
        object.__setattr__(self, "used", us)
        object.__setattr__(self, "groups", grs)
        object.__setattr__(self, "group_mode_counts", mgs)

        K = len(eq)
        if any(u < 2 for u in us):
            raise ValueError("every used mode count must be >= 2")
        if any(u > m for u, m in zip(us, eq)):
            raise ValueError("used mode counts cannot exceed equipped mode counts")

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

        if any(g != member_order(g, eq, us) for g in grs):
            raise ValueError("group members must be in descending used, then equipped, mode order")

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
        object.__setattr__(self, "element_counts", tuple(elem))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def flat(cls, equipped, used=None) -> "GroupingConfig":
        """Single-group config: the plain flat construction over used modes."""
        eq, us = _mode_counts(equipped, equipped if used is None else used)
        return cls(eq, us, (member_order(range(len(eq)), eq, us),), (1,))

    @classmethod
    def grouped(cls, equipped, groups, group_mode_counts, used=None) -> "GroupingConfig":
        """Build a config from explicit user-index groups, normalizing order."""
        eq, us = _mode_counts(equipped, equipped if used is None else used)
        if not all(0 <= j < len(eq) for g in groups for j in g):
            raise ValueError("groups must partition the users")
        norm = tuple(member_order(g, eq, us) for g in groups)
        return cls(eq, us, norm, tuple(group_mode_counts))

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


def _mode_counts(equipped, used) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Equipped and used mode counts as ints, checked to be a nonempty
    equipped list and to agree in length before anything indexes them by user."""
    eq = tuple(int(m) for m in equipped)
    us = tuple(int(m) for m in used)
    if not eq:
        raise ValueError("equipped mode list must be nonempty")
    if any(m < 2 for m in eq):
        raise ValueError("every equipped mode count must be >= 2")
    if len(us) != len(eq):
        raise ValueError("used mode list must match the user count")
    return eq, us


def member_order(members, equipped, used) -> tuple[int, ...]:
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
    counts = tuple(int(m) for m in mode_counts)
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
        ``flat_length(mode_counts)``.
    """
    counts = _flat_counts(mode_counts)
    K = len(counts)
    seqs: list[list[int]] = [[] for _ in range(K)]

    for digits in itertools.product(*(range(1, m) for m in counts)):
        for k in range(K):
            seqs[k].append(digits[k])

    for k in range(K):
        others = [q for q in range(K) if q != k]
        for digits in itertools.product(*(range(1, counts[q]) for q in others)):
            for pos, q in enumerate(others):
                seqs[q].append(digits[pos])
            seqs[k].append(counts[k])

    return [tuple(s) for s in seqs]


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


@dataclass(frozen=True)
class UserPattern:
    """One user's switching schedule inside a two-level supersymbol."""

    orig_index: int
    position: int  # 1-based within-group position
    group: int  # 1-based group index
    used: int
    element_modes: int
    element_seq: tuple[int, ...]
    group_seq: tuple[int, ...]

    @property
    def label(self) -> str:
        return user_label(self.position, self.group)

    def physical_seq(self) -> tuple[int, ...]:
        """1-based physical preset mode of every slot, in composite_seq order."""
        return tuple(
            (m2 - 1) * self.element_modes + m1
            for m2 in self.group_seq
            for m1 in self.element_seq
        )

    def composite_seq(self) -> tuple[tuple[int, int], ...]:
        """(m1, m2) mode pair of every slot: the element sequence repeats
        once per group-level slot, so it occupies contiguous runs."""
        return tuple((m1, m2) for m2 in self.group_seq for m1 in self.element_seq)


@dataclass(frozen=True)
class PresetPattern:
    """The full supersymbol: one UserPattern per user, group-major order."""

    config: GroupingConfig
    users: tuple[UserPattern, ...]

    @property
    def length(self) -> int:
        return len(self.users[0].element_seq) * len(self.users[0].group_seq)

    @functools.cached_property
    def streams(self) -> tuple[np.ndarray, ...]:
        """0-based slots of every user's streams: one read-only (streams, used)
        array per user, group-major.

        Row s lists the slots over which stream s repeats its one
        used-dimensional symbol vector.  Two-level streams are products of an
        element-level stream (digits of the other in-group positions) and a
        group-level replication (digits of the other groups); a stream
        occupies the element slots inside each of its group-level slots, so
        it sees every own physical mode exactly once, and two streams of one
        user never share a slot.
        """
        config = self.config
        l1 = len(self.users[0].element_seq)
        per_group = config.users_per_group
        m1_family = [u.element_seq for u in self.users[:per_group]]
        m2_family = [u.group_seq for u in self.users[::per_group]]
        out = []
        for u in self.users:
            m1_slots = _flat_stream_slots(m1_family, config.element_counts, u.position - 1)
            m2_slots = _flat_stream_slots(m2_family, config.group_mode_counts, u.group - 1)
            slots = np.array([
                sorted(s2 * l1 + s1 for s2 in m2_slots[b_key] for s1 in m1_slots[a_key])
                for b_key in sorted(m2_slots)
                for a_key in sorted(m1_slots)
            ], dtype=np.intp)
            slots.flags.writeable = False
            out.append(slots)
        return tuple(out)


def _flat_stream_slots(family, counts, k: int) -> dict[tuple, list[int]]:
    """0-based slots of user k's streams in a flat ``family`` of mode sequences.

    Streams are keyed by the other users' modes: slot t joins the stream
    keyed by their modes at t unless one holds its final mode (another
    user's hold segment).  A stream thus repeats over M_k - 1 slots of the
    interleaving block and one slot of user k's own hold segment.
    """
    others = counts[:k] + counts[k + 1:]
    slots: dict[tuple, list[int]] = {}
    for t, modes in enumerate(zip(*family)):
        key = modes[:k] + modes[k + 1:]
        if all(m < c for m, c in zip(key, others)):
            slots.setdefault(key, []).append(t)
    return slots


def grouped_pattern(config: GroupingConfig) -> PresetPattern:
    """Construct the two-level supersymbol pattern for a grouping config.

    Every group shares the element-level pattern family built from the
    common element mode counts; group i's members all follow group i's
    group-level sequence.  A single group's level is the one-slot flat
    pattern of the count (1,), so the result coincides with the flat
    pattern over the used mode counts.
    """
    m1_family = base_pattern(config.element_counts)
    m2_family = base_pattern(config.group_mode_counts)

    users = []
    for i, group in enumerate(config.groups):
        for k, orig in enumerate(group):
            users.append(
                UserPattern(
                    orig_index=orig,
                    position=k + 1,
                    group=i + 1,
                    used=config.used[orig],
                    element_modes=config.element_counts[k],
                    element_seq=m1_family[k],
                    group_seq=m2_family[i],
                )
            )
    return PresetPattern(config=config, users=tuple(users))


def grouped_length(config: GroupingConfig) -> int:
    """Supersymbol length of a config without constructing the pattern."""
    return flat_length(config.element_counts) * flat_length(config.group_mode_counts)


# ======================================================================
# Serialization
# ======================================================================

def pattern_table(pattern: PresetPattern) -> str:
    """Plain-text table: one row per slot, one column per user.

    Entries read "m1.m2/phys".  Intended for golden-file comparisons and
    for eyeballing small supersymbols.
    """
    header = ["slot"] + [u.label for u in pattern.users]
    lines = [PATTERN_TABLE_HEADER, ",".join(header)]
    columns = [
        [f"{m1}.{m2}/{p}" for (m1, m2), p in zip(u.composite_seq(), u.physical_seq())]
        for u in pattern.users
    ]
    for t, row in enumerate(zip(*columns), 1):
        lines.append(f"{t}," + ",".join(row))
    return "\n".join(lines) + "\n"
