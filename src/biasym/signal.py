"""Simulated block-fading channels and alignment verification.

The transmitters know nothing about the channel; each symbol vector is
simply repeated over the slots its stream occupies, one slot per own
preset mode.  All alignment therefore has to come from the switching
pattern itself, and this module measures whether it does:
``verify_receivers`` ranks the effective (channel times repetition)
matrices against the exact predictions and runs a zero-forcing decode
round trip.  Every config takes one skeleton: one rank step for every
receiver's blocks, one cutoff formula, one branch for the free blocks'
singular values, one values-only fallback and one decode.

Each interferer stream fills only its own slots, and a receiver holds
one mode across it at each level that has other users, so the receiver's
own modes split its interference into independent slot components: one
per mode it holds when only one level has other users, one when both do,
and the slots where it holds its final modes untouched.  The pass ranks
the interference component by component, one small block each.  The
desired block is never built: each own stream reaches its own slots
through a dim x dim block, and when these have full rank the joint rank
is the desired rank plus the rank of the interference with the
receiver's own slot rows removed, and the decode needs only those same
blocks.  With several groups a thin SVD of those reduced blocks gives
their singular values.  In a single-group config each interferer stream
meets one row of them, on its hold slot, so their singular values are
their row norms: one pass over the kept columns' entries reads every
receiver's, and builds no block and runs no SVD.  They usually settle
the combined rank as well, at the one point that decides it: a block
with rows removed has no more singular values above a cutoff than the
whole one, so when each keeps all its columns above a cutoff at or
above the interference's, so does the whole.  Only where it does not
(short fading blocks, misaligned patterns, channels built by hand) are
a receiver's whole components built and decomposed too, values only.
No matrix as tall as the supersymbol is decomposed.  Those dim x dim
stream blocks repeat: the held modes make a few channel-row patterns
recur, and each distinct block is decomposed once per verify.

Which blocks are equal, where each distinct one is read from the
channels, and the slot components depend on the pattern and the
coherence length alone, not on the draw.  A verify splits into that
plan (``_Plan``) and the per-draw numerics: the channel gather, the
batched SVD and the passes.  A pattern that ``grouped_pattern`` shares
keeps one plan per normalised coherence length while the pattern cache
holds it, within ``patterns.PATTERN_CACHE_BYTES``, so a config verified
on many seeds builds its plan once.

Channels are drawn i.i.d. CN(0, 1) per fading block; a block spans
``coherence_length`` consecutive slots, so alignment only survives when
a whole supersymbol fits inside one block.  Noise, when requested, is
drawn for every receiver at once, before the passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .dof import ReceiverRanks, rank_predictions
from .patterns import (
    GroupingConfig,
    PresetPattern,
    _CACHE,
    _design_modes,
    _holds,
    _integer,
    _slot_modes,
    flat_length,
    grouped_length,
    user_label,
)

__all__ = [
    "ChannelSet",
    "ReceiverReport",
    "draw_channels",
    "verify_receivers",
    "random_symbols",
    "receiver_memory_bytes",
    "report_to_csv",
]

ALIGNMENT_CSV_HEADER = "# biasym alignment report v1"

RANK_RTOL = 1e-10  # singular values below max_dim * smax * RANK_RTOL count as zero


# ======================================================================
# Channels
# ======================================================================

@dataclass(frozen=True)
class ChannelSet:
    """Block-fading channel draws for every (receiver, transmitter) pair.

    ``gains[(rx, tx)]`` has shape (blocks, rx used modes, tx used modes):
    one row vector per receive preset mode, one column per transmit antenna
    dimension, redrawn independently every ``coherence_length`` slots.
    Indices are group-major user positions, matching GroupingConfig.labels().
    """

    coherence_length: int
    gains: dict[tuple[int, int], np.ndarray] = field(repr=False)


def _coherence(coherence_length, length: int) -> int:
    """Slots per fading block over a supersymbol of ``length`` slots: None,
    or any length at or past the supersymbol's, is one block."""
    if coherence_length is None:
        return length
    coherence = min(_integer(coherence_length, "coherence length must be an integer"), length)
    if coherence < 1:
        raise ValueError("coherence length must be >= 1")
    return coherence


def draw_channels(
    config: GroupingConfig,
    coherence_length: int | None = None,
    seed: int = 0,
) -> ChannelSet:
    """Draw i.i.d. CN(0, 1) block-fading channels covering one supersymbol.

    Args:
        config: validated grouping config; transmit antenna dimensions equal
            the used mode count of the paired receiver.
        coherence_length: slots per fading block; None, or any length of at
            least the supersymbol's, means one block spans the whole
            supersymbol (the ideal staggered-fading case).
        seed: numpy default_rng seed; one draw covers every pair, read
            pair by pair in row-major (rx, tx) order, real parts before
            imaginary ones, so a seed pins the whole set.
    """
    length = grouped_length(config)
    coherence_length = _coherence(coherence_length, length)
    n_blocks = -(-length // coherence_length)
    dims = config.used_in_order()
    pairs = [(rx, tx) for rx in range(len(dims)) for tx in range(len(dims))]
    sizes = np.array([n_blocks * dims[rx] * dims[tx] for rx, tx in pairs])
    starts = np.cumsum(sizes) - sizes  # of each pair's entries among all pairs'
    draws = np.random.default_rng(seed).standard_normal(2 * sizes.sum())
    # a pair's real parts start at twice its start, and its imaginary ones follow
    real = np.arange(sizes.sum()) + np.repeat(starts, sizes)
    entries = (draws[real] + 1j * draws[real + np.repeat(sizes, sizes)]) / np.sqrt(2.0)
    gains = {
        (rx, tx): entries[start:start + size].reshape(n_blocks, dims[rx], dims[tx])
        for (rx, tx), start, size in zip(pairs, starts.tolist(), sizes.tolist())
    }
    return ChannelSet(coherence_length=coherence_length, gains=gains)


# ======================================================================
# Effective matrices and received signal
# ======================================================================

class _DimPlan:
    """The transmitters of one dim in a verify plan (see ``_Plan``).

    ``users`` lists them, ``counts`` their stream counts and ``starts`` each
    one's first stream among the dim's; ``slots`` (streams, dim) holds those
    streams' slots and ``owner`` each stream's transmitter.  ``index[rx, s]``
    is the (rx, s) block's place among the dim's distinct blocks, ``own[s]``
    stream s's at its own receiver, and ``gather[i]`` the rows of distinct
    block i in the dim's channel table (see ``_stream_batches``).
    """

    __slots__ = ("dim", "users", "counts", "starts", "slots", "owner", "index", "own", "gather")

    def __init__(self, dim, users, counts, starts, slots, owner, index, own, gather):
        self.dim, self.users, self.counts, self.starts = dim, users, counts, starts
        self.slots, self.owner, self.index, self.own, self.gather = slots, owner, index, own, gather


class _Plan:
    """What every verify of one pattern at one coherence length reads that
    no channel draw changes: which stream blocks are equal, where each
    distinct one is read from, and the slot components.

    ``blocks`` fading blocks cover the supersymbol, and ``dims`` holds one
    ``_DimPlan`` per distinct dim.  An (rx, s) block reads row (fading
    block, rx's mode) of ``channels.gains[rx, tx]`` at each of its slots, so
    blocks with equal receiver, transmitter and per-slot (fading block,
    mode) are equal, whatever the gains.  Each slot's pair is one integer
    below blocks x modes <= L x modes; a lexicographic sort of the keys,
    receiver first, finds the distinct blocks.  A receiver holds one mode
    across most interferer streams, so few keys remain: flat (5,5,5,5) has
    52 distinct blocks of 1,024 at ideal fading.  The transmitters of one dim
    are keyed by one sort.

    ``at[tx]`` is (j, u): tx is user u of ``dims[j]``.  ``components()``
    gives the slot components, built on first use: a grouped config's
    passes read them at every receiver, a flat config's only where a
    receiver's certificate fails.  ``nbytes`` counts every array the plan
    holds or may build, so the pattern cache that keeps it stays within its
    bound.  All of its arrays are read-only.
    """

    __slots__ = ("config", "streams", "length", "blocks", "dims", "at", "nbytes", "_components")

    def __init__(self, pattern: PresetPattern, coherence: int):
        config, streams, length = pattern.config, pattern.streams, pattern.length
        self.config, self.streams, self.length = config, streams, length
        self.blocks = -(-length // coherence)
        self._components = None
        per_user = np.array(config.used_in_order())
        modes = pattern.physical_modes - 1
        used = per_user.max()
        K = len(streams)
        self.dims, self.at = [], [None] * K
        for dim in sorted({s.shape[1] for s in streams}):
            users = [tx for tx, s in enumerate(streams) if s.shape[1] == dim]
            for u, tx in enumerate(users):
                self.at[tx] = (len(self.dims), u)
            counts = [len(streams[tx]) for tx in users]
            slots = np.concatenate([streams[tx] for tx in users])
            n = len(slots)
            user = np.repeat(np.arange(len(users)), counts)
            fading = slots // coherence  # (streams, dim)
            # keys, row by (rx, s): its (rx, tx) pair, then one (fading block,
            # mode) per slot, written a slot at a time
            key = np.empty((1 + dim, K, n), dtype=np.intp)
            key[0] = np.arange(K)[:, None] * len(users) + user
            for j in range(dim):
                np.add(modes[:, slots[:, j]], fading[:, j] * used, out=key[1 + j])
            key = key.reshape(1 + dim, K * n)
            order = np.lexsort(key[::-1])
            # a block is distinct where its sorted key differs from the one
            # before, compared a key row at a time
            first = np.zeros(K * n, dtype=bool)
            first[0] = True
            for row in key:
                ordered = row[order]
                first[1:] |= ordered[1:] != ordered[:-1]
            del ordered
            count = np.cumsum(first)
            count -= 1
            index = np.empty(K * n, dtype=np.intp)
            index[order] = count
            index = index.reshape(K, n)
            # the distinct blocks' rows in a table of every (rx, tx) pair's
            # gains, rx-major, each pair's blocks x used_rx rows in turn
            rx_of, s_of = np.divmod(order[first], n)
            sizes = np.repeat(self.blocks * per_user, len(users))
            base = (np.cumsum(sizes) - sizes).reshape(K, len(users))
            # within the pair's gains
            rows = fading[s_of] * per_user[rx_of, None] + modes[rx_of[:, None], slots[s_of]]
            owner = np.repeat(users, counts)
            self.dims.append(_DimPlan(
                dim, users, counts, np.cumsum([0, *counts[:-1]]), slots, owner, index,
                index[owner, np.arange(n)], rows + base[rx_of, user[s_of]][:, None],
            ))
        arrays = [
            getattr(d, name) for d in self.dims
            for name in ("starts", "slots", "owner", "index", "own", "gather")
        ]
        for a in arrays:
            a.flags.writeable = False
        # the slot components, built or not: position and row order, (K, L) each
        self.nbytes = sum(a.nbytes for a in arrays) + 2 * K * length * np.dtype(np.intp).itemsize

    def components(self):
        """(position, layouts): every receiver's slot components
        (``_slot_components``)."""
        if self._components is None:
            self._components = _slot_components(self.config, self.streams)
        return self._components


def _verify_plan(pattern: PresetPattern, coherence_length) -> _Plan:
    """``pattern``'s plan at ``coherence_length`` slots per fading block.

    Plans are keyed by the normalised length (``_coherence``), so None and
    every length at or past L share one.  A pattern that ``grouped_pattern``
    shares keeps its plans while the pattern cache holds it, so the verifies
    of one config and coherence after the first build none.
    """
    coherence = _coherence(coherence_length, pattern.length)
    return _CACHE.plan(pattern, coherence, lambda: _Plan(pattern, coherence))


class _Draw:
    """One dim's stream blocks on one channel draw (see ``_stream_batches``).

    ``plan`` is the dim's ``_DimPlan``.  Stream s's dim x dim block at
    receiver rx has as row j the channel row rx sees at slot ``plan.slots[s,
    j]``, in its own mode there.  Blocks that read the same rows are equal,
    so each is kept once: the (rx, s) block is ``gains[plan.index[rx, s]]``.
    ``values``, ``columns`` and ``vh`` hold each distinct block's SVD: its
    singular values, U's columns scaled by them, one per row (``columns[i,
    j]`` is U[:, j] * S[j]), and Vh.
    """

    __slots__ = ("plan", "gains", "values", "columns", "vh")

    def __init__(self, plan, gains, values, columns, vh):
        self.plan, self.gains, self.values, self.columns, self.vh = plan, gains, values, columns, vh


def _stream_batches(plan: _Plan, channels: ChannelSet) -> list[_Draw]:
    """Every (rx, tx) pair's stream blocks on ``channels``: one ``_Draw``
    per dim of ``plan.dims``.

    This is the per-draw part of a verify; ``plan`` holds the rest.  For
    each dim, the gains of every (rx, tx) pair form one table, the dim's
    distinct blocks are gathered from it, and one batched SVD decomposes
    them for all of the dim's transmitters.
    """
    draws = []
    for d in plan.dims:
        table = np.concatenate([
            channels.gains[rx, tx][:plan.blocks].reshape(-1, d.dim)
            for rx in range(len(plan.streams)) for tx in d.users
        ])
        gains = table[d.gather]
        u, s, vh = np.linalg.svd(gains)
        draws.append(_Draw(d, gains, s, np.swapaxes(u * s[..., None, :], -1, -2), vh))
    return draws


def random_symbols(
    pattern: PresetPattern, seed: int | np.random.SeedSequence | None = 0
) -> list[np.ndarray]:
    """Unit-norm complex symbol vectors: one (streams, used) array per user,
    row s for stream s, in the shape of ``pattern.streams``.  One draw
    covers every user, read user by user and stream by stream, real parts
    before imaginary ones."""
    draws = np.random.default_rng(seed).standard_normal(2 * sum(s.size for s in pattern.streams))
    out, start = [], 0
    for slots in pattern.streams:
        parts = draws[start:start + 2 * slots.size].reshape(len(slots), 2, slots.shape[1])
        start += 2 * slots.size
        vecs = parts[:, 0] + 1j * parts[:, 1]
        # each row's norm as a 1-D np.linalg.norm takes it, re.re + im.im
        # read through the complex array's views, so the sums run in its
        # order for all rows at once; norm(axis=1) can differ in the last ulp
        re, im = vecs.real[:, None], vecs.imag[:, None]  # (streams, 1, used)
        squares = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
        out.append(vecs / np.sqrt(squares[:, 0]))
    return out


# ======================================================================
# One record per receiver
# ======================================================================

@dataclass(frozen=True)
class ReceiverReport:
    """What one receiver's pass found: ranks, samples and decode.

    ``predicted`` and ``measured`` are its rank records; they match when
    equal.  ``samples`` holds the length-L samples as the receiver got
    them.  ``estimates`` has the (streams, used) shape of the user's
    symbols; row s estimates stream s's symbol vector.  The record holds
    arrays, so compare its fields, not whole records.
    """

    predicted: ReceiverRanks
    measured: ReceiverRanks
    samples: np.ndarray
    estimates: np.ndarray

    @property
    def match(self) -> bool:
        return self.measured == self.predicted

    @property
    def deficiency(self) -> int:
        """Desired dimensions that fell inside the interference span.

        The decode resolves joint - combined of them.  Any deficiency leaves
        the whole receiver unrecoverable, since no stream's estimate can
        then be trusted; matching ranks leave none.
        """
        return self.estimates.size - (self.measured.joint - self.measured.combined)


# ======================================================================
# One linear-algebra pass per receiver
# ======================================================================

def _cutoff(s: np.ndarray, size) -> np.ndarray:
    """Singular values at or below this count as zero, over the last axis
    of ``s``; ``size`` is broadcast against the result.

    ``size`` is the larger side of the full matrix and ``s`` any set of its
    singular values that holds the largest, so the verdict is the one a
    dense rank of the whole matrix would give.  ``s`` may instead hold a
    bound at or above the largest; the cutoff is then at or above the
    matrix's own, and a value above it is above the matrix's cutoff too.
    A receiver's free blocks are counted against a bound on its whole
    interference stack's cutoff first, and against the exact one when that
    leaves the combined rank open (see ``_receiver_pass``).  This is the
    one place that reads ``RANK_RTOL``.
    """
    return size * s.max(axis=-1, initial=0.0) * RANK_RTOL


def _component_shapes(config: GroupingConfig) -> list[tuple[int, int, int, int]]:
    """(components, slots per component, own slots per component, untouched
    slots) at every receiver, in closed form.

    A stream is a group-level stream times an element-level one.  At
    receiver (k, i) the element-level streams of the other positions link
    the element slots outside k's hold segment into e_k - 1 classes, one
    per digit k of the interleaving block, and the group-level streams of
    the other groups link the group slots outside i's hold segment into
    g_i - 1 classes.  With other positions and other groups, the streams
    of (k', i) and (k, i') merge every class into one component, which
    leaves only the product of the two hold segments untouched.  With one
    level of other users only, each of its classes times the whole other
    level is a component.  Every untouched slot is one of the receiver's
    c own slots, and the rest split evenly: (c - untouched) / components
    to each component.
    """
    elem, grp = config.element_counts, config.group_mode_counts
    hold1, hold2 = _holds(elem), _holds(grp)
    length1, length2 = flat_length(elem), flat_length(grp)
    positions, groups = len(elem) > 1, len(grp) > 1  # is there another user at that level
    dims = config.used_in_order()
    out = []
    for d, (k, i) in zip(dims, config.labels()):
        free = (hold1[k - 1] if positions else length1) * (hold2[i - 1] if groups else length2)
        if positions and groups:
            count = 1
        elif positions:
            count = elem[k - 1] - 1
        elif groups:
            count = grp[i - 1] - 1
        else:
            count = 0
        own = (d * hold1[k - 1] * hold2[i - 1] - free) // count if count else 0
        out.append((count, (length1 * length2 - free) // max(count, 1), own, free))
    return out


def _orthogonal_free_rows(config: GroupingConfig) -> bool:
    """Whether every interferer stream meets at most one free row (a
    component row that is not the receiver's own) at every receiver, in
    closed form: exactly when the config has one group.

    Each kept column lies on its stream's rows (see ``_component_blocks``),
    so then it has at most one nonzero free entry, the free block F F^H is
    diagonal, and F's singular values are its row norms.  ``verify_receivers``
    takes them from ``_entry_pass``, which reads every receiver's row norms
    off the kept columns' free entries, one per column: the entry on the
    stream's last slot, its hold slot, which ``patterns._flat_streams`` puts
    last; otherwise from ``_component_pass``, a thin SVD per receiver.  This
    is the one branch point of a verify (see ``_receiver_pass``).

    * One group: receiver k's streams fill the interleaving block (one per
      combination of the other users' digits, along k's) and k's hold
      segment, so its free rows are the other users' hold segments.  A
      stream of user q lies in the interleaving block but for one slot in
      q's hold segment, and no other user's stream enters that segment:
      each interferer stream meets exactly one free row.
    * Several groups: receiver (k, i) owns its element slots (the element
      block and k's hold) in its group slots (the group block and i's
      hold).  A stream of (k', i') is an element stream of M1_k' slots (the
      block, then one in k''s hold) in a group stream of M2_i' slots, and
      its free slots are those in k''s element hold or i''s group hold:
      M1_k slots when k' = k, M2_i when i' = i, M1_k' + M2_i' - 1 else,
      each at least 2.
    """
    return config.num_groups == 1


def _stream_block_counts(config: GroupingConfig, coherence_length: int | None = None):
    """Bound on the distinct stream blocks of every (rx, tx) pair, in closed
    form: ``counts[rx][tx]``, exact at one fading block.

    A block is fixed by its slots' (fading block, rx mode) pairs (see
    ``_Plan``), so the count is at most tx's stream count and
    at most rx's mode tuples times the fading-block tuples over tx's
    streams.

    * Mode tuples: a two-level stream is a group-level stream times an
      element-level one, and rx's mode pairs an element and a group mode,
      so its tuples are pairs of one tuple per level.  At one level a
      stream of another user lies where the others' digits spell it, so
      rx holds one mode across it, one of M - 1 over the streams; rx's own
      streams each run through its M modes in slot order, one tuple.
    * Fading-block tuples: every slot column of tx's streams rises from
      stream to stream, so the tuples take at most 1 + the number of
      fading-block boundaries each column's slots cross.  At one level the
      first M - 1 columns span the interleaving block alike, so they are
      counted once and weighed M - 1, and the last lies in the user's hold
      segment; the bound costs O(users^2) whatever the counts.
    """
    length = grouped_length(config)
    coherence = _coherence(coherence_length, length)
    elem, grp = config.element_counts, config.group_mode_counts
    length1 = flat_length(elem)

    def spans(counts):  # (columns, first, last slot) of each user's stream columns at one level
        block, holds = prod(m - 1 for m in counts), _holds(counts)
        starts = [block + sum(holds[:k]) for k in range(len(counts))]
        return holds, [
            [(m - 1, 0, block - 1), (1, start, start + hold - 1)]
            for m, start, hold in zip(counts, starts, holds)
        ]

    (hold1, spans1), (hold2, spans2) = spans(elem), spans(grp)
    labels = config.labels()
    fading = [
        1 + sum(
            n2 * n1 * (
                (last2 * length1 + last1) // coherence - (first2 * length1 + first1) // coherence
            )
            for n2, first2, last2 in spans2[i - 1]
            for n1, first1, last1 in spans1[k - 1]
        )
        for k, i in labels
    ]
    # rx's mode tuples over one level's streams of a user: 1 for its own, M - 1 else
    return [
        [
            min(
                hold1[k2 - 1] * hold2[i2 - 1],  # tx's streams
                (1 if k == k2 else elem[k - 1] - 1) * (1 if i == i2 else grp[i - 1] - 1) * f,
            )
            for (k2, i2), f in zip(labels, fading)
        ]
        for k, i in labels
    ]


def receiver_memory_bytes(config: GroupingConfig, coherence_length: int | None = None) -> int:
    """Closed-form bound on one verify's working set, in bytes.

    Receiver rx has L slots and c desired columns, and keeps r interference
    columns (``_kept_columns``): each interferer's predicted rank, which sum
    to L - c, or every interfering column when ``coherence_length`` is
    shorter than L.  They split over m slot components of n rows each,
    ``own`` of them rx's own slots (``_component_shapes``), w = ceil(r / m)
    columns to a component.  An integer is half a complex entry.

    Resident for the whole verify are the distinct stream blocks
    (``_stream_block_counts``): gains, Vh and the scaled U, with U while
    they are decomposed (4 dim_tx^2 each); the channels (blocks x used_rx x
    used_tx for every pair); the samples, noise added in place (3 K L); the
    pattern's physical modes with the two per-slot level modes they are
    expanded from (3 K L integers); the plan's stream slots, owners and own
    blocks (c_tx + 2 c_tx / dim_tx integers per transmitter) and each (rx,
    stream)'s index among the blocks (K c_tx / dim_tx integers); and every
    receiver's kept columns, each dim_tx entries and dim_tx integer places.
    Where the slot components are built (every pass but that of one group
    at one fading block), so are their slot labels and row order (2 K L
    integers).  Transients that the allocator need not hand back before the
    passes are added too: ``draw_channels``' normal draws, their index
    arrays and complex parts, 3.5 times the channels' entries at its peak,
    of which the channels stay; the copy of the channels that
    ``_stream_batches`` gathers from; and per (rx, stream) the plan's key
    (1 + dim_tx integers), one key row of gathered modes or of sorted keys
    at a time, the sort order, the running count and the index (dim_tx + 6
    integers).

    On top comes the largest of the stages, which run one after the other:

    * the desired solve of one dim (``_own_estimates``): each of its n_d
      streams' gathered values, d x d block, solution and result,
      n_d d (d + 3);
    * with one group, the decode of one dim (``_entry_pass``): z, one entry
      for each of the dim's N_d kept columns (its operands come and go
      before the rest), and 2.5 per own entry for z's products and their
      bincount index, a doubled copy over a halved one: N_d + 2.5 N_d (d - 1);
    * a receiver's component blocks (m n w), with several groups or, below
      the coherence length, where a one-group receiver's certificate
      fails, and its SVDs.  An SVD of an a x b matrix (p = min(a, b))
      holds LAPACK's copy of it and its workspace, a b + a p + 3 p^2
      entries; one with k columns of U and k rows of Vh adds them in
      LAPACK's buffer and as results, 2 k (a + b), and a batch of such
      matrices the results of the others.  A failing one-group receiver
      runs one values-only SVD.  With several groups the larger of two
      runs: thin, with U and Vh, of the free blocks (m (n - own) w), a view
      of the component blocks; then values only, of the component blocks,
      when the free blocks leave the combined rank open (see
      ``_receiver_pass``), with Vh held: m p w entries for
      p = min(n - own, w).

    Beside them the entry pass holds 3 K L entries (the row norms and their
    pseudo-inverse weights, the cancelled interference, and one bincount's
    output or the values), the component pass K L (the values).  A shared
    pattern keeps its plans after the verify (see ``_Plan``); what the
    pattern cache holds lies outside this working set, and
    ``patterns.PATTERN_CACHE_BYTES`` bounds it.
    """
    def svd(a: int, b: int, k: int = 0, count: int = 1) -> int:
        p = min(a, b)
        return a * b + a * p + 3 * p * p + (count + 1) * k * (a + b)

    length = grouped_length(config)
    blocks = -(-length // _coherence(coherence_length, length))
    shapes = _component_shapes(config)
    columns = [m * own + untouched for m, _, own, untouched in shapes]
    dims = config.used_in_order()
    K = len(dims)
    streams, kept, held = {}, [0] * K, {}  # per dim; per receiver; per dim
    for c, d in zip(columns, dims):
        streams[d] = streams.get(d, 0) + c // d
    for rx, pred in enumerate(rank_predictions(config)):
        others = [tx for tx in range(K) if tx != rx]
        for tx, rank in zip(others, pred.per_interferer.values()):
            r = rank if blocks == 1 else columns[tx]
            kept[rx] += r
            held[dims[tx]] = held.get(dims[tx], 0) + r
    orthogonal = _orthogonal_free_rows(config)
    channels = blocks * sum(dims) ** 2
    # in words of 8 bytes: an integer, a float or half a complex entry
    resident = 8 * sum(
        d * d * n
        for counts in _stream_block_counts(config, coherence_length)
        for n, d in zip(counts, dims)
    ) + 2 * channels + 9 * K * length
    resident += sum(c + (K + 2) * (c // d) for c, d in zip(columns, dims))
    resident += 3 * sum(d * r for d, r in held.items())
    transient = K * sum(c + 6 * (c // d) for c, d in zip(columns, dims)) + 7 * channels
    stage = max(2 * n * d * (d + 3) for d, n in streams.items())
    if orthogonal:
        stage = max([stage, *(2 * r + 5 * r * (d - 1) for d, r in held.items())])
    if not orthogonal or blocks > 1:
        resident += 2 * K * length
        for (m, n, own, _), r in zip(shapes, kept):
            w = -(-r // m) if m else 0
            a = n - own
            p = min(a, w)
            svds = svd(n, w) if orthogonal else max(svd(a, w, p, m), svd(n, w) + m * p * w)
            stage = max(stage, 2 * (m * n * w + svds))
    return 8 * (resident + transient + stage + (6 if orthogonal else 2) * K * length)


class _Layout:
    """One receiver's slot components, as rows of its reduced problem.

    ``order`` lists the slots by row: each component's slots in a run,
    first those that are not the receiver's own and then its own ones,
    each ascending, components in order of their smallest slots, then the
    slots no interferer occupies.  ``count`` components of ``size`` slots
    each fill the first count * size rows; the last ``own`` rows of each
    are own slots.
    """

    __slots__ = ("order", "count", "size", "own")

    def __init__(self, order: np.ndarray, count: int, size: int, own: int):
        self.order, self.count, self.size, self.own = order, count, size, own


def _slot_components(config: GroupingConfig, streams):
    """Every receiver's slot components: (position, layouts).

    At receiver rx each interferer stream fills only its own slots, so the
    interference splits into independent groups of slots, its components.
    ``layouts[rx]`` is rx's ``_Layout``, its shapes ``_component_shapes``',
    and ``position[rx]`` the inverse of its order, slot t's row; both arrays
    are read-only.  ``streams`` are ``config``'s (``PresetPattern.streams``).

    rx holds one mode across every interferer stream at each level that
    has other users, which is what aligns it, so its own modes fix the
    split.  A slot is untouched where rx holds its final mode at every such
    level.  The rest form one component when both levels have other users,
    and one per mode rx holds there when only one level has them.  The
    modes come from the config's own level rows (``_design_modes``), as the
    streams come from its counts, so a pattern built with other rows keeps
    the split.  One stable
    sort by (untouched, component, own) orders the rows; untouched slots
    are own slots in final modes, so they keep slot order.
    """
    elem, grp = config.element_counts, config.group_mode_counts
    k, i = (np.array(config.labels()) - 1).T
    # rx's modes by slot; a level without other users counts as final throughout
    mode1, mode2 = _slot_modes(*_design_modes(config))
    final1 = (mode1 == np.array(elem)[k, None]) | (len(elem) == 1)
    final2 = (mode2 == np.array(grp)[i, None]) | (len(grp) == 1)
    if len(elem) > 1 and len(grp) > 1:
        component = 0
    else:
        component = mode2 if len(elem) == 1 else mode1
    occupied = np.zeros(mode1.shape, dtype=bool)
    for rx, slots in enumerate(streams):
        occupied[rx, slots] = True
    order = np.lexsort(np.broadcast_arrays(occupied, component, final1 & final2))
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(order.shape[1]), axis=1)
    order.flags.writeable = position.flags.writeable = False
    return position, [
        _Layout(rows, count, size, own)
        for rows, (count, size, own, _) in zip(order, _component_shapes(config))
    ]


def _received(plan: _Plan, draws, sources) -> np.ndarray:
    """Every receiver's noiseless samples of ``sources``, (receivers,
    length), transmitter by transmitter; one transmitter's streams fill
    distinct slots."""
    samples = np.zeros((len(sources), plan.length), dtype=complex)
    for x, slots, (j, u) in zip(sources, plan.streams, plan.at):
        d = plan.dims[j]
        index = d.index[:, d.starts[u]:d.starts[u] + d.counts[u]]
        samples[:, slots] += (draws[j].gains[index] @ x[..., None])[..., 0]
    return samples


def _kept_columns(plan: _Plan, draws):
    """Every receiver's ranks and kept interference columns, one step per
    dim for all receivers: (ranks, tops, desired, kept).

    Up to a row and column permutation, tx's effective block at rx is
    block-diagonal in its dim x dim stream blocks, so its singular values
    are the union of theirs.  ``ranks[rx, tx]`` counts them against the
    cutoff of the full (length x streams * dim) block, the desired rank
    when tx == rx; ``tops[rx, tx]`` is the largest of them, ||Z_tx||, and
    0 when tx == rx.  ``desired[j]`` marks which of each own stream's
    singular values clear its cutoff, for the streams of ``plan.dims[j]``.
    Each stream's U*S columns above the cutoff, placed on the stream's
    slots, keep the Gram matrix of the stacked interference but for the
    dropped columns, which lie below the cutoff, and with it the stack's
    nonzero singular values and left singular vectors; rx's own streams
    keep none.  ``kept[j]`` holds them for the dim: (entries, places,
    bounds), a row per kept column at every receiver, receiver-major, then
    by transmitter, stream and column.  ``entries`` has its dim entries,
    ``places`` their receiver * L + slot, and user u's columns at rx are
    rows ``bounds[i]`` to ``bounds[i + 1]``, i = rx * users + u.
    """
    K, length = len(plan.streams), plan.length
    ranks = np.zeros((K, K), dtype=np.intp)
    tops = np.zeros((K, K))
    desired, kept = [], []
    for d, draw in zip(plan.dims, draws):
        users, counts, starts = d.users, d.counts, d.starts
        s = draw.values[d.index]  # (K, streams, dim)
        top = np.maximum.reduceat(s.max(axis=-1), starts, axis=1)  # (K, users)
        cut = _cutoff(top[..., None], np.maximum(length, np.multiply(counts, d.dim)))
        mine = (users, np.arange(len(users)))  # each transmitter at its own receiver
        desired.append(draw.values[d.own] > np.repeat(cut[mine], counts)[:, None])
        ranks[users, users] = np.add.reduceat(np.count_nonzero(desired[-1], axis=-1), starts)
        top[mine] = 0.0
        cut[mine] = np.inf  # rx's own streams keep nothing
        tops[:, users] = top
        mask = s > np.repeat(cut, counts, axis=1)[..., None]
        per = np.add.reduceat(np.count_nonzero(mask, axis=-1), starts, axis=1)
        ranks[:, users] += per
        rx, stream, column = mask.nonzero()
        kept.append((
            draw.columns[d.index[rx, stream], column],
            rx[:, None] * length + d.slots[stream],
            np.concatenate(([0], np.cumsum(per))),
        ))
    return ranks, tops, desired, kept


def _component_blocks(plan: _Plan, kept, rx: int):
    """rx's component blocks and its kept columns per component, built from
    every receiver's kept columns (``_kept_columns``) in transmitter order.

    Up to a permutation the kept stack is block-diagonal in the slot
    components (see ``_slot_components``): one (components, slots, columns)
    array, where a component with fewer kept columns than the widest is
    padded with zero columns, which only add zero singular values.
    """
    position, layouts = plan.components()
    count, size = layouts[rx].count, layouts[rx].size
    rows, columns = [], []
    for j, u in plan.at:  # rx's own streams keep no column
        entries, places, bounds = kept[j]
        i = rx * len(plan.dims[j].users) + u
        rows.append(position.ravel()[places[bounds[i]:bounds[i + 1]]])
        columns.append(entries[bounds[i]:bounds[i + 1]])
    # each kept column's place among its component's columns
    owner = np.concatenate([r[:, 0] for r in rows]) // max(size, 1)
    seen = np.cumsum(owner[:, None] == np.arange(count), axis=0)
    place = seen[np.arange(len(owner)), owner] - 1
    blocks = np.zeros((count * size, seen.max(initial=0)), dtype=complex)
    start = 0
    for r, c in zip(rows, columns):
        blocks[r, place[start:start + len(r), None]] = c
        start += len(r)
    return blocks.reshape(count, size, blocks.shape[1]), np.bincount(owner, minlength=count)


def _stack_bound(tops: np.ndarray, full) -> np.ndarray:
    """A value at or above the interference stack's largest computed
    singular value, over the last axis of ``tops``, kept as one entry.

    ``tops`` holds each interferer's largest stream singular value, ||Z_tx||,
    and ``full`` the stack's larger side, broadcast against the result.  The
    stack Z = [Z_tx] has ||Z||^2 <= sum ||Z_tx||^2.  With one interferer the
    two are equal, and computed they were seen a few ulps apart either way:
    LAPACK's singular values of a matrix with larger side n are those of a
    neighbour within a small multiple of n eps ||Z||.  So the root sum of
    squares is raised by 4 ``full`` eps of itself, which puts the bound at
    or above any computed largest singular value of the stack, the
    component blocks' included.
    """
    return np.linalg.norm(tops, axis=-1, keepdims=True) * (1 + 4 * full * np.finfo(float).eps)


def _exact_rank(blocks: np.ndarray, full) -> tuple:
    """(cutoff, combined rank) of a receiver's interference stack, from a
    values-only SVD of its component blocks ``blocks``: the fallback where
    its free blocks leave the combined rank open.  ``full`` is the stack's
    larger side."""
    s = np.linalg.svd(blocks, compute_uv=False)
    cutoff = _cutoff(s.ravel(), full)
    return cutoff, np.count_nonzero(s > cutoff)


def _receiver_pass(plan: _Plan, draws, predictions, samples):
    """Rank every receiver's blocks and decode its samples; one record per
    receiver, against ``predictions``.  ``samples`` holds every receiver's
    length-L samples, noise already added.

    The stream blocks' SVDs (``draws``) give the desired and per-interferer
    ranks and the kept columns (``_kept_columns``).  The desired block is
    D = Π (⊕_s G_s): Π holds the unit vectors of rx's c own slots and G_s
    is own stream s's dim x dim block.  When every G_s has full rank, an
    own row can take any value, so rank [D | I] = c + rank(I without rx's
    own rows), summed over the slot components.  The singular values t of
    the free blocks F_i (the component blocks I_i without their own rows)
    give joint - c.  They also settle the combined rank, against the cutoff
    of a bound at or above the full interference stack's (``_stack_bound``):
    adding rows never lowers a singular value (Cauchy interlacing), so when
    every F_i has as many singular values above that cutoff as I_i has
    kept columns, each I_i has all of them above the stack's cutoff, the
    combined rank is the kept column count, and t fall on the same sides of
    either cutoff.  An aligned pattern at one fading block gives that on
    drawn channels.  Otherwise (a fading block shorter than L, a misaligned
    pattern, channels built by hand) a values-only SVD of the receiver's
    I_i gives the stack's exact cutoff and the combined rank
    (``_exact_rank``); an I_i with more kept columns than F_i has rows
    always takes it.  Drawn channels give full-rank G_s with probability 1;
    a G_s short of full rank (a pattern that repeats a mode inside an own
    stream, or channels built by hand) shows as desired < c, a mismatch,
    and then joint = desired + rank(free) is a lower bound on the dense
    rank.

    Every receiver's ranks, kept columns, stack bound, cutoff and kept
    column count come from one setup; the one branch is where t come from
    (``_orthogonal_free_rows``): row norms of the kept columns' entries for
    one group (``_entry_pass``), a thin SVD per receiver otherwise
    (``_component_pass``).  Either returns the samples with the
    interference on each receiver's own slots cancelled, in slot order,
    and the rank of the free blocks.  The decode is the least squares of
    [D | I]: z_i is the pseudo-inverse of F_i applied to the samples on its
    rows, with t at or below the cutoff weighed 0; an own row's value is
    its sample minus I_i's own rows times z_i, an own row no interferer
    touches keeps its sample, and each stream's symbol is the
    pseudo-inverse of G_s applied to the values on its slots, one batch per
    dim (``_own_estimates``).
    """
    ranks, tops, desired, kept = _kept_columns(plan, draws)
    own = np.diagonal(ranks)
    widths = np.array([s.size for s in plan.streams])
    full = np.maximum(plan.length, widths.sum() - widths)  # each stack's larger side
    cutoff = _cutoff(_stack_bound(tops, full[:, None]), full)  # at or above each stack's own
    combined = ranks.sum(axis=1) - own  # the kept columns, where the certificate holds
    branch = _entry_pass if _orthogonal_free_rows(plan.config) else _component_pass
    values, free = branch(plan, kept, samples, cutoff, combined, full)
    estimates = [None] * len(samples)
    for draw, mask in zip(draws, desired):
        d = draw.plan
        solved = _own_estimates(draw, mask, values[d.owner[:, None], d.slots])
        for tx, start, count in zip(d.users, d.starts.tolist(), d.counts):
            estimates[tx] = solved[start:start + count]
    return tuple(
        _report(pred, samples[rx], row[rx], row[:rx] + row[rx + 1:], c, j, estimates[rx])
        for rx, (pred, row, c, j) in enumerate(
            zip(predictions, ranks.tolist(), combined.tolist(), (own + free).tolist())
        )
    )


def _entry_pass(plan: _Plan, kept, samples, cutoff, combined, full):
    """The free blocks of a one-group config, read off the kept columns'
    entries for every receiver at once; see ``_receiver_pass``.

    A kept column of an interferer stream lies on the stream's slots: the
    first dim - 1 in the interleaving block, which is rx's own, and the
    last in the interferer's hold segment, which is one of rx's free slots
    (see ``_orthogonal_free_rows``).  So each kept column has one free
    entry, F_i F_i^H is diagonal, and F_i's singular values t are its row
    norms: the root of the squared free entries summed on each slot, 0 on
    rx's own slots.  Its pseudo-inverse is F_i^H diag(1 / t^2).  The
    certificate is a count per receiver: a free block has at most as many
    nonzero rows as kept columns, so t above the cutoff number the kept
    columns exactly when every component's do.  A receiver whose
    certificate fails builds its component blocks for the values-only SVD
    alone, from the plan's slot components, which nothing else reads.  The
    decode is z = conj(a) b_f / t_f^2 for a kept column with free entry a
    on free slot f, subtracted from the samples on its own slots, all
    receivers' in one ``np.bincount`` per dim.
    """
    K, length = samples.shape
    norms = _row_norms(kept, K, length)
    certified = np.count_nonzero(norms > cutoff[:, None], axis=1) == combined
    for rx in np.flatnonzero(~certified):  # a free block left the combined rank open
        cutoff[rx], combined[rx] = _exact_rank(_component_blocks(plan, kept, rx)[0], full[rx])
    above = norms > cutoff[:, None]
    # pseudo-inverses weigh the values at or below their cutoff 0
    live = np.where(above, norms, np.inf).ravel()
    received, cancel = samples.ravel(), np.zeros(2 * K * length)
    for entries, places, _ in kept:
        free = places[:, -1]
        z = received[free] / live[free] ** 2 * entries[:, -1].conj()
        # each own entry times z, real and imaginary parts side by side
        parts = (entries[:, :-1] * z[:, None]).view(float).ravel()
        cancel += np.bincount((places[:, :-1, None] * 2 + (0, 1)).ravel(), parts, cancel.size)
    return samples - cancel.view(complex).reshape(K, length), np.count_nonzero(above, axis=1)


def _row_norms(kept, K: int, length: int) -> np.ndarray:
    """Every receiver's free-block row norms in a one-group config, (K, L):
    the root of the kept columns' squared free entries summed on each slot
    (see ``_entry_pass``)."""
    squares = np.zeros(K * length)
    for entries, places, _ in kept:
        free = entries[:, -1]
        squares += np.bincount(places[:, -1], free.real**2 + free.imag**2, K * length)
    return np.sqrt(squares).reshape(K, length)


def _component_pass(plan: _Plan, kept, samples, cutoff, combined, full):
    """The free blocks of a config with several groups, receiver by
    receiver and component by component; see ``_receiver_pass``.

    Each receiver's component blocks (``_component_blocks``) lose their own
    rows to give the free blocks F_i, whose thin SVD gives t.  The
    certificate is the one trigger of the values-only SVD, after t, with U
    let go and Vh held.  z_i is Vh^H (U^H b_i / t), b_i the samples on
    F_i's rows.
    """
    position, layouts = plan.components()
    values = np.empty_like(samples)
    ranks_free = np.empty(len(samples), dtype=np.intp)
    for rx, layout in enumerate(layouts):
        count, size = layout.count, layout.size
        free = size - layout.own  # each component's first rows (see _Layout)
        blocks, columns = _component_blocks(plan, kept, rx)
        rows = samples[rx, layout.order]
        components = rows[:count * size].reshape(count, size, 1)  # a view into rows
        u, t, vh = np.linalg.svd(blocks[:, :free], full_matrices=False)
        # nothing else reads U and Vh, so they are conjugated in place, and U is
        # let go before a values-only SVD
        projected = np.swapaxes(np.conjugate(u, out=u), -1, -2) @ components[:, :free]
        del u
        if not np.array_equal(np.count_nonzero(t > cutoff[rx], axis=-1), columns):
            cutoff[rx], combined[rx] = _exact_rank(blocks, full[rx])  # a free block left it open
        # pseudo-inverses weigh the values at or below their cutoff 0
        live = np.where(t > cutoff[rx], t, np.inf)[..., None]
        z = np.swapaxes(np.conjugate(vh, out=vh), -1, -2) @ (projected / live)
        components[:, free:] -= blocks[:, free:] @ z
        values[rx] = rows[position[rx]]
        ranks_free[rx] = np.count_nonzero(t > cutoff[rx])
        del blocks, vh, projected, z  # before the next receiver's are built
    return values, ranks_free


def _own_estimates(draw: _Draw, desired, values):
    """Each own stream's symbol estimate, (streams, dim), for the streams of
    ``draw``'s dim: the pseudo-inverse of its block at its own receiver,
    with the singular values outside ``desired`` weighed 0, applied to
    ``values``, the stream's slots' values after the interference is
    cancelled."""
    # pinv(G_s) v = Vh^H S^-1 U^H v, with S U^H the conjugated scaled
    # columns; the gathered copies are conjugated in place
    index = draw.plan.own
    columns = draw.columns[index]
    solved = np.conjugate(columns, out=columns) @ values[..., None]
    del columns
    solved /= np.where(desired, draw.values[index], np.inf)[..., None] ** 2
    vh = draw.vh[index]
    return (np.swapaxes(np.conjugate(vh, out=vh), -1, -2) @ solved)[..., 0]


def _report(pred, samples, desired, per_interferer, combined, joint, estimates):
    """One receiver's record; ``per_interferer`` lists its interferers'
    ranks in ``pred``'s order."""
    return ReceiverReport(
        predicted=pred,
        measured=ReceiverRanks(
            label=pred.label, length=len(samples), desired=int(desired),
            per_interferer=dict(zip(pred.per_interferer, per_interferer)),
            combined=int(combined), joint=int(joint),
        ),
        samples=samples,
        estimates=estimates,
    )


def report_to_csv(receivers: tuple[ReceiverReport, ...]) -> str:
    """Flat CSV: receiver, measured/predicted rank quadruple, match flag."""
    lines = [
        ALIGNMENT_CSV_HEADER,
        "receiver,desired_meas,desired_pred,iui_meas,iui_pred,"
        "igi_meas,igi_pred,joint_meas,joint_pred,match",
    ]
    for r in receivers:
        m, p = r.measured, r.predicted
        lines.append(
            f"{user_label(*m.label)},{m.desired},{p.desired},{m.iui_total},{p.iui_total},"
            f"{m.igi_total},{p.igi_total},{m.joint},{p.joint},{str(r.match).lower()}"
        )
    return "\n".join(lines) + "\n"


def verify_receivers(
    pattern: PresetPattern,
    channels: ChannelSet,
    symbols: list[np.ndarray],
    noise_scale: float = 0.0,
    noise_seed: int | np.random.SeedSequence | None = None,
) -> tuple[ReceiverReport, ...]:
    """One record per receiver, group-major, from one pass over them all.

    Each record ranks the desired block, each interferer's block, all
    interference stacked and [desired | interference] against predictions
    that assume one fading block per supersymbol; shorter coherence shows
    up as measured > predicted.  The distinct stream blocks of all (rx, tx)
    pairs are decomposed in one batched SVD per dim, and one rank step
    reads every receiver's ranks and kept columns off them.  The pass then
    takes the free blocks' singular values from their row norms for one
    group, or from a thin SVD per receiver, component by component,
    otherwise; that is its one branch.  It reads the joint rank as the
    desired rank plus the rank of the interference without the receiver's
    own rows, and decodes every receiver in one tail (see
    ``_receiver_pass``).
    ``symbols[tx]`` has the shape of ``pattern.streams[tx]``: row s is
    stream s's symbol vector.  Each record also holds its receiver's
    samples and their decode.  Noise, when requested, is CN(0, 1) scaled
    by ``noise_scale`` (use 1/sqrt(SNR)), drawn for every receiver in one
    (receivers, 2, L) call to a generator seeded with ``noise_seed``:
    receiver by receiver, real parts before imaginary ones, and added to
    the samples before any pass.  The decode is the least
    squares of [desired | interference]; it is exact up to numerical
    precision whenever the joint rank condition holds and the samples are
    noiseless.  Channels not drawn for ``pattern`` are refused before any
    rank is measured: their coherence length must be an integer >= 1, read
    as one block at or past the supersymbol's length, and their gains must
    hold each pair's (blocks, used rx, used tx) draws over enough blocks.
    """
    if not 0.0 <= noise_scale < np.inf:  # also rejects NaN
        raise ValueError("noise scale must be finite and >= 0")
    sources = [np.asarray(x) for x in symbols]
    if len(sources) != len(pattern.streams):
        raise ValueError("one symbol array per user is required")
    if any(x.shape != slots.shape for x, slots in zip(sources, pattern.streams)):
        raise ValueError("each user's symbols must have its (streams, used) slot shape")
    coherence = _coherence(channels.coherence_length, pattern.length)
    blocks = -(-pattern.length // coherence)
    dims = pattern.config.used_in_order()
    pairs = {(rx, tx) for rx in range(len(dims)) for tx in range(len(dims))}
    if channels.gains.keys() != pairs or any(
        np.ndim(g) != 3 or len(g) < blocks or np.shape(g)[1:] != (dims[rx], dims[tx])
        for (rx, tx), g in channels.gains.items()
    ):
        raise ValueError("channels must hold each (rx, tx) pair's (blocks, used rx, used tx) "
                         "gains, enough blocks to cover the supersymbol")
    plan = _verify_plan(pattern, coherence)
    draws = _stream_batches(plan, channels)
    samples = _received(plan, draws, sources)
    # a huge finite noise scale overflows the samples, so their decode reads
    # inf or NaN, which is the decode's answer, not a fault; the ranks never
    # read the samples
    with np.errstate(over="ignore", invalid="ignore"):
        if noise_scale > 0.0:
            # each receiver's real parts, then its imaginary parts
            shape = (len(dims), 2, pattern.length)
            noise = np.random.default_rng(noise_seed).standard_normal(shape)
            samples += noise_scale * (noise[:, 0] + 1j * noise[:, 1]) / 2**0.5
            del noise
        return _receiver_pass(plan, draws, rank_predictions(pattern.config), samples)
