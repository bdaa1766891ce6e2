"""Simulated block-fading channels and alignment verification.

The transmitters know nothing about the channel; each symbol vector is
simply repeated over the slots its stream occupies, one slot per own
preset mode.  All alignment therefore has to come from the switching
pattern itself, and this module measures whether it does:
``verify_receivers`` ranks the effective (channel times repetition)
matrices against the exact predictions and runs a zero-forcing decode
round trip, in one pass per receiver, or one for all receivers of a
single-group config.

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

    ``components()`` gives the slot components, built on first use: a
    grouped config's passes read them at every receiver, a flat config's
    only where a receiver's certificate fails.  ``nbytes`` counts every
    array the plan holds or may build, so the pattern cache that keeps it
    stays within its bound.  All of its arrays are read-only.
    """

    __slots__ = ("config", "streams", "length", "blocks", "dims", "nbytes", "_components")

    def __init__(self, pattern: PresetPattern, coherence: int):
        config, streams, length = pattern.config, pattern.streams, pattern.length
        self.config, self.streams, self.length = config, streams, length
        self.blocks = -(-length // coherence)
        self._components = None
        per_user = np.array(config.used_in_order())
        modes = pattern.physical_modes - 1
        used = per_user.max()
        K = len(streams)
        self.dims = []
        for dim in sorted({s.shape[1] for s in streams}):
            users = [tx for tx, s in enumerate(streams) if s.shape[1] == dim]
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
        # the slot components, built or not: position and row order, (K, L)
        # each, and every stream slot's row at every receiver
        built = len(streams) * (2 * length + sum(s.size for s in streams))
        self.nbytes = sum(a.nbytes for a in arrays) + built * np.dtype(np.intp).itemsize

    def components(self):
        """(position, layouts, rows): every receiver's slot components
        (``_slot_components``), and ``rows[tx][rx, s, j]``, the row of slot
        ``streams[tx][s, j]`` among rx's component rows."""
        if self._components is None:
            position, layouts = _slot_components(self.config, self.streams)
            rows = tuple(position[:, slots] for slots in self.streams)
            for a in rows:
                a.flags.writeable = False
            self._components = position, layouts, rows
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


class _StreamBatch:
    """The stream blocks every receiver sees from one transmitter.

    ``slots`` holds its stream slots, (streams, dim).  Stream s's dim x dim
    block at receiver rx has as row j the channel row rx sees at slot
    ``slots[s, j]``, in its own mode there.  Blocks that read the same rows
    are equal, so each is kept once: ``index[rx, s]`` is the (rx, s)
    block's place among the distinct ones, ``gains[index[rx, s]]``.
    ``values``, ``columns`` and ``vh`` hold each distinct block's SVD: its
    singular values, U's columns scaled by them, one per row (``columns[i,
    j]`` is U[:, j] * S[j]), and Vh.  The transmitters of one dim share
    these four arrays, and ``index`` is a view of their plan's common one.
    ``rows[rx, s, j]`` is the row of slot ``slots[s, j]`` among rx's
    component rows, read from the plan (see ``_Plan.components``).
    """

    __slots__ = ("plan", "tx", "slots", "index", "gains", "values", "columns", "vh")

    def __init__(self, plan, tx, index, gains, values, columns, vh):
        self.plan, self.tx, self.slots, self.index = plan, tx, plan.streams[tx], index
        self.gains, self.values, self.columns, self.vh = gains, values, columns, vh

    @property
    def rows(self) -> np.ndarray:
        return self.plan.components()[2][self.tx]


def _stream_batches(plan: _Plan, channels: ChannelSet):
    """Every (rx, tx) pair's stream blocks on ``channels``: ``batches[tx]``
    is tx's ``_StreamBatch``.

    This is the per-draw part of a verify; ``plan`` holds the rest.  For
    each dim, the gains of every (rx, tx) pair form one table, the dim's
    distinct blocks are gathered from it, and one batched SVD decomposes
    them, whose arrays the dim's transmitters share.
    """
    K = len(plan.streams)
    batches = [None] * K
    for d in plan.dims:
        table = np.concatenate([
            channels.gains[rx, tx][:plan.blocks].reshape(-1, d.dim)
            for rx in range(K) for tx in d.users
        ])
        gains = table[d.gather]
        u, s, vh = np.linalg.svd(gains)
        columns = np.swapaxes(u * s[..., None, :], -1, -2)
        for tx, start, count in zip(d.users, d.starts.tolist(), d.counts):
            index = d.index[:, start:start + count]
            batches[tx] = _StreamBatch(plan, tx, index, gains, s, columns, vh)
    return batches


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

def _cutoff(s: np.ndarray, size: int) -> float:
    """Singular values at or below this count as zero.

    ``size`` is the larger side of the full matrix and ``s`` any set of its
    singular values that holds the largest, so the verdict is the one a
    dense rank of the whole matrix would give.  ``s`` may instead hold a
    bound at or above the largest; the cutoff is then at or above the
    matrix's own, and a value above it is above the matrix's cutoff too.
    A receiver's free blocks are counted against a bound on its whole
    interference stack's cutoff first, and against the exact one when that
    leaves the combined rank open (see ``_receiver_pass`` and
    ``_flat_pass``).
    """
    return size * s.max(initial=0.0) * RANK_RTOL


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
    then runs ``_flat_pass``, which reads every receiver's row norms off the
    kept columns' free entries, one per column: the entry on the stream's
    last slot, its hold slot, which ``patterns._flat_streams`` puts last.

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

    Receiver rx has L slots, c desired columns and r kept interference
    columns: L - c, its predicted combined rank, or every interfering
    column when ``coherence_length`` is shorter than L.  They split over m
    slot components of n rows each, ``own`` of them rx's own slots
    (``_component_shapes``), w = ceil(r / m) columns to a component.

    A config of one group at one fading block takes the entry pass
    (``_flat_pass``), which builds no component block and no slot
    component.  Each of the n_d streams of dim d keeps one column at each
    of the other K - 1 receivers, N_d = (K - 1) n_d columns held to the
    end as d complex entries and d integer places (an integer is half an
    entry): 1.5 N_d d.  On top comes the larger of one dim's decode and
    its desired solve.  The decode holds z, one entry per kept column
    (its operands come and go before the rest), and 2.5 per own entry for
    z's products and their bincount index, a doubled copy over a halved
    one: N_d + 2.5 N_d (d - 1).  The solve holds each stream's gathered
    values, d x d block, solution and result: n_d d (d + 3).  Both run
    beside 3 K L entries: the row norms and their pseudo-inverse weights,
    the cancelled interference, and one bincount's output or the values.

    Otherwise the pass holds a receiver's component blocks (m n w), and
    this sums them with its largest stage.  An SVD of an a x b matrix
    (p = min(a, b)) holds LAPACK's copy of it and its workspace,
    a b + a p + 3 p^2 complex entries; one with k columns of U and k rows
    of Vh adds them in LAPACK's buffer and as results, 2 k (a + b), and a
    batch of such matrices the results of the others.  With one group,
    below the coherence length, a receiver whose certificate fails builds
    its component blocks for a values-only SVD alone; the count adds
    2 m (n - own + w) entries of vectors, which with the blocks' n entries
    per column cover the entry pass's few.  With several groups the stage
    is the larger of two that run one after the other:

    * thin, with U and Vh, of the free blocks (m (n - own) w), a view of
      the component blocks;
    * values only, of the component blocks, when the free blocks leave
      the combined rank open (the pass's one trigger, see
      ``_receiver_pass``), after the thin SVD with its Vh still held:
      m p w entries for p = min(n - own, w).

    The distinct stream blocks stay resident for the whole verify
    (``_stream_block_counts``): gains, Vh and the scaled U, with U while
    they are decomposed (4 dim_tx^2 each).  So do the channels (blocks x
    used_rx x used_tx for every pair), the plan's stream slots, owners
    and own blocks (c_tx + 2 c_tx / dim_tx integers per transmitter), each
    (rx, stream)'s index among the blocks (K c_tx / dim_tx integers), the
    samples, noise added in place (3 K L), and the pattern's physical
    modes with the two per-slot level modes they are expanded from (3 K L
    integers).  Where the slot components are built (every pass but the
    entry pass), so are their slot labels (K L) and each stream slot's
    component row (K c_tx integers).  The plan (``_Plan``) and
    ``_stream_batches`` build the blocks from transients that the
    allocator need not hand back before the passes, so they are added
    too: a copy of the channels, and per (rx, stream) its key (1 +
    dim_tx integers), one key row of gathered modes or of sorted keys at a
    time, the sort order, the running count and the index ((dim_tx + 6)
    integers).

    A shared pattern keeps its plans after the verify (see ``_Plan``);
    what the pattern cache holds lies outside this working set, and
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
    orthogonal = _orthogonal_free_rows(config)
    entry = orthogonal and blocks == 1  # the entry pass builds no slot components
    resident = sum(
        4 * d * d * n + (c // d + (0 if entry else c)) // 2
        for counts in _stream_block_counts(config, coherence_length)
        for n, c, d in zip(counts, columns, dims)
    ) + sum(c + 2 * (c // d) for c, d in zip(columns, dims)) // 2
    resident += blocks * sum(dims) ** 2 + (3 if entry else 4) * len(dims) * length
    resident += 3 * len(dims) * length // 2
    transient = len(dims) * sum(c + 6 * (c // d) for c, d in zip(columns, dims)) // 2
    transient += blocks * sum(dims) ** 2
    largest = 0
    if entry:
        # the entry pass, in half entries: the n streams of each dim keep
        # one column at each of the other receivers
        streams = {}
        for c, d in zip(columns, dims):
            streams[d] = streams.get(d, 0) + c // d
        kept = {d: (len(dims) - 1) * n for d, n in streams.items()}
        held = sum(3 * kept[d] * d for d in streams)
        decode = max(2 * kept[d] + 5 * kept[d] * (d - 1) for d in streams)
        solve = max(2 * n * d * (d + 3) for d, n in streams.items())
        largest = (held + max(decode, solve)) // 2 + 3 * len(dims) * length
    else:
        for (m, n, own, _), c in zip(shapes, columns):
            r = length - c if blocks == 1 else sum(columns) - c
            w = -(-r // m) if m else 0
            a = n - own
            p = min(a, w)
            if orthogonal:  # a receiver whose certificate fails
                stage = 2 * m * (a + w) + svd(n, w)
            else:
                stage = max(svd(a, w, p, m), svd(n, w) + m * p * w)
            largest = max(largest, m * n * w + stage)
    return (largest + resident + transient) * np.dtype(complex).itemsize


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


def _received(batches, sources, length: int) -> np.ndarray:
    """Every receiver's noiseless samples of ``sources``, (receivers,
    length); one transmitter's streams fill distinct slots."""
    samples = np.zeros((len(sources), length), dtype=complex)
    for b, x in zip(batches, sources):
        samples[:, b.slots] += (b.gains[b.index] @ x[..., None])[..., 0]
    return samples


def _component_blocks(length: int, batches, layout: _Layout, rx: int):
    """(per-interferer ranks, component blocks, full stack width, kept
    columns per component, bound) at rx.

    Up to a row and column permutation, tx's effective block is
    block-diagonal in its dim x dim stream blocks, so its singular values
    are the union of theirs; its rank counts them against the cutoff of the
    full (length x streams * dim) block.  Each stream's U*S columns above
    that cutoff, placed on the stream's rows of its component, keep the Gram
    matrix of the stacked interference but for the dropped columns, which
    lie below the cutoff, and with it the stack's nonzero singular values
    and left singular vectors.  Up to a permutation the kept stack is
    block-diagonal in the components: one (components, slots, columns)
    array, where a component with fewer kept columns than the widest is
    padded with zero columns, which only add zero singular values.  The
    stack Z = [Z_tx] has ||Z||^2 <= sum ||Z_tx||^2, and ||Z_tx|| is the
    largest of tx's stream singular values, so ``bound``, one array entry,
    holds a value at or above the stack's largest singular value.  With one
    interferer the two are equal, and computed they were seen a few ulps
    apart either way: LAPACK's singular values of a matrix with larger
    side n are those of a neighbour within a small multiple of n eps ||Z||.
    So the root sum of squares is raised by 4 n eps of itself, n the full
    stack's larger side, which puts ``bound`` at or above any computed
    largest singular value of the stack, the component blocks' included.
    """
    count, size = layout.count, layout.size
    kept, rows, columns, tops, width = [], [], [], [], 0
    for tx, b in enumerate(batches):
        s = b.values[b.index[rx]]  # (streams, dim)
        cut = np.inf  # rx's own streams keep nothing
        if tx != rx:
            cut = _cutoff(s, max(length, s.size))
            width += s.size
            tops.append(s.max(initial=0.0))
        stream, col = (s > cut).nonzero()
        kept.append(len(stream))
        rows.append(b.rows[rx, stream])
        columns.append(b.columns[b.index[rx, stream], col])
    # each kept column's place among its component's columns
    owner = np.concatenate([r[:, 0] for r in rows]) // max(size, 1)
    seen = np.cumsum(owner[:, None] == np.arange(count), axis=0)
    place = seen[np.arange(len(owner)), owner] - 1
    blocks = np.zeros((count * size, seen.max(initial=0)), dtype=complex)
    start = 0
    for r, c in zip(rows, columns):
        blocks[r, place[start:start + len(r), None]] = c
        start += len(r)
    return (
        kept[:rx] + kept[rx + 1:], blocks.reshape(count, size, blocks.shape[1]), width,
        np.bincount(owner, minlength=count), _stack_bound(np.array(tops), max(length, width)),
    )


def _stack_bound(tops: np.ndarray, full) -> np.ndarray:
    """A value at or above the interference stack's largest computed
    singular value, over the last axis of ``tops``, kept as one entry.

    ``tops`` holds each interferer's largest stream singular value, ||Z_tx||,
    and ``full`` the stack's larger side, broadcast against the result: the
    root sum of squares raised by 4 ``full`` eps of itself (see
    ``_component_blocks``).
    """
    return np.linalg.norm(tops, axis=-1, keepdims=True) * (1 + 4 * full * np.finfo(float).eps)


def _receiver_pass(batches, layout, rx, pred, samples):
    """Rank receiver rx's blocks and decode its samples, component by component.

    Returns rx's record: its ranks against ``pred``, and ``samples`` (its
    length-L samples, noise already added) with their decode.  This pass
    serves configs with several groups; a one-group config takes
    ``_flat_pass``, which reads the same quantities off entries.

    The stream blocks' SVDs (``batches``) give the desired and
    per-interferer ranks (see ``_component_blocks``).  The desired block is
    D = Π (⊕_s G_s): Π holds the unit vectors of rx's c own slots and G_s is
    own stream s's dim x dim block.  When every G_s has full rank, an own
    row can take any value, so rank [D | I] = c + rank(I without rx's own
    rows), summed over the components.  The singular values t of the free
    blocks F_i (the component blocks I_i without their own rows), from a
    thin SVD, give joint - c.  They also settle the combined rank, against
    the cutoff of ``bound`` (see ``_component_blocks``), which is at or
    above the full interference stack's: adding rows never lowers a
    singular value (Cauchy interlacing), so when every F_i has as many
    singular values above that cutoff as I_i has kept columns, each I_i has
    all of them above the stack's cutoff, the combined rank is the kept
    column count, and t fall on the same sides of either cutoff.  An
    aligned pattern at one fading block gives that on drawn channels: each
    F_i is square, and of full rank when joint = L.  Otherwise (a fading
    block shorter than L, a misaligned pattern, channels built by hand) a
    values-only SVD of the I_i gives the stack's exact cutoff and the
    combined rank.  That check is its one trigger, after t, with U let go
    and Vh held; an I_i with more kept columns than F_i has rows always
    trips it.  Drawn channels give full-rank G_s with probability 1; a G_s
    short of full rank (a pattern that repeats a mode inside an own stream,
    or channels built by hand) shows as desired < c, a mismatch, and then
    joint = desired + rank(free) is a lower bound on the dense rank.

    The decode is the least squares of [D | I]: z_i is the pseudo-inverse
    of F_i applied to the samples b_i on its rows, Vh^H (U^H b_i / t), with
    t at or below the cutoff weighed 0; an own row's value is its sample
    minus I_i's own rows times z_i, an own row no interferer touches keeps
    its sample, and each stream's symbol is the pseudo-inverse of G_s
    applied to the values on its slots.
    """
    length, count, size, own = len(samples), layout.count, layout.size, layout.own
    batch = batches[rx]
    index = batch.index[rx]
    s_desired = batch.values[index]
    desired = s_desired > _cutoff(s_desired, max(length, s_desired.size))
    ranks, blocks, width, columns, bound = _component_blocks(length, batches, layout, rx)
    full = max(length, width)  # the interference stack's larger side
    free = size - own  # each component's first rows (see _Layout)
    values = samples[layout.order]
    components = values[:count * size].reshape(count, size, 1)  # a view into values
    u, t, vh = np.linalg.svd(blocks[:, :free], full_matrices=False)
    # nothing else reads U and Vh, so they are conjugated in place, and U is
    # let go before a values-only SVD
    projected = np.swapaxes(np.conjugate(u, out=u), -1, -2) @ components[:, :free]
    del u
    cutoff = _cutoff(bound, full)  # at or above the stack's own
    combined = columns.sum()
    if not np.array_equal(np.count_nonzero(t > cutoff, axis=-1), columns):
        s = np.linalg.svd(blocks, compute_uv=False)  # a free block left its rank open
        cutoff = _cutoff(s, full)
        combined = np.count_nonzero(s > cutoff)
    # pseudo-inverses weigh the values at or below their cutoff 0
    live = np.where(t > cutoff, t, np.inf)[..., None]
    z = np.swapaxes(np.conjugate(vh, out=vh), -1, -2) @ (projected / live)
    components[:, free:] -= blocks[:, free:] @ z
    rank = np.count_nonzero(desired)
    return _report(pred, samples, rank, ranks, combined, rank + np.count_nonzero(t > cutoff),
                   _own_estimates(batch, index, desired, values[batch.rows[rx]]))


def _own_estimates(batch, index, desired, values):
    """Each own stream's symbol estimate, (streams, dim): the pseudo-inverse
    of its block ``batch``'s ``index``, with the singular values outside
    ``desired`` weighed 0, applied to ``values``, the stream's slots'
    values after the interference is cancelled."""
    # pinv(G_s) v = Vh^H S^-1 U^H v, with S U^H the conjugated scaled
    # columns; the gathered copies are conjugated in place
    columns = batch.columns[index]
    solved = np.conjugate(columns, out=columns) @ values[..., None]
    del columns
    solved /= np.where(desired, batch.values[index], np.inf)[..., None] ** 2
    vh = batch.vh[index]
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


class _FlatDim:
    """The transmitters of one dim in a one-group config, read as entries
    (see ``_flat_columns``).

    ``plan`` is their ``_DimPlan`` and ``batch`` one of their
    ``_StreamBatch``es, whose SVD arrays they share; ``desired`` marks which
    of each stream's singular values at its own receiver clear its cutoff.
    Each kept interference column, at every receiver, has a row in
    ``entries`` (its dim entries, U[:, j] * S[j]) and ``places`` (their
    receiver * L + slot): the last is its one free entry, on the stream's
    hold slot, and the others lie on the receiver's own slots.
    """

    __slots__ = ("plan", "batch", "desired", "places", "entries")

    def __init__(self, plan, batch, desired, places, entries):
        self.plan, self.batch, self.desired = plan, batch, desired
        self.places, self.entries = places, entries


def _flat_columns(plan: _Plan, batches):
    """Every receiver's ranks and kept interference columns in a one-group
    config, as entries: (ranks, tops, norms, dims).

    ``ranks[rx, tx]`` is the rank of tx's block at rx, the desired rank
    when tx == rx, each counted against its full block's cutoff as
    ``_component_blocks`` counts it; ``tops[rx, tx]`` is the block's largest
    singular value, 0 when tx == rx.  A kept column of an interferer
    stream lies on the stream's slots: the first dim - 1 in the
    interleaving block, which is rx's own, and the last in the
    interferer's hold segment, which is one of rx's free slots (see
    ``_orthogonal_free_rows``).  So ``norms[rx, t]``, the root of the
    squared free entries summed on slot t, are the free blocks' row norms,
    and 0 on rx's own slots.  ``dims`` holds one ``_FlatDim`` per dim.  The
    transmitters of one dim share their stream blocks' SVD (see
    ``_stream_batches``), so each dim's blocks are read in one step for
    every receiver.
    """
    K, length = len(batches), plan.length
    ranks = np.zeros((K, K), dtype=np.intp)
    tops = np.zeros((K, K))
    squares = np.zeros(K * length)
    dims = []
    for d in plan.dims:
        users, counts, starts = d.users, d.counts, d.starts
        batch = batches[users[0]]
        s = batch.values[d.index]  # (K, streams, dim)
        top = np.maximum.reduceat(s.max(axis=-1), starts, axis=1)  # (K, users)
        cut = np.maximum(length, np.multiply(counts, d.dim)) * top * RANK_RTOL  # as _cutoff
        mine = (users, np.arange(len(users)))  # each transmitter at its own receiver
        desired = batch.values[d.own] > np.repeat(cut[mine], counts)[:, None]
        ranks[users, users] = np.add.reduceat(np.count_nonzero(desired, axis=-1), starts)
        top[mine] = 0.0
        cut[mine] = np.inf  # rx's own streams keep nothing
        tops[:, users] = top
        kept = s > np.repeat(cut, counts, axis=1)[..., None]
        ranks[:, users] += np.add.reduceat(np.count_nonzero(kept, axis=-1), starts, axis=1)
        rx, stream, column = kept.nonzero()
        entries = batch.columns[d.index[rx, stream], column]
        places = rx[:, None] * length + d.slots[stream]
        free = entries[:, -1]
        squares += np.bincount(places[:, -1], free.real**2 + free.imag**2, K * length)
        dims.append(_FlatDim(d, batch, desired, places, entries))
    return ranks, tops, np.sqrt(squares).reshape(K, length), dims


def _flat_pass(plan: _Plan, batches, predictions, samples):
    """Rank every receiver of a one-group config and decode its samples,
    in one pass over the kept columns' entries; one record per receiver.

    This is ``_receiver_pass`` with the free blocks read off their entries
    (``_flat_columns``).  Each kept column has one free entry, so F_i F_i^H
    is diagonal: F_i's singular values t are its row norms, and its
    pseudo-inverse is F_i^H diag(1 / t^2).  The certificate is a count per
    receiver: a free block has at most as many nonzero rows as kept
    columns, so t above the cutoff of the stack's bound number the kept
    columns exactly when every component's do.  A receiver whose
    certificate fails (a fading block shorter than L, channels built by
    hand) builds its component blocks for the values-only SVD alone, from
    the plan's slot components, which nothing else reads.  The decode is
    z = conj(a) b_f / t_f^2 for a kept column with free entry a on free
    slot f, subtracted from the samples on its own slots, all receivers' in
    one ``np.bincount`` per dim.
    """
    K, length = samples.shape
    ranks, tops, norms, dims = _flat_columns(plan, batches)
    desired = np.diagonal(ranks)
    widths = np.array([b.slots.size for b in batches])
    full = np.maximum(length, widths.sum() - widths)  # each stack's larger side
    cutoff = full * _stack_bound(tops, full[:, None])[:, 0] * RANK_RTOL  # as _cutoff
    combined = ranks.sum(axis=1) - desired  # the kept columns, where the certificate holds
    certified = np.count_nonzero(norms > cutoff[:, None], axis=1) == combined
    for rx in np.flatnonzero(~certified):  # a free block left the combined rank open
        blocks = _component_blocks(length, batches, plan.components()[1][rx], rx)[1]
        s = np.linalg.svd(blocks, compute_uv=False)
        cutoff[rx] = _cutoff(s, full[rx])
        combined[rx] = np.count_nonzero(s > cutoff[rx])
        del blocks
    above = norms > cutoff[:, None]
    # pseudo-inverses weigh the values at or below their cutoff 0
    live = np.where(above, norms, np.inf).ravel()
    received, cancel = samples.ravel(), np.zeros(2 * K * length)
    for d in dims:
        free = d.places[:, -1]
        z = received[free] / live[free] ** 2 * d.entries[:, -1].conj()
        # each own entry times z, real and imaginary parts side by side
        parts = (d.entries[:, :-1] * z[:, None]).view(float).ravel()
        cancel += np.bincount((d.places[:, :-1, None] * 2 + (0, 1)).ravel(), parts, cancel.size)
    values = samples - cancel.view(complex).reshape(K, length)
    estimates = [None] * K
    for d in dims:
        p = d.plan
        solved = _own_estimates(d.batch, p.own, d.desired, values[p.owner[:, None], p.slots])
        for tx, start, count in zip(p.users, p.starts.tolist(), p.counts):
            estimates[tx] = solved[start:start + count]
    joint = desired + np.count_nonzero(above, axis=1)
    return tuple(
        _report(pred, samples[rx], row[rx], row[:rx] + row[rx + 1:], c, j, estimates[rx])
        for rx, (pred, row, c, j) in enumerate(
            zip(predictions, ranks.tolist(), combined.tolist(), joint.tolist())
        )
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
    """One record per receiver, group-major, from one pass each.

    Each record ranks the desired block, each interferer's block, all
    interference stacked and [desired | interference] against predictions
    that assume one fading block per supersymbol; shorter coherence shows
    up as measured > predicted.  The slot components of every receiver
    are found once, from the config's counts alone, and the distinct stream
    blocks of all (rx, tx) pairs are decomposed in one batched SVD per
    dim; each receiver's pass then works component by component, and reads
    the joint rank as the desired rank plus the rank of the interference
    without the receiver's own rows (see ``_receiver_pass``).
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
    batches = _stream_batches(plan, channels)
    samples = _received(batches, sources, pattern.length)
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
        predictions = rank_predictions(pattern.config)
        if _orthogonal_free_rows(pattern.config):
            return _flat_pass(plan, batches, predictions, samples)
        layouts = plan.components()[1]
        return tuple(
            _receiver_pass(batches, layouts[rx], rx, pred, samples[rx])
            for rx, pred in enumerate(predictions)
        )
