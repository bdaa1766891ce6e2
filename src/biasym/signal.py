"""Simulated block-fading channels and alignment verification.

The transmitters know nothing about the channel; each symbol vector is
simply repeated over the slots its stream occupies, one slot per own
preset mode.  All alignment therefore has to come from the switching
pattern itself, and this module measures whether it does: in one pass
per receiver, ``verify_receivers`` ranks the effective (channel times
repetition) matrices against the exact predictions and runs a
zero-forcing decode round trip.

Each interferer stream fills only its own slots, so a receiver's
interference splits into independent slot components: groups of slots
that chains of interferer streams link.  The pass ranks the interference
component by component, one small block each, and ranks and decodes the
desired block in complement coordinates, where each component's rows
are multiplied by a basis of what its interference leaves free.  No
matrix as tall as the supersymbol is decomposed.

Channels are drawn i.i.d. CN(0, 1) per fading block; a block spans
``coherence_length`` consecutive slots, so alignment only survives when
a whole supersymbol fits inside one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dof import ReceiverRanks, rank_predictions
from .patterns import (
    GroupingConfig,
    PresetPattern,
    _holds,
    _integer,
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
    Indices are group-major user positions, matching PresetPattern.users.
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
        seed: numpy default_rng seed; draws are made pair by pair in
            row-major (rx, tx) order, so a seed pins the whole set.
    """
    length = grouped_length(config)
    coherence_length = _coherence(coherence_length, length)
    n_blocks = -(-length // coherence_length)
    rng = np.random.default_rng(seed)
    order = config.user_order()
    K = len(order)
    dims = [config.used[orig] for orig in order]
    gains = {}
    for rx in range(K):
        for tx in range(K):
            shape = (n_blocks, dims[rx], dims[tx])
            gains[(rx, tx)] = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ) / np.sqrt(2.0)
    return ChannelSet(coherence_length=coherence_length, gains=gains)


# ======================================================================
# Effective matrices and received signal
# ======================================================================

class _StreamBatch:
    """The stream blocks every receiver sees from the transmitters of one dim.

    ``users`` lists those transmitters in order, ``starts`` and ``counts``
    where each one's streams begin and how many there are, and ``slots``
    stacks their stream slots, (streams, dim).
    ``gains[rx, s]`` is stream s's dim x dim block at receiver rx: row j is
    the channel row rx sees at slot ``slots[s, j]``, in its own mode there.
    ``values`` and ``columns`` hold each block's SVD: its singular values,
    and U's columns scaled by them, one per row (``columns[rx, s, j]`` is
    U[:, j] * S[j]).  ``rows[rx, s, j]`` is the row of slot ``slots[s, j]``
    among rx's component rows (see ``_slot_components``).
    """

    __slots__ = ("users", "starts", "counts", "slots", "gains", "values", "columns", "rows")

    def __init__(self, users, starts, counts, slots, gains, values, columns, rows):
        self.users, self.starts, self.counts, self.slots = users, starts, counts, slots
        self.gains, self.values, self.columns, self.rows = gains, values, columns, rows


def _stream_batches(pattern: PresetPattern, channels: ChannelSet, position: np.ndarray):
    """(batches, where): every (rx, tx) pair's stream blocks, one
    ``_StreamBatch`` per distinct transmitter dim, each decomposed by one
    batched SVD; ``where[tx]`` is (batch index, slice of tx's streams).
    ``position`` is ``_slot_components``'s row of every slot at every receiver.
    """
    streams = pattern.streams
    blocks = -(-pattern.length // channels.coherence_length)
    modes = [np.array(user.physical_seq(), dtype=np.intp) - 1 for user in pattern.users]
    batches, where = [], [None] * len(streams)
    for dim in sorted({s.shape[1] for s in streams}):
        users = tuple(tx for tx, s in enumerate(streams) if s.shape[1] == dim)
        counts = np.array([len(streams[tx]) for tx in users])
        starts = np.cumsum(counts) - counts
        for tx, start, count in zip(users, starts.tolist(), counts.tolist()):
            where[tx] = len(batches), slice(start, start + count)
        slots = np.concatenate([streams[tx] for tx in users])
        user = np.repeat(np.arange(len(users)), counts)[:, None]
        block = slots // channels.coherence_length
        gains = np.stack([
            np.stack([channels.gains[rx, tx][:blocks] for tx in users])[user, block, mode[slots]]
            for rx, mode in enumerate(modes)
        ])
        u, s, _ = np.linalg.svd(gains)
        batches.append(_StreamBatch(
            users, starts, counts, slots, gains, s, np.swapaxes(u * s[..., None, :], -1, -2),
            position[:, slots],
        ))
    return batches, where


def _block(length: int, rows: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The effective block of stream blocks ``gains`` on their ``rows``.

    Shape (length, streams * dim): row t holds, in the columns of stream s,
    the channel row of slot t if the stream occupies it, and zeros
    otherwise; ``rows`` are the streams' slots, or any renumbering of them.
    """
    out = np.zeros((length, len(gains), gains.shape[2]), dtype=complex)
    out[rows, np.arange(len(gains))[:, None]] = gains
    return out.reshape(length, -1)


def random_symbols(
    pattern: PresetPattern, seed: int | np.random.SeedSequence | None = 0
) -> list[np.ndarray]:
    """Unit-norm complex symbol vectors: one (streams, used) array per user,
    row s for stream s, in the shape of ``pattern.streams``."""
    rng = np.random.default_rng(seed)
    out = []
    for slots in pattern.streams:
        parts = rng.standard_normal((len(slots), 2, slots.shape[1]))
        vecs = parts[:, 0] + 1j * parts[:, 1]
        # a 1-D norm per row: norm(axis=1) can differ in the last ulp
        out.append(np.array([v / np.linalg.norm(v) for v in vecs]))
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
    dense rank of the whole matrix would give.
    """
    return size * s.max(initial=0.0) * RANK_RTOL


def _component_shapes(config: GroupingConfig) -> list[tuple[int, int, int]]:
    """(components, slots per component, untouched slots) at every receiver,
    in closed form: what ``_slot_components`` finds on the built pattern.

    A stream is a group-level stream times an element-level one.  At
    receiver (k, i) the element-level streams of the other positions link
    the element slots outside k's hold segment into e_k - 1 classes, one
    per digit k of the interleaving block, and the group-level streams of
    the other groups link the group slots outside i's hold segment into
    g_i - 1 classes.  With other positions and other groups, the streams
    of (k', i) and (k, i') merge every class into one component, which
    leaves only the product of the two hold segments untouched.  With one
    level of other users only, each of its classes times the whole other
    level is a component.
    """
    elem, grp = config.element_counts, config.group_mode_counts
    hold1, hold2 = _holds(elem), _holds(grp)
    length1, length2 = flat_length(elem), flat_length(grp)
    positions, groups = len(elem) > 1, len(grp) > 1  # is there another user at that level
    out = []
    for k, i in config.labels():
        free = (hold1[k - 1] if positions else length1) * (hold2[i - 1] if groups else length2)
        if positions and groups:
            count = 1
        elif positions:
            count = elem[k - 1] - 1
        elif groups:
            count = grp[i - 1] - 1
        else:
            count = 0
        out.append((count, (length1 * length2 - free) // max(count, 1), free))
    return out


def receiver_memory_bytes(config: GroupingConfig, coherence_length: int | None = None) -> int:
    """Closed-form bound on the largest one-receiver working set, in bytes.

    Receiver rx has L slots, c desired columns and r kept interference
    columns: L - c, its predicted combined rank, or every interfering
    column when ``coherence_length`` is shorter than L.  They split over m
    slot components of n rows each (``_component_shapes``), w = ceil(r / m)
    columns to a component, of rank p <= min(n, w).  At most c rows are
    left in complement coordinates: the interference rank only grows past
    its aligned value L - c when fading breaks the alignment.  An SVD of an
    a x b matrix with a k-column U (p = min(a, b)) holds LAPACK's copy of
    it, U and Vh both in LAPACK's buffer and as results, and LAPACK's
    workspace: a b + 2 (a k + p b) + a p + 3 p^2 complex entries; a batch
    of such matrices adds the results of the others.  The two SVD stages
    are summed, since the first one's buffers can stay resident in the heap
    while the second runs:

    * the component blocks (m n w) and their batched SVD with all of U;
    * D in row order (L c), the reduced block it is carried into (c c),
      one component's conjugated complement basis (n (n - p)), and the
      reduced block's thin SVD.

    Every receiver's stream blocks stay resident for the whole verify:
    gains, U, Vh and the scaled U (4 K c_tx dim_tx for each transmitter),
    with each stream slot's component row (K c_tx integers, half an entry
    each); so do the slot labels of every receiver and the samples (4 K L).
    """
    def svd(a: int, b: int, k: int, count: int = 1) -> int:
        p = min(a, b)
        return a * b + 2 * (a * k + p * b) + a * p + 3 * p * p + (count - 1) * (a * k + p * b)

    length = grouped_length(config)
    ideal = coherence_length is None or coherence_length >= length
    hold1, hold2 = _holds(config.element_counts), _holds(config.group_mode_counts)
    dims = [config.used[orig] for orig in config.user_order()]
    columns = [d * hold1[k - 1] * hold2[i - 1] for d, (k, i) in zip(dims, config.labels())]
    K = len(dims)
    resident = K * sum(4 * c * d + c // 2 for c, d in zip(columns, dims)) + 4 * K * length
    largest = 0
    for (m, n, _), c in zip(_component_shapes(config), columns):
        r = length - c if ideal else sum(columns) - c
        w = -(-r // m) if m else 0
        p = min(n, w)
        combine = m * n * w + svd(n, w, n, m)
        decode = (length + c) * c + n * (n - p) + svd(c, c, c)
        largest = max(largest, combine + decode)
    return (largest + resident) * np.dtype(complex).itemsize


class _Layout:
    """One receiver's slot components, as rows of its reduced problem.

    ``order`` lists the slots by row: each component's slots in a run,
    ascending, components in order of their smallest slots, then the slots
    no interferer occupies; ``position`` is its inverse, slot t's row.
    ``count`` components of ``size`` slots each fill the first
    count * size rows.
    """

    __slots__ = ("position", "order", "count", "size")

    def __init__(self, position: np.ndarray, order: np.ndarray, count: int, size: int):
        self.position, self.order, self.count, self.size = position, order, count, size


def _slot_components(streams, length: int):
    """Every receiver's slot components: (position, layouts).

    At receiver rx each interferer stream fills only its own slots, so the
    interference splits into independent groups of slots: two slots share a
    component when a chain of streams of users other than rx links them.
    ``layouts[rx]`` is rx's ``_Layout`` and ``position[rx]`` its
    ``position``.  The product construction gives every component of a
    receiver the same number of slots (see ``_component_shapes``).

    Labels are found for all receivers at once: each round lowers every
    stream's slots to the smallest label among them and lets each label
    follow its own label, until a round changes nothing.
    """
    K = len(streams)
    users = np.arange(K)[:, None, None]
    # every stream padded to the widest dim by repeating its last slot
    width = range(max(s.shape[1] for s in streams))
    padded = np.concatenate([np.take(s, width, axis=1, mode="clip") for s in streams])
    owner = np.repeat(np.arange(K), [len(s) for s in streams])
    occupied = np.zeros((K, length), dtype=bool)
    occupied[owner[:, None], padded] = True
    touched = occupied.sum(axis=0) > occupied  # some other user occupies the slot
    own = owner == users[:, :, 0]  # a receiver's own streams join nothing
    label = np.tile(np.arange(length), (K, 1))
    while True:
        lowered = label.copy()
        low = np.where(own, length, label[:, padded].min(axis=2))
        np.minimum.at(lowered, (users, padded), low[..., None])
        lowered = lowered[users[:, :, 0], lowered]
        if (lowered == label).all():
            break
        label = lowered
    order = np.argsort(np.where(touched, label, length), axis=1, kind="stable")
    position = np.empty_like(order)
    position[users[:, :, 0], order] = np.arange(length)
    counts = (touched & (label == np.arange(length))).sum(axis=1).tolist()
    sizes = touched.sum(axis=1).tolist()
    return position, [
        _Layout(position[rx], order[rx], count, size // max(count, 1))
        for rx, (count, size) in enumerate(zip(counts, sizes))
    ]


def _received(batches, sources, length: int) -> np.ndarray:
    """Every receiver's noiseless samples of ``sources``: (receivers, length)."""
    users = np.arange(len(sources))[:, None, None]
    samples = np.zeros((len(sources), length), dtype=complex)
    for b in batches:
        x = np.concatenate([sources[tx] for tx in b.users])
        np.add.at(samples, (users, b.slots), (b.gains @ x[..., None])[..., 0])
    return samples


def _component_blocks(length: int, batches, where, layout: _Layout, rx: int):
    """(per-interferer ranks, component blocks, full stack width) at rx.

    Up to a row and column permutation, tx's effective block is
    block-diagonal in its dim x dim stream blocks, so its singular values
    are the union of theirs; its rank counts them against the cutoff of the
    full (length x streams * dim) block.  Each stream's U*S columns above
    that cutoff, placed on the stream's rows of its component, keep the Gram
    matrix of the stacked interference but for the dropped columns, which
    lie below the cutoff, and with it the stack's nonzero singular values
    and left singular vectors.  Up to a permutation the kept stack is
    block-diagonal in the components: one (components, slots, columns)
    array, where a component with fewer kept columns is padded with zero
    columns, which only add zero singular values.
    """
    count, size = layout.count, layout.size
    cuts = [[] for _ in batches]
    width = 0
    for tx, (b, streams) in enumerate(where):
        cut = np.inf  # rx's own streams keep nothing
        if tx != rx:
            s = batches[b].values[rx, streams]
            cut = _cutoff(s, max(length, s.size))
            width += s.size
        cuts[b].append(cut)
    kept, rows, columns = [0] * len(where), [], []
    for b, cut in zip(batches, cuts):
        keep = b.values[rx] > np.repeat(np.array(cut), b.counts)[:, None]
        kept_by_user = np.add.reduceat(keep.sum(axis=1), b.starts).tolist()
        for tx, k in zip(b.users, kept_by_user):
            kept[tx] = k
        stream, col = keep.nonzero()
        rows.append(b.rows[rx, stream])
        columns.append(b.columns[rx, stream, col])
    # each kept column's place among its component's columns
    owner = np.concatenate([r[:, 0] for r in rows]) // max(size, 1)
    seen = np.cumsum(owner[:, None] == np.arange(count), axis=0)
    place = seen[np.arange(len(owner)), owner] - 1
    blocks = np.zeros((count * size, seen.max(initial=0)), dtype=complex)
    start = 0
    for r, c in zip(rows, columns):
        blocks[r, place[start:start + len(r), None]] = c
        start += len(r)
    return kept[:rx] + kept[rx + 1:], blocks.reshape(count, size, blocks.shape[1]), width


def _receiver_pass(pattern, batches, where, layout, rx, pred, samples, noise):
    """Rank receiver rx's blocks and decode its samples, component by component.

    Returns rx's record: its ranks against ``pred``, and ``samples`` (its
    noiseless samples) with noise added and their decode; ``noise`` is None
    or (scale, RNG).

    The stream blocks' SVDs (``batches``) give the desired and
    per-interferer ranks (see ``_component_blocks``).  One batched SVD of
    the component blocks gives the combined rank, the union of their values
    counted against the full stack's cutoff, and, with all of U, each
    component's complement of the interference span.  In complement
    coordinates, each component's rows of D and of the samples multiplied
    by U_i[:, r_i:]^H and the untouched rows kept as they are, D becomes a
    (length - combined) x c block with the singular values of P⊥D: its one
    SVD gives the joint rank, rank I + rank(P⊥D), and the least-squares
    decode.  Every cutoff keeps the shape of the full matrix it speaks
    about, so each verdict is the dense rank's.
    """
    length = pattern.length
    b, own = where[rx]
    s_desired = batches[b].values[rx, own]
    desired_cutoff = _cutoff(s_desired, max(length, s_desired.size))
    ranks, blocks, width = _component_blocks(length, batches, where, layout, rx)
    count, size = layout.count, layout.size
    basis, s, _ = np.linalg.svd(blocks, full_matrices=size > blocks.shape[2])  # U is size x size
    spans = (s > _cutoff(s, max(length, width))).sum(axis=1)
    combined = int(spans.sum())
    if noise is not None:
        scale, rng = noise
        samples = samples + scale * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ) / 2**0.5
    # D and the samples in complement coordinates: U_i[:, r_i:]^H times
    # each component's rows, then the untouched rows as they are
    desired = _block(length, layout.position[pattern.streams[rx]], batches[b].gains[rx, own])
    received = samples[layout.order]
    reduced = np.empty((length - combined, desired.shape[1]), dtype=complex)
    nulled = np.empty(length - combined, dtype=complex)
    start = 0
    for i, r in enumerate(spans.tolist()):
        rows, stop = slice(i * size, (i + 1) * size), start + size - r
        complement = basis[i, :, r:].conj().T
        np.matmul(complement, desired[rows], out=reduced[start:stop])
        np.matmul(complement, received[rows], out=nulled[start:stop])
        start = stop
    reduced[start:], nulled[start:] = desired[count * size:], received[count * size:]
    u_mat, s, vh = np.linalg.svd(reduced, full_matrices=False)
    # rank against D's scale: columns the nulling swallowed only look tiny next to it
    surviving = int(np.count_nonzero(s > desired_cutoff))
    u_mat, s, vh = u_mat[:, :surviving], s[:surviving], vh[:surviving]
    solution = vh.conj().T @ ((u_mat.conj().T @ nulled) / s)
    user = pattern.users[rx]
    return ReceiverReport(
        predicted=pred,
        measured=ReceiverRanks(
            label=(user.position, user.group),
            length=length,
            desired=int(np.count_nonzero(s_desired > desired_cutoff)),
            per_interferer=dict(zip(pred.per_interferer, ranks)),
            combined=combined,
            joint=combined + surviving,
        ),
        samples=samples,
        estimates=solution.reshape(pattern.streams[rx].shape),
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
    are found once, from ``pattern.streams`` alone, and the stream blocks
    of all (rx, tx) pairs are decomposed in one batched SVD per distinct
    dim; each receiver's pass then works component by component (see
    ``_receiver_pass``).  ``symbols[tx]`` has the shape of
    ``pattern.streams[tx]``: row s is stream s's symbol vector.  Each
    record also holds its receiver's samples and their decode.
    Noise, when requested, is CN(0, 1) scaled by ``noise_scale``
    (use 1/sqrt(SNR)), drawn receiver by receiver from one generator seeded
    with ``noise_seed``.  The decode nulls interference at each receiver,
    then least-squares the rest; it is exact up to numerical precision
    whenever the joint rank condition holds and the samples are noiseless.
    Channels not drawn for ``pattern`` are refused before any rank is
    measured: their coherence length must be an integer >= 1, read as one
    block at or past the supersymbol's length, and their gains must hold
    each pair's (blocks, used rx, used tx) draws over enough blocks.
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
    dims = [user.used for user in pattern.users]
    pairs = {(rx, tx) for rx in range(len(dims)) for tx in range(len(dims))}
    if channels.gains.keys() != pairs or any(
        np.ndim(g) != 3 or len(g) < blocks or np.shape(g)[1:] != (dims[rx], dims[tx])
        for (rx, tx), g in channels.gains.items()
    ):
        raise ValueError("channels must hold each (rx, tx) pair's (blocks, used rx, used tx) "
                         "gains, enough blocks to cover the supersymbol")
    noise = (noise_scale, np.random.default_rng(noise_seed)) if noise_scale > 0.0 else None
    position, layouts = _slot_components(pattern.streams, pattern.length)
    batches, where = _stream_batches(pattern, ChannelSet(coherence, channels.gains), position)
    samples = _received(batches, sources, pattern.length)
    return tuple(
        _receiver_pass(pattern, batches, where, layouts[rx], rx, pred, samples[rx], noise)
        for rx, pred in enumerate(rank_predictions(pattern.config))
    )
