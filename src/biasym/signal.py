"""Simulated block-fading channels and alignment verification.

The transmitters know nothing about the channel; each symbol vector is
simply repeated over the slots its stream occupies, one slot per own
preset mode.  All alignment therefore has to come from the switching
pattern itself, and this module measures whether it does: in one pass
per receiver, ``verify_receivers`` ranks the effective (channel times
repetition) matrices against the exact predictions and runs a
zero-forcing decode round trip.

Channels are drawn i.i.d. CN(0, 1) per fading block; a block spans
``coherence_length`` consecutive slots, so alignment only survives when
a whole supersymbol fits inside one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dof import ReceiverRanks, rank_predictions
from .patterns import GroupingConfig, PresetPattern, _integer, grouped_length, user_label

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
    if coherence_length is None:
        coherence_length = length
    coherence_length = min(_integer(coherence_length, "coherence length must be an integer"), length)
    if coherence_length < 1:
        raise ValueError("coherence length must be >= 1")
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

def _stream_gains(channels: ChannelSet, rx: int, tx: int, slots, modes) -> np.ndarray:
    """tx's stream blocks at rx, shape (streams, dim, dim) for tx's dim.

    Row j of stream s is the channel row rx sees from tx at slot
    ``slots[s, j]``, in rx's 0-based mode ``modes[slots[s, j]]``.
    """
    return channels.gains[(rx, tx)][slots // channels.coherence_length, modes[slots]]


def _block(length: int, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The effective block of stream blocks ``gains`` on their ``slots``.

    Shape (length, streams * dim): row t holds, in the columns of stream s,
    the channel row of slot t if the stream occupies it, and zeros otherwise.
    """
    out = np.zeros((length, len(gains), gains.shape[2]), dtype=complex)
    out[slots, np.arange(len(gains))[:, None]] = gains
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


def _svd(matrix: np.ndarray):
    """(rows, u, s, vh): a thin SVD of the nonzero ``rows`` only.

    Zero rows change no singular value.
    """
    rows = matrix.any(axis=1).nonzero()[0]
    return rows, *np.linalg.svd(matrix[rows], full_matrices=False)


def receiver_memory_bytes(config: GroupingConfig, coherence_length: int | None = None) -> int:
    """Closed-form bound on the largest one-receiver working set, in bytes.

    Receiver rx has L slots, c desired columns and r compressed
    interference columns: its predicted combined rank, or every interfering
    column when ``coherence_length`` is shorter than L.  Rows are bounded
    by L and k = min(L, r).  An SVD with U of an m x n matrix (p = min(m, n))
    holds LAPACK's copy of it, U and Vh both in LAPACK's buffer and as
    results, and LAPACK's workspace: m n + 2 (m p + p n) + m p + 3 p^2
    complex entries.  The two SVD stages are summed, since the first one's
    buffers can stay resident in the heap while the second runs:

    * the compressed stack and its row gather (2 L r), and its SVD;
    * the nulling basis (L k), D and its row gather (2 L c), and the SVD of
      P⊥D.

    The projection between them needs less than either.  Every transmitter
    adds its stream blocks, their U and the kept columns (3 c_tx dim_tx).
    """
    def svd(m: int, n: int) -> int:
        p = min(m, n)
        return m * n + 2 * (m * p + p * n) + m * p + 3 * p * p

    length = grouped_length(config)
    ideal = coherence_length is None or coherence_length >= length
    preds = rank_predictions(config)
    columns = [p.desired for p in preds]
    stacks = 3 * sum(c * config.used[orig] for c, orig in zip(columns, config.user_order()))
    largest = 0
    for p, c in zip(preds, columns):
        r = p.combined if ideal else sum(columns) - c
        k = min(length, r)
        combine = 2 * length * r + svd(length, r)
        decode = length * k + 2 * length * c + svd(length, c)
        largest = max(largest, combine + decode)
    return (largest + stacks) * np.dtype(complex).itemsize


def _compress(length: int, slots, gains, rx: int):
    """(per-interferer ranks, compressed interference, full stack width) at rx.

    Up to a row and column permutation, tx's effective block is
    block-diagonal in its dim x dim stream blocks ``gains[tx]``, so its
    singular values are the union of theirs; its rank counts them against
    the cutoff of the full (length x streams * dim) block.  Each stream's
    U*S columns above that cutoff, placed on the stream's slots, keep the
    Gram matrix of the stacked interference but for the dropped columns,
    which lie below the cutoff, and with it the stack's nonzero singular
    values and left singular vectors.
    """
    ranks, rows, columns, width = [], [], [], 0
    for tx, (tx_slots, g) in enumerate(zip(slots, gains)):
        if tx != rx:
            u, s, _ = np.linalg.svd(g, full_matrices=False)
            stream, col = (s > _cutoff(s, max(length, s.size))).nonzero()
            ranks.append(len(stream))
            rows.append(tx_slots[stream])
            columns.append(u[stream, :, col] * s[stream, col, None])
            width += s.size
    compressed = np.zeros((length, sum(ranks)), dtype=complex)
    start = 0
    for r, c in zip(rows, columns):
        compressed[r, start + np.arange(len(c))[:, None]] = c
        start += len(c)
    return ranks, compressed, width


def _receiver_pass(pattern, channels, rx, pred, sources, noise):
    """Gather receiver rx's per-stream channel blocks once and rank them.

    Returns rx's record: its ranks against ``pred``, and the samples of
    ``sources`` (one (streams, used) symbol array per transmitter) and
    their decode; ``noise`` is None or (scale, RNG).

    One batched SVD of each transmitter's stream blocks gives its rank (see
    ``_compress``); one SVD of the compressed interference I gives the
    combined rank and the nulling basis; one SVD of the desired block D
    with that span projected out gives the joint rank, rank I + rank(P⊥D),
    and the least-squares decode.  Every cutoff keeps the shape of the full
    matrix it speaks about, so each verdict is the dense rank's.
    """
    slots = pattern.streams
    length = pattern.length
    modes = np.array(pattern.users[rx].physical_seq(), dtype=np.intp) - 1
    gains = [_stream_gains(channels, rx, tx, s, modes) for tx, s in enumerate(slots)]
    s_desired = np.linalg.svd(gains[rx], compute_uv=False)
    desired_cutoff = _cutoff(s_desired, max(length, s_desired.size))
    ranks, compressed, width = _compress(length, slots, gains, rx)
    interfered, basis, s = _svd(compressed)[:3]
    combined = int(np.count_nonzero(s > _cutoff(s, max(length, width))))
    basis = basis[:, :combined]
    del compressed  # before D is built: a tenth less peak memory on flat (5,5,5,5)
    projected = _block(length, slots[rx], gains[rx])
    projected[interfered] -= basis @ (basis.conj().T @ projected[interfered])
    kept, u_mat, s, vh = _svd(projected)
    # rank against D's scale: columns the nulling swallowed only look tiny next to it
    surviving = int(np.count_nonzero(s > desired_cutoff))
    samples = np.zeros(length, dtype=complex)
    for tx_slots, g, x in zip(slots, gains, sources):
        samples[tx_slots] += (g @ x[..., None])[..., 0]
    if noise is not None:
        scale, rng = noise
        samples += scale * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ) / 2**0.5
    nulled = samples.copy()  # the returned samples stay as received
    nulled[interfered] -= basis @ (basis.conj().T @ nulled[interfered])
    u_mat, s, vh = u_mat[:, :surviving], s[:surviving], vh[:surviving]
    solution = vh.conj().T @ ((u_mat.conj().T @ nulled[kept]) / s)
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
        estimates=solution.reshape(slots[rx].shape),
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
    up as measured > predicted.  ``symbols[tx]`` has the shape of
    ``pattern.streams[tx]``: row s is stream s's symbol vector.  Each
    record also holds its receiver's samples and their decode.
    Noise, when requested, is CN(0, 1) scaled by ``noise_scale``
    (use 1/sqrt(SNR)), drawn receiver by receiver from one generator seeded
    with ``noise_seed``.  The decode nulls interference at each receiver,
    then least-squares the rest; it is exact up to numerical precision
    whenever the joint rank condition holds and the samples are noiseless.
    """
    if not 0.0 <= noise_scale < np.inf:  # also rejects NaN
        raise ValueError("noise scale must be finite and >= 0")
    sources = [np.asarray(x) for x in symbols]
    if len(sources) != len(pattern.streams):
        raise ValueError("one symbol array per user is required")
    if any(x.shape != slots.shape for x, slots in zip(sources, pattern.streams)):
        raise ValueError("each user's symbols must have its (streams, used) slot shape")
    noise = (noise_scale, np.random.default_rng(noise_seed)) if noise_scale > 0.0 else None
    return tuple(
        _receiver_pass(pattern, channels, rx, pred, sources, noise)
        for rx, pred in enumerate(rank_predictions(pattern.config))
    )
