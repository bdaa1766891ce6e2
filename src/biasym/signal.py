"""Simulated block-fading channels and alignment verification.

The transmitters know nothing about the channel; each symbol vector is
simply repeated over the slots its stream occupies, one slot per own
preset mode.  All alignment therefore has to come from the switching
pattern itself, and this module measures whether it does: it assembles
the effective (channel times repetition) matrices seen at each receiver,
compares their numerical ranks against the exact predictions, and runs a
zero-forcing decode round trip.

Channels are drawn i.i.d. CN(0, 1) per fading block; a block spans
``coherence_length`` consecutive slots, so alignment only survives when
a whole supersymbol fits inside one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dof import rank_predictions
from .patterns import GroupingConfig, PresetPattern, grouped_length

__all__ = [
    "UserStreams",
    "StreamPlacement",
    "ChannelSet",
    "ReceivedBlock",
    "InterfererRank",
    "ReceiverReport",
    "AlignmentReport",
    "UserDecode",
    "DecodeResult",
    "build_streams",
    "draw_channels",
    "assemble_received",
    "alignment_report",
    "decode",
    "verify_receivers",
    "random_symbols",
    "receiver_memory_bytes",
    "report_to_csv",
]

ALIGNMENT_CSV_HEADER = "# biasym alignment report v1"

RANK_RTOL = 1e-10  # singular values below max_dim * smax * RANK_RTOL count as zero


# ======================================================================
# Stream placement
# ======================================================================

@dataclass(frozen=True)
class UserStreams:
    """One user's streams: each carries one ``dim``-dimensional symbol vector
    and repeats it over its own ``dim`` 1-based slots in ``slots``."""

    label: tuple[int, int]
    dim: int
    slots: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StreamPlacement:
    """All users' streams against one supersymbol, group-major user order."""

    users: tuple[UserStreams, ...]


def _flat_stream_slots(family, counts, k: int) -> dict[tuple, list[int]]:
    """Slots of user k's streams in a flat ``family`` of mode sequences.

    Streams are keyed by the other users' modes: slot t joins the stream
    keyed by their modes at t unless one holds its final mode (another
    user's hold segment).  A stream thus repeats over M_k - 1 slots of the
    interleaving block and one slot of user k's own hold segment.
    """
    others = counts[:k] + counts[k + 1:]
    slots: dict[tuple, list[int]] = {}
    for t, modes in enumerate(zip(*family), 1):
        key = modes[:k] + modes[k + 1:]
        if all(m < c for m, c in zip(key, others)):
            slots.setdefault(key, []).append(t)
    return slots


def build_streams(pattern: PresetPattern) -> StreamPlacement:
    """Place every user's streams on the supersymbol.

    Two-level streams are products of an element-level stream (digits of
    the other in-group positions) and a group-level replication (digits of
    the other groups); a stream occupies the element slots inside each of
    its group-level slots.  Each stream carries one M'-dimensional symbol
    vector and sees every own physical mode exactly once.
    """
    config = pattern.config
    l1 = pattern.element_length
    per_group = config.users_per_group
    m1_family = [u.element_seq for u in pattern.users[:per_group]]
    m2_family = [u.group_seq for u in pattern.users[::per_group]]
    users = []
    for u in pattern.users:
        m1_slots = _flat_stream_slots(m1_family, config.element_counts, u.position - 1)
        m2_slots = _flat_stream_slots(m2_family, config.group_mode_counts, u.group - 1)
        streams = tuple(
            tuple(sorted((s2 - 1) * l1 + s1 for s2 in m2_slots[b_key] for s1 in m1_slots[a_key]))
            for b_key in sorted(m2_slots)
            for a_key in sorted(m1_slots)
        )
        users.append(UserStreams((u.position, u.group), u.used, streams))
    return StreamPlacement(users=tuple(users))


# ======================================================================
# Channels
# ======================================================================

@dataclass(frozen=True)
class ChannelSet:
    """Block-fading channel draws for every (receiver, transmitter) pair.

    ``gains[(rx, tx)]`` has shape (n_blocks, rx used modes, tx used modes):
    one row vector per receive preset mode, one column per transmit antenna
    dimension, redrawn independently every ``coherence_length`` slots.
    Indices are group-major user positions, matching PresetPattern.users.
    """

    seed: int
    coherence_length: int
    n_blocks: int
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
        coherence_length: slots per fading block; None means one block spans
            the whole supersymbol (the ideal staggered-fading case).
        seed: numpy default_rng seed; draws are made pair by pair in
            row-major (rx, tx) order, so a seed pins the whole set.
    """
    length = grouped_length(config)
    if coherence_length is None:
        coherence_length = length
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
    return ChannelSet(
        seed=int(seed),
        coherence_length=int(coherence_length),
        n_blocks=int(n_blocks),
        gains=gains,
    )


# ======================================================================
# Effective matrices and received signal
# ======================================================================

def _stream_slots(placement: StreamPlacement) -> list[np.ndarray]:
    """0-based slots of every user's streams, one (streams, dim) array each.

    Every stream repeats over exactly ``dim`` slots, one per own physical
    mode, and two streams of one user never share a slot.
    """
    return [
        np.array(u.slots, dtype=np.intp).reshape(-1, u.dim) - 1
        for u in placement.users
    ]


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


@dataclass(frozen=True)
class ReceivedBlock:
    """One receiver's samples over a supersymbol (noise kept separately)."""

    label: tuple[int, int]
    samples: np.ndarray
    noise: np.ndarray | None = None


def random_symbols(
    placement: StreamPlacement, seed: int | np.random.SeedSequence | None = 0
) -> list[list[np.ndarray]]:
    """Unit-norm complex symbol vectors, one per stream, in placement order."""
    rng = np.random.default_rng(seed)
    out = []
    for u in placement.users:
        vecs = []
        for _ in u.slots:
            v = rng.standard_normal(u.dim) + 1j * rng.standard_normal(u.dim)
            vecs.append(v / np.linalg.norm(v))
        out.append(vecs)
    return out


# ======================================================================
# Reports and decode results
# ======================================================================

@dataclass(frozen=True)
class InterfererRank:
    label: tuple[int, int]
    kind: str  # "IUI" or "IGI"
    measured: int
    predicted: int


@dataclass(frozen=True)
class ReceiverReport:
    label: tuple[int, int]
    desired_measured: int
    desired_predicted: int
    interferers: tuple[InterfererRank, ...]
    combined_measured: int
    combined_predicted: int
    joint_measured: int
    joint_predicted: int

    def _total(self, kind: str, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.interferers if r.kind == kind)

    iui_measured = property(lambda self: self._total("IUI", "measured"))
    iui_predicted = property(lambda self: self._total("IUI", "predicted"))
    igi_measured = property(lambda self: self._total("IGI", "measured"))
    igi_predicted = property(lambda self: self._total("IGI", "predicted"))

    @property
    def match(self) -> bool:
        return (
            self.desired_measured == self.desired_predicted
            and all(r.measured == r.predicted for r in self.interferers)
            and self.combined_measured == self.combined_predicted
            and self.joint_measured == self.joint_predicted
        )


@dataclass(frozen=True)
class AlignmentReport:
    receivers: tuple[ReceiverReport, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.receivers)


@dataclass(frozen=True)
class UserDecode:
    """Zero-forcing decode outcome for one receiver.

    ``estimates[s]`` estimates stream s's symbol vector.  ``deficiency`` is
    how many desired dimensions fell inside the interference span; any
    deficiency marks the whole receiver unrecoverable since no stream's
    estimate can then be trusted.
    """

    label: tuple[int, int]
    estimates: list[np.ndarray]
    recoverable: bool
    deficiency: int


@dataclass(frozen=True)
class DecodeResult:
    users: tuple[UserDecode, ...]

    @property
    def all_recoverable(self) -> bool:
        return all(u.recoverable for u in self.users)


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


def _svd(matrix: np.ndarray, compute_uv: bool = False):
    """(rows, u, s, vh): a thin SVD of the nonzero ``rows`` only.

    Zero rows change no singular value.  u and vh are None without
    ``compute_uv``.
    """
    rows = matrix.any(axis=1).nonzero()[0]
    if compute_uv:
        return rows, *np.linalg.svd(matrix[rows], full_matrices=False)
    return rows, None, np.linalg.svd(matrix[rows], compute_uv=False), None


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
        r = p.iui_total + p.igi_total if ideal else sum(columns) - c
        k = min(length, r)
        combine = 2 * length * r + svd(length, r)
        decode = length * k + 2 * length * c + svd(length, c)
        largest = max(largest, combine + decode)
    return (largest + stacks) * np.dtype(complex).itemsize


def _sources(
    placement: StreamPlacement,
    symbols,
    noise_scale: float,
    noise_seed: int | np.random.SeedSequence | None,
):
    """Validated inputs: one stacked symbol vector per transmitter, noise RNG."""
    if not 0.0 <= noise_scale < np.inf:  # also rejects NaN
        raise ValueError("noise scale must be finite and >= 0")
    for u, user_syms in zip(placement.users, symbols):
        if len(user_syms) != len(u.slots):
            raise ValueError("one symbol vector per stream is required")
        for vec in user_syms:
            if np.shape(vec) != (u.dim,):
                raise ValueError("symbol vector dimension must match the stream")
    rng = np.random.default_rng(noise_seed) if noise_scale > 0.0 else None
    return [np.concatenate(user_syms) for user_syms in symbols], noise_scale, rng


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


def _receiver_pass(
    placement, pattern, channels, slots, rx, pred=None, sources=None, samples=None
):
    """Gather receiver rx's per-stream channel blocks once and derive what is asked.

    Returns (rank report if ``pred``, samples if ``sources``, decode of
    ``samples`` or of the samples just built), None where not asked.

    One batched SVD of each transmitter's stream blocks gives its rank (see
    ``_compress``); one SVD of the compressed interference I gives the
    combined rank and the nulling basis; one SVD of the desired block D
    with that span projected out gives the joint rank, rank I + rank(P⊥D),
    and the least-squares decode.  Every cutoff keeps the shape of the full
    matrix it speaks about, so each verdict is the dense rank's.
    """
    user = placement.users[rx]
    length = pattern.length
    modes = np.array(pattern.users[rx].physical_seq(), dtype=np.intp) - 1
    gains = [_stream_gains(channels, rx, tx, s, modes) for tx, s in enumerate(slots)]
    block = report = user_decode = None
    if sources is not None:
        stacked, noise_scale, rng = sources
        samples = np.zeros(length, dtype=complex)
        for tx_slots, g, x in zip(slots, gains, stacked):
            samples[tx_slots] += (g @ x.reshape(len(g), -1, 1))[..., 0]
        noise = None
        if rng is not None:
            noise = noise_scale * (
                rng.standard_normal(length) + 1j * rng.standard_normal(length)
            ) / 2**0.5
            samples = samples + noise
        block = ReceivedBlock(label=user.label, samples=samples, noise=noise)
    if pred is None and samples is None:
        return report, block, user_decode
    s_desired = np.linalg.svd(gains[rx], compute_uv=False)
    desired_cutoff = _cutoff(s_desired, max(length, s_desired.size))
    ranks, compressed, width = _compress(length, slots, gains, rx)
    interfered, basis, s = _svd(compressed, compute_uv=True)[:3]
    combined = np.count_nonzero(s > _cutoff(s, max(length, width)))
    basis = basis[:, :combined]
    del compressed  # before D is built: a tenth less peak memory on flat (5,5,5,5)
    projected = _block(length, slots[rx], gains[rx])
    projected[interfered] -= basis @ (basis.conj().T @ projected[interfered])
    kept, u_mat, s, vh = _svd(projected, compute_uv=samples is not None)
    # rank against D's scale: columns the nulling swallowed only look tiny next to it
    surviving = np.count_nonzero(s > desired_cutoff)
    if pred is not None:
        report = ReceiverReport(
            label=user.label,
            desired_measured=np.count_nonzero(s_desired > desired_cutoff),
            desired_predicted=pred.desired,
            interferers=tuple(
                InterfererRank(u.label, pred.kinds[u.label], rank, pred.per_interferer[u.label])
                for rank, u in zip(ranks, (u for u in placement.users if u is not user))
            ),
            combined_measured=combined,
            combined_predicted=pred.iui_total + pred.igi_total,
            joint_measured=combined + surviving,
            joint_predicted=pred.length,
        )
    if samples is not None:
        samples = samples.copy()
        samples[interfered] -= basis @ (basis.conj().T @ samples[interfered])
        u_mat, s, vh = u_mat[:, :surviving], s[:surviving], vh[:surviving]
        solution = vh.conj().T @ ((u_mat.conj().T @ samples[kept]) / s)
        deficiency = projected.shape[1] - surviving
        user_decode = UserDecode(
            label=user.label,
            estimates=np.split(solution, len(user.slots)),
            recoverable=deficiency == 0,
            deficiency=deficiency,
        )
    return report, block, user_decode


def assemble_received(
    placement: StreamPlacement,
    pattern: PresetPattern,
    channels: ChannelSet,
    symbols: list[list[np.ndarray]],
    noise_scale: float = 0.0,
    noise_seed: int | np.random.SeedSequence | None = None,
) -> list[ReceivedBlock]:
    """Superpose every transmitter's contribution at every receiver.

    ``symbols[tx][s]`` is stream s's symbol vector.  Noise, when requested,
    is CN(0, 1) scaled by ``noise_scale`` (use 1/sqrt(SNR)), drawn receiver
    by receiver from one generator seeded with ``noise_seed``.
    """
    sources = _sources(placement, symbols, noise_scale, noise_seed)
    slots = _stream_slots(placement)
    return [
        _receiver_pass(placement, pattern, channels, slots, rx, sources=sources)[1]
        for rx in range(len(placement.users))
    ]


def alignment_report(
    placement: StreamPlacement,
    pattern: PresetPattern,
    channels: ChannelSet,
) -> AlignmentReport:
    """Measure effective-matrix ranks at every receiver against predictions.

    Per receiver: rank of the desired block, rank of each interferer's
    block, rank of all interference blocks stacked, and the joint rank of
    [desired | interference].  Predictions assume one fading block per
    supersymbol; shorter coherence shows up as measured > predicted.
    """
    preds = rank_predictions(pattern.config)
    slots = _stream_slots(placement)
    return AlignmentReport(receivers=tuple(
        _receiver_pass(placement, pattern, channels, slots, rx, pred=pred)[0]
        for rx, pred in enumerate(preds)
    ))


def report_to_csv(report: AlignmentReport) -> str:
    """Flat CSV: receiver, measured/predicted rank quadruple, match flag."""
    lines = [
        ALIGNMENT_CSV_HEADER,
        "receiver,desired_meas,desired_pred,iui_meas,iui_pred,"
        "igi_meas,igi_pred,joint_meas,joint_pred,match",
    ]
    for r in report.receivers:
        lines.append(
            f"u{r.label[0]}.{r.label[1]},{r.desired_measured},{r.desired_predicted},"
            f"{r.iui_measured},{r.iui_predicted},{r.igi_measured},{r.igi_predicted},"
            f"{r.joint_measured},{r.joint_predicted},{str(r.match).lower()}"
        )
    return "\n".join(lines) + "\n"


def decode(
    placement: StreamPlacement,
    pattern: PresetPattern,
    channels: ChannelSet,
    received: list[ReceivedBlock],
) -> DecodeResult:
    """Null interference at each receiver, then least-squares the rest.

    Projects the samples and the desired block onto the orthogonal
    complement of the stacked interference and solves through the SVD of
    the projected block.  Exact up to numerical precision whenever the
    joint rank condition holds and the samples are noiseless.
    """
    slots = _stream_slots(placement)
    return DecodeResult(users=tuple(
        _receiver_pass(placement, pattern, channels, slots, rx, samples=block.samples)[2]
        for rx, block in enumerate(received)
    ))


def verify_receivers(
    placement: StreamPlacement,
    pattern: PresetPattern,
    channels: ChannelSet,
    symbols: list[list[np.ndarray]],
    noise_scale: float = 0.0,
    noise_seed: int | np.random.SeedSequence | None = None,
) -> tuple[AlignmentReport, list[ReceivedBlock], DecodeResult]:
    """alignment_report, assemble_received and decode in one pass per receiver."""
    sources = _sources(placement, symbols, noise_scale, noise_seed)
    preds = rank_predictions(pattern.config)
    slots = _stream_slots(placement)
    reports, received, users = zip(*(
        _receiver_pass(placement, pattern, channels, slots, rx, pred=pred, sources=sources)
        for rx, pred in enumerate(preds)
    ))
    return AlignmentReport(receivers=reports), list(received), DecodeResult(users=users)
