"""Signal engine: stream slots, channels, measured ranks, decoding.

The received-signal oracle here is a literal per-slot loop (sum over
transmitters of channel row times currently repeated symbols), written
independently of the effective-matrix assembly it checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import channel_row, effective_block, matrix_rank, physical, reference_streams

from biasym import (
    GroupingConfig,
    ReceiverRanks,
    SearchSpace,
    draw_channels,
    enumerate_configs,
    grouped_length,
    grouped_pattern,
    pattern_table,
    random_symbols,
    rank_predictions,
    report_to_csv,
    verify_receivers,
)
from biasym import signal
from biasym.signal import _block, _compress, _stream_gains, receiver_memory_bytes


def slot_loop_received(pattern, channels, symbols, rx):
    """Oracle: superpose transmissions slot by slot, straight from the model."""
    L = pattern.length
    K = len(pattern.users)
    y = np.zeros(L, dtype=complex)
    for t in range(1, L + 1):
        mode = physical(pattern.users[rx], t)
        for tx in range(K):
            sent = np.zeros(pattern.users[tx].used, dtype=complex)
            for s, stream in enumerate(pattern.streams[tx]):
                if t - 1 in stream:
                    sent = sent + symbols[tx][s]
            y[t - 1] += channel_row(channels, rx, tx, t, mode) @ sent
    return y


def small_configs():
    return [
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
        GroupingConfig.grouped([9, 9], [[0], [1]], [3, 3]),
        # several streams at both levels: pins their row order, group level outer
        GroupingConfig.grouped([9, 9, 9, 9], [[0, 1], [2, 3]], [3, 3]),
        GroupingConfig.flat([3, 2]),
        GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]),
        GroupingConfig.flat([4]),
    ]


class TestStreams:
    def test_example_stream_slots(self, example_pattern):
        slots = [(s + 1).tolist() for s in example_pattern.streams]
        assert slots[0] == [[1, 2, 3, 6, 7, 8]]  # u1.1
        assert slots[1] == [[1, 4, 6, 9], [2, 5, 7, 10]]  # u2.1
        assert slots[2] == [[1, 2, 3, 11, 12, 13]]  # u1.2
        assert slots[3] == [[1, 4, 11, 14], [2, 5, 12, 15]]  # u2.2

    def test_stream_counts_match_predictions(self, example_pattern, example_config):
        preds = rank_predictions(example_config)
        for slots, u, pred in zip(example_pattern.streams, example_pattern.users, preds):
            assert slots.shape[1] == u.used
            assert slots.size == pred.desired

    def test_streams_are_read_only_and_computed_on_request(self, example_config):
        pattern = grouped_pattern(example_config)
        pattern_table(pattern)
        assert "streams" not in vars(pattern)  # a pattern table never places streams
        streams = pattern.streams
        assert pattern.streams is streams
        assert all(s.dtype == np.intp and not s.flags.writeable for s in streams)
        with pytest.raises(ValueError, match="read-only"):
            streams[0][0, 0] = 0

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_stream_invariants(self, cfg):
        pattern = grouped_pattern(cfg)
        # the slots the built sequences give, array for array and in row order
        for got, want in zip(pattern.streams, reference_streams(pattern), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
        for slots, pu in zip(pattern.streams, pattern.users):
            seen: set[int] = set()
            for stream in slots + 1:
                # a stream repeats once per own physical mode, each exactly once
                assert len(stream) == pu.used
                modes = [physical(pu, t) for t in stream]
                assert sorted(modes) == list(range(1, pu.used + 1))
                assert not seen.intersection(stream)
                seen.update(stream)

    @pytest.mark.parametrize("modes", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4), (4, 6, 4, 6), (9, 6)])
    def test_enumerated_streams_fill_dim_disjoint_slots(self, modes):
        # the compressed interference rests on this: each stream of a user is
        # one dim x dim block of its effective matrix, disjoint from the others
        checked = 0
        for cfg in enumerate_configs(SearchSpace(modes)):
            if grouped_length(cfg) > 600:
                continue
            pattern = grouped_pattern(cfg)
            for got, want in zip(pattern.streams, reference_streams(pattern), strict=True):
                np.testing.assert_array_equal(got, want, err_msg=str(cfg), strict=True)
            for slots, pu in zip(pattern.streams, pattern.users):
                assert slots.shape[1] == pu.used, cfg
                assert len(np.unique(slots)) == slots.size, cfg
                modes_at = np.array(pu.physical_seq())[slots]
                assert (np.sort(modes_at, axis=1) == np.arange(1, pu.used + 1)).all(), cfg
            checked += 1
        assert checked >= 48


class TestChannels:
    def test_shapes_and_determinism(self, example_config):
        ch = draw_channels(example_config, None, 11)
        again = draw_channels(example_config, None, 11)
        other = draw_channels(example_config, None, 12)
        dims = [6, 4, 6, 4]  # group-major user order
        assert ch.gains[(0, 0)].shape[0] == 1
        for rx in range(4):
            for tx in range(4):
                assert ch.gains[(rx, tx)].shape == (1, dims[rx], dims[tx])
                np.testing.assert_array_equal(
                    ch.gains[(rx, tx)], again.gains[(rx, tx)]
                )
        assert not np.allclose(ch.gains[(0, 0)], other.gains[(0, 0)])

    def test_block_fading_boundaries(self, example_config):
        ch = draw_channels(example_config, 5, 3)
        assert ch.gains[(0, 0)].shape[0] == 3
        # rows hold inside a fading block and change across its boundaries
        rows = [channel_row(ch, 0, 0, t, 1) for t in (1, 5, 6, 10, 11, 15)]
        for first, last in zip(rows[::2], rows[1::2]):
            np.testing.assert_array_equal(first, last)
        assert not np.allclose(rows[0], rows[2])
        assert not np.allclose(rows[2], rows[4])

    def test_unit_variance(self):
        cfg = GroupingConfig.flat([6, 6])
        draws = [draw_channels(cfg, None, s).gains[(0, 1)] for s in range(200)]
        power = np.mean([np.mean(np.abs(g) ** 2) for g in draws])
        assert abs(power - 1.0) < 0.05

    def test_rejects_bad_coherence(self, example_config):
        with pytest.raises(ValueError):
            draw_channels(example_config, 0, 1)
        with pytest.raises(ValueError, match="coherence length must be an integer, got 2.5"):
            draw_channels(GroupingConfig.flat((3, 2)), 2.5)

    @pytest.mark.parametrize("coherence", [15, 16, 2**63, 10**21])
    def test_coherence_of_the_supersymbol_or_longer_draws_as_one_block(
        self, example_config, example_pattern, coherence
    ):
        ch = draw_channels(example_config, coherence, 4)
        ideal = draw_channels(example_config, None, 4)
        assert ch.coherence_length == 15
        for pair, gains in ideal.gains.items():
            np.testing.assert_array_equal(ch.gains[pair], gains)
        receivers = verify_receivers(example_pattern, ch, random_symbols(example_pattern))
        assert all(r.match for r in receivers)

    def test_numpy_integer_coherence_is_accepted(self, example_config):
        ch = draw_channels(example_config, np.int64(5), 3)
        assert (ch.coherence_length, ch.gains[(0, 0)].shape[0]) == (5, 3)
        assert type(ch.coherence_length) is int


class TestEffectiveMatrix:
    def test_different_group_different_position_rank(self, example_pattern, example_config):
        # the farthest interferer collapses to one dimension per stream
        ch = draw_channels(example_config, None, 2)
        block = effective_block(example_pattern, ch, 0, 3)
        assert block.shape == (15, 8)
        assert matrix_rank(block) == 2

    def test_zero_outside_occupied_slots(self, example_pattern, example_config):
        # the desired block D the receiver pass assembles, against the oracle
        ch = draw_channels(example_config, None, 2)
        slots = example_pattern.streams[0]
        modes = np.array(example_pattern.users[0].physical_seq()) - 1
        block = _block(15, slots, _stream_gains(ch, 0, 0, slots, modes))
        np.testing.assert_array_equal(block, effective_block(example_pattern, ch, 0, 0))
        occupied = set(slots[0] + 1)
        for t in range(1, 16):
            row_is_zero = not np.any(block[t - 1])
            assert row_is_zero == (t not in occupied)

    def test_memory_estimate_of_flat_eight_users_by_arithmetic(self):
        # flat (4,)*8: L = 3^8 + 8 * 3^7, 4 * 3^7 desired columns per user,
        # and the interference fills the rest of the L joint dimensions
        config = GroupingConfig.flat([4] * 8)
        length, columns = 24057, 8748
        rank = length - columns

        def svd(m, n):
            p = min(m, n)
            return m * n + 2 * (m * p + p * n) + m * p + 3 * p * p

        combine = 2 * length * rank + svd(length, rank)
        decode = length * rank + 2 * length * columns + svd(length, columns)
        stacks = 3 * 8 * columns * 4
        expected = 16 * (combine + decode + stacks)
        assert receiver_memory_bytes(config) == expected
        assert expected > 80 * 2**30  # far above the CLI's 2 GiB limit
        # with a fading block shorter than L, every interfering column counts
        rank = 7 * columns
        combine = 2 * length * rank + svd(length, rank)
        decode = length * length + 2 * length * columns + svd(length, columns)
        assert receiver_memory_bytes(config, 100) == 16 * (combine + decode + stacks)

    @pytest.mark.parametrize("coherence", [None, 100])
    def test_memory_estimate_bounds_measured_growth(self, coherence):
        # one verify pass over flat (5,5,5,5) in a fresh interpreter: the
        # growth of its peak RSS stays below the estimate, within a factor 3
        script = f"""
import os, sys
# Linux carries ru_maxrss across exec, so this interpreter starts at the
# test process's peak; a child forked before any import starts small
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import json, resource
from biasym import GroupingConfig, draw_channels, grouped_pattern, random_symbols, verify_receivers

def run(config, coherence):
    pattern = grouped_pattern(config)
    channels = draw_channels(config, coherence, 1)
    symbols = random_symbols(pattern, 2)
    return verify_receivers(pattern, channels, symbols)

run(GroupingConfig.flat([3, 3]), None)  # loads LAPACK and warms the caches
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
receivers = run(GroupingConfig.flat([5, 5, 5, 5]), {coherence})
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
match = all(r.match for r in receivers)
print(json.dumps({{"growth": (after - before) * 1024, "match": match}}))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        measured = json.loads(proc.stdout)
        assert measured["match"] == (coherence is None)
        estimate = receiver_memory_bytes(GroupingConfig.flat([5, 5, 5, 5]), coherence)
        assert measured["growth"] <= estimate <= 3 * measured["growth"]

    def test_memory_estimate_covers_the_effective_blocks(self, example_pattern, example_config):
        ch = draw_channels(example_config, None, 1)
        for rx in range(4):
            built = sum(effective_block(example_pattern, ch, rx, tx).nbytes for tx in range(4))
            assert built < receiver_memory_bytes(example_config)

    def test_matrix_rank_edge_cases(self):
        assert matrix_rank(np.zeros((4, 3), dtype=complex)) == 0
        assert matrix_rank(np.zeros((4, 0), dtype=complex)) == 0
        assert matrix_rank(np.eye(3, dtype=complex)) == 3


class TestReceivedSignal:
    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_matches_slot_loop_oracle(self, cfg):
        pattern = grouped_pattern(cfg)
        for seed in (1, 2, 3):
            ch = draw_channels(cfg, None, seed)
            symbols = random_symbols(pattern, seed + 100)
            # as returned, after each receiver's decode has nulled a copy
            receivers = verify_receivers(pattern, ch, symbols)
            assert len(receivers) == len(pattern.users)
            for rx, r in enumerate(receivers):
                assert r.samples.shape == (pattern.length,)
                oracle = slot_loop_received(pattern, ch, symbols, rx)
                np.testing.assert_allclose(r.samples, oracle, rtol=0, atol=1e-12)

    def test_oracle_under_short_coherence(self, example_config, example_pattern):
        ch = draw_channels(example_config, 5, 4)
        symbols = random_symbols(example_pattern, 5)
        receivers = verify_receivers(example_pattern, ch, symbols)
        for rx in range(4):
            oracle = slot_loop_received(example_pattern, ch, symbols, rx)
            np.testing.assert_allclose(receivers[rx].samples, oracle, atol=1e-12)

    def test_noise_is_drawn_receiver_by_receiver_from_its_seed(
        self, example_config, example_pattern
    ):
        ch = draw_channels(example_config, None, 6)
        symbols = random_symbols(example_pattern, 7)
        def samples(*noise):
            return [r.samples for r in verify_receivers(example_pattern, ch, symbols, *noise)]

        clean = samples()
        noisy = samples(0.01, 42)
        again = samples(0.01, 42)
        np.testing.assert_array_equal(noisy, again)
        rng = np.random.default_rng(42)
        L = example_pattern.length
        for c, n in zip(clean, noisy):
            noise = 0.01 * (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)
            np.testing.assert_allclose(n, c + noise, rtol=0, atol=1e-12)

    def test_symbols_are_drawn_stream_by_stream(self, example_pattern):
        rng = np.random.default_rng(3)
        for x, slots in zip(random_symbols(example_pattern, 3), example_pattern.streams):
            assert x.shape == slots.shape
            for row in x:
                v = rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row))
                np.testing.assert_array_equal(row, v / np.linalg.norm(v))

    def test_rejects_wrong_symbol_shapes(self, example_config, example_pattern):
        ch = draw_channels(example_config, None, 1)
        symbols = random_symbols(example_pattern, 1)
        symbols[0] = symbols[0][:0]
        with pytest.raises(ValueError, match="shape"):
            verify_receivers(example_pattern, ch, symbols)
        symbols = random_symbols(example_pattern, 1)
        symbols[1] = symbols[1][:, :2]
        with pytest.raises(ValueError, match="shape"):
            verify_receivers(example_pattern, ch, symbols)
        symbols = random_symbols(example_pattern, 1)[:-1]
        with pytest.raises(ValueError, match="one symbol array per user"):
            verify_receivers(example_pattern, ch, symbols)

    @pytest.mark.parametrize("coherence,drawn_for", [
        (0, (4, 4)), (-1, (4, 4)), (5, (4, 4)), (2**63, (4, 4)), (None, (4, 4, 4)),
        (None, (3, 3)),
    ], ids=["zero", "negative", "short-of-blocks", "huge", "more-users", "fewer-modes"])
    def test_channels_not_drawn_for_the_pattern(self, coherence, drawn_for):
        # flat (4,4) has L = 15: a length at or past it is one block, as drawn
        pattern = grouped_pattern(GroupingConfig.flat((4, 4)))
        symbols = random_symbols(pattern, 1)
        ch = draw_channels(GroupingConfig.flat(drawn_for), None, 1)
        if coherence is not None:
            ch = replace(ch, coherence_length=coherence)
        if coherence != 2**63:
            with pytest.raises(ValueError, match="coherence length|channels must hold"):
                verify_receivers(pattern, ch, symbols)
            return
        ideal = verify_receivers(pattern, draw_channels(pattern.config, None, 1), symbols)
        for got, want in zip(verify_receivers(pattern, ch, symbols), ideal, strict=True):
            assert got.measured == want.measured and got.match
            np.testing.assert_array_equal(got.estimates, want.estimates)


class TestSubtractionSchedule:
    def test_example_combinations_isolate_desired_rows(self, example_config, example_pattern):
        # hand-derived per-slot add/subtract schedule that peels receiver
        # (1,1)'s first desired symbol out of the raw samples, one own
        # physical mode at a time
        schedule = {
            1: [(1, +1), (4, -1), (11, -1), (14, +1)],
            2: [(2, +1), (5, -1), (12, -1), (15, +1)],
            3: [(3, +1), (13, -1)],
            4: [(6, +1), (9, -1)],
            5: [(7, +1), (10, -1)],
            6: [(8, +1)],
        }
        for seed in (1, 5, 9):
            ch = draw_channels(example_config, None, seed)
            symbols = random_symbols(example_pattern, seed + 50)
            y = verify_receivers(example_pattern, ch, symbols)[0].samples
            u11 = symbols[0][0]
            for mode, terms in schedule.items():
                combo = sum(sign * y[t - 1] for t, sign in terms)
                expected = channel_row(ch, 0, 0, 1, mode) @ u11
                np.testing.assert_allclose(combo, expected, atol=1e-10)


class TestAlignmentReport:
    def test_example_ranks_across_seeds(self, example_config, example_pattern):
        for seed in range(10):
            ch = draw_channels(example_config, None, seed)
            receivers = verify_receivers(example_pattern, ch, random_symbols(example_pattern))
            by_label = {r.measured.label: r.measured for r in receivers}
            r11 = by_label[(1, 1)]
            assert (r11.desired, r11.combined, r11.joint) == (6, 9, 15)
            assert r11.per_interferer == {
                (2, 1): 4,
                (1, 2): 3,
                (2, 2): 2,
            }
            r21 = by_label[(2, 1)]
            assert (r21.desired, r21.combined, r21.joint) == (8, 7, 15)
            assert all(r.match for r in receivers)

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_measured_equals_predicted(self, cfg):
        pattern = grouped_pattern(cfg)
        for seed in (3, 4):
            ch = draw_channels(cfg, None, seed)
            assert all(r.match for r in verify_receivers(pattern, ch, random_symbols(pattern)))

    def test_short_coherence_breaks_alignment(self, example_config, example_pattern):
        ch = draw_channels(example_config, 5, 2)
        receivers = verify_receivers(example_pattern, ch, random_symbols(example_pattern))
        assert not all(r.match for r in receivers)
        r11 = receivers[0]
        assert r11.measured.combined > r11.predicted.combined

    @pytest.mark.parametrize("change", [
        {"desired": 5},
        {"per_interferer": {(2, 1): 4, (1, 2): 3, (2, 2): 1}},
        {"combined": 8},
        {"joint": 14},
    ], ids=["desired", "per-interferer", "combined", "joint"])
    def test_any_changed_measured_rank_breaks_the_match(
        self, example_config, example_pattern, change
    ):
        ch = draw_channels(example_config, None, 1)
        r11 = verify_receivers(example_pattern, ch, random_symbols(example_pattern))[0]
        assert r11.match and r11.measured.label == (1, 1)
        assert not replace(r11, measured=replace(r11.measured, **change)).match

    def test_csv_rendering(self, example_config, example_pattern):
        ch = draw_channels(example_config, None, 1)
        text = report_to_csv(verify_receivers(example_pattern, ch, random_symbols(example_pattern)))
        lines = text.strip().split("\n")
        assert lines[0] == "# biasym alignment report v1"
        assert lines[1].split(",") == [
            "receiver", "desired_meas", "desired_pred", "iui_meas", "iui_pred",
            "igi_meas", "igi_pred", "joint_meas", "joint_pred", "match",
        ]
        assert lines[2] == "u1.1,6,6,4,4,5,5,15,15,true"
        assert len(lines) == 6


class TestFullMatrixReference:
    """Ranks and deficiencies against matrix_rank on the full dense matrices.

    The library never forms an interferer's block, the combined or the
    joint matrix: it ranks each interferer from its stream blocks, takes one
    SVD of the compressed interference and gets the joint rank as
    rank I + rank(P⊥D).  These checks form every matrix directly.  They
    also check that matching ranks leave no deficiency, which lets a
    verdict of matching ranks stand for a full decode.
    """

    def check(self, cfg, coherence, seed):
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, coherence, seed)
        symbols = random_symbols(pattern, seed + 1)
        receivers = verify_receivers(pattern, ch, symbols)
        labels = [(u.position, u.group) for u in pattern.users]
        K = len(labels)
        for rx in range(K):
            desired = effective_block(pattern, ch, rx, rx)
            interference = [effective_block(pattern, ch, rx, tx) for tx in range(K) if tx != rx]
            others = labels[:rx] + labels[rx + 1:]
            dense = ReceiverRanks(
                label=labels[rx],
                length=pattern.length,
                desired=matrix_rank(desired),
                per_interferer={lab: matrix_rank(b) for lab, b in zip(others, interference)},
                combined=matrix_rank(np.hstack(interference)) if interference else 0,
                joint=matrix_rank(np.hstack([desired, *interference])),
            )
            r = receivers[rx]
            assert r.measured == dense
            assert list(r.measured.per_interferer) == others
            assert r.deficiency == desired.shape[1] - (dense.joint - dense.combined)
            assert not r.match or r.deficiency == 0
        return receivers

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_ideal_fading(self, cfg):
        for seed in (1, 2):
            receivers = self.check(cfg, None, seed)
            assert all(r.match for r in receivers)
            assert all(r.deficiency == 0 for r in receivers)

    def test_example_under_short_coherence(self, example_config):
        for seed in range(5):
            receivers = self.check(example_config, 5, seed)
            assert not all(r.match for r in receivers)
            assert not all(r.deficiency == 0 for r in receivers)

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    @pytest.mark.parametrize("coherence", [1, 5, "half"])  # None: test_ideal_fading
    def test_short_coherence(self, cfg, coherence):
        if coherence == "half":
            coherence = max(1, grouped_length(cfg) // 2)
        for seed in (1, 2):
            self.check(cfg, coherence, seed)


def stream_block_setups():
    """(config, coherence) pairs: every small config at ideal fading and at coherence < L."""
    return [
        (cfg, coherence)
        for cfg in small_configs()
        for coherence in (None, max(1, grouped_length(cfg) // 3))
    ]


class TestCompressedInterference:
    """The exactness claims behind the compressed interference."""

    @pytest.mark.parametrize("cfg,coherence", stream_block_setups(), ids=str)
    def test_stream_spectra_union_is_the_block_spectrum(self, cfg, coherence):
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, coherence, 7)
        K = len(pattern.users)
        for rx in range(K):
            for tx in range(K):
                block = effective_block(pattern, ch, rx, tx)
                dim = pattern.streams[tx].shape[1]
                union = np.concatenate([
                    np.linalg.svd(block[stream, s * dim:(s + 1) * dim], compute_uv=False)
                    for s, stream in enumerate(pattern.streams[tx])
                ])
                full = np.linalg.svd(block, compute_uv=False)
                np.testing.assert_allclose(
                    np.sort(union)[::-1], full, rtol=0, atol=1e-10 * full[0]
                )

    @pytest.mark.parametrize("cfg,coherence", stream_block_setups(), ids=str)
    def test_compressed_stack_keeps_nonzero_spectrum(self, cfg, coherence):
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, coherence, 8)
        slots = pattern.streams
        K = len(pattern.users)
        for rx in range(K):
            modes = np.array(pattern.users[rx].physical_seq()) - 1
            gains = [_stream_gains(ch, rx, tx, s, modes) for tx, s in enumerate(slots)]
            ranks, compressed, width = _compress(pattern.length, slots, gains, rx)
            interference = [effective_block(pattern, ch, rx, tx) for tx in range(K) if tx != rx]
            assert ranks == [matrix_rank(b) for b in interference]
            assert compressed.shape == (pattern.length, sum(ranks))
            assert width == sum(b.shape[1] for b in interference)
            if not interference:
                continue
            stack = np.hstack(interference)
            rank = matrix_rank(stack)
            full = np.linalg.svd(stack, compute_uv=False)
            kept = np.linalg.svd(compressed, compute_uv=False)
            np.testing.assert_allclose(kept[:rank], full[:rank], rtol=0, atol=1e-10 * full[0])
            # the rest of the compressed spectrum is below the full stack's cutoff
            assert np.all(kept[rank:] <= max(stack.shape) * full[0] * 1e-10)

    def test_cutoffs_keep_full_shapes(self, example_pattern, monkeypatch):
        # per receiver: its desired block, each interferer's block and the
        # interference stack, each cut at the larger side of the full matrix
        sizes = []
        cutoff = signal._cutoff
        monkeypatch.setattr(signal, "_cutoff", lambda s, size: sizes.append(size) or cutoff(s, size))
        ch = draw_channels(example_pattern.config, None, 1)
        verify_receivers(example_pattern, ch, random_symbols(example_pattern))
        L = example_pattern.length
        widths = [s.size for s in example_pattern.streams]
        expected = []
        for rx, own in enumerate(widths):
            expected.append(max(L, own))
            expected.extend(max(L, w) for tx, w in enumerate(widths) if tx != rx)
            expected.append(max(L, sum(widths) - own))
        assert sizes == expected
        assert max(L, sum(widths) - widths[0]) > L  # the stack is wider than L


def relative_error(estimates, truth) -> float:
    return np.linalg.norm(estimates - truth) / np.linalg.norm(truth)


class TestDecode:
    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_noiseless_round_trip(self, cfg):
        pattern = grouped_pattern(cfg)
        for seed in (1, 2, 3):
            ch = draw_channels(cfg, None, seed)
            symbols = random_symbols(pattern, seed + 10)
            receivers = verify_receivers(pattern, ch, symbols)
            assert all(r.deficiency == 0 for r in receivers)
            for truth, r in zip(symbols, receivers):
                assert r.estimates.shape == truth.shape
                assert relative_error(r.estimates, truth) < 1e-9

    def test_short_coherence_marks_unrecoverable(self, example_config, example_pattern):
        ch = draw_channels(example_config, 5, 1)
        symbols = random_symbols(example_pattern, 2)
        receivers = verify_receivers(example_pattern, ch, symbols)
        assert not all(r.deficiency == 0 for r in receivers)
        assert all(r.deficiency > 0 for r in receivers)

    def test_noise_perturbs_but_structure_survives(self, example_config, example_pattern):
        ch = draw_channels(example_config, None, 4)
        symbols = random_symbols(example_pattern, 3)
        receivers = verify_receivers(example_pattern, ch, symbols, 1e-6, 8)
        assert all(r.deficiency == 0 for r in receivers)
        errs = [np.linalg.norm(r.estimates - t) for r, t in zip(receivers, symbols)]
        assert all(1e-9 < e < 1e-2 for e in errs)


class TestVerifyReceivers:
    """The one pass ``biasym verify`` and ``sweep --verify`` run per receiver."""

    @pytest.mark.parametrize("cfg", [
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
        GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]),
    ], ids=str)
    @pytest.mark.parametrize("noise_scale", [0.0, 1e-3])
    def test_report_received_and_decode(self, cfg, noise_scale):
        pattern = grouped_pattern(cfg)
        channels = draw_channels(cfg, None, 5)
        symbol_seed, noise_seed = np.random.SeedSequence(5).spawn(2)
        symbols = random_symbols(pattern, symbol_seed)
        receivers = verify_receivers(pattern, channels, symbols, noise_scale, noise_seed)

        assert all(r.match for r in receivers)
        assert [r.samples.shape for r in receivers] == [(pattern.length,)] * len(pattern.users)
        assert all(r.deficiency == 0 for r in receivers)
        assert [r.measured.label for r in receivers] == cfg.labels()
        assert [r.estimates.shape for r in receivers] == [s.shape for s in pattern.streams]
