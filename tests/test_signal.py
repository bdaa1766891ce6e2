"""Signal engine: placements, channels, measured ranks, decoding.

The received-signal oracle here is a literal per-slot loop (sum over
transmitters of channel row times currently repeated symbols), written
independently of the effective-matrix assembly it checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import channel_row, effective_block, matrix_rank, physical

from biasym import (
    GroupingConfig,
    SearchSpace,
    alignment_report,
    assemble_received,
    build_streams,
    decode,
    draw_channels,
    enumerate_configs,
    grouped_length,
    grouped_pattern,
    random_symbols,
    rank_predictions,
    report_to_csv,
    verify_receivers,
)
from biasym import signal
from biasym.signal import _block, _compress, _stream_gains, _stream_slots, receiver_memory_bytes


def slot_loop_received(placement, pattern, channels, symbols, rx):
    """Oracle: superpose transmissions slot by slot, straight from the model."""
    L = pattern.length
    K = len(placement.users)
    y = np.zeros(L, dtype=complex)
    for t in range(1, L + 1):
        mode = physical(pattern.users[rx], t)
        for tx in range(K):
            sent = np.zeros(placement.users[tx].dim, dtype=complex)
            for s, stream in enumerate(placement.users[tx].slots):
                if t in stream:
                    sent = sent + symbols[tx][s]
            y[t - 1] += channel_row(channels, rx, tx, t, mode) @ sent
    return y


def small_configs():
    return [
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
        GroupingConfig.grouped([9, 9], [[0], [1]], [3, 3]),
        GroupingConfig.flat([3, 2]),
        GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]),
        GroupingConfig.flat([4]),
    ]


class TestStreamPlacement:
    def test_example_stream_slots(self, example_placement):
        slots = {u.label: list(u.slots) for u in example_placement.users}
        assert slots[(1, 1)] == [(1, 2, 3, 6, 7, 8)]
        assert slots[(2, 1)] == [(1, 4, 6, 9), (2, 5, 7, 10)]
        assert slots[(1, 2)] == [(1, 2, 3, 11, 12, 13)]
        assert slots[(2, 2)] == [(1, 4, 11, 14), (2, 5, 12, 15)]

    def test_stream_counts_match_predictions(self, example_placement, example_config):
        preds = {p.label: p for p in rank_predictions(example_config)}
        for u in example_placement.users:
            assert len(u.slots) * u.dim == preds[u.label].desired

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_placement_invariants(self, cfg):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        for u, pu in zip(placement.users, pattern.users):
            seen: set[int] = set()
            for stream in u.slots:
                # a stream repeats once per own physical mode, each exactly once
                assert len(stream) == u.dim
                modes = [physical(pu, t) for t in stream]
                assert sorted(modes) == list(range(1, u.dim + 1))
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
            for u, pu in zip(build_streams(pattern).users, pattern.users):
                assert all(len(s) == u.dim for s in u.slots), cfg
                slots = np.array(u.slots)
                assert len(np.unique(slots)) == slots.size, cfg
                modes_at = np.array(pu.physical_seq())[slots - 1]
                assert (np.sort(modes_at, axis=1) == np.arange(1, u.dim + 1)).all(), cfg
            checked += 1
        assert checked >= 48


class TestChannels:
    def test_shapes_and_determinism(self, example_config):
        ch = draw_channels(example_config, None, 11)
        again = draw_channels(example_config, None, 11)
        other = draw_channels(example_config, None, 12)
        dims = [6, 4, 6, 4]  # group-major user order
        assert ch.n_blocks == 1
        for rx in range(4):
            for tx in range(4):
                assert ch.gains[(rx, tx)].shape == (1, dims[rx], dims[tx])
                np.testing.assert_array_equal(
                    ch.gains[(rx, tx)], again.gains[(rx, tx)]
                )
        assert not np.allclose(ch.gains[(0, 0)], other.gains[(0, 0)])

    def test_block_fading_boundaries(self, example_config):
        ch = draw_channels(example_config, 5, 3)
        assert ch.n_blocks == 3
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


class TestEffectiveMatrix:
    def test_different_group_different_position_rank(
        self, example_placement, example_pattern, example_config
    ):
        # the farthest interferer collapses to one dimension per stream
        ch = draw_channels(example_config, None, 2)
        block = effective_block(example_placement, example_pattern, ch, 0, 3)
        assert block.shape == (15, 8)
        assert matrix_rank(block) == 2

    def test_zero_outside_occupied_slots(
        self, example_placement, example_pattern, example_config
    ):
        # the desired block D the receiver pass assembles, against the oracle
        ch = draw_channels(example_config, None, 2)
        slots = _stream_slots(example_placement)[0]
        modes = np.array(example_pattern.users[0].physical_seq()) - 1
        block = _block(15, slots, _stream_gains(ch, 0, 0, slots, modes))
        np.testing.assert_array_equal(
            block, effective_block(example_placement, example_pattern, ch, 0, 0)
        )
        occupied = set(example_placement.users[0].slots[0])
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
from biasym import GroupingConfig, build_streams, draw_channels, grouped_pattern, random_symbols, verify_receivers

def run(config, coherence):
    pattern = grouped_pattern(config)
    placement = build_streams(pattern)
    channels = draw_channels(config, coherence, 1)
    symbols = random_symbols(placement, 2)
    return verify_receivers(placement, pattern, channels, symbols)[0]

run(GroupingConfig.flat([3, 3]), None)  # loads LAPACK and warms the caches
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = run(GroupingConfig.flat([5, 5, 5, 5]), {coherence})
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{"growth": (after - before) * 1024, "match": report.all_match}}))
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

    def test_memory_estimate_covers_the_effective_blocks(
        self, example_placement, example_pattern, example_config
    ):
        ch = draw_channels(example_config, None, 1)
        for rx in range(4):
            built = sum(
                effective_block(example_placement, example_pattern, ch, rx, tx).nbytes
                for tx in range(4)
            )
            assert built < receiver_memory_bytes(example_config)

    def test_matrix_rank_edge_cases(self):
        assert matrix_rank(np.zeros((4, 3), dtype=complex)) == 0
        assert matrix_rank(np.zeros((4, 0), dtype=complex)) == 0
        assert matrix_rank(np.eye(3, dtype=complex)) == 3


class TestReceivedSignal:
    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_matches_slot_loop_oracle(self, cfg):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        for seed in (1, 2, 3):
            ch = draw_channels(cfg, None, seed)
            symbols = random_symbols(placement, seed + 100)
            received = assemble_received(placement, pattern, ch, symbols)
            for rx in range(len(placement.users)):
                oracle = slot_loop_received(placement, pattern, ch, symbols, rx)
                np.testing.assert_allclose(
                    received[rx].samples, oracle, rtol=0, atol=1e-12
                )

    def test_oracle_under_short_coherence(self, example_config, example_pattern, example_placement):
        ch = draw_channels(example_config, 5, 4)
        symbols = random_symbols(example_placement, 5)
        received = assemble_received(example_placement, example_pattern, ch, symbols)
        for rx in range(4):
            oracle = slot_loop_received(
                example_placement, example_pattern, ch, symbols, rx
            )
            np.testing.assert_allclose(received[rx].samples, oracle, atol=1e-12)

    def test_noise_is_reproducible_and_scaled(
        self, example_config, example_pattern, example_placement
    ):
        ch = draw_channels(example_config, None, 6)
        symbols = random_symbols(example_placement, 7)
        clean = assemble_received(example_placement, example_pattern, ch, symbols)
        noisy1 = assemble_received(
            example_placement, example_pattern, ch, symbols, 0.01, 42
        )
        noisy2 = assemble_received(
            example_placement, example_pattern, ch, symbols, 0.01, 42
        )
        for c, n1, n2 in zip(clean, noisy1, noisy2):
            np.testing.assert_array_equal(n1.samples, n2.samples)
            assert n1.noise is not None
            np.testing.assert_allclose(n1.samples - n1.noise, c.samples, atol=1e-12)
            assert 0 < np.linalg.norm(n1.noise) < 1.0

    def test_rejects_wrong_symbol_shapes(
        self, example_config, example_pattern, example_placement
    ):
        ch = draw_channels(example_config, None, 1)
        symbols = random_symbols(example_placement, 1)
        symbols[0] = []
        with pytest.raises(ValueError):
            assemble_received(example_placement, example_pattern, ch, symbols)
        symbols = random_symbols(example_placement, 1)
        symbols[1][0] = symbols[1][0][:2]
        with pytest.raises(ValueError):
            assemble_received(example_placement, example_pattern, ch, symbols)


class TestSubtractionSchedule:
    def test_example_combinations_isolate_desired_rows(
        self, example_config, example_pattern, example_placement
    ):
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
            symbols = random_symbols(example_placement, seed + 50)
            received = assemble_received(example_placement, example_pattern, ch, symbols)
            y = received[0].samples
            u11 = symbols[0][0]
            for mode, terms in schedule.items():
                combo = sum(sign * y[t - 1] for t, sign in terms)
                expected = channel_row(ch, 0, 0, 1, mode) @ u11
                np.testing.assert_allclose(combo, expected, atol=1e-10)


class TestAlignmentReport:
    def test_example_ranks_across_seeds(
        self, example_config, example_pattern, example_placement
    ):
        for seed in range(10):
            ch = draw_channels(example_config, None, seed)
            report = alignment_report(example_placement, example_pattern, ch)
            by_label = {r.label: r for r in report.receivers}
            r11 = by_label[(1, 1)]
            assert (r11.desired_measured, r11.combined_measured, r11.joint_measured) == (6, 9, 15)
            assert {x.label: x.measured for x in r11.interferers} == {
                (2, 1): 4,
                (1, 2): 3,
                (2, 2): 2,
            }
            r21 = by_label[(2, 1)]
            assert (r21.desired_measured, r21.combined_measured, r21.joint_measured) == (8, 7, 15)
            assert report.all_match

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_measured_equals_predicted(self, cfg):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        for seed in (3, 4):
            ch = draw_channels(cfg, None, seed)
            assert alignment_report(placement, pattern, ch).all_match

    def test_short_coherence_breaks_alignment(
        self, example_config, example_pattern, example_placement
    ):
        ch = draw_channels(example_config, 5, 2)
        report = alignment_report(example_placement, example_pattern, ch)
        assert not report.all_match
        r11 = report.receivers[0]
        assert r11.combined_measured > r11.combined_predicted

    def test_csv_rendering(self, example_config, example_pattern, example_placement):
        ch = draw_channels(example_config, None, 1)
        text = report_to_csv(alignment_report(example_placement, example_pattern, ch))
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
    rank I + rank(P⊥D).  These checks form every matrix directly.
    """

    def check(self, cfg, coherence, seed):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        ch = draw_channels(cfg, coherence, seed)
        report = alignment_report(placement, pattern, ch)
        symbols = random_symbols(placement, seed + 1)
        received = assemble_received(placement, pattern, ch, symbols)
        result = decode(placement, pattern, ch, received)
        K = len(placement.users)
        for rx in range(K):
            desired = effective_block(placement, pattern, ch, rx, rx)
            interference = [
                effective_block(placement, pattern, ch, rx, tx)
                for tx in range(K) if tx != rx
            ]
            r = report.receivers[rx]
            assert r.desired_measured == matrix_rank(desired)
            others = [u.label for u in placement.users if u is not placement.users[rx]]
            assert [x.label for x in r.interferers] == others
            for x, block in zip(r.interferers, interference):
                assert x.measured == matrix_rank(block)
            if interference:
                assert r.combined_measured == matrix_rank(np.hstack(interference))
            else:
                assert r.combined_measured == 0
            assert r.joint_measured == matrix_rank(np.hstack([desired, *interference]))
            surviving = r.joint_measured - r.combined_measured
            assert result.users[rx].deficiency == desired.shape[1] - surviving
        return report, result

    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_ideal_fading(self, cfg):
        for seed in (1, 2):
            report, result = self.check(cfg, None, seed)
            assert report.all_match and result.all_recoverable

    def test_example_under_short_coherence(self, example_config):
        for seed in range(5):
            report, result = self.check(example_config, 5, seed)
            assert not report.all_match and not result.all_recoverable


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
        placement = build_streams(pattern)
        ch = draw_channels(cfg, coherence, 7)
        K = len(placement.users)
        for rx in range(K):
            for tx in range(K):
                block = effective_block(placement, pattern, ch, rx, tx)
                dim = placement.users[tx].dim
                union = np.concatenate([
                    np.linalg.svd(
                        block[np.array(stream) - 1, s * dim:(s + 1) * dim],
                        compute_uv=False,
                    )
                    for s, stream in enumerate(placement.users[tx].slots)
                ])
                full = np.linalg.svd(block, compute_uv=False)
                np.testing.assert_allclose(
                    np.sort(union)[::-1], full, rtol=0, atol=1e-10 * full[0]
                )

    @pytest.mark.parametrize("cfg,coherence", stream_block_setups(), ids=str)
    def test_compressed_stack_keeps_nonzero_spectrum(self, cfg, coherence):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        ch = draw_channels(cfg, coherence, 8)
        slots = _stream_slots(placement)
        K = len(placement.users)
        for rx in range(K):
            modes = np.array(pattern.users[rx].physical_seq()) - 1
            gains = [_stream_gains(ch, rx, tx, s, modes) for tx, s in enumerate(slots)]
            ranks, compressed, width = _compress(pattern.length, slots, gains, rx)
            interference = [
                effective_block(placement, pattern, ch, rx, tx) for tx in range(K) if tx != rx
            ]
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

    def test_cutoffs_keep_full_shapes(
        self, example_placement, example_pattern, monkeypatch
    ):
        # per receiver: its desired block, each interferer's block and the
        # interference stack, each cut at the larger side of the full matrix
        sizes = []
        cutoff = signal._cutoff
        monkeypatch.setattr(signal, "_cutoff", lambda s, size: sizes.append(size) or cutoff(s, size))
        alignment_report(example_placement, example_pattern, draw_channels(
            example_pattern.config, None, 1
        ))
        L = example_pattern.length
        widths = [len(u.slots) * u.dim for u in example_placement.users]
        expected = []
        for rx, own in enumerate(widths):
            expected.append(max(L, own))
            expected.extend(max(L, w) for tx, w in enumerate(widths) if tx != rx)
            expected.append(max(L, sum(widths) - own))
        assert sizes == expected
        assert max(L, sum(widths) - widths[0]) > L  # the stack is wider than L


class TestDecode:
    @pytest.mark.parametrize("cfg", small_configs(), ids=str)
    def test_noiseless_round_trip(self, cfg):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        for seed in (1, 2, 3):
            ch = draw_channels(cfg, None, seed)
            symbols = random_symbols(placement, seed + 10)
            received = assemble_received(placement, pattern, ch, symbols)
            result = decode(placement, pattern, ch, received)
            assert result.all_recoverable
            for truth, dec in zip(symbols, result.users):
                err = np.linalg.norm(
                    np.concatenate(dec.estimates) - np.concatenate(truth)
                ) / np.linalg.norm(np.concatenate(truth))
                assert err < 1e-9

    def test_short_coherence_marks_unrecoverable(
        self, example_config, example_pattern, example_placement
    ):
        ch = draw_channels(example_config, 5, 1)
        symbols = random_symbols(example_placement, 2)
        received = assemble_received(example_placement, example_pattern, ch, symbols)
        result = decode(example_placement, example_pattern, ch, received)
        assert not result.all_recoverable
        assert all(u.deficiency > 0 for u in result.users)

    def test_noise_perturbs_but_structure_survives(
        self, example_config, example_pattern, example_placement
    ):
        ch = draw_channels(example_config, None, 4)
        symbols = random_symbols(example_placement, 3)
        received = assemble_received(
            example_placement, example_pattern, ch, symbols, 1e-6, 8
        )
        result = decode(example_placement, example_pattern, ch, received)
        assert result.all_recoverable
        errs = [
            np.linalg.norm(np.concatenate(d.estimates) - np.concatenate(t))
            for d, t in zip(result.users, symbols)
        ]
        assert all(1e-9 < e < 1e-2 for e in errs)


class TestVerifyReceivers:
    """The one-pass path ``biasym verify`` runs against the three separate calls."""

    @pytest.mark.parametrize("cfg", [
        GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]),
        GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]),
    ], ids=str)
    @pytest.mark.parametrize("noise_scale", [0.0, 1e-3])
    def test_equals_report_received_and_decode(self, cfg, noise_scale):
        pattern = grouped_pattern(cfg)
        placement = build_streams(pattern)
        channels = draw_channels(cfg, None, 5)
        symbol_seed, noise_seed = np.random.SeedSequence(5).spawn(2)
        symbols = random_symbols(placement, symbol_seed)
        report, received, result = verify_receivers(
            placement, pattern, channels, symbols, noise_scale, noise_seed
        )

        assert report == alignment_report(placement, pattern, channels)
        assert report.all_match
        expected = assemble_received(
            placement, pattern, channels, symbols, noise_scale, noise_seed
        )
        assert len(received) == len(expected)
        for got, want in zip(received, expected):
            assert got.label == want.label
            assert np.array_equal(got.samples, want.samples)
            assert (got.noise is None) == (noise_scale == 0.0)
            if got.noise is not None:
                assert np.array_equal(got.noise, want.noise)
        decoded = decode(placement, pattern, channels, expected)
        assert result.all_recoverable
        for got, want in zip(result.users, decoded.users, strict=True):
            assert (got.label, got.recoverable, got.deficiency) == (
                want.label, want.recoverable, want.deficiency
            )
            for a, b in zip(got.estimates, want.estimates, strict=True):
                assert np.array_equal(a, b)
