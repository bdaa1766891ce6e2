"""Signal engine: stream slots, channels, measured ranks, decoding.

The received-signal oracle here is a literal per-slot loop (sum over
transmitters of channel row times currently repeated symbols), written
independently of the effective-matrix assembly it checks.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    channel_row,
    effective_block,
    matrix_rank,
    physical,
    physical_seq,
    reference_streams,
)

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
from biasym import patterns, signal
from biasym.signal import (
    _component_blocks,
    _component_shapes,
    _flat_columns,
    _slot_components,
    _stream_batches,
    _stream_block_counts,
    receiver_memory_bytes,
)


def slot_loop_received(pattern, channels, symbols, rx):
    """Oracle: superpose transmissions slot by slot, straight from the model."""
    L = pattern.length
    K = len(pattern.streams)
    y = np.zeros(L, dtype=complex)
    for t in range(1, L + 1):
        mode = physical(pattern, rx, t)
        for tx in range(K):
            sent = np.zeros(pattern.streams[tx].shape[1], dtype=complex)
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


def svd_calls(monkeypatch) -> list:
    """Record every ``np.linalg.svd`` call as (kind, shape): "values" for
    values only, "thin" for reduced U and Vh, "full" for full ones."""
    calls = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            kind = "values"
        else:
            kind = "full" if kwargs.get("full_matrices", True) else "thin"
        calls.append((kind, np.shape(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


class TestStreams:
    def test_example_stream_slots(self, example_pattern):
        slots = [(s + 1).tolist() for s in example_pattern.streams]
        assert slots[0] == [[1, 2, 3, 6, 7, 8]]  # u1.1
        assert slots[1] == [[1, 4, 6, 9], [2, 5, 7, 10]]  # u2.1
        assert slots[2] == [[1, 2, 3, 11, 12, 13]]  # u1.2
        assert slots[3] == [[1, 4, 11, 14], [2, 5, 12, 15]]  # u2.2

    def test_stream_counts_match_predictions(self, example_pattern, example_config):
        preds = rank_predictions(example_config)
        dims = example_config.used_in_order()
        for slots, dim, pred in zip(example_pattern.streams, dims, preds, strict=True):
            assert slots.shape[1] == dim
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
        for u, (slots, dim) in enumerate(zip(pattern.streams, cfg.used_in_order(), strict=True)):
            seen: set[int] = set()
            for stream in slots + 1:
                # a stream repeats once per own physical mode, each exactly once
                assert len(stream) == dim
                modes = [physical(pattern, u, t) for t in stream]
                assert sorted(modes) == list(range(1, dim + 1))
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
            dims = cfg.used_in_order()
            for u, (slots, dim) in enumerate(zip(pattern.streams, dims, strict=True)):
                assert slots.shape[1] == dim, cfg
                assert len(np.unique(slots)) == slots.size, cfg
                modes_at = np.array(physical_seq(pattern, u))[slots]
                assert (np.sort(modes_at, axis=1) == np.arange(1, dim + 1)).all(), cfg
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

    @pytest.mark.parametrize("cfg,coherence", [
        (GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]), None),
        (GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]), 5),
        (GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]), 7),
        (GroupingConfig.flat([4]), 1),
    ], ids=str)
    def test_gains_are_the_pair_by_pair_draws(self, cfg, coherence):
        # the loop one draw replaced: pair by pair in row-major (rx, tx)
        # order, a real and then an imaginary array of the pair's shape
        ch = draw_channels(cfg, coherence, 21)
        rng = np.random.default_rng(21)
        dims = cfg.used_in_order()
        blocks = -(-grouped_length(cfg) // (coherence or grouped_length(cfg)))
        pairs = [(rx, tx) for rx in range(len(dims)) for tx in range(len(dims))]
        assert list(ch.gains) == pairs
        for rx, tx in pairs:
            shape = (blocks, dims[rx], dims[tx])
            want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            np.testing.assert_array_equal(ch.gains[rx, tx], want, strict=True)

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
        # the oracle's desired block holds the stream blocks the receiver
        # pass decomposes on their slots, and zeros everywhere else
        ch = draw_channels(example_config, None, 2)
        slots = example_pattern.streams[0]
        position, _ = _slot_components(example_pattern)
        batch = _stream_batches(example_pattern, ch, position)[0]
        gains = batch.gains[batch.index[0]]
        block = effective_block(example_pattern, ch, 0, 0).reshape(15, len(slots), -1)
        for s, stream in enumerate(slots):
            np.testing.assert_array_equal(block[stream, s], gains[s])
            block[stream, s] = 0
        assert not block.any()

    def test_memory_estimate_of_flat_eight_users_by_arithmetic(self):
        # flat (4,)*8: L = 3^8 + 8 * 3^7, 4 * 3^7 desired columns per user in
        # 3^7 streams of 4 slots; at each receiver the other users' streams
        # link the slots outside its 3^7-slot hold segment into 3
        # components, one per digit of its own, and the other own slots
        # split evenly over them
        config = GroupingConfig.flat([4] * 8)
        length, block, columns, streams, untouched = 24057, 3**8, 8748, 2187, 2187
        count, size, own = 3, (length - untouched) // 3, (columns - untouched) // 3
        free = size - own
        assert (size, own, free) == (7290, 2187, 5103)

        def copy_and_workspace(m, n):
            p = min(m, n)
            return m * n + m * p + 3 * p * p

        def distinct(coherence):
            # a stream's first 3 slots lie in the interleaving block, its last
            # in its user's hold segment, each rising from stream to stream;
            # a receiver holds one of its 3 modes across another user's
            # stream and runs through its 4 modes along its own
            fading = [
                1 + 3 * ((block - 1) // coherence)
                + (block + (k + 1) * streams - 1) // coherence - (block + k * streams) // coherence
                for k in range(8)
            ]
            return sum(
                min(streams, f * (1 if rx == tx else 3))
                for rx in range(8) for tx, f in enumerate(fading)
            )

        def rest(coherence):
            # the distinct stream blocks (gains, U, Vh and U*S), the channels
            # (4 x 4 per pair and fading block), each stream's index and slot
            # rows; labels and samples; the users' mode tuples, the level
            # family and the physical modes, 3 integers per user and slot
            channels = -(-length // coherence) * 64 * 16
            resident = (
                4 * 16 * distinct(coherence) + channels
                + 64 * ((columns + streams) // 2) + 4 * 8 * length + 3 * 8 * length // 2
            )
            # the stream stage's copy of the channels and, per (rx, stream),
            # 4 * 4 + 7 integers of keys, modes, sort order and index
            return resident + channels + 64 * (4 * columns + 7 * streams) // 2

        def entry_pass():
            # one group at one fading block: the 8 * 3^7 streams each keep
            # one column at each of the 7 other receivers, held to the end
            # as 4 complex entries and 4 integer places (half an entry
            # each), beside each stream's slots, block and desired mask;
            # then the larger of the decode, about 4 entries per kept column
            # and 2.5 per own entry (their products with z and two integers
            # each of bincount index), and the desired solve, one gathered
            # 4 x 4 block and 4 values per stream; and 4 L entries per
            # receiver: its norms and pseudo-inverse weights (half an entry
            # each), cancelled interference and values
            n = 8 * streams
            kept = 7 * n
            held = 1.5 * kept * 4 + n * 4
            decode = 4 * kept + 2.5 * kept * 3
            solve = n * 4 * 5
            return int(held + max(decode, solve)) + 4 * 8 * length

        def working_set(kept, coherence):
            width = -(-kept // count)  # kept columns per component
            blocks = count * size * width
            # below the coherence length the pass keeps the dense count: the
            # component blocks, the closed form's vectors (row norms,
            # weighted samples, solutions) and the values-only SVD
            closed_form = 2 * count * (free + width)
            values_only = copy_and_workspace(size, width)
            return 16 * (blocks + closed_form + values_only + rest(coherence))

        # ideal fading: no dense block at all, and 8 * (1 + 7 * 3) stream
        # blocks are distinct
        assert distinct(length) == 176
        expected = 16 * (entry_pass() + rest(length))
        assert receiver_memory_bytes(config) == expected
        assert 80 * 2**20 < expected < 100 * 2**20  # was 1.71 GiB with the dense blocks
        # with a fading block shorter than L, every interfering column counts;
        # the hold segment of user 5 crosses one boundary fewer than the others
        assert distinct(100) == 8 * 218 * (1 + 7 * 3) - 22
        assert receiver_memory_bytes(config, 100) == working_set(7 * columns, 100)
        assert receiver_memory_bytes(config, 100) > 3 * 2**30

    @pytest.mark.parametrize("config,coherence", [
        (GroupingConfig.flat((3,) * 8), None),
        (GroupingConfig.flat((4,) * 8), None),
        (GroupingConfig.flat((6, 6, 6, 6)), 100),
        (GroupingConfig((12,) * 4, (12, 12, 12, 6), ((0,), (1,), (2,), (3,)), (6, 6, 6, 3)), 10),
    ], ids=["flat-3x8-ideal", "flat-4x8-ideal", "flat-6666-coherence-100",
            "grouped-12x4-coherence-10"])
    def test_memory_estimate_bounds_measured_growth(self, config, coherence):
        # one verify pass in a fresh interpreter: the growth of its peak RSS
        # stays below the estimate, within a factor 3.  At ideal fading the
        # flat configs hold no dense block, only the entry pass (about 2 and
        # 55 MiB of growth); below its coherence length (6,6,6,6) takes the
        # values-only SVD, and the grouped config the thin SVD and then the
        # values-only one, with Vh held
        fields = (config.equipped, config.used, config.groups, config.group_mode_counts)
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
receivers = run(GroupingConfig{fields!r}, {coherence})
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
        estimate = receiver_memory_bytes(config, coherence)
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
            assert len(receivers) == cfg.num_users
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
            np.testing.assert_array_equal(n, c + noise)

    def test_symbols_are_drawn_stream_by_stream(self, example_pattern):
        rng = np.random.default_rng(3)
        for x, slots in zip(random_symbols(example_pattern, 3), example_pattern.streams):
            assert x.shape == slots.shape
            for row in x:
                v = rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row))
                np.testing.assert_array_equal(row, v / np.linalg.norm(v))

    @pytest.mark.parametrize("modes", [(6, 6, 4, 4), (9, 9, 9, 9), (12, 10, 8, 6, 4, 3)])
    def test_symbols_are_normalised_as_a_one_dimensional_norm_does(self, modes):
        # every used count up to the largest mode count, against the per-row
        # norm bit for bit
        dims = set()
        for cfg in enumerate_configs(SearchSpace(modes)):
            if grouped_length(cfg) > 150:
                continue
            pattern = grouped_pattern(cfg)
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                for x, slots in zip(random_symbols(pattern, seed), pattern.streams, strict=True):
                    parts = rng.standard_normal((len(slots), 2, slots.shape[1]))
                    vecs = parts[:, 0] + 1j * parts[:, 1]
                    want = np.array([v / np.linalg.norm(v) for v in vecs]).reshape(slots.shape)
                    np.testing.assert_array_equal(x, want, strict=True)
                    dims.add(slots.shape[1])
        assert dims == set(range(2, max(modes) + 1))

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

    def test_rank_deficient_own_blocks_read_as_a_mismatch(self, example_config, example_pattern):
        # u1.1's own stream blocks zeroed, or of rank dim - 1: its desired
        # rank falls short, and the joint rank read from the interference
        # without u1.1's own rows is a lower bound on the dense one; the
        # other receivers are untouched
        ch = draw_channels(example_config, 5, 1)
        symbols = random_symbols(example_pattern, 2)
        drawn = verify_receivers(example_pattern, ch, symbols)
        zeroed, rank_short = dict(ch.gains), dict(ch.gains)
        zeroed[0, 0] = np.zeros_like(ch.gains[0, 0])
        rank_short[0, 0] = ch.gains[0, 0].copy()
        rank_short[0, 0][..., -1] = rank_short[0, 0][..., 0]
        for gains, desired, joint, dense_joint in ((zeroed, 0, 9, 12), (rank_short, 5, 14, 15)):
            built = replace(ch, gains=gains)
            receivers = verify_receivers(example_pattern, built, symbols)
            r = receivers[0]
            blocks = [effective_block(example_pattern, built, 0, tx) for tx in range(4)]
            dense = matrix_rank(np.hstack(blocks))
            assert (r.measured.desired, r.measured.joint, dense) == (desired, joint, dense_joint)
            assert not r.match and r.deficiency > 0
            assert np.isfinite(r.estimates).all()
            for got, want in zip(receivers[1:], drawn[1:]):
                assert got.measured == want.measured


    @pytest.mark.parametrize("coherence", [None, 50])
    def test_rank_deficient_own_blocks_read_as_a_mismatch_at_a_flat_receiver(self, coherence):
        # the entry pass counts each own block against its own cutoff: u1.1's
        # own gains zeroed, or of rank dim - 1, lower its desired rank to the
        # dense one, and its joint rank is a lower bound on the dense one
        config = GroupingConfig.flat([4, 4, 4, 4])
        pattern = grouped_pattern(config)
        ch = draw_channels(config, coherence, 1)
        symbols = random_symbols(pattern, 2)
        drawn = verify_receivers(pattern, ch, symbols)
        zeroed, rank_short = dict(ch.gains), dict(ch.gains)
        zeroed[0, 0] = np.zeros_like(ch.gains[0, 0])
        rank_short[0, 0] = ch.gains[0, 0].copy()
        rank_short[0, 0][..., -1] = rank_short[0, 0][..., 0]
        for gains, desired in ((zeroed, 0), (rank_short, 81)):
            built = replace(ch, gains=gains)
            receivers = verify_receivers(pattern, built, symbols)
            r = receivers[0]
            own = effective_block(pattern, built, 0, 0)
            stack = np.hstack([effective_block(pattern, built, 0, tx) for tx in (1, 2, 3)])
            assert r.measured.desired == matrix_rank(own) == desired
            assert r.measured.combined == matrix_rank(stack)
            assert r.measured.joint <= matrix_rank(np.hstack([own, stack]))
            assert not r.match and r.deficiency > 0
            assert np.isfinite(r.estimates).all()
            for got, want in zip(receivers[1:], drawn[1:]):
                assert got.measured == want.measured


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

    The library never forms the desired block, an interferer's block, the
    combined or the joint matrix: it ranks each interferer from its stream
    blocks and takes two batched SVDs of each receiver's slot-component
    blocks, and it reads the joint rank as the desired rank plus the rank
    of the interference without the receiver's own rows, which holds when
    the own stream blocks have full rank.  These checks form every matrix
    directly.  They also check that matching ranks leave no
    deficiency, which lets a verdict of matching ranks stand for a full
    decode.
    """

    def check(self, cfg, coherence, seed):
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, coherence, seed)
        symbols = random_symbols(pattern, seed + 1)
        receivers = verify_receivers(pattern, ch, symbols)
        labels = cfg.labels()
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


    @pytest.mark.parametrize("coherence", [None, 7])
    def test_flat_four_users_across_components(self, coherence):
        # three slot components at every receiver, against dense ranks of the
        # 189-row matrices
        receivers = self.check(GroupingConfig.flat([4, 4, 4, 4]), coherence, 1)
        assert all(r.match for r in receivers) == (coherence is None)


def reference_components(pattern, rx) -> list[set[int]]:
    """Oracle: receiver rx's slot components by union-find over the slots
    of every stream of the other users, smallest slot first."""
    parent = list(range(pattern.length))

    def root(t):
        while parent[t] != t:
            t = parent[t]
        return t

    touched = set()
    for tx, slots in enumerate(pattern.streams):
        if tx != rx:
            for stream in slots.tolist():
                touched.update(stream)
                for t in stream[1:]:
                    a, b = root(stream[0]), root(t)
                    parent[max(a, b)] = min(a, b)
    groups: dict[int, set[int]] = {}
    for t in sorted(touched):
        groups.setdefault(root(t), set()).add(t)
    return [groups[r] for r in sorted(groups)]


def enumerated_configs(modes) -> list[GroupingConfig]:
    """Every config the search yields for ``modes`` with L <= 600, short
    enough for the pure-Python union-find."""
    return [cfg for cfg in enumerate_configs(SearchSpace(modes)) if grouped_length(cfg) <= 600]


ENUMERATED_MODES = [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4), (4, 6, 4, 6), (9, 6), (8, 8, 8)]


class TestSlotComponents:
    """Each receiver's interference split into independent slot components."""

    @staticmethod
    def check_union_find(pattern):
        position, layouts = _slot_components(pattern)
        for rx, layout in enumerate(layouts):
            rows = layout.count * layout.size
            members = layout.order[:rows].reshape(layout.count, layout.size)
            assert [set(m.tolist()) for m in members] == reference_components(pattern, rx)
            # each component's slots of other users first, then rx's own, each ascending
            own = set(pattern.streams[rx].ravel().tolist())
            free = layout.size - layout.own
            for part, mine in ((members[:, :free], False), (members[:, free:], True)):
                assert (np.diff(part, axis=1) > 0).all()
                assert all((t in own) == mine for t in part.ravel().tolist())
            # then the untouched slots, ascending
            assert (np.diff(layout.order[rows:]) > 0).all()
            np.testing.assert_array_equal(position[rx][layout.order], np.arange(pattern.length))

    @staticmethod
    def check_streams_in_one_component(pattern):
        # the component blocks place each kept column by its stream's first
        # row, so a stream across two components would give wrong ranks
        position, layouts = _slot_components(pattern)
        for rx, layout in enumerate(layouts):
            for tx, slots in enumerate(pattern.streams):
                if tx != rx:
                    rows = position[rx][slots]
                    assert (rows < layout.count * layout.size).all()
                    component = rows // layout.size
                    assert (component == component[:, :1]).all(), (rx, tx)

    @pytest.mark.parametrize("cfg", [*small_configs(), GroupingConfig.flat([4, 4, 4, 4])], ids=str)
    def test_components_match_union_find(self, cfg):
        self.check_union_find(grouped_pattern(cfg))

    @pytest.mark.parametrize("modes", ENUMERATED_MODES)
    def test_enumerated_components_match_union_find(self, modes):
        for cfg in enumerated_configs(modes):
            self.check_union_find(grouped_pattern(cfg))

    def test_each_level_family_is_built_once_per_verify(self, example_config):
        # the pattern and the slot components read one cached array per level
        patterns._level_modes.cache_clear()
        pattern = grouped_pattern(example_config)
        verify_receivers(pattern, draw_channels(example_config, None, 1), random_symbols(pattern))
        info = patterns._level_modes.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # element counts (3, 2), group counts (2, 2)

    def test_misaligned_components_match_union_find(self, misaligned_pattern):
        # the split comes from the config's counts, as the streams do, not
        # from the out-of-step sequence of u2.2
        self.check_union_find(misaligned_pattern)

    @pytest.mark.parametrize("cfg", [
        *small_configs(), GroupingConfig.flat([4, 4, 4, 4]), GroupingConfig.flat([5, 5, 5, 5]),
    ], ids=str)
    def test_no_interferer_stream_spans_two_components(self, cfg):
        self.check_streams_in_one_component(grouped_pattern(cfg))

    @pytest.mark.parametrize("modes", ENUMERATED_MODES)
    def test_no_enumerated_interferer_stream_spans_two_components(self, modes):
        for cfg in enumerated_configs(modes):
            self.check_streams_in_one_component(grouped_pattern(cfg))

    @pytest.mark.parametrize("modes,count,size", [((5, 5, 5, 5), 4, 112), ((4, 4, 4, 4), 3, 54)])
    def test_flat_component_counts(self, modes, count, size):
        pattern = grouped_pattern(GroupingConfig.flat(modes))
        _, layouts = _slot_components(pattern)
        assert [(layout.count, layout.size) for layout in layouts] == [(count, size)] * 4

    @pytest.mark.parametrize("modes", ENUMERATED_MODES)
    def test_closed_form_shapes_match_the_built_pattern(self, modes):
        # the memory estimate and the pass read the shapes off the counts,
        # before any build; the union-find finds them on the built streams
        configs = enumerated_configs(modes)
        for cfg in configs:
            pattern = grouped_pattern(cfg)
            built = []
            for rx, slots in enumerate(pattern.streams):
                components = reference_components(pattern, rx)
                own = set(slots.ravel().tolist())
                shapes = {(len(c), len(c & own)) for c in components}
                assert len(shapes) <= 1, (cfg, rx)  # every component alike
                size, mine = shapes.pop() if shapes else (0, 0)
                count = len(components)
                built.append((count, size, mine, pattern.length - count * size))
            assert _component_shapes(cfg) == built, cfg
        assert len(configs) >= 20

    def test_no_decomposition_spans_the_interference_stack(self, monkeypatch):
        # flat (5,5,5,5): L = 512, 320 desired columns, 4 components of 112
        # slots; shapes only, so the guard holds on any host
        config = GroupingConfig.flat([5, 5, 5, 5])
        pattern = grouped_pattern(config)
        calls = svd_calls(monkeypatch)
        receivers = verify_receivers(pattern, draw_channels(config, None, 1), random_symbols(pattern))
        assert all(r.match for r in receivers)
        shapes = [shape for _, shape in calls]
        size, columns = 112, 320
        matrices = [shape[-2:] for shape in shapes]
        assert all(rows <= size for rows, _ in matrices)  # nothing taller than one component
        assert all(columns not in shape for shape in matrices)  # no desired block
        assert sum(shape == (5, 5) for shape in matrices) <= 1  # one call per distinct dim
        # the 52 distinct stream blocks, and nothing else: every other
        # user's stream meets one free row, so the free blocks' singular
        # values are their row norms, which settle the combined rank too
        assert calls == [("full", (52, 5, 5))]


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
        K = cfg.num_users
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
    def test_component_blocks_keep_nonzero_spectrum(self, cfg, coherence):
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, coherence, 8)
        position, layouts = _slot_components(pattern)
        batches = _stream_batches(pattern, ch, position)
        K = cfg.num_users
        for rx, layout in enumerate(layouts):
            ranks, blocks, width, columns, _ = _component_blocks(
                pattern.length, batches, layout, rx
            )
            interference = [effective_block(pattern, ch, rx, tx) for tx in range(K) if tx != rx]
            assert ranks == [matrix_rank(b) for b in interference]
            assert blocks.shape[:2] == (layout.count, layout.size)
            assert width == sum(b.shape[1] for b in interference)
            # every kept column is counted once, in its own component
            assert columns.shape == (layout.count,) and columns.sum() == sum(ranks)
            assert blocks.shape[2] == columns.max(initial=0)
            for block, real in zip(blocks, columns.tolist()):
                assert block[:, :real].any(axis=0).all() and not block[:, real:].any()
            if not interference:
                assert blocks.size == 0
                continue
            stack = np.hstack(interference)
            rank = matrix_rank(stack)
            full = np.linalg.svd(stack, compute_uv=False)
            # a block-diagonal matrix has the union of its blocks' singular values
            kept = np.sort(np.linalg.svd(blocks, compute_uv=False).ravel())[::-1]
            np.testing.assert_allclose(kept[:rank], full[:rank], rtol=0, atol=1e-10 * full[0])
            # the rest of the components' spectra is below the full stack's cutoff
            assert np.all(kept[rank:] <= max(stack.shape) * full[0] * 1e-10)

    @staticmethod
    def check_stream_blocks(pattern, ch):
        """Each (rx, stream) block, read through its batch's index, is bit
        for bit the block built alone from the gains, with its own SVD."""
        position, _ = _slot_components(pattern)
        batches = _stream_batches(pattern, ch, position)
        for rx in range(len(batches)):
            seq = physical_seq(pattern, rx)
            for tx, batch in enumerate(batches):
                for slots, i in zip(pattern.streams[tx], batch.index[rx].tolist()):
                    block = np.array([channel_row(ch, rx, tx, t + 1, seq[t]) for t in slots])
                    u, s, vh = np.linalg.svd(block)
                    np.testing.assert_array_equal(batch.gains[i], block, strict=True)
                    np.testing.assert_array_equal(batch.values[i], s, strict=True)
                    np.testing.assert_array_equal(batch.columns[i], (u * s).T, strict=True)
                    np.testing.assert_array_equal(batch.vh[i], vh, strict=True)

    @pytest.mark.parametrize("cfg,coherence", [
        *stream_block_setups(), *((cfg, 1) for cfg in small_configs()),
    ], ids=str)
    def test_distinct_stream_blocks_are_exact(self, cfg, coherence):
        self.check_stream_blocks(grouped_pattern(cfg), draw_channels(cfg, coherence, 9))

    @pytest.mark.parametrize("modes,coherence,distinct,blocks", [
        ((5, 5, 5, 5), None, 52, 1024),
        ((5, 5, 5, 5), 170, 135, 1024),
        ((4, 4, 4, 4), None, 40, 432),
        # every slot its own fading block: no two blocks are equal, and a
        # mixed-radix key of 1,125 x 6 values per slot would pass 2^63
        ((6, 6, 6, 6), 1, 2000, 2000),
    ], ids=str)
    def test_each_distinct_stream_block_is_decomposed_once(
        self, modes, coherence, distinct, blocks, monkeypatch
    ):
        config = GroupingConfig.flat(modes)
        pattern = grouped_pattern(config)
        ch = draw_channels(config, coherence, 1)
        if coherence == 1:
            self.check_stream_blocks(pattern, ch)
        assert self.decompositions(pattern, ch, monkeypatch) == ([distinct], blocks)

    @pytest.mark.parametrize("config,distinct,blocks", [
        (GroupingConfig.flat((6, 6, 4, 4)), [28, 24], 960),
        (GroupingConfig.grouped([6, 6, 4, 4], [[0, 2], [1, 3]], [2, 2]), [12, 8], 24),
    ], ids=["flat-6644", "worked-example"])
    def test_each_dim_is_decomposed_once_for_all_its_transmitters(
        self, config, distinct, blocks, monkeypatch
    ):
        ch = draw_channels(config, None, 1)
        assert self.decompositions(grouped_pattern(config), ch, monkeypatch) == (distinct, blocks)

    @staticmethod
    def decompositions(pattern, ch, monkeypatch):
        """(distinct blocks of each batched SVD, all (rx, stream) blocks) of
        one ``_stream_batches`` call, after checking that it makes one SVD
        call per distinct dim, whose arrays that dim's transmitters share,
        and that every distinct block is some (rx, stream)'s."""
        position, _ = _slot_components(pattern)
        calls = svd_calls(monkeypatch)
        batches = _stream_batches(pattern, ch, position)
        shapes = [shape for _, shape in calls]
        dims = sorted({b.slots.shape[1] for b in batches})
        assert [shape[1:] for shape in shapes] == [(dim, dim) for dim in dims]
        for dim, shape in zip(dims, shapes):
            same = [b for b in batches if b.slots.shape[1] == dim]
            for name in ("gains", "values", "columns", "vh"):
                assert all(getattr(b, name) is getattr(same[0], name) for b in same)
            assert len(same[0].gains) == shape[0]
            np.testing.assert_array_equal(
                np.unique(np.concatenate([b.index for b in same], axis=1)), np.arange(shape[0])
            )
        return [shape[0] for shape in shapes], sum(b.index.size for b in batches)

    @pytest.mark.parametrize("modes", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4), (4, 6, 4, 6), (9, 6), (8, 8, 8)])
    def test_closed_form_block_counts_bound_the_built_ones(self, modes):
        # the memory estimate reads the distinct stream blocks off the counts:
        # exact at one fading block and at one slot per block, a bound between
        checked = 0
        for cfg in enumerate_configs(SearchSpace(modes)):
            length = grouped_length(cfg)
            if length > 300:
                continue
            pattern = grouped_pattern(cfg)
            position, _ = _slot_components(pattern)
            for coherence in (None, 1, 5, max(1, length // 3)):
                ch = draw_channels(cfg, coherence, 1)
                batches = _stream_batches(pattern, ch, position)
                built = np.array([
                    [len(np.unique(b.index[rx])) for b in batches] for rx in range(len(batches))
                ])
                bound = np.array(_stream_block_counts(cfg, coherence))
                if coherence in (None, 1):
                    np.testing.assert_array_equal(built, bound, err_msg=str(cfg))
                assert (built <= bound).all(), (cfg, coherence)
            checked += 1
        assert checked >= 20

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


def weak_interferer():
    """Flat (4,4,4,4) at ideal fading with u2.1's gains at u1.1 scaled by
    1e-12: its columns stay above its own block's cutoff, so u1.1 keeps
    them, but fall below the interference stack's, so u1.1's free blocks
    are tall and short of their kept columns."""
    config = GroupingConfig.flat([4, 4, 4, 4])
    ch = draw_channels(config, None, 1)
    gains = dict(ch.gains)
    gains[0, 1] = ch.gains[0, 1] * 1e-12
    return grouped_pattern(config), replace(ch, gains=gains)


class TestRankCertificate:
    """The free blocks settle the combined rank unless they leave it open.

    Each free block is its component block without the receiver's own rows,
    so by interlacing the component block has at least as many singular
    values above any cutoff.  When every free block has all of its
    component's kept columns above a cutoff at or above the stack's, the
    combined rank is the kept column count, and no values-only SVD runs.
    """

    @pytest.mark.parametrize("cfg,coherence", [
        *stream_block_setups(), *((cfg, 1) for cfg in small_configs()),
    ], ids=str)
    def test_bound_is_at_or_above_the_stack_norm(self, cfg, coherence):
        # with one interferer the two are equal in exact arithmetic; the
        # bound's rounding margin puts it at or above both computed values
        pattern = grouped_pattern(cfg)
        position, layouts = _slot_components(pattern)
        K = cfg.num_users
        for seed in range(10, 40):
            ch = draw_channels(cfg, coherence, seed)
            batches = _stream_batches(pattern, ch, position)
            # the entry pass takes its bound from the same largest stream
            # singular values, 0 for a receiver's own
            tops = cfg.num_groups == 1 and _flat_columns(batches, pattern.length)[1]
            for rx, layout in enumerate(layouts):
                _, blocks, *_, bound = _component_blocks(pattern.length, batches, layout, rx)
                assert bound.shape == (1,)
                if tops is not False:
                    largest = [b.values[b.index[rx]].max() for b in batches]
                    largest[rx] = 0.0
                    np.testing.assert_array_equal(tops[rx], largest)
                if K == 1:
                    assert bound[0] == 0.0
                    continue
                stack = np.hstack([
                    effective_block(pattern, ch, rx, tx) for tx in range(K) if tx != rx
                ])
                assert bound[0] >= np.linalg.svd(stack, compute_uv=False)[0]
                assert bound[0] >= np.linalg.svd(blocks, compute_uv=False).max()

    @staticmethod
    def always_svd(monkeypatch):
        """The rule before the certificate: the values-only SVD and the
        stack's exact cutoff at every receiver.  An infinite bound, where
        both passes take it, leaves every free block short of its
        component's kept columns."""
        monkeypatch.setattr(signal, "_stack_bound", lambda tops, full: np.full(
            np.shape(tops)[:-1] + (1,), np.inf
        ))

    def check_same_answers(self, pattern, ch, monkeypatch):
        """Ranks, estimates and samples of the certified pass, noiseless and
        noisy, bit for bit those of the always-SVD rule; returns the runs."""
        symbols = random_symbols(pattern, 11)
        runs = []
        for noise in ((), (1e-3, 12)):
            certified = verify_receivers(pattern, ch, symbols, *noise)
            with monkeypatch.context() as patched:
                self.always_svd(patched)
                calls = svd_calls(patched)
                dense = verify_receivers(pattern, ch, symbols, *noise)
            values = sum(kind == "values" for kind, _ in calls)
            assert values == sum(layout.count > 0 for layout in _slot_components(pattern)[1])
            for got, want in zip(certified, dense, strict=True):
                assert got.measured == want.measured
                np.testing.assert_array_equal(got.estimates, want.estimates, strict=True)
                np.testing.assert_array_equal(got.samples, want.samples, strict=True)
            runs.append(certified)
        return runs

    @pytest.mark.parametrize("cfg,coherence", [
        *stream_block_setups(), *((cfg, 1) for cfg in small_configs()),
    ], ids=str)
    def test_certified_ranks_and_estimates_are_the_dense_rule_s(self, cfg, coherence, monkeypatch):
        pattern = grouped_pattern(cfg)
        self.check_same_answers(pattern, draw_channels(cfg, coherence, 13), monkeypatch)

    def test_misaligned_pattern_gets_the_dense_rule_s_answers(
        self, example_config, misaligned_pattern, monkeypatch
    ):
        ch = draw_channels(example_config, None, 14)
        receivers, _ = self.check_same_answers(misaligned_pattern, ch, monkeypatch)
        assert not all(r.match for r in receivers)

    def test_hand_built_channels_get_the_dense_rule_s_answers(self, monkeypatch):
        # the weak interferer's columns drop out of u1.1's combined rank
        receivers, _ = self.check_same_answers(*weak_interferer(), monkeypatch)
        assert receivers[0].measured.combined == 2 * 27 and all(r.match for r in receivers[1:])
        # u1.1's free blocks lose rank with u2.1's gains zeroed past the
        # third fading block (see TestDecode)
        config = GroupingConfig.flat([4, 4, 4, 4])
        ch = draw_channels(config, 7, 1)
        gains = dict(ch.gains)
        gains[0, 1] = ch.gains[0, 1].copy()
        gains[0, 1][3:] = 0
        self.check_same_answers(grouped_pattern(config), replace(ch, gains=gains), monkeypatch)

    @pytest.mark.parametrize("modes", [(6, 6, 4, 4), (6, 6, 6, 4, 4, 4)])
    def test_aligned_configs_run_no_values_only_svd(self, modes, monkeypatch):
        # every config of the benchmark's short-request mix (L <= 64) and
        # its flat verifies, at ideal fading: one thin SVD per receiver of a
        # grouped config, none at a flat one (closed form)
        configs = [
            cfg for cfg in enumerate_configs(SearchSpace(modes)) if grouped_length(cfg) <= 64
        ] + [GroupingConfig.flat([4] * 4), GroupingConfig.flat([5] * 4)]
        calls = svd_calls(monkeypatch)
        for cfg in configs:
            pattern = grouped_pattern(cfg)
            receivers = verify_receivers(pattern, draw_channels(cfg, None, 15), random_symbols(pattern))
            assert all(r.match for r in receivers), cfg
        grouped = [cfg for cfg in configs if cfg.num_groups > 1]
        assert len(configs) >= 20 and len(grouped) >= 5
        assert sum(kind == "thin" for kind, _ in calls) == sum(len(cfg.labels()) for cfg in grouped)
        assert all(kind != "values" for kind, _ in calls)

    def test_values_only_svd_runs_when_the_free_blocks_leave_the_rank_open(
        self, example_config, example_pattern, misaligned_pattern, monkeypatch
    ):
        calls = svd_calls(monkeypatch)

        def passes(pattern, ch):  # the receiver passes' SVDs, in order
            calls.clear()
            verify_receivers(pattern, ch, random_symbols(pattern))
            return [kind for kind, _ in calls if kind != "full"]

        # components with more columns than free rows: their free blocks
        # cannot hold every kept column above the cutoff, so the values-only
        # SVD follows the thin one
        ch = draw_channels(example_config, 1, 16)
        assert passes(example_pattern, ch) == ["thin", "values"] * 4
        ch = draw_channels(example_config, None, 16)
        assert passes(misaligned_pattern, ch) == ["thin"] * 3 + ["thin", "values"]
        # tall free blocks short of their kept columns: values only after
        # the closed form, which takes the flat config's free blocks
        assert passes(*weak_interferer()) == ["values"]


@functools.cache
def closed_form_corpus() -> tuple[list[GroupingConfig], list[GroupingConfig]]:
    """(flat, grouped) enumerated configs of (6,6,4,4) with L <= 300,
    (4,)*6 <= 200, (9,9,9,9) <= 250 and (6,6,6,4,4,4) <= 150; flat ones
    once per used-count tuple, which fixes the pattern and the draws."""
    flat, grouped = {}, []
    for modes, top in [((6, 6, 4, 4), 300), ((4,) * 6, 200), ((9, 9, 9, 9), 250),
                       ((6, 6, 6, 4, 4, 4), 150)]:
        for cfg in enumerate_configs(SearchSpace(modes)):
            if grouped_length(cfg) > top:
                continue
            if cfg.num_groups > 1:
                grouped.append(cfg)
            else:
                flat.setdefault(tuple(cfg.used[u] for u in cfg.user_order()), cfg)
    return list(flat.values()), grouped


class TestClosedFormFreeBlocks:
    """Single-group free blocks settle in closed form, with no SVD.

    When every interferer stream meets at most one free row, each kept
    column has at most one nonzero free entry, so F F^H is diagonal: the
    singular values are the row norms, and the pseudo-inverse is
    F^H diag(1 / t^2).  The structure is read off the config's counts.
    """

    @staticmethod
    def free_rows_met(pattern) -> list[int]:
        """Per receiver, the most free rows one interferer stream meets, from
        the built streams and layouts."""
        position, layouts = _slot_components(pattern)
        most = []
        for rx, layout in enumerate(layouts):
            free = layout.size - layout.own
            met = [
                ((position[rx][slots] % layout.size) < free).sum(axis=1).max(initial=0)
                for tx, slots in enumerate(pattern.streams) if tx != rx
            ]
            most.append(int(max(met, default=0)))
        return most

    def test_flat_streams_meet_one_free_row_and_grouped_ones_more(self):
        flat, grouped = closed_form_corpus()
        assert len(flat) >= 100 and len(grouped) >= 50
        for cfg in flat:
            assert self.free_rows_met(grouped_pattern(cfg)) == [1] * cfg.num_users, cfg
            assert signal._orthogonal_free_rows(cfg), cfg
        for cfg in grouped:
            # at least 2 at every receiver: one more than a flat receiver ever sees
            assert min(self.free_rows_met(grouped_pattern(cfg))) >= 2, cfg
            assert not signal._orthogonal_free_rows(cfg), cfg
        assert self.free_rows_met(grouped_pattern(GroupingConfig.flat([4]))) == [0]

    @pytest.mark.parametrize("coherence", [None, "half", 5, 1])
    def test_row_norms_and_decode_are_the_svd_s(self, coherence, monkeypatch):
        # oracle: np.linalg.svd of the same free blocks, and the pass with
        # the thin SVD's pseudo-inverse (the rule for grouped configs)
        flat, _ = closed_form_corpus()
        checked = 0
        for cfg in flat:
            pattern = grouped_pattern(cfg)
            length = pattern.length
            fading = max(1, length // 2) if coherence == "half" else coherence
            ch = draw_channels(cfg, fading, 17)
            symbols = random_symbols(pattern, 18)
            position, layouts = _slot_components(pattern)
            batches = _stream_batches(pattern, ch, position)
            norms = _flat_columns(batches, length)[2]
            for rx, layout in enumerate(layouts):
                _, blocks, *_ = _component_blocks(length, batches, layout, rx)
                free = blocks[:, :layout.size - layout.own]
                # the entry pass's norms of the free rows, slot by slot
                slots = layout.order[:layout.count * layout.size].reshape(layout.count, layout.size)
                rows = np.sort(norms[rx, slots[:, :free.shape[1]]], axis=-1)[..., ::-1]
                assert not np.delete(norms[rx], slots[:, :free.shape[1]]).any()  # own slots: 0
                values = np.linalg.svd(free, compute_uv=False)
                scale = values.max(initial=0.0)
                np.testing.assert_allclose(
                    rows[..., :values.shape[-1]], values, rtol=0, atol=1e-12 * scale
                )
                assert not rows[..., values.shape[-1]:].any()  # rows past the columns are 0
                checked += 1
            # noisy samples, so that the decode leaves the free blocks' range
            closed = verify_receivers(pattern, ch, symbols, 1e-3, 19)
            with monkeypatch.context() as patched:
                patched.setattr(signal, "_orthogonal_free_rows", lambda config: False)
                thin = verify_receivers(pattern, ch, symbols, 1e-3, 19)
            for got, want in zip(closed, thin, strict=True):
                assert got.measured == want.measured, cfg
                np.testing.assert_array_equal(got.samples, want.samples, strict=True)
                np.testing.assert_allclose(
                    got.estimates, want.estimates, rtol=0,
                    atol=1e-12 * np.abs(want.estimates).max(initial=1.0),
                )
        assert checked >= 400

    @staticmethod
    def dense_builds(monkeypatch) -> list:
        """Record each receiver whose component blocks are built, in order."""
        built = []
        blocks = signal._component_blocks

        def recorded(length, batches, layout, rx):
            built.append(rx)
            return blocks(length, batches, layout, rx)

        monkeypatch.setattr(signal, "_component_blocks", recorded)
        return built

    @pytest.mark.parametrize("modes", [(5, 5, 5, 5), (3,) * 8, (8, 8, 8, 8)], ids=str)
    def test_flat_verify_at_ideal_fading_builds_no_dense_blocks(self, modes, monkeypatch):
        # every receiver's certificate holds, so the entry pass settles all
        config = GroupingConfig.flat(modes)
        pattern = grouped_pattern(config)
        built = self.dense_builds(monkeypatch)
        receivers = verify_receivers(pattern, draw_channels(config, None, 1), random_symbols(pattern))
        assert all(r.match for r in receivers)
        assert built == []

    @pytest.mark.parametrize("pattern,ch", [
        *(
            (grouped_pattern(cfg), draw_channels(cfg, coherence, 20))
            for cfg, coherence in [
                (GroupingConfig.flat([3, 2]), 1), (GroupingConfig.flat([4, 4, 4, 4]), 1),
                (GroupingConfig.flat([6, 6, 4, 4], used=[3, 2, 2, 2]), 1),
                (GroupingConfig.flat([5, 5, 5, 5]), 1), (GroupingConfig.flat([3, 3, 3]), 16),
                (GroupingConfig.flat([4, 3, 2]), 11),
            ]
        ),
        weak_interferer(),
    ], ids=["3-2-coherence-1", "4444-coherence-1", "6644-used-3222-coherence-1",
            "5555-coherence-1", "333-coherence-16", "432-coherence-11", "weak-interferer"])
    def test_dense_blocks_only_where_the_certificate_fails(self, pattern, ch, monkeypatch):
        # oracle: each receiver's certificate as the component pass reads
        # it, from its free blocks' singular values against the bound's
        # cutoff (see TestRankCertificate).  It fails at every receiver at
        # coherence 1, and at some only when a fading boundary falls late
        # in the supersymbol (u1.1 and u2.1 of three) or one interferer is
        # weak (u1.1)
        length = pattern.length
        position, layouts = _slot_components(pattern)
        batches = _stream_batches(pattern, ch, position)
        fails = []
        for rx, layout in enumerate(layouts):
            _, blocks, width, columns, bound = _component_blocks(length, batches, layout, rx)
            free = np.linalg.svd(blocks[:, :layout.size - layout.own], compute_uv=False)
            cutoff = max(length, width) * bound[0] * 1e-10
            if not np.array_equal(np.count_nonzero(free > cutoff, axis=-1), columns):
                fails.append(rx)
        built = self.dense_builds(monkeypatch)
        verify_receivers(pattern, ch, random_symbols(pattern))
        assert built == fails

    @pytest.mark.parametrize("modes,distinct,dim", [((3,) * 8, 120, 3), ((8, 8, 8, 8), 88, 8)],
                             ids=["flat-3x8", "flat-8888"])
    def test_large_flat_rungs_decompose_only_their_stream_blocks(
        self, modes, distinct, dim, monkeypatch
    ):
        # L = 1,280 and 3,773: one batched SVD of the distinct stream blocks
        # (one own mode tuple and M - 1 per other user at each receiver), and
        # none per receiver, which took seconds
        config = GroupingConfig.flat(modes)
        pattern = grouped_pattern(config)
        calls = svd_calls(monkeypatch)
        receivers = verify_receivers(pattern, draw_channels(config, None, 1), random_symbols(pattern))
        assert all(r.match for r in receivers)
        assert calls == [("full", (distinct, dim, dim))]
        assert distinct == len(modes) * (1 + (len(modes) - 1) * (modes[0] - 1))


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

    @pytest.mark.parametrize("cfg", [*small_configs(), GroupingConfig.flat([4, 4, 4, 4])], ids=str)
    def test_noisy_decode_is_dense_least_squares(self, cfg):
        # oracle: lstsq(P⊥D, P⊥y), with P⊥ the projector off the span of the
        # dense interference stack, on aligned channels and noisy samples
        pattern = grouped_pattern(cfg)
        ch = draw_channels(cfg, None, 3)
        symbols = random_symbols(pattern, 4)
        receivers = verify_receivers(pattern, ch, symbols, 1e-3, 5)
        K = cfg.num_users
        for rx, r in enumerate(receivers):
            desired = effective_block(pattern, ch, rx, rx)
            complement = np.eye(pattern.length)
            if K > 1:
                stack = np.hstack([
                    effective_block(pattern, ch, rx, tx) for tx in range(K) if tx != rx
                ])
                basis = np.linalg.svd(stack)[0][:, :matrix_rank(stack)]
                complement = complement - basis @ basis.conj().T
            dense = np.linalg.lstsq(complement @ desired, complement @ r.samples, rcond=None)[0]
            assert r.match
            assert relative_error(r.estimates.ravel(), dense) < 1e-9
            assert relative_error(r.estimates, symbols[rx]) > 1e-9  # the noise shows

    def test_free_blocks_short_of_full_rank(self):
        # flat (4,4,4,4) at coherence 7 with u2.1's gains at u1.1 zeroed past
        # the third fading block: u1.1's free blocks get singular values of
        # zero, which the pseudo-inverse must drop; the ranks stay the dense ones
        config = GroupingConfig.flat([4, 4, 4, 4])
        pattern = grouped_pattern(config)
        ch = draw_channels(config, 7, 1)
        gains = dict(ch.gains)
        gains[0, 1] = ch.gains[0, 1].copy()
        gains[0, 1][3:] = 0
        ch = replace(ch, gains=gains)
        r = verify_receivers(pattern, ch, random_symbols(pattern, 2), 1e-3, 3)[0]
        desired = effective_block(pattern, ch, 0, 0)
        stack = np.hstack([effective_block(pattern, ch, 0, tx) for tx in (1, 2, 3)])
        assert (r.measured.desired, r.measured.combined, r.measured.joint) == (
            matrix_rank(desired), matrix_rank(stack), matrix_rank(np.hstack([desired, stack]))
        )
        # kept, the zero values would blow the 1e-3 noise up past 1e10
        assert np.abs(r.estimates).max() < 1e3

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
        assert [r.samples.shape for r in receivers] == [(pattern.length,)] * cfg.num_users
        assert all(r.deficiency == 0 for r in receivers)
        assert [r.measured.label for r in receivers] == cfg.labels()
        assert [r.estimates.shape for r in receivers] == [s.shape for s in pattern.streams]
