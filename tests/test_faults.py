"""Tests for the fault-injection layer (repro.faults) and its §7.1 driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.memory import GlobalMemory
from repro.circuits import TECH_28NM
from repro.core.coders import ISACoder, NVCoder, VSCoder
from repro.faults import (FaultModel, MODES, READ_DISTURB, STUCK_AT,
                          UNIFORM)


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FaultModel(mode="gamma-ray")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultModel(p_flip=1.5)
        with pytest.raises(ValueError):
            FaultModel(p_flip=-0.1)

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(ValueError):
            FaultModel(mode=STUCK_AT, p_flip=0.1, stuck_value=2)

    def test_all_modes_constructible(self):
        for mode in MODES:
            FaultModel(mode=mode, p_flip=0.1)

    def test_from_reliability_tracks_the_cliff(self):
        safe = FaultModel.from_reliability(16, TECH_28NM)
        past = FaultModel.from_reliability(24, TECH_28NM)
        assert safe.p_flip == 0.0
        assert past.p_flip > 0.0
        assert past.mode == READ_DISTURB and past.persistent


class TestCorruptLine:
    def test_deterministic_across_instances(self):
        line = np.arange(128, dtype=np.uint8)
        a = FaultModel(UNIFORM, p_flip=0.3, seed=7)
        b = FaultModel(UNIFORM, p_flip=0.3, seed=7)
        for _ in range(5):
            assert np.array_equal(a.corrupt_line(line), b.corrupt_line(line))

    def test_zero_probability_is_identity(self):
        line = np.arange(128, dtype=np.uint8)
        fm = FaultModel(READ_DISTURB, p_flip=0.0)
        out = fm.corrupt_line(line)
        assert np.array_equal(out, line)
        assert fm.array_flips == 0 and fm.array_bits == 128 * 8

    def test_read_disturb_only_flips_zero_bits(self):
        rng = np.random.default_rng(1)
        line = rng.integers(0, 256, size=128, dtype=np.uint8)
        fm = FaultModel(READ_DISTURB, p_flip=0.5, seed=3)
        out = fm.corrupt_line(line)
        # Every set bit of the input survives: flips are strictly 0 -> 1.
        assert np.array_equal(out & line, line)
        assert fm.array_flips > 0

    def test_read_disturb_leaves_all_ones_alone(self):
        line = np.full(128, 0xFF, dtype=np.uint8)
        fm = FaultModel(READ_DISTURB, p_flip=1.0)
        assert np.array_equal(fm.corrupt_line(line), line)
        assert fm.array_flips == 0

    def test_uniform_rate_roughly_matches_p(self):
        line = np.zeros(4096, dtype=np.uint8)
        fm = FaultModel(UNIFORM, p_flip=0.5, seed=0)
        fm.corrupt_line(line)
        assert 0.45 < fm.array_flip_rate < 0.55

    def test_stuck_at_is_address_deterministic(self):
        line = np.zeros(128, dtype=np.uint8)
        fm = FaultModel(STUCK_AT, p_flip=0.2, seed=5)
        first = fm.corrupt_line(line, address=0x400)
        second = fm.corrupt_line(line, address=0x400)
        other = fm.corrupt_line(line, address=0x800)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_counters_feed_report(self):
        fm = FaultModel(UNIFORM, p_flip=0.5, seed=0)
        fm.corrupt_line(np.zeros(64, dtype=np.uint8))
        fm.note_fill("L1D", 0)
        report = fm.report()
        assert report["array_bits"] == 64 * 8
        assert report["array_flips"] == fm.array_flips
        assert report["line_fills"] == 1.0


class TestCorruptWords:
    def test_preserves_dtype_and_shape(self):
        words = np.arange(32, dtype=np.uint32).reshape(4, 8)
        fm = FaultModel(UNIFORM, p_flip=0.1, seed=2)
        out = fm.corrupt_words(words)
        assert out.dtype == words.dtype and out.shape == words.shape

    def test_input_not_mutated(self):
        words = np.zeros(32, dtype=np.uint32)
        fm = FaultModel(READ_DISTURB, p_flip=1.0)
        fm.corrupt_words(words)
        assert not words.any()


class TestCorruptPayloads:
    def test_same_physical_flips_on_every_variant(self):
        rng = np.random.default_rng(4)
        payload = rng.integers(0, 256, size=(5, 128), dtype=np.uint8)
        fm = FaultModel(UNIFORM, p_flip=0.2, seed=9)
        out = fm.corrupt_payloads(payload)
        assert out.shape == payload.shape
        deltas = out ^ payload
        reference = deltas[0]
        assert reference.any()
        for delta in deltas:
            assert np.array_equal(delta, reference)
        assert fm.noc_flips == int(np.unpackbits(reference).sum())

    def test_matches_per_variant_draws_for_fixed_seed(self):
        # Flip positions and counters pinned from the per-variant
        # (dict-of-payloads) form this array form replaced: the seeded
        # RNG draws are unchanged, packet for packet.
        fm = FaultModel(UNIFORM, p_flip=0.01, seed=5)
        rng = np.random.default_rng(8)
        expected = {
            128: [22, 54, 134, 283, 290, 391, 417, 475, 523, 583, 640,
                  818, 997],
            40: [36, 125, 200, 252, 267, 306],
            0: [],
        }
        for size, positions in expected.items():
            base = rng.integers(0, 256, size, dtype=np.uint8)
            payload = np.stack([base ^ np.uint8(i) for i in range(5)])
            deltas = fm.corrupt_payloads(payload) ^ payload
            for delta in deltas:
                assert np.flatnonzero(np.unpackbits(delta)).tolist() == \
                    positions
        assert fm.noc_bits == (128 + 40) * 8
        assert fm.noc_flips == 19

    def test_zero_probability_returns_input(self):
        payload = np.arange(16, dtype=np.uint8).reshape(1, 16)
        fm = FaultModel(UNIFORM, p_flip=0.0)
        assert fm.corrupt_payloads(payload) is payload


class TestPersistentWriteback:
    def test_destructive_read_accumulates_in_memory(self):
        mem = GlobalMemory(size_bytes=1024)
        # Leave the image all-zero: every bit is a flip candidate.
        mem.fault_model = FaultModel(READ_DISTURB, p_flip=1.0)
        first = mem.read_line(128)
        assert first.all()  # every stored 0 destroyed on first read
        flips_after_first = mem.fault_model.array_flips
        second = mem.read_line(128)
        assert np.array_equal(second, first)
        # The damage is in the array now; nothing left to flip.
        assert mem.fault_model.array_flips == flips_after_first

    def test_transient_mode_leaves_memory_intact(self):
        mem = GlobalMemory(size_bytes=1024)
        mem.fault_model = FaultModel(UNIFORM, p_flip=0.5, seed=0)
        mem.read_line(128)
        assert not mem.image[128:256].any()


class TestCodersRemainInvolutionsUnderFaults:
    """Corrupted words still round-trip: the coders are pure XNOR
    networks, so they are exact involutions on *any* bit pattern —
    faults corrupt values, never the coding algebra."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
           st.integers(0, 2**32))
    def test_nv_involution_on_corrupted_words(self, values, seed):
        words = np.array(values, dtype=np.uint32)
        fm = FaultModel(UNIFORM, p_flip=0.3, seed=seed)
        corrupted = fm.corrupt_words(words)
        assert NVCoder().is_involution_on(corrupted)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=32),
           st.integers(0, 2**32))
    def test_vs_involution_on_corrupted_blocks(self, values, seed):
        block = np.array(values, dtype=np.uint32)
        fm = FaultModel(READ_DISTURB, p_flip=0.5, seed=seed)
        corrupted = fm.corrupt_words(block)
        assert VSCoder().is_involution_on(corrupted)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32),
           st.integers(0, 2**64 - 1),
           st.integers(0, 2**32))
    def test_isa_involution_on_corrupted_instructions(self, values, mask,
                                                      seed):
        words = np.array(values, dtype=np.uint64)
        fm = FaultModel(UNIFORM, p_flip=0.3, seed=seed)
        corrupted = fm.corrupt_words(words)
        assert ISACoder(mask).is_involution_on(corrupted)


class TestSeedDeterminism:
    """Same seed, same replay -> same flip sites and same tables.

    This is the contract the parallel sweep backend relies on: a
    FaultModel's stream is a function of (seed, read sequence) only,
    never of wall-clock, process, or sweep order."""

    def test_same_seed_same_flip_sites_through_replay(self):
        from repro.core.spaces import Unit
        from repro.kernels import get_app
        from repro.sim import simulate_app
        app = get_app("VEC")
        stats, reports = [], []
        for _ in range(2):
            fm = FaultModel(READ_DISTURB, p_flip=0.01, seed=11)
            stats.append(simulate_app(app, fault_model=fm))
            reports.append(fm.report())
        assert reports[0] == reports[1]
        assert reports[0]["array_flips"] > 0  # faults actually fired
        for unit in (Unit.L1D, Unit.L2):
            assert stats[0].one_fraction(unit, "ALL") == \
                   stats[1].one_fraction(unit, "ALL")

    def test_different_seed_different_flip_sites(self):
        line = np.zeros(256, dtype=np.uint8)
        a = FaultModel(UNIFORM, p_flip=0.1, seed=1)
        b = FaultModel(UNIFORM, p_flip=0.1, seed=2)
        assert not np.array_equal(a.corrupt_line(line), b.corrupt_line(line))

    def test_sec71_inject_table_is_reproducible(self):
        from repro.experiments import run_experiment
        from repro.kernels import get_app
        kwargs = dict(apps=[get_app("VEC")], cells_sweep=(16, 24), seed=99)
        first = run_experiment("sec7.1-inject", **kwargs)
        second = run_experiment("sec7.1-inject", **kwargs)
        assert first.to_text() == second.to_text()
        assert first.to_dict() == second.to_dict()


class TestSection71EndToEnd:
    def test_injection_reproduces_the_cliff(self):
        from repro.experiments import run_experiment
        from repro.kernels import get_app
        result = run_experiment("sec7.1-inject", apps=[get_app("VEC")],
                                cells_sweep=(8, 16, 24, 64))
        s = result.summary
        assert s["analytic_max_safe_cells"] == 16
        # Safe region: the seeded model injects exactly nothing.
        assert s["flip_rate_c8"] == 0.0
        assert s["flip_rate_c16"] == 0.0
        assert s["measured_safe_upto"] == 16
        # Past the cliff the reads genuinely corrupt...
        assert s["flip_rate_c24"] > 0.1
        assert s["flip_rate_c64"] > 0.1
        # ...and the BVF gain collapses from its clean value.
        assert s["worst_reduction"] < s["clean_reduction"] - 0.1
