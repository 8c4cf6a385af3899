"""Tests for the fault-injection layer (repro.faults) and its §7.1 driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import BASELINE_CONFIG, Encoders, GPUReplay
from repro.arch.isa import OpClass
from repro.arch.trace import (AppTrace, BlockTrace, InstRecord,
                              LaunchTrace, MemAccess, MemSpace, WarpTrace)
from repro.circuits import TECH_28NM
from repro.core.coders import ISACoder, NVCoder, VSCoder
from repro.faults import FaultModel


class TestConstruction:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultModel(p_flip=1.5)
        with pytest.raises(ValueError):
            FaultModel(p_flip=-0.1)

    def test_from_reliability_tracks_the_cliff(self):
        safe = FaultModel.from_reliability(16, TECH_28NM)
        past = FaultModel.from_reliability(24, TECH_28NM)
        assert safe.p_flip == 0.0
        assert past.p_flip > 0.0


class TestCorruptLine:
    def test_deterministic_across_instances(self):
        line = np.arange(128, dtype=np.uint8)
        a = FaultModel(p_flip=0.3, seed=7)
        b = FaultModel(p_flip=0.3, seed=7)
        for _ in range(5):
            assert np.array_equal(a.corrupt_line(line), b.corrupt_line(line))

    def test_zero_probability_is_identity(self):
        line = np.arange(128, dtype=np.uint8)
        fm = FaultModel(p_flip=0.0)
        out = fm.corrupt_line(line)
        assert np.array_equal(out, line)
        assert fm.array_flips == 0 and fm.array_bits == 128 * 8

    def test_read_disturb_only_flips_zero_bits(self):
        rng = np.random.default_rng(1)
        # One line, and a 2-D block of four lines read as one access.
        for shape in ((128,), (4, 128)):
            line = rng.integers(0, 256, size=shape, dtype=np.uint8)
            fm = FaultModel(p_flip=0.5, seed=3)
            out = fm.corrupt_line(line)
            assert out.shape == line.shape
            # Every set bit survives: flips are strictly 0 -> 1.
            assert np.array_equal(out & line, line)
            assert fm.array_flips > 0
            assert fm.array_bits == line.size * 8

    def test_read_disturb_leaves_all_ones_alone(self):
        line = np.full(128, 0xFF, dtype=np.uint8)
        fm = FaultModel(p_flip=1.0)
        assert np.array_equal(fm.corrupt_line(line), line)
        assert fm.array_flips == 0

    def test_counters_feed_report(self):
        fm = FaultModel(p_flip=0.5, seed=0)
        fm.corrupt_line(np.zeros(64, dtype=np.uint8))
        fm.note_fill("L1D", 0)
        report = fm.report()
        assert report["array_bits"] == 64 * 8
        assert report["array_flips"] == fm.array_flips
        assert report["line_fills"] == 1.0


class TestCorruptWords:
    def test_preserves_dtype_and_shape(self):
        words = np.arange(32, dtype=np.uint32).reshape(4, 8)
        fm = FaultModel(p_flip=0.1, seed=2)
        out = fm.corrupt_words(words)
        assert out.dtype == words.dtype and out.shape == words.shape

    def test_input_not_mutated(self):
        words = np.zeros(32, dtype=np.uint32)
        fm = FaultModel(p_flip=1.0)
        fm.corrupt_words(words)
        assert not words.any()


class TestCorruptPayloads:
    def test_same_physical_flips_on_every_variant(self):
        rng = np.random.default_rng(4)
        payload = rng.integers(0, 256, size=(5, 128), dtype=np.uint8)
        fm = FaultModel(p_flip=0.2, seed=9)
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
        fm = FaultModel(p_flip=0.01, seed=5)
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
        fm = FaultModel(p_flip=0.0)
        assert fm.corrupt_payloads(payload) is payload


def _replay(accesses, p_flip):
    """Replay one warp: an ALU op, then one global access per
    ``(is_store, byte addresses)`` pair. All records share one code
    line, so instruction fetch reads the arrays exactly once."""
    records = [InstRecord(0, 0x1234, OpClass.ALU, 32)]
    for pc, (is_store, addrs) in enumerate(accesses, start=1):
        addrs = np.asarray(addrs, dtype=np.int64)
        access = MemAccess(MemSpace.GLOBAL, is_store, addrs,
                           np.ones(addrs.size, dtype=bool),
                           np.arange(addrs.size, dtype=np.uint32))
        records.append(InstRecord(
            pc, 0x1234, OpClass.STORE if is_store else OpClass.LOAD,
            addrs.size, access))
    launch = LaunchTrace("k", code_base=0,
                         static_words=[r.word for r in records],
                         blocks=[BlockTrace(0, [WarpTrace(0, 0, records)])])
    trace = AppTrace("t", [launch],
                     initial_image=np.zeros(1 << 14, dtype=np.uint8))
    fm = FaultModel(p_flip=p_flip, seed=1)
    GPUReplay(BASELINE_CONFIG, Encoders(isa_mask=0),
              fault_model=fm).run(trace)
    return fm


#: 32 lanes, 16 bytes apart: four distinct 128-byte lines.
_FOUR_LINES = 4096 + 16 * np.arange(32)
_LINE_BITS = 8 * BASELINE_CONFIG.l1_line_bytes


class TestArrayReads:
    """A fault model draws once per access that reads the arrays: a
    load (hit or miss) or an instruction-fetch miss, over the access's
    distinct lines. Stores and fills read no array."""

    def test_store_reads_no_array(self):
        fetch_only = _replay([], p_flip=0.5).array_bits
        assert fetch_only == _LINE_BITS
        stored = _replay([(True, _FOUR_LINES)], p_flip=0.5)
        assert stored.array_bits == fetch_only

    def test_load_reads_each_distinct_line_once(self):
        fetch_only = _replay([], p_flip=0.5).array_bits
        miss = _replay([(False, _FOUR_LINES)], p_flip=0.5)
        assert miss.array_bits - fetch_only == 4 * _LINE_BITS
        miss_then_hit = _replay([(False, _FOUR_LINES)] * 2, p_flip=0.5)
        assert miss_then_hit.array_bits - fetch_only == 8 * _LINE_BITS

    def test_destructive_read_leaves_nothing_to_flip(self):
        # The image is all zeros: at p=1 a read destroys every stored 0
        # and writes the damage back, so a second read flips nothing.
        once = _replay([(False, _FOUR_LINES)], p_flip=1.0)
        assert once.array_flips == once.array_bits
        twice = _replay([(False, _FOUR_LINES)] * 2, p_flip=1.0)
        assert twice.array_bits == once.array_bits + 4 * _LINE_BITS
        assert twice.array_flips == once.array_flips


class TestCodersRemainInvolutionsUnderFaults:
    """Corrupted words still round-trip: the coders are pure XNOR
    networks, so they are exact involutions on *any* bit pattern —
    faults corrupt values, never the coding algebra."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
           st.integers(0, 2**32))
    def test_nv_involution_on_corrupted_words(self, values, seed):
        words = np.array(values, dtype=np.uint32)
        fm = FaultModel(p_flip=0.3, seed=seed)
        corrupted = fm.corrupt_words(words)
        assert NVCoder().is_involution_on(corrupted)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=32),
           st.integers(0, 2**32))
    def test_vs_involution_on_corrupted_blocks(self, values, seed):
        block = np.array(values, dtype=np.uint32)
        fm = FaultModel(p_flip=0.5, seed=seed)
        corrupted = fm.corrupt_words(block)
        assert VSCoder().is_involution_on(corrupted)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32),
           st.integers(0, 2**64 - 1),
           st.integers(0, 2**32))
    def test_isa_involution_on_corrupted_instructions(self, values, mask,
                                                      seed):
        words = np.array(values, dtype=np.uint64)
        fm = FaultModel(p_flip=0.3, seed=seed)
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
            fm = FaultModel(p_flip=0.01, seed=11)
            stats.append(simulate_app(app, fault_model=fm))
            reports.append(fm.report())
        assert reports[0] == reports[1]
        assert reports[0]["array_flips"] > 0  # faults actually fired
        for unit in (Unit.L1D, Unit.L2):
            assert stats[0].one_fraction(unit, "ALL") == \
                   stats[1].one_fraction(unit, "ALL")

    def test_different_seed_different_flip_sites(self):
        line = np.zeros(256, dtype=np.uint8)
        a = FaultModel(p_flip=0.1, seed=1)
        b = FaultModel(p_flip=0.1, seed=2)
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

    def test_empty_cells_sweep_is_rejected(self):
        from repro.experiments import run_experiment
        from repro.kernels import get_app
        with pytest.raises(ValueError, match="no cell loadings given"):
            run_experiment("sec7.1-inject", apps=[get_app("VEC")],
                           cells_sweep=())

    def test_max_load_summary_reads_the_largest_loading(self):
        from repro.experiments import run_experiment
        from repro.kernels import get_app
        s = run_experiment("sec7.1-inject", apps=[get_app("VEC")],
                           cells_sweep=(64, 8)).summary
        assert s["flip_rate_at_max_load"] == s["flip_rate_c64"] > 0.1
        assert s["reduction_at_max_load"] == s["reduction_c64"]


class TestZeroRateModel:
    """A model that cannot flip is no model: same numbers, no replay."""

    def test_zero_rate_replay_equals_the_clean_one(self):
        from repro.kernels import get_app
        from repro.sim import _functional_pass
        trace = _functional_pass(get_app("VEC"), 21)[0].trace
        runs = [GPUReplay(BASELINE_CONFIG, Encoders(isa_mask=0),
                          fault_model=fm).run(trace)
                for fm in (None, FaultModel(p_flip=0.0))]
        clean, zero = runs
        assert zero.tally.counts == clean.tally.counts
        assert zero.noc.toggles == clean.noc.toggles
        assert zero.cycles == clean.cycles
        assert zero.cache_stats == clean.cache_stats

    def test_zero_rate_points_reuse_the_clean_replay(self, monkeypatch):
        from repro.experiments import run_experiment
        from repro.kernels import get_app
        from repro.sim import clear_caches
        calls = []
        run = GPUReplay.run

        def counting_run(self, app):
            calls.append(app.app_name)
            return run(self, app)

        monkeypatch.setattr(GPUReplay, "run", counting_run)
        clear_caches()
        run_experiment("sec7.1-inject", apps=[get_app("VEC")],
                       cells_sweep=(8, 16, 24))
        clear_caches()
        # The clean run, then c24; c8 and c16 reuse the clean stats.
        assert calls == ["VEC", "VEC"]

    def test_zero_rate_publishes_both_flip_series(self):
        from repro.kernels import get_app
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.sim import simulate_app
        registry = MetricsRegistry()
        with use_registry(registry):
            simulate_app(get_app("VEC"), fault_model=FaultModel(p_flip=0.0))
        for site in ("array", "noc"):
            assert registry.value("fault_flips_total", {"site": site}) == 0
