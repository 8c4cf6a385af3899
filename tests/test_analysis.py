"""Tests for the analysis layer: profiling, ISA stats, tally parser."""

import numpy as np
import pytest

from repro.analysis import (AppStats, ISAProfile, LaneHammingProfile,
                            NarrowValueProfile, Profiler, profile_binaries)
from repro.arch.stats import AccessCounts, Encoders, Tally, TallyBatch
from repro.core.spaces import Unit


class TestProfiler:
    def test_narrow_value_stats(self):
        prof = Profiler()
        vals = np.full(32, 5, dtype=np.uint32)       # clz 29
        prof.on_global_data(vals, np.ones(32, dtype=bool))
        assert prof.narrow.values == 32
        assert prof.narrow.mean_leading_zeros == 29.0

    def test_negative_values_inverted(self):
        prof = Profiler()
        vals = np.full(4, np.int64(-1) & 0xFFFFFFFF, dtype=np.uint32)
        prof.on_global_data(vals, None)
        assert prof.narrow.mean_leading_zeros == 32.0

    def test_zero_fraction(self):
        prof = Profiler()
        prof.on_global_data(np.zeros(8, dtype=np.uint32), None)
        assert prof.narrow.zero_fraction == 1.0
        assert prof.narrow.mean_zero_bits_per_word == 32.0

    def test_inactive_lanes_excluded(self):
        prof = Profiler()
        active = np.zeros(32, dtype=bool)
        prof.on_global_data(np.ones(32, dtype=np.uint32), active)
        assert prof.narrow.values == 0

    def test_lane_profile_identical_lanes(self):
        prof = Profiler(reg_sample_every=1)
        prof.on_reg_block(np.full(32, 9, dtype=np.uint32), None)
        assert prof.lanes.blocks == 1
        assert prof.lanes.mean_distances.sum() == 0

    def test_lane_profile_detects_outlier_lane(self):
        prof = Profiler(reg_sample_every=1)
        block = np.zeros(32, dtype=np.uint32)
        block[0] = 0xFFFFFFFF
        for _ in range(4):
            prof.on_reg_block(block, None)
        assert prof.lanes.mean_distances[0] > prof.lanes.mean_distances[5]
        assert prof.lanes.optimal_lane != 0

    def test_sampling_period(self):
        prof = Profiler(reg_sample_every=4)
        for _ in range(8):
            prof.on_reg_block(np.zeros(32, dtype=np.uint32), None)
        assert prof.lanes.blocks == 2

    def test_row_blocks_match_single_blocks(self):
        """(rows, 32) write-backs sample and sum exactly as the same
        rows fed one at a time, across calls of any length."""
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2**32, (150, 32), dtype=np.uint32)
        single, batched = Profiler(), Profiler()
        for row in rows:
            single.on_reg_block(row)
        for part in np.split(rows, [3, 4, 90]):
            batched.on_reg_block(part)
        assert batched.lanes.blocks == single.lanes.blocks == 37
        assert np.array_equal(batched.lanes.distance_sums,
                              single.lanes.distance_sums)

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            Profiler(reg_sample_every=0)

    def test_pivot_excess_at_least_one(self):
        prof = Profiler(reg_sample_every=1)
        rng = np.random.default_rng(3)
        for _ in range(8):
            prof.on_reg_block(
                rng.integers(0, 2**32, 32, dtype=np.uint32), None)
        assert prof.lanes.pivot_excess(21) >= 1.0

    def test_normalized_curve_starts_at_one(self):
        prof = Profiler(reg_sample_every=1)
        rng = np.random.default_rng(3)
        prof.on_reg_block(rng.integers(0, 2**32, 32, dtype=np.uint32), None)
        assert prof.lanes.normalized()[0] == pytest.approx(1.0)


class TestISAProfile:
    def test_profile_counts_and_mask(self):
        binaries = {
            "a": np.array([0xF000000000000000] * 3, dtype=np.uint64),
            "b": np.array([0x0000000000000001], dtype=np.uint64),
        }
        profile = profile_binaries(binaries)
        assert profile.instruction_count == 4
        assert profile.mask == 0xF000000000000000
        assert profile.positions_preferring_zero == 60

    def test_encoded_fraction_improves(self):
        rng = np.random.default_rng(0)
        corpus = (rng.integers(0, 1 << 12, 500).astype(np.uint64))
        profile = profile_binaries({"x": corpus})
        assert profile.encoded_one_fraction(corpus) > \
            profile.baseline_one_fraction(corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            profile_binaries({})

    def test_empty_binary_fractions(self):
        profile = profile_binaries({"x": np.array([1], dtype=np.uint64)})
        empty = np.array([], dtype=np.uint64)
        assert profile.encoded_one_fraction(empty) == 0.0


class TestTallyAndEncoders:
    def test_access_counts_accumulate(self):
        c = AccessCounts()
        c.add(False, 10, 22)
        c.add(True, 5, 27)
        assert (c.read0, c.read1, c.write0, c.write1) == (10, 22, 5, 27)
        assert c.total_bits == 64
        assert c.one_fraction == pytest.approx(49 / 64)

    def test_tally_merge(self):
        a, b = Tally(), Tally()
        a.add(Unit.REG, "base", False, 1, 2)
        b.add(Unit.REG, "base", False, 3, 4)
        b.add(Unit.L2, "ALL", True, 5, 6)
        a.merge(b)
        assert a.get(Unit.REG, "base").read1 == 6
        assert a.get(Unit.L2, "ALL").write0 == 5

    def test_tally_merge_copies_counts(self):
        """Adding to a merged tally leaves the source tally untouched."""
        a, b = Tally(), Tally()
        b.add(Unit.REG, "base", False, 1, 2)
        a.merge(b)
        a.add(Unit.REG, "base", False, 10, 10)
        assert b.get(Unit.REG, "base").as_dict() == {
            "read0": 1, "read1": 2, "write0": 0, "write1": 0}
        assert a.get(Unit.REG, "base").read0 == 11

    def test_encoders_variant_consistency(self):
        enc = Encoders(isa_mask=0x00FF)
        words = np.arange(32, dtype=np.uint32)
        variants = enc.data_variants(Unit.REG, words, "warp")
        assert set(variants) == {"base", "NV", "VS", "ISA", "ALL"}
        assert np.array_equal(variants["ISA"], variants["base"])

    def test_sme_vs_is_base(self):
        enc = Encoders(isa_mask=0)
        words = np.arange(32, dtype=np.uint32)
        variants = enc.data_variants(Unit.SME, words, "warp")
        assert np.array_equal(variants["VS"], variants["base"])
        assert np.array_equal(variants["ALL"], variants["NV"])

    def test_tally_data_counts_active_only(self):
        tally = Tally()
        batch = TallyBatch(Encoders(isa_mask=0), tally)
        active = np.zeros(32, dtype=bool)
        active[:4] = True
        batch.add_warp(Unit.REG, np.zeros(32, dtype=np.uint32), active,
                       is_store=True)
        batch.flush()
        assert tally.get(Unit.REG, "base").total_bits == 4 * 32

    def test_tally_inst(self):
        # An all-zero mask XNORs an all-zero word to all ones.
        tally = Tally()
        batch = TallyBatch(Encoders(isa_mask=0), tally)
        batch.add_inst(Unit.IFB, np.array([0], dtype=np.uint64),
                       is_store=False)
        batch.flush()
        assert tally.get(Unit.IFB, "base").read1 == 0
        assert tally.get(Unit.IFB, "ISA").read1 == 64


class TestAppStats:
    def _stats(self, **kw):
        defaults = dict(app_name="x", cycles=700, used_sms=2,
                        freq_mhz=700, instructions=1120)
        defaults.update(kw)
        return AppStats(**defaults)

    def test_runtime(self):
        s = self._stats()
        assert s.runtime_s == pytest.approx(1e-6)

    def test_active_runtime_uses_ipc(self):
        s = self._stats()
        expected = 1120 / 2 / AppStats.TARGET_IPC / 700e6
        assert s.active_runtime_s == pytest.approx(expected)

    def test_footprint_default(self):
        assert self._stats().footprint(Unit.REG) == 1.0

    def test_noc_rate_empty(self):
        assert self._stats().noc_toggle_rate("base") == 0.0

    def test_memory_intensity(self):
        s = self._stats(dram_accesses=10,
                        lane_ops_by_class={"alu": 1000})
        assert s.memory_intensity() == pytest.approx(10.0)
