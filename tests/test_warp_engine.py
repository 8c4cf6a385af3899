"""Tests for the SIMT warp context and the functional engine."""

import numpy as np
import pytest

from repro.arch import (BARRIER, Encoders, GlobalMemory, Launch, Tally,
                        run_functional)
from repro.core.spaces import Unit
from repro.analysis.profiling import Profiler
from repro.arch.trace import MemSpace
from repro.core.bitutils import bits_to_float


def run_one(body, n_blocks=1, warps_per_block=1, shared_bytes=0,
            mem=None, name="k", profiler=None):
    mem = mem or GlobalMemory(size_bytes=1 << 20)
    enc = Encoders(isa_mask=0)
    result = run_functional("test", mem,
                            [Launch(name, body, n_blocks, warps_per_block,
                                    shared_bytes)], enc, profiler=profiler)
    return mem, result


class TestArithmetic:
    def test_iadd(self):
        out = {}

        def body(w):
            out["r"] = w.iadd(w.const(5), w.const(7))
        run_one(body)
        assert (out["r"].values == 12).all()

    def test_integer_wraparound(self):
        out = {}

        def body(w):
            out["r"] = w.iadd(w.const(0xFFFFFFFF), w.const(1))
        run_one(body)
        assert (out["r"].values == 0).all()

    def test_negative_scalar_operand(self):
        out = {}

        def body(w):
            out["r"] = w.iadd(w.const(10), -3)
        run_one(body)
        assert (out["r"].values == 7).all()

    def test_float_ops(self):
        out = {}

        def body(w):
            a = w.fconst(1.5)
            out["r"] = w.ffma(a, w.fconst(2.0), w.fconst(0.25))
        run_one(body)
        assert bits_to_float(out["r"].values)[0] == pytest.approx(3.25)

    def test_frcp_of_zero_does_not_crash(self):
        def body(w):
            w.frcp(w.fconst(0.0))
        run_one(body)

    def test_shift_ops(self):
        out = {}

        def body(w):
            out["l"] = w.shl(w.const(1), 4)
            out["r"] = w.shr(w.const(256), 4)
        run_one(body)
        assert (out["l"].values == 16).all()
        assert (out["r"].values == 16).all()

    def test_clz_matches_bitutils(self):
        out = {}

        def body(w):
            out["r"] = w.clz(w.const(1))
        run_one(body)
        assert (out["r"].values == 31).all()

    def test_signed_min_max(self):
        out = {}

        def body(w):
            out["min"] = w.imin(w.const(-5 & 0xFFFFFFFF), w.const(3))
            out["max"] = w.imax(w.const(-5 & 0xFFFFFFFF), w.const(3))
        run_one(body)
        assert (out["min"].values.view(np.int32) == -5).all()
        assert (out["max"].values == 3).all()

    def test_lane_id_values(self):
        out = {}

        def body(w):
            out["lane"] = w.lane_id()
        run_one(body, warps_per_block=2)
        assert out["lane"].values.tolist() == [list(range(32))] * 2

    def test_global_thread_idx(self):
        seen = []

        def body(w):
            seen.extend(w.global_thread_idx().values[:, 0].tolist())
        run_one(body, n_blocks=2, warps_per_block=2)
        assert seen == [0, 32, 64, 96]


class TestDivergence:
    def test_masked_store(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        buf = mem.alloc(32 * 4, "out")

        def body(w):
            lane = w.lane_id()
            addr = w.iadd(w.imul(lane, 4), buf.base)
            pred = w.setp_lt(lane, w.const(16))
            with w.diverge(pred):
                w.st_global(addr, w.const(1))
        run_one(body, mem=mem)
        vals = mem.to_numpy(buf)
        assert vals[:16].tolist() == [1] * 16
        assert vals[16:].sum() == 0

    def test_select_merges_branches(self):
        out = {}

        def body(w):
            lane = w.lane_id()
            pred = w.setp_lt(lane, w.const(8))
            with w.diverge(pred):
                doubled = w.imul(lane, 2)
            out["r"] = w.select(pred, doubled, lane)
        run_one(body)
        vals = out["r"].values[0]
        assert vals[:8].tolist() == [x * 2 for x in range(8)]
        assert vals[8:].tolist() == list(range(8, 32))

    def test_nested_divergence(self):
        out = {}

        def body(w):
            lane = w.lane_id()
            outer = w.setp_lt(lane, w.const(16))
            with w.diverge(outer):
                inner = w.setp_lt(lane, w.const(8))
                with w.diverge(inner):
                    out["inner_mask"] = w.active.copy()
                out["outer_mask"] = w.active.copy()
        run_one(body)
        assert out["inner_mask"].sum() == 8
        assert out["outer_mask"].sum() == 16


class TestMemoryOps:
    def test_load_store_roundtrip(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        src = mem.alloc_array(np.arange(32, dtype=np.uint32), "src")
        dst = mem.alloc(32 * 4, "dst")

        def body(w):
            addr = w.iadd(w.imul(w.lane_id(), 4), src.base)
            v = w.ld_global(addr)
            w.st_global(w.iadd(w.imul(w.lane_id(), 4), dst.base), v)
        run_one(body, mem=mem)
        assert np.array_equal(mem.to_numpy(dst), np.arange(32))

    def test_shared_memory_roundtrip(self):
        out = {}

        def body(w):
            off = w.imul(w.lane_id(), 4)
            w.st_shared(off, w.lane_id())
            yield w.barrier()
            swapped = w.imul(w.ixor(w.lane_id(), w.const(1)), 4)
            out["r"] = w.ld_shared(swapped)
        run_one(body, shared_bytes=32 * 4)
        vals = out["r"].values[0]
        assert vals[0] == 1 and vals[1] == 0

    def test_store_records_data_in_trace(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        dst = mem.alloc(32 * 4, "dst")

        def body(w):
            w.st_global(w.iadd(w.imul(w.lane_id(), 4), dst.base),
                        w.const(0xAB))
        mem, result = run_one(body, mem=mem)
        stores = [r.mem for b in result.trace.launches[0].blocks
                  for wt in b.warps for r in wt.records
                  if r.mem and r.mem.is_store]
        assert len(stores) == 1
        assert (stores[0].data == 0xAB).all()
        assert stores[0].space is MemSpace.GLOBAL

    def test_const_and_tex_spaces(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        buf = mem.alloc_array(np.arange(32, dtype=np.uint32), "c")

        def body(w):
            addr = w.iadd(w.imul(w.lane_id(), 4), buf.base)
            w.ld_const(addr)
            w.ld_tex(addr)
        mem, result = run_one(body, mem=mem)
        spaces = [r.mem.space for b in result.trace.launches[0].blocks
                  for wt in b.warps for r in wt.records if r.mem]
        assert spaces == [MemSpace.CONST, MemSpace.TEX]


class TestStaticProgram:
    def test_loop_reuses_pc(self):
        def body(w):
            acc = w.const(0)
            for _ in range(10):
                acc = w.iadd(acc, 1)
        mem, result = run_one(body)
        launch = result.trace.launches[0]
        # 1 const + 1 static iadd site, 11 dynamic records.
        assert len(launch.static_words) == 2
        assert launch.dynamic_instructions == 11

    def test_warps_share_static_binary(self):
        def body(w):
            w.iadd(w.const(1), 2)
        mem, result = run_one(body, n_blocks=2, warps_per_block=4)
        assert len(result.trace.launches[0].static_words) == 2

    def test_binary_patched_into_memory(self):
        def body(w):
            w.iadd(w.const(1), 2)
        mem, result = run_one(body)
        launch = result.trace.launches[0]
        stored = mem.read_u64(launch.code_base)
        assert stored == launch.static_words[0]

    def test_static_binary_concatenation(self):
        def body(w):
            w.const(3)
        mem, result = run_one(body)
        assert result.trace.static_binary.dtype == np.uint64


class TestBarriers:
    def test_barrier_synchronises_rounds(self):
        """After the barrier every warp reads the shared-memory words
        every warp stored before it."""
        seen = []

        def body(w):
            tid = w.thread_idx()
            w.st_shared(w.imul(tid, 4), w.iadd(tid, 1))
            yield w.barrier()
            lane = w.lane_id()
            for src in range(3):
                word = w.ld_shared(w.imul(w.iadd(lane, 32 * src), 4))
                seen.append(word.values)
        run_one(body, warps_per_block=3, shared_bytes=96 * 4)
        for src, values in enumerate(seen):
            assert values.shape == (3, 32)
            assert (values == np.arange(32) + 32 * src + 1).all()

    def test_profiler_sees_write_backs_in_warp_serial_order(self):
        """Each barrier round's register write-backs reach the lane
        profiler warp by warp, each warp's in issue order."""
        regs = []

        def body(w):
            tid = w.thread_idx()
            regs.append(w.iadd(tid, 1))
            regs.append(w.imul(tid, 3))
            regs.append(w.shl(tid, 7))
            yield w.barrier()
            regs.append(w.ixor(tid, 0x55))
        profiler = Profiler(reg_sample_every=2)
        run_one(body, warps_per_block=2, profiler=profiler)
        expected = Profiler(reg_sample_every=2)
        for round_regs in (regs[:3], regs[3:]):
            for warp in range(2):
                for reg in round_regs:
                    expected.on_reg_block(reg.values[warp])
        assert profiler.lanes.blocks == expected.lanes.blocks == 4
        assert np.array_equal(profiler.lanes.distance_sums,
                              expected.lanes.distance_sums)

    def test_barrier_records_in_trace(self):
        def body(w):
            yield w.barrier()
        mem, result = run_one(body)
        records = result.trace.launches[0].blocks[0].warps[0].records
        assert any(r.is_barrier for r in records)

    def test_invalid_yield_rejected(self):
        def body(w):
            yield "not-a-barrier"
        with pytest.raises(RuntimeError, match="non-barrier"):
            run_one(body)


class TestLockstepRaces:
    """A block's warps run each instruction together, in warp order
    within the instruction."""

    def test_load_misses_a_later_store_by_another_warp(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        word = mem.alloc_array(np.array([5], dtype=np.uint32), "word")
        seen = mem.alloc(64 * 4, "seen")

        def body(w):
            tid = w.thread_idx()
            with w.diverge(w.setp_ge(tid, w.const(32))):      # warp 1
                old = w.ld_global(w.const(word.base))
                w.st_global(w.iadd(w.imul(tid, 4), seen.base), old)
            with w.diverge(w.setp_lt(tid, w.const(32))):      # warp 0
                w.st_global(w.const(word.base), w.const(7))
        run_one(body, warps_per_block=2, mem=mem)
        assert mem.to_numpy(seen)[32:].tolist() == [5] * 32
        assert mem.to_numpy(word)[0] == 7

    def test_duplicate_store_keeps_highest_warp(self):
        mem = GlobalMemory(size_bytes=1 << 20)
        out = mem.alloc(4, "out")

        def body(w):
            warp = w.shr(w.thread_idx(), 5)
            w.st_global(w.const(out.base), warp)
        run_one(body, warps_per_block=3, mem=mem)
        assert mem.to_numpy(out)[0] == 2


class TestRegTally:
    def test_register_traffic_counted(self):
        def body(w):
            w.iadd(w.const(1), w.const(2))
        mem, result = run_one(body)
        counts = result.tally.get(Unit.REG, "base")
        assert counts.write0 + counts.write1 == 3 * 32 * 32
        assert counts.read0 + counts.read1 == 2 * 32 * 32

    def test_all_variant_has_more_ones(self):
        def body(w):
            w.iadd(w.const(1), w.const(2))   # narrow values
        mem, result = run_one(body)
        base = result.tally.get(Unit.REG, "base")
        enc = result.tally.get(Unit.REG, "ALL")
        assert enc.one_fraction > base.one_fraction

    def test_sme_tally_nv_only(self):
        def body(w):
            w.st_shared(w.imul(w.lane_id(), 4), w.const(2))
        mem, result = run_one(body, shared_bytes=128)
        base = result.tally.get(Unit.SME, "base")
        nv = result.tally.get(Unit.SME, "NV")
        vs = result.tally.get(Unit.SME, "VS")
        assert nv.one_fraction > base.one_fraction
        assert vs.write1 == base.write1      # VS space excludes SME
