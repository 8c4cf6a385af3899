"""Integration tests for the replay engine (caches + NoC + timing)."""

import numpy as np
import pytest

from repro.arch import (BASELINE_CONFIG, Encoders, GPUReplay, GlobalMemory,
                        Launch, run_functional)
from repro.arch.config import GPUConfig
from repro.arch.gpu import _SM, _SPACE_UNIT
from repro.arch.isa import OpClass
from repro.arch.trace import (AppTrace, BlockTrace, InstRecord, LaunchTrace,
                              WarpTrace)
from repro.core.spaces import Unit


def simulate(body, n_blocks=2, warps_per_block=2, config=BASELINE_CONFIG,
             setup=None, shared_bytes=0):
    mem = GlobalMemory(size_bytes=1 << 20)
    buffers = setup(mem) if setup else {}
    enc = Encoders(isa_mask=0)
    func = run_functional(
        "t", mem,
        [Launch("k", lambda w: body(w, buffers), n_blocks, warps_per_block,
                shared_bytes)],
        enc)
    replay = GPUReplay(config, enc).run(func.trace)
    return func, replay, buffers


def streaming_setup(mem):
    data = np.arange(4096, dtype=np.uint32)
    return {"src": mem.alloc_array(data, "src"),
            "dst": mem.alloc(4096 * 4, "dst")}


def streaming_body(w, bufs):
    gid = w.global_thread_idx()
    addr = w.iadd(w.imul(gid, 4), bufs["src"].base)
    v = w.ld_global(addr)
    w.st_global(w.iadd(w.imul(gid, 4), bufs["dst"].base), v)


class TestReplayBasics:
    def test_all_instructions_replayed(self):
        func, replay, _ = simulate(streaming_body, setup=streaming_setup)
        assert replay.timing.instructions == func.trace.dynamic_instructions

    def test_cycles_positive_and_bounded(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        assert 0 < replay.timing.cycles < 10_000_000

    def test_used_sms_matches_blocks(self):
        _, replay, _ = simulate(streaming_body, n_blocks=3,
                                setup=streaming_setup)
        assert replay.timing.used_sms == 3

    def test_coalesced_load_one_line_per_warp(self):
        _, replay, _ = simulate(streaming_body, n_blocks=1,
                                warps_per_block=4, setup=streaming_setup)
        # 4 warps x 1 coalesced load line + 4 store-invalidate probes.
        assert replay.timing.l1d_accesses == 8

    def test_repeated_loads_hit(self):
        def body(w, bufs):
            addr = w.iadd(w.imul(w.global_thread_idx(), 4),
                          bufs["src"].base)
            for _ in range(4):
                w.ld_global(addr)
        _, replay, _ = simulate(body, setup=streaming_setup)
        assert replay.timing.l1d_hit_rate >= 0.7

    def test_footprints_recorded(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        assert 0 < replay.footprints[Unit.REG] <= 1.0
        assert 0 < replay.footprints[Unit.L2] <= 1.0

    def test_dram_touched_on_cold_misses(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        assert replay.dram_accesses > 0

    def test_stores_update_replay_image(self):
        """Replay applies stores in scheduler order; loads observe them."""
        def body(w, bufs):
            gid = w.global_thread_idx()
            addr = w.iadd(w.imul(gid, 4), bufs["dst"].base)
            w.st_global(addr, w.iadd(gid, 100))
            v = w.ld_global(addr)
        func, replay, _ = simulate(body, setup=streaming_setup)
        # The loaded line content after the store must include stored
        # bits; verify the L1D tally saw nonzero ones from 100+gid.
        counts = replay.tally.get(Unit.L1D, "base")
        assert counts.read1 > 0


class TestReplayTallies:
    def test_instruction_units_tallied(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        for unit in (Unit.L1I, Unit.IFB):
            counts = replay.tally.get(unit, "base")
            assert counts.total_bits > 0

    def test_isa_variant_only_affects_instruction_units(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        l1d_base = replay.tally.get(Unit.L1D, "base")
        l1d_isa = replay.tally.get(Unit.L1D, "ISA")
        assert l1d_base.read1 == l1d_isa.read1
        ifb_base = replay.tally.get(Unit.IFB, "base")
        ifb_isa = replay.tally.get(Unit.IFB, "ISA")
        assert ifb_base.total_bits == ifb_isa.total_bits

    def test_l2_sees_line_granularity(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        counts = replay.tally.get(Unit.L2, "base")
        assert counts.total_bits % 1024 == 0   # multiples of 128B lines

    def test_noc_flits_emitted(self):
        _, replay, _ = simulate(streaming_body, setup=streaming_setup)
        assert replay.noc.stats.flits > 0
        assert replay.noc.control_flits > 0


class TestSchedulerEffects:
    def _run(self, scheduler):
        config = BASELINE_CONFIG.with_scheduler(scheduler)
        def body(w, bufs):
            gid = w.global_thread_idx()
            for i in range(4):
                addr = w.iadd(w.imul(gid, 4),
                              bufs["src"].base + i * 512)
                w.ld_global(addr)
        return simulate(body, n_blocks=1, warps_per_block=8,
                        config=config, setup=streaming_setup)[1]

    def test_all_schedulers_complete(self):
        counts = {s: self._run(s).timing.instructions
                  for s in ("gto", "lrr", "two_level")}
        assert len(set(counts.values())) == 1   # same work either way

    def test_schedulers_change_interleaving(self):
        gto = self._run("gto")
        lrr = self._run("lrr")
        # Different issue orders leave different cycle counts or NoC
        # toggle patterns.
        assert (gto.timing.cycles != lrr.timing.cycles
                or gto.noc.toggles["base"] != lrr.noc.toggles["base"])


class TestBarrierReplay:
    def test_barrier_app_completes(self):
        def body(w):
            off = w.imul(w.thread_idx(), 4)
            w.st_shared(off, w.thread_idx())
            yield w.barrier()
            w.ld_shared(off)
        mem = GlobalMemory(size_bytes=1 << 20)
        enc = Encoders(isa_mask=0)
        func = run_functional(
            "t", mem, [Launch("k", body, 2, 4, shared_bytes=4 * 128)], enc)
        replay = GPUReplay(BASELINE_CONFIG, enc).run(func.trace)
        assert replay.timing.instructions == func.trace.dynamic_instructions


    @staticmethod
    def _alu(pc, barrier=False):
        return InstRecord(pc, 0x1000 + pc, OpClass.ALU, 32,
                          is_barrier=barrier)

    def test_counters_release_when_every_live_warp_waits(self):
        """A warp that finishes at a barrier stops counting as waiting,
        and the barrier opens when the block's other live warps all
        wait."""
        sm = _SM(0, BASELINE_CONFIG)
        sm.block_queue.append(("b0", [[self._alu(0)]] * 3))
        sm.admit_blocks()
        w0, w1, w2 = sm.warps
        sm.cycle = 40
        sm.arrive(w0)
        sm.retire(w0)
        sm.release_barrier("b0")
        assert sm.barrier_waits["b0"] == 0
        sm.arrive(w1)
        assert w1.at_barrier
        sm.arrive(w2)
        assert not w1.at_barrier and not w2.at_barrier
        assert w1.ready_at == w2.ready_at == 45
        assert w0.at_barrier and w0.done

    def test_warp_ending_on_a_barrier(self):
        """Pinned: one warp's stream ends on the barrier the others
        still have to reach."""
        alu = self._alu
        warps = [WarpTrace(0, 0, [alu(0), alu(1, True)]),
                 WarpTrace(0, 1, [alu(0), alu(2), alu(3), alu(1, True),
                                  alu(4)]),
                 WarpTrace(0, 2, [alu(0), alu(1, True), alu(4)])]
        launch = LaunchTrace("k", code_base=0,
                             static_words=[0x1000 + i for i in range(5)],
                             blocks=[BlockTrace(0, warps)])
        trace = AppTrace("t", [launch],
                         initial_image=np.zeros(1 << 12, dtype=np.uint8))
        for scheduler in ("gto", "lrr", "two_level"):
            replay = GPUReplay(BASELINE_CONFIG.with_scheduler(scheduler),
                               Encoders(isa_mask=0)).run(trace)
            assert (replay.timing.instructions,
                    replay.timing.cycles) == (10, 569)


def oracle_load(self, state, sm, rec, now):
    """The per-line method-call load that the fused line loop replaced,
    pinned: ``Cache.lookup``/``fill``, ``MSHRFile.acquire``,
    ``_l2_access`` and one ``send_request``/``send_response`` per
    line."""
    cfg = self.config
    mem, tally, noc, l2_banks, dram, timing = state
    plan = self._plan.get(rec)
    if plan is None:
        return cfg.lat_alu
    line_list, __, touched, line_rows = plan
    acc = rec.mem
    unit = _SPACE_UNIT[acc.space]
    l1 = sm.l1_for(acc.space)
    rows = self._array_read(line_rows)
    missed, banks, l2_missed = [], [], []
    worst = 0
    for j, line_addr in enumerate(line_list):
        hit = l1.lookup(line_addr)
        if unit is Unit.L1D:
            timing.l1d_accesses += 1
        if hit:
            worst = max(worst, cfg.lat_l1_hit)
            continue
        if unit is Unit.L1D:
            timing.l1d_misses += 1
        start = sm.mshrs.acquire(now, cfg.lat_l2_hit)
        bank = noc.bank_of(line_addr, cfg.l2_line_bytes)
        noc.send_request(sm.index, bank, line_addr)
        l2_latency, l2_hit = self._l2_access(state, line_addr, False, start)
        if not l2_hit:
            l2_missed.append(j)
        l1.fill(line_addr)
        missed.append(j)
        banks.append(bank)
        worst = max(worst, (start - now) + l2_latency + cfg.lat_l1_hit)
    batch = self._batch
    if missed:
        sent = rows[missed]
        for bank, line in zip(banks, sent):
            noc.send_response(sm.index, bank, line)
        if l2_missed:
            batch.add_line(Unit.L2, rows[l2_missed], True)
        batch.add_line(Unit.L2, sent, False)
        batch.add_line(unit, sent, True)
    batch.add_line(unit, rows, False, touched)
    return max(worst, cfg.lat_l1_hit)


class TestFusedLoadMatchesMethodPath:
    @pytest.mark.parametrize("name", ["ATA", "GES"])
    @pytest.mark.parametrize("scheduler", ["gto", "two_level"])
    def test_same_replay_under_a_thrashing_hierarchy(self, name, scheduler,
                                                     monkeypatch):
        """A 12 KB, 4-way L2, a 4 KB L1D and four MSHRs make L2 LRU
        order, dirty writebacks and full MSHRs matter; the fused loop
        and the method path measure the same replay."""
        import dataclasses
        from repro.kernels import get_app
        from repro.sim import _functional_pass

        config = dataclasses.replace(
            BASELINE_CONFIG.with_scheduler(scheduler), l2_kb=12,
            l2_assoc=4, l1d_kb=4, mshrs_per_sm=4)
        trace = _functional_pass(get_app(name), 21)[0].trace

        def measure():
            result = GPUReplay(config, Encoders(isa_mask=0)).run(trace)
            return (result.tally.counts, result.noc.stats.toggles,
                    result.noc.stats.flits, result.noc.packets,
                    result.noc.control_flits,
                    dataclasses.asdict(result.timing),
                    {k: v.to_dict() for k, v in result.cache_stats.items()},
                    result.dram_accesses, result.footprints)

        fused = measure()
        monkeypatch.setattr(GPUReplay, "_load", oracle_load)
        assert measure() == fused
        assert fused[6]["l2"]["evictions"] > 0


class TestCapacitySensitivity:
    def test_bigger_l1_hits_more(self):
        import dataclasses
        small = dataclasses.replace(BASELINE_CONFIG, l1d_kb=2)
        big = dataclasses.replace(BASELINE_CONFIG, l1d_kb=64)

        def body(w, bufs):
            gid = w.global_thread_idx()
            for i in range(6):
                # Strided re-walk: thrashes a tiny L1, fits a big one.
                addr = w.iadd(w.imul(gid, 128), bufs["src"].base)
                w.ld_global(w.iadd(addr, (i % 3) * 32))
        small_res = simulate(body, config=small, setup=streaming_setup)[1]
        big_res = simulate(body, config=big, setup=streaming_setup)[1]
        assert big_res.timing.l1d_hit_rate >= small_res.timing.l1d_hit_rate


class TestReplayLoopWork:
    """The schedule loop encodes and tallies only what it uses."""

    @pytest.mark.parametrize("name", ["ATA", "VEC"])
    def test_encodes_sent_lines_and_books_stream_in_bulk(self, name,
                                                         monkeypatch):
        """No access encodes: every encoder call comes from a crossbar
        drain (at most one per packet stream, data and instructions) or
        a tally flush (one per key and chunk)."""
        from repro.arch.stats import TallyBatch
        from repro.kernels import get_app
        from repro.sim import _functional_pass

        functional, __ = _functional_pass(get_app(name), 21)
        counts = {"encodes": 0, "tally_flushes": 0, "missed_loads": 0,
                  "add_inst": 0}
        real_load = GPUReplay._load
        real_add_inst = TallyBatch.add_inst

        def counted(real, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return wrapper

        def load(self, state, sm, rec, now):
            l1 = sm.l1_for(rec.mem.space)
            misses = l1.stats.misses
            latency = real_load(self, state, sm, rec, now)
            counts["missed_loads"] += l1.stats.misses > misses
            return latency

        for method in ("data_variants", "data_variant_blocks",
                       "inst_variants"):
            monkeypatch.setattr(Encoders, method,
                                counted(getattr(Encoders, method),
                                        "encodes"))
        for method in ("_tally_data", "_tally_inst"):
            monkeypatch.setattr(TallyBatch, method,
                                counted(getattr(TallyBatch, method),
                                        "tally_flushes"))
        monkeypatch.setattr(GPUReplay, "_load", load)
        monkeypatch.setattr(TallyBatch, "add_inst",
                            counted(real_add_inst, "add_inst"))
        replay = GPUReplay(BASELINE_CONFIG,
                           Encoders(isa_mask=0)).run(functional.trace)

        assert counts["missed_loads"] > 0 and replay.noc.drains > 0
        assert counts["encodes"] <= (2 * replay.noc.drains
                                     + counts["tally_flushes"])
        assert counts["add_inst"] < replay.timing.instructions / 10

    def test_stream_tallies_do_not_depend_on_chunk_size(self, monkeypatch):
        """The per-launch instruction-stream booking and every other
        deferred tally give the same counts at any flush bound."""
        import repro.arch.stats as stats_mod
        from repro.kernels import get_app
        from repro.sim import _functional_pass

        trace = _functional_pass(get_app("VEC"), 21)[0].trace
        encoders = Encoders(isa_mask=0x0F0F0F0F0F0F0F0F)
        default = GPUReplay(BASELINE_CONFIG, encoders).run(trace)
        monkeypatch.setattr(stats_mod, "FLUSH_ROWS", 7)
        small = GPUReplay(BASELINE_CONFIG, encoders).run(trace)
        assert default.tally.get(Unit.IFB, "ISA").total_bits > 0
        assert small.tally.counts == default.tally.counts
