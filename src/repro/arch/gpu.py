"""Phase-2 replay: scheduler-driven simulation of the memory hierarchy.

Replays the per-warp instruction streams recorded by the functional
engine through instruction fetch (IFB + L1I), the L1 data/constant/
texture caches, the crossbar NoC, the banked L2 and DRAM, under a
selectable warp scheduler. This is where every scheduling-order-
dependent statistic is produced: cache hit/miss behaviour, line-
granularity fill traffic, per-channel NoC flit sequences (toggles) and
coarse timing.

SMs progress in global timestamp order (the SM with the smallest local
cycle steps next), so shared structures — L2 banks, DRAM channels, NoC
channels — observe a realistic cross-SM interleaving.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .cache import Cache, CacheStats, MSHRFile
from .config import GPUConfig
from .dram import DRAMSystem
from .isa import OpClass
from .memory import GlobalMemory
from .noc import Crossbar
from .scheduler import WarpSlot, make_scheduler
from .stats import (VARIANTS, Encoders, Tally, TallyBatch, TimingStats,
                    flush_chunks)
from .trace import AppTrace, InstRecord, MemSpace
from ..core.spaces import Unit
from ..obs.tracer import trace_span

__all__ = ["ReplayResult", "GPUReplay"]

_SPACE_UNIT = {
    MemSpace.GLOBAL: Unit.L1D,
    MemSpace.CONST: Unit.L1C,
    MemSpace.TEX: Unit.L1T,
}


@dataclass
class ReplayResult:
    """Everything phase 2 measured for one application."""

    tally: Tally
    noc: Crossbar
    timing: TimingStats
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    dram_accesses: int = 0
    #: fraction of each unit's capacity the workload actually touched
    #: (used for footprint-gated leakage accounting).
    footprints: Dict[Unit, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.timing.cycles


class _WarpStream(WarpSlot):
    """A warp slot bound to its recorded instruction stream."""

    __slots__ = ("records", "ptr")

    def __init__(self, uid: int, age: int, block_key,
                 records: List[InstRecord]):
        super().__init__(uid, age, block_key)
        self.records = records
        self.ptr = 0

    def peek(self) -> Optional[InstRecord]:
        if self.ptr < len(self.records):
            return self.records[self.ptr]
        return None


class _SM:
    """Replay state of one streaming multiprocessor."""

    def __init__(self, index: int, config: GPUConfig):
        self.index = index
        self.config = config
        self.cycle = 0
        self.scheduler = make_scheduler(config.scheduler,
                                        config.two_level_active_warps)
        line = config.l1_line_bytes
        self.l1i = Cache(f"sm{index}.l1i", config.l1i_kb, line,
                         config.l1i_assoc)
        self.l1d = Cache(f"sm{index}.l1d", config.l1d_kb, line,
                         config.l1d_assoc)
        self.l1c = Cache(f"sm{index}.l1c", config.l1c_kb, line,
                         config.l1c_assoc)
        self.l1t = Cache(f"sm{index}.l1t", config.l1t_kb, line,
                         config.l1t_assoc)
        self.mshrs = MSHRFile(config.mshrs_per_sm)
        self.warps: List[_WarpStream] = []
        self.block_queue: deque = deque()
        self._next_uid = 0
        self._next_age = 0
        self.max_resident_warps = 0
        self.max_resident_blocks = 0

    def l1_for(self, space: MemSpace) -> Cache:
        if space is MemSpace.GLOBAL:
            return self.l1d
        if space is MemSpace.CONST:
            return self.l1c
        if space is MemSpace.TEX:
            return self.l1t
        raise ValueError(f"no L1 for space {space}")

    # -- block residency -------------------------------------------------

    def admit_blocks(self) -> None:
        cfg = self.config
        while self.block_queue:
            resident_blocks = len({w.block_key for w in self.warps
                                   if not w.done})
            resident_warps = sum(1 for w in self.warps if not w.done)
            block_key, warp_records = self.block_queue[0]
            if resident_blocks >= cfg.max_blocks_per_sm:
                break
            if resident_warps + len(warp_records) > cfg.warps_per_sm:
                if resident_warps > 0:
                    break
            self.block_queue.popleft()
            for records in warp_records:
                slot = _WarpStream(self._next_uid, self._next_age,
                                   block_key, records)
                slot.ready_at = self.cycle
                self._next_uid += 1
                self._next_age += 1
                self.warps.append(slot)
            live = [w for w in self.warps if not w.done]
            self.max_resident_warps = max(self.max_resident_warps, len(live))
            self.max_resident_blocks = max(
                self.max_resident_blocks, len({w.block_key for w in live})
            )

    def prune_done(self) -> None:
        if len(self.warps) > 2 * self.config.warps_per_sm:
            self.warps = [w for w in self.warps if not w.done]

    @property
    def finished(self) -> bool:
        return not self.block_queue and all(w.done for w in self.warps)


class GPUReplay:
    """Replays an :class:`~repro.arch.trace.AppTrace` on a GPU config.

    Every access that reads the arrays (a load, or an instruction-fetch
    miss) reads its distinct lines once, through :meth:`_array_read`;
    that one block serves all of the access's tallies and NoC payloads.

    The schedule loop does only what the schedule decides. Each access
    books its tallies once, after its lines are resolved, and a load
    encodes only the lines it sends. Every record is fetched exactly
    once, so the instruction stream's IFB and L1I reads are booked per
    launch, from the launch's words, after its schedule drains.
    """

    def __init__(self, config: GPUConfig, encoders: Encoders,
                 fault_model=None):
        self.config = config
        self.encoders = encoders
        #: optional :class:`repro.faults.FaultModel`: it corrupts each
        #: access's array read and the NoC's data flits.
        self.fault_model = fault_model
        self._batch: Optional[TallyBatch] = None

    # ------------------------------------------------------------------
    # Line helpers
    # ------------------------------------------------------------------

    def _array_read(self, mem: GlobalMemory, line_list) -> np.ndarray:
        """One access's array read: its distinct lines as one ``(lines,
        words)`` uint32 block, which serves every tally and NoC payload
        of the access. A fault model corrupts the block in one draw, and
        the damage is written back: read disturbance is destructive."""
        line_bytes = self.config.l1_line_bytes
        addrs = np.asarray(line_list, dtype=np.int64)
        rows = mem.read_lines(addrs, line_bytes)
        if self.fault_model is not None:
            rows = self.fault_model.corrupt_line(rows)
            mem.image[addrs[:, None]
                      + np.arange(line_bytes, dtype=np.int64)] = rows
        return rows.view(np.uint32)

    def _group_lines(self, addrs: np.ndarray) -> tuple:
        """Group a warp's addresses by cache line: the sorted distinct
        line addresses, each lane's index into them, and the ``(lines,
        words)`` mask of the words the lanes touch."""
        line_bytes = self.config.l1_line_bytes
        offsets = addrs % line_bytes
        line_of = addrs - offsets
        line_list = sorted(set(line_of.tolist()))
        index = np.searchsorted(line_list, line_of)
        touched = np.zeros((len(line_list), line_bytes // 4), dtype=bool)
        touched[index, offsets >> 2] = True
        return line_list, index, touched

    def _line_payload_variants(self, line_words: np.ndarray,
                               is_inst: bool) -> np.ndarray:
        """The NoC packet carrying a line (or a store's words): its
        ``(variants, bytes)`` encodings."""
        if is_inst:
            words64 = np.ascontiguousarray(line_words).view(np.uint64)
            variants = self.encoders.inst_variants(words64)
        else:
            variants = self.encoders.data_variants(Unit.NOC, line_words,
                                                   "line")
        return np.stack([variants[v] for v in VARIANTS]).view(np.uint8)

    # ------------------------------------------------------------------
    # Memory-system transactions
    # ------------------------------------------------------------------

    def _l2_access(self, state, line_addr: int, is_store: bool,
                   now: int) -> tuple:
        """Access the L2 (timing only); returns ``(latency, hit)``, the
        completion latency from ``now`` and whether the line hit.

        The caller books the L2 tallies: on a miss the filled line is
        written, then the access reads it (loads, fetches) or writes it
        (stores).
        """
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        bank_idx = noc.bank_of(line_addr, cfg.l2_line_bytes)
        bank = l2_banks[bank_idx]
        timing.l2_accesses += 1
        hit = bank.lookup(line_addr)
        latency = cfg.lat_l2_hit
        if not hit:
            timing.l2_misses += 1
            done = dram.service(now + cfg.lat_l2_hit, line_addr)
            timing.dram_accesses += 1
            latency = (done - now) + cfg.lat_l2_hit
            victim = bank.fill(line_addr, dirty=False)
            if victim is not None:
                # Dirty writeback to DRAM: off-chip, transparent to BVF.
                dram.service(now + latency, victim)
        if is_store:
            bank.mark_dirty(line_addr)
        return latency, hit

    def _fetch(self, state, sm: _SM, code_base: int, rec: InstRecord,
               now: int) -> int:
        """Instruction fetch through L1I; returns added latency. The
        fetched word's IFB and L1I reads are booked per launch
        (:meth:`_book_inst_stream`); a miss books its fill here."""
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        line_addr = sm.l1i.line_of(code_base + rec.pc * 8)
        if sm.l1i.lookup(line_addr):
            return 0
        line_words = self._array_read(mem, [line_addr])[0]
        bank = noc.bank_of(line_addr, cfg.l2_line_bytes)
        noc.send_request(sm.index, bank, line_addr)
        latency, hit = self._l2_access(state, line_addr, False, now)
        noc.send_response(sm.index, bank,
                          self._line_payload_variants(line_words, True))
        sm.l1i.fill(line_addr)
        words64 = line_words.view(np.uint64)
        batch = self._batch
        if not hit:
            batch.add_inst(Unit.L2, words64, True)
        batch.add_inst(Unit.L2, words64, False)
        batch.add_inst(Unit.L1I, words64, True)
        return latency

    def _book_inst_stream(self, launch) -> None:
        """Book a launch's instruction stream: each fetched word is
        written into and read out of the IFB, and read out of L1I.
        Every record is fetched exactly once, so these tallies are a
        sum over the launch's words."""
        words = [rec.word for block in launch.blocks
                 for warp in block.warps for rec in warp.records]
        batch = self._batch
        for chunk in flush_chunks(words):
            batch.add_inst(Unit.IFB, chunk, True)
            batch.add_inst(Unit.IFB, chunk, False)
            batch.add_inst(Unit.L1I, chunk, False)

    def _load(self, state, sm: _SM, rec: InstRecord, now: int) -> int:
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        acc = rec.mem
        unit = _SPACE_UNIT[acc.space]
        l1 = sm.l1_for(acc.space)
        addrs = acc.addrs[acc.active]
        if addrs.size == 0:
            return cfg.lat_alu
        line_list, __, touched = self._group_lines(addrs)
        # One array read serves every use of each line's bytes (hit
        # tally, fill tally, L2 tally, NoC payload).
        rows = self._array_read(mem, line_list)
        missed = []
        banks = []
        l2_missed = []
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
            l2_latency, l2_hit = self._l2_access(state, line_addr, False,
                                                 start)
            if not l2_hit:
                l2_missed.append(j)
            l1.fill(line_addr)
            missed.append(j)
            banks.append(bank)
            worst = max(worst, (start - now) + l2_latency + cfg.lat_l1_hit)
        batch = self._batch
        if missed:
            # The missed lines' responses encode as one (lines,
            # variants, line_bytes) stack and go out in line order.
            sent = rows[missed]
            blocks = self.encoders.data_variant_blocks(Unit.NOC, sent,
                                                       "line")
            payloads = np.stack([blocks[v] for v in VARIANTS],
                                axis=1).view(np.uint8)
            for bank, payload in zip(banks, payloads):
                noc.send_response(sm.index, bank, payload)
            # L2 writes the lines it filled and reads every missed line;
            # L1 writes each fill.
            if l2_missed:
                batch.add_line(Unit.L2, rows[l2_missed], True)
            batch.add_line(Unit.L2, sent, False)
            batch.add_line(unit, sent, True)
        # The warp reads the words its lanes touch.
        batch.add_line(unit, rows, False, touched)
        return max(worst, cfg.lat_l1_hit)

    def _store(self, state, sm: _SM, rec: InstRecord, now: int) -> int:
        """Global store: L1 write-evict / write-no-allocate, write to L2."""
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        acc = rec.mem
        addrs = acc.addrs[acc.active]
        data = acc.data[acc.active]
        if addrs.size == 0:
            return cfg.lat_alu
        # Keep the replay image coherent for subsequent line reads.
        mem.write_u32(acc.addrs, acc.data, mask=acc.active)
        line_list, index, touched = self._group_lines(addrs)
        # A store writes the arrays and reads none, so no fault model
        # draws here: its tallies see the lines as written.
        rows = mem.read_lines(line_list, cfg.l1_line_bytes).view(np.uint32)
        l2_missed = []
        for j, line_addr in enumerate(line_list):
            sm.l1d.invalidate(line_addr)
            timing.l1d_accesses += 1
            bank = noc.bank_of(line_addr, cfg.l2_line_bytes)
            # The write packet carries every lane, duplicates included,
            # in lane order.
            noc.send_write(sm.index, bank, line_addr,
                           self._line_payload_variants(data[index == j],
                                                       False))
            __, l2_hit = self._l2_access(state, line_addr, True, now)
            if not l2_hit:
                l2_missed.append(j)
        # L2 writes the lines it filled, then every written line; L1
        # books the store's words at the interface where the
        # invalidation check happened.
        batch = self._batch
        if l2_missed:
            batch.add_line(Unit.L2, rows[l2_missed], True)
        batch.add_line(Unit.L2, rows, True)
        batch.add_line(Unit.L1D, rows, True, touched)
        return cfg.lat_alu + 4

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, app: AppTrace) -> ReplayResult:
        """Replay one app trace; traced as a ``replay`` span when a
        tracer is installed (see :mod:`repro.obs`)."""
        with trace_span("replay", launches=len(app.launches)) as span:
            result = self._run(app)
            if span is not None:
                span.set(cycles=result.timing.cycles,
                         instructions=result.timing.instructions,
                         used_sms=result.timing.used_sms,
                         dram_accesses=result.dram_accesses)
            return result

    def _run(self, app: AppTrace) -> ReplayResult:
        cfg = self.config
        mem = GlobalMemory.from_image(app.initial_image)
        tally = Tally()
        self._batch = TallyBatch(self.encoders, tally)
        noc = Crossbar(cfg.n_sms, cfg.l2_banks, cfg.noc_flit_bytes,
                       fault_model=self.fault_model)
        on_fill = (self.fault_model.note_fill
                   if self.fault_model is not None else None)
        l2_banks = [
            Cache(f"l2.bank{i}", cfg.l2_kb_per_bank, cfg.l2_line_bytes,
                  cfg.l2_assoc, on_fill=on_fill)
            for i in range(cfg.l2_banks)
        ]
        dram = DRAMSystem(cfg.n_mem_channels, cfg.lat_dram,
                          cfg.l2_line_bytes)
        timing = TimingStats()
        state = (mem, tally, noc, l2_banks, dram, timing)

        total_cycles = 0
        used_sms = set()
        footprints: Dict[Unit, float] = {}
        cache_totals = {name: CacheStats()
                        for name in ("l1d", "l1i", "l1c", "l1t", "l2")}

        def bump(unit: Unit, fraction: float) -> None:
            footprints[unit] = max(footprints.get(unit, 0.0),
                                   min(1.0, fraction))

        for launch in app.launches:
            sms = [_SM(i, cfg) for i in range(cfg.n_sms)]
            for block in launch.blocks:
                sm = sms[block.block % cfg.n_sms]
                sm.block_queue.append(
                    (f"b{block.block}", [w.records for w in block.warps])
                )
            for sm in sms:
                sm.admit_blocks()

            heap = [(0, sm.index) for sm in sms if not sm.finished]
            heapq.heapify(heap)
            while heap:
                __, sm_idx = heapq.heappop(heap)
                sm = sms[sm_idx]
                self._step_sm(state, sm, launch.code_base)
                if not sm.finished:
                    heapq.heappush(heap, (sm.cycle, sm.index))
            self._book_inst_stream(launch)
            total_cycles += max((sm.cycle for sm in sms), default=0)
            used_sms.update(sm.index for sm in sms if sm.cycle > 0)

            active = [sm for sm in sms if sm.cycle > 0] or sms[:1]
            line_kb = cfg.l1_line_bytes / 1024.0
            for sm in active:
                bump(Unit.REG, sm.max_resident_warps / cfg.warps_per_sm)
                bump(Unit.SME,
                     sm.max_resident_blocks / cfg.max_blocks_per_sm)
                bump(Unit.L1D,
                     sm.l1d.resident_lines * line_kb / cfg.l1d_kb)
                bump(Unit.L1I,
                     sm.l1i.resident_lines * line_kb / cfg.l1i_kb)
                bump(Unit.L1C,
                     sm.l1c.resident_lines * line_kb / cfg.l1c_kb)
                bump(Unit.L1T,
                     sm.l1t.resident_lines * line_kb / cfg.l1t_kb)
            l2_resident = sum(b.resident_lines for b in l2_banks)
            bump(Unit.L2,
                 l2_resident * cfg.l2_line_bytes / (cfg.l2_kb * 1024.0))
            bump(Unit.IFB, 1.0)
            for sm in sms:
                for level in ("l1d", "l1i", "l1c", "l1t"):
                    cache_totals[level] = cache_totals[level].merged(
                        getattr(sm, level).stats)

        for bank in l2_banks:
            cache_totals["l2"] = cache_totals["l2"].merged(bank.stats)
        self._batch.flush()
        noc.stats.flush()
        timing.cycles = total_cycles
        timing.used_sms = max(1, len(used_sms))
        return ReplayResult(tally=tally, noc=noc, timing=timing,
                            cache_stats=cache_totals,
                            dram_accesses=dram.accesses,
                            footprints=footprints)

    def _release_barrier(self, sm: _SM, block_key) -> None:
        members = [w for w in sm.warps if w.block_key == block_key]
        waiting = [w for w in members if not w.done]
        if waiting and all(w.at_barrier for w in waiting):
            for w in waiting:
                w.at_barrier = False
                w.ready_at = sm.cycle + 5

    def _step_sm(self, state, sm: _SM, code_base: int) -> None:
        mem, tally, noc, l2_banks, dram, timing = state
        cfg = self.config
        warp = sm.scheduler.pick(sm.warps, sm.cycle)
        if warp is None:
            nxt = sm.scheduler.next_event(sm.warps)
            if nxt is None:
                # All resident warps done or at barriers; barriers
                # resolve on arrival, so this means the SM can admit
                # new blocks or is finished.
                sm.prune_done()
                sm.admit_blocks()
                if all(w.done for w in sm.warps) and not sm.block_queue:
                    return
                sm.cycle += 1
            else:
                sm.cycle = max(sm.cycle + 1, nxt)
            return

        rec = warp.peek()
        if rec is None:
            warp.done = True
            self._release_barrier(sm, warp.block_key)
            sm.admit_blocks()
            return
        warp.ptr += 1

        fetch_latency = self._fetch(state, sm, code_base, rec, sm.cycle)
        timing.count_op(rec.op_class.value, rec.active_lanes)

        if rec.is_barrier:
            warp.at_barrier = True
            self._release_barrier(sm, warp.block_key)
        elif rec.mem is None:
            base = cfg.lat_sfu if rec.op_class is OpClass.SFU else cfg.lat_alu
            warp.ready_at = sm.cycle + base + fetch_latency
        elif rec.mem.space is MemSpace.SHARED:
            # Shared-memory accesses were tallied in phase 1.
            warp.ready_at = sm.cycle + cfg.lat_sme + fetch_latency
        elif rec.mem.is_store:
            latency = self._store(state, sm, rec, sm.cycle)
            warp.ready_at = sm.cycle + latency + fetch_latency
        else:
            latency = self._load(state, sm, rec, sm.cycle)
            warp.ready_at = sm.cycle + latency + fetch_latency

        if warp.ptr >= len(warp.records):
            warp.done = True
            self._release_barrier(sm, warp.block_key)
            sm.prune_done()
            sm.admit_blocks()
        sm.cycle += 1
