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
from .stats import Encoders, Tally, TallyBatch, TimingStats, flush_chunks
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
        #: Resident warps in age order (a scheduler picks the first
        #: ready one); finished warps are pruned in batches.
        self.warps: List[_WarpStream] = []
        #: Unfinished warps, and unfinished warps per block.
        self.live_warps = 0
        self.live_blocks: Dict[str, int] = {}
        #: Each resident block's warps, and how many of its unfinished
        #: warps wait at a barrier.
        self.block_warps: Dict[str, List[_WarpStream]] = {}
        self.barrier_waits: Dict[str, int] = {}
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
            block_key, warp_records = self.block_queue[0]
            if len(self.live_blocks) >= cfg.max_blocks_per_sm:
                break
            if self.live_warps + len(warp_records) > cfg.warps_per_sm:
                if self.live_warps > 0:
                    break
            self.block_queue.popleft()
            slots = []
            for records in warp_records:
                slot = _WarpStream(self._next_uid, self._next_age,
                                   block_key, records)
                slot.ready_at = self.cycle
                self._next_uid += 1
                self._next_age += 1
                slots.append(slot)
            if slots:
                self.warps += slots
                self.live_warps += len(slots)
                self.live_blocks[block_key] = len(slots)
                self.block_warps[block_key] = slots
            self.max_resident_warps = max(self.max_resident_warps,
                                          self.live_warps)
            self.max_resident_blocks = max(self.max_resident_blocks,
                                           len(self.live_blocks))

    def retire(self, warp: _WarpStream) -> None:
        """Mark a warp finished and drop it from the live counts."""
        warp.done = True
        self.live_warps -= 1
        key = warp.block_key
        left = self.live_blocks[key] - 1
        if left:
            self.live_blocks[key] = left
            if warp.at_barrier:
                self.barrier_waits[key] -= 1
        else:
            del self.live_blocks[key]
            del self.block_warps[key]
            self.barrier_waits.pop(key, None)

    def arrive(self, warp: _WarpStream) -> None:
        """A warp reaches a barrier."""
        warp.at_barrier = True
        key = warp.block_key
        self.barrier_waits[key] = self.barrier_waits.get(key, 0) + 1
        self.release_barrier(key)

    def release_barrier(self, block_key) -> None:
        """Release a block's barrier once every unfinished warp of the
        block waits at it."""
        waiting = self.barrier_waits.get(block_key, 0)
        if waiting and waiting == self.live_blocks[block_key]:
            self.barrier_waits[block_key] = 0
            for w in self.block_warps[block_key]:
                if not w.done:
                    w.at_barrier = False
                    w.ready_at = self.cycle + 5

    def prune_done(self) -> None:
        if len(self.warps) > 2 * self.config.warps_per_sm:
            self.warps = [w for w in self.warps if not w.done]

    @property
    def finished(self) -> bool:
        return not self.block_queue and not self.live_warps


class _LinePlan:
    """One launch's line grouping of its global/const/tex accesses.

    Grouping depends only on the trace's addresses, not on the
    schedule, so a launch's accesses are grouped in one vectorised pass
    before its schedule runs, and the launch's extent is checked once:
    a line past the image's ``n_lines`` raises ``IndexError``. The
    arrays hold every (access, line) group, accesses in trace order and
    each access's lines sorted; :meth:`get` slices out one access.
    """

    def __init__(self, launch, line_bytes: int, n_lines: int):
        recs, lanes = [], []
        for block in launch.blocks:
            for warp in block.warps:
                for rec in warp.records:
                    acc = rec.mem
                    if acc is None or acc.space is MemSpace.SHARED:
                        continue
                    addrs = acc.addrs[acc.active]
                    if addrs.size:
                        recs.append(rec)
                        lanes.append(addrs)
        self._ordinal = {id(rec): k for k, rec in enumerate(recs)}
        self._words = line_bytes // 4
        counts = np.array([a.size for a in lanes], dtype=np.int64)
        addrs = (np.concatenate(lanes).astype(np.int64, copy=False)
                 if lanes else np.zeros(0, dtype=np.int64))
        line = addrs // line_bytes
        if line.size and (line.min() < 0 or line.max() >= n_lines):
            lo = int(line.min()) * line_bytes
            hi = (int(line.max()) + 1) * line_bytes
            raise IndexError(f"device access out of range: [{lo}, {hi}) "
                             f"of {n_lines * line_bytes} bytes of whole "
                             f"lines")
        # One key per (access, line): sorted, the keys group each
        # access's lanes by line, lines ascending.
        owner = np.repeat(np.arange(len(recs), dtype=np.int64), counts)
        key = owner * n_lines + line
        order = np.argsort(key)
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        group = np.empty(key.size, dtype=np.int64)
        group[order] = np.cumsum(first) - 1
        self._rows = key[first] % n_lines
        self._line_list = (self._rows * line_bytes).tolist()
        groups = np.zeros(len(recs) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key[first] // n_lines, minlength=len(recs)),
                  out=groups[1:])
        self._groups = groups.tolist()
        self._lanes = np.r_[0, np.cumsum(counts)].tolist()
        self._index = group - groups[owner]
        touched = np.zeros((self._rows.size, self._words), dtype=bool)
        touched[group, (addrs % line_bytes) >> 2] = True
        self._touched = np.packbits(touched, axis=1, bitorder="little")

    def __len__(self) -> int:
        return len(self._ordinal)

    def get(self, rec: InstRecord) -> Optional[tuple]:
        """``(line_list, index, touched, rows)`` of one access: its
        sorted distinct line addresses, each active lane's index into
        them, the ``(lines, words)`` mask of the words the lanes touch,
        and the lines' rows in the image's line view. None for an
        access with no active lane."""
        k = self._ordinal.get(id(rec))
        if k is None:
            return None
        a, b = self._groups[k], self._groups[k + 1]
        touched = np.unpackbits(self._touched[a:b], axis=1,
                                count=self._words, bitorder="little")
        return (self._line_list[a:b],
                self._index[self._lanes[k]:self._lanes[k + 1]],
                touched.view(bool), self._rows[a:b])


class GPUReplay:
    """Replays an :class:`~repro.arch.trace.AppTrace` on a GPU config.

    Every access that reads the arrays (a load, or an instruction-fetch
    miss) reads its distinct lines once, in one gather through
    :meth:`_array_read`; that one block serves all of the access's
    tallies and NoC packets.

    The schedule loop does only what the schedule decides. Line
    grouping is planned per launch, before its schedule runs
    (:class:`_LinePlan`). Each access books its tallies once and sends
    its packets raw: the crossbar encodes them in bulk. Every record is
    fetched exactly once, so the instruction stream's IFB and L1I reads
    are booked per launch, from the launch's words, after its schedule
    drains.
    """

    def __init__(self, config: GPUConfig, encoders: Encoders,
                 fault_model=None):
        self.config = config
        self.encoders = encoders
        #: optional :class:`repro.faults.FaultModel`: it corrupts each
        #: access's array read and the NoC's data flits.
        self.fault_model = fault_model
        self._batch: Optional[TallyBatch] = None
        #: The replay image's ``(lines, line_bytes)`` view, and the
        #: current launch's line plan.
        self._lines: Optional[np.ndarray] = None
        self._plan: Optional[_LinePlan] = None

    # ------------------------------------------------------------------
    # Line helpers
    # ------------------------------------------------------------------

    def _array_read(self, rows) -> np.ndarray:
        """One access's array read: its distinct lines (``rows`` of the
        image's line view) as one ``(lines, words)`` uint32 block, which
        serves every tally and NoC payload of the access. A fault model
        corrupts the block in one draw, and the damage is written back:
        read disturbance is destructive."""
        lines = self._lines[rows]
        if self.fault_model is not None:
            lines = self.fault_model.corrupt_line(lines)
            self._lines[rows] = lines
        return lines.view(np.uint32)

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

    def _fetch_miss(self, state, sm: _SM, line_addr: int, now: int) -> int:
        """An instruction-fetch miss in L1I (the step loop probes L1I
        inline); returns the added latency. The fetched word's IFB and
        L1I reads are booked per launch (:meth:`_book_inst_stream`);
        the miss books its fill here."""
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        words64 = self._array_read(
            [line_addr // cfg.l1_line_bytes])[0].view(np.uint64)
        bank = noc.bank_of(line_addr, cfg.l2_line_bytes)
        noc.send_request(sm.index, bank, line_addr)
        latency, hit = self._l2_access(state, line_addr, False, now)
        noc.send_response(sm.index, bank, words64)
        sm.l1i.fill(line_addr)
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
        """Global/const/tex load: one pass over the access's lines.

        The line loop probes the L1 set dicts and, on a miss, takes an
        MSHR and walks L2 and DRAM inline (the same steps as
        :meth:`Cache.lookup`, :meth:`Cache.fill`, :meth:`MSHRFile.acquire`
        and :meth:`_l2_access`, in the same order per line); the
        access's L1, ``l1d_*``, L2, MSHR and control-packet counts are
        booked once after it.
        """
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        plan = self._plan.get(rec)
        if plan is None:
            return cfg.lat_alu
        line_list, __, touched, line_rows = plan
        space = rec.mem.space
        unit = _SPACE_UNIT[space]
        l1 = sm.l1_for(space)
        # One array read serves every use of each line's bytes (hit
        # tally, fill tally, L2 tally, NoC payload).
        rows = self._array_read(line_rows)
        l1_sets, l1_line, l1_n_sets, l1_assoc = (l1._sets, l1.line_bytes,
                                                 l1.n_sets, l1.assoc)
        lat_l2_hit = cfg.lat_l2_hit
        lat_l1_hit = cfg.lat_l1_hit
        mshr_free = sm.mshrs._free_at
        l2_line = cfg.l2_line_bytes
        n_banks = len(l2_banks)
        channels = dram.channels
        n_channels = len(channels)
        missed = []
        l2_missed = []
        worst = lat_l1_hit
        mshr_full = l1_evictions = 0
        for j, line_addr in enumerate(line_list):
            index = (line_addr // l1_line) % l1_n_sets
            lines = l1_sets.get(index)
            if lines is not None and line_addr in lines:
                del lines[line_addr]
                lines[line_addr] = None
                continue
            missed.append(j)
            start = mshr_free[0]
            if start > now:
                mshr_full += 1
            else:
                start = now
            heapq.heapreplace(mshr_free, start + lat_l2_hit)
            bank = l2_banks[(line_addr // l2_line) % n_banks]
            bank.stats.accesses += 1
            bank_lines = bank._sets.get((line_addr // l2_line) % bank.n_sets)
            if bank_lines is not None and line_addr in bank_lines:
                bank.stats.hits += 1
                del bank_lines[line_addr]
                bank_lines[line_addr] = None
                l2_latency = lat_l2_hit
            else:
                l2_missed.append(j)
                channel = channels[(line_addr // dram.line_bytes)
                                   % n_channels]
                l2_latency = (channel.service(start + lat_l2_hit, line_addr)
                              - start) + lat_l2_hit
                victim = bank.fill(line_addr)
                if victim is not None:
                    # Dirty writeback to DRAM: off-chip, transparent to
                    # BVF.
                    dram.service(start + l2_latency, victim)
            # L1 fill; L1s are read-only here, so a victim is never
            # dirty, and they have no fill callback.
            if lines is None:
                lines = l1_sets[index] = {}
            elif len(lines) >= l1_assoc:
                del lines[next(iter(lines))]
                l1_evictions += 1
            lines[line_addr] = None
            latency = (start - now) + l2_latency + lat_l1_hit
            if latency > worst:
                worst = latency
        n_lines = len(line_list)
        n_missed = len(missed)
        stats = l1.stats
        stats.accesses += n_lines
        stats.hits += n_lines - n_missed
        stats.evictions += l1_evictions
        if unit is Unit.L1D:
            timing.l1d_accesses += n_lines
            timing.l1d_misses += n_missed
        batch = self._batch
        if missed:
            sm.mshrs.full_events += mshr_full
            # One address-only request per missed line on the control
            # network (Crossbar.send_request), then the responses, in
            # line order.
            noc.packets += n_missed
            noc.control_flits += n_missed
            timing.l2_accesses += n_missed
            timing.l2_misses += len(l2_missed)
            timing.dram_accesses += len(l2_missed)
            sent = rows[missed]
            noc.send_responses(sm.index, sent)
            # L2 writes the lines it filled and reads every missed line;
            # L1 writes each fill.
            if l2_missed:
                batch.add_line(Unit.L2, rows[l2_missed], True)
            batch.add_line(Unit.L2, sent, False)
            batch.add_line(unit, sent, True)
        # The warp reads the words its lanes touch.
        batch.add_line(unit, rows, False, touched)
        return worst

    def _store(self, state, sm: _SM, rec: InstRecord, now: int) -> int:
        """Global store: L1 write-evict / write-no-allocate, write to L2."""
        cfg = self.config
        mem, tally, noc, l2_banks, dram, timing = state
        plan = self._plan.get(rec)
        if plan is None:
            return cfg.lat_alu
        line_list, index, touched, line_rows = plan
        acc = rec.mem
        data = acc.data[acc.active]
        # Keep the replay image coherent for subsequent line reads.
        mem.write_u32(acc.addrs, acc.data, mask=acc.active)
        # A store writes the arrays and reads none, so no fault model
        # draws here: its tallies see the lines as written.
        rows = self._lines[line_rows].view(np.uint32)
        l2_missed = []
        for j, line_addr in enumerate(line_list):
            sm.l1d.invalidate(line_addr)
            timing.l1d_accesses += 1
            bank = noc.bank_of(line_addr, cfg.l2_line_bytes)
            # The write packet carries every lane, duplicates included,
            # in lane order.
            noc.send_write(sm.index, bank, line_addr, data[index == j])
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
        self._lines = mem.line_view(cfg.l1_line_bytes)
        noc = Crossbar(cfg.n_sms, cfg.l2_banks, cfg.noc_flit_bytes,
                       self.encoders, fault_model=self.fault_model)
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
            self._plan = _LinePlan(launch, cfg.l1_line_bytes,
                                   len(self._lines))
            sms = [_SM(i, cfg) for i in range(cfg.n_sms)]
            for block in launch.blocks:
                sm = sms[block.block % cfg.n_sms]
                sm.block_queue.append(
                    (f"b{block.block}", [w.records for w in block.warps])
                )
            for sm in sms:
                sm.admit_blocks()

            # SMs step in (cycle, index) order: the popped SM runs on
            # while it would pop again.
            heap = [(0, sm.index) for sm in sms if not sm.finished]
            heapq.heapify(heap)
            while heap:
                __, sm_idx = heapq.heappop(heap)
                sm = sms[sm_idx]
                self._run_sm(state, sm, launch.code_base,
                             heap[0] if heap else None)
                if not sm.finished:
                    heapq.heappush(heap, (sm.cycle, sm_idx))
            self._plan = None
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
        noc.flush()
        self._lines = None
        timing.cycles = total_cycles
        timing.used_sms = max(1, len(used_sms))
        return ReplayResult(tally=tally, noc=noc, timing=timing,
                            cache_stats=cache_totals,
                            dram_accesses=dram.accesses,
                            footprints=footprints)

    def _run_sm(self, state, sm: _SM, code_base: int, until) -> None:
        """Step one SM until it finishes or its ``(cycle, index)``
        passes ``until``, the earliest other SM's (None: no other)."""
        mem, tally, noc, l2_banks, dram, timing = state
        cfg = self.config
        pick = sm.scheduler.pick
        scheduler = sm.scheduler
        count_op = timing.count_op
        l1i = sm.l1i
        l1i_sets, l1i_line, l1i_n_sets, l1i_stats = (l1i._sets, l1i.line_bytes,
                                                     l1i.n_sets, l1i.stats)
        until_cycle, until_index = until if until is not None else (None, 0)
        index = sm.index
        while True:
            cycle = sm.cycle
            warp = pick(sm.warps, cycle)
            if warp is None:
                nxt = scheduler.soonest
                if nxt is None:
                    # All resident warps done or at barriers; barriers
                    # resolve on arrival, so this means the SM can
                    # admit new blocks or is finished.
                    sm.prune_done()
                    sm.admit_blocks()
                    if sm.finished:
                        return
                    sm.cycle = cycle + 1
                else:
                    sm.cycle = max(cycle + 1, nxt)
            elif warp.ptr >= len(warp.records):
                sm.retire(warp)
                sm.release_barrier(warp.block_key)
                sm.admit_blocks()
            else:
                records = warp.records
                rec = records[warp.ptr]
                warp.ptr += 1
                # Instruction fetch: the L1I probe of Cache.lookup.
                addr = code_base + rec.pc * 8
                line_addr = addr - addr % l1i_line
                l1i_stats.accesses += 1
                lines = l1i_sets.get((line_addr // l1i_line) % l1i_n_sets)
                if lines is not None and line_addr in lines:
                    l1i_stats.hits += 1
                    del lines[line_addr]
                    lines[line_addr] = None
                    fetch_latency = 0
                else:
                    fetch_latency = self._fetch_miss(state, sm, line_addr,
                                                     cycle)
                op_class = rec.op_class
                count_op(op_class._value_, rec.active_lanes)

                mem_access = rec.mem
                if rec.is_barrier:
                    sm.arrive(warp)
                elif mem_access is None:
                    base = (cfg.lat_sfu if op_class is OpClass.SFU
                            else cfg.lat_alu)
                    warp.ready_at = cycle + base + fetch_latency
                elif mem_access.space is MemSpace.SHARED:
                    # Shared-memory accesses were tallied in phase 1.
                    warp.ready_at = cycle + cfg.lat_sme + fetch_latency
                elif mem_access.is_store:
                    latency = self._store(state, sm, rec, cycle)
                    warp.ready_at = cycle + latency + fetch_latency
                else:
                    latency = self._load(state, sm, rec, cycle)
                    warp.ready_at = cycle + latency + fetch_latency

                if warp.ptr >= len(records):
                    sm.retire(warp)
                    sm.release_barrier(warp.block_key)
                    sm.prune_done()
                    sm.admit_blocks()
                sm.cycle = cycle + 1
            if not sm.live_warps and not sm.block_queue:
                return
            if until_cycle is not None and (
                    sm.cycle > until_cycle or (sm.cycle == until_cycle
                                               and index > until_index)):
                return
