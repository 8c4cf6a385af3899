"""The SIMT block context: one thread block's warps in lockstep.

Kernels are written against :class:`WarpCtx` — a CUDA-like interface
whose registers, predicates, masks and addresses are ``(warps, 32)``
arrays, one row per warp of the block. The engine runs a kernel body
once per block, and every operation:

1. computes the whole block's result with NumPy (functional
   semantics),
2. maps its *call site* to a static program counter and a 64-bit
   instruction encoding (loops in kernel Python re-visit the same PC,
   so the static binary looks like compiled code),
3. tallies register-file (and shared-memory) bit statistics under all
   coder variants, one row per warp — these are scheduling-order-
   independent, so phase 1 is the right place to count them,
4. appends one dynamic :class:`~repro.arch.trace.InstRecord` to each
   warp's stream for the scheduler-driven replay phase.

Kernel bodies never branch in Python on lane values, so every warp of
a block runs the same instruction sequence and lockstep execution
yields each warp's own stream. Within one instruction, stores apply
in warp order: on a duplicate address the highest warp (then the
highest lane) wins.

Branch divergence uses an explicit active-mask stack
(``with w.diverge(pred): ...``). Values produced inside a divergent
region are defined only for the active lanes (inactive lanes read 0);
a kernel that re-assigns a live variable inside a branch must merge it
afterwards with ``w.select(pred, then_value, else_value)`` — the same
if-conversion a SIMT compiler performs. Stores issued inside the region
write only the active lanes, so no merge is needed for them. Barriers
are generator yields handled by the engine.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from .isa import Opcode, OPCODE_CLASS, encode
from .memory import GlobalMemory
from .stats import TallyBatch
from .trace import InstRecord, MemAccess, MemSpace, WarpTrace
from ..core.bitutils import float_to_bits, bits_to_float, leading_zeros32, popcount32
from ..core.spaces import Unit

__all__ = ["Reg", "WarpCtx", "BARRIER", "LANES"]

LANES = 32

#: Sentinel yielded by kernel bodies at __syncthreads() points.
BARRIER = object()

_U32 = np.uint32


class Reg:
    """A block-wide virtual register: ``(warps, 32)`` 32-bit values."""

    __slots__ = ("values", "regno", "is_sreg")

    def __init__(self, values: np.ndarray, regno: int, is_sreg: bool = False):
        self.values = values
        self.regno = regno
        self.is_sreg = is_sreg

    def __repr__(self):
        return f"Reg(r{self.regno}, {self.values.ravel()[:4]}...)"


class WarpCtx:
    """Execution context of one thread block, its warps in lockstep."""

    def __init__(self, *, mem: GlobalMemory, shared: np.ndarray,
                 batch: TallyBatch, static_map: dict,
                 static_words: list, block_idx: int,
                 warps_per_block: int, profiler=None):
        self.mem = mem
        self.shared = shared
        #: records every register/shared-memory access for tallying.
        self.batch = batch
        self.static_map = static_map        # shared per launch
        self.static_words = static_words    # shared per launch
        self.block_idx = block_idx
        self.warps_per_block = warps_per_block
        self.profiler = profiler
        #: one dynamic stream per warp of the block.
        self.traces = [WarpTrace(block=block_idx, warp=w)
                       for w in range(warps_per_block)]
        self._shape = (warps_per_block, LANES)
        self._mask_stack = [np.ones(self._shape, dtype=bool)]
        #: this barrier round's register write-backs, for the profiler.
        self._writebacks = []

    # ------------------------------------------------------------------
    # Thread geometry
    # ------------------------------------------------------------------

    @property
    def active(self) -> np.ndarray:
        return self._mask_stack[-1]

    def _thread_ids(self, base: int) -> np.ndarray:
        return (base + np.arange(self.block_dim(), dtype=_U32)
                ).reshape(self._shape)

    def lane_id(self) -> Reg:
        return Reg(self._thread_ids(0) % _U32(LANES), regno=0, is_sreg=True)

    def thread_idx(self) -> Reg:
        return Reg(self._thread_ids(0), regno=1, is_sreg=True)

    def block_dim(self) -> int:
        return self.warps_per_block * LANES

    def global_thread_idx(self) -> Reg:
        base = self.block_idx * self.block_dim()
        return Reg(self._thread_ids(base), regno=2, is_sreg=True)

    # ------------------------------------------------------------------
    # Static-program bookkeeping
    # ------------------------------------------------------------------

    def _site_pc(self, opcode: Opcode, dst: int, src1: int, src2: int,
                 imm: int) -> tuple:
        """Map the kernel call site to a (pc, encoded word) pair.

        The first executing block defines the encoding at a site; later
        visits (loop iterations, other blocks) reuse it, exactly as a
        compiled binary would.
        """
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_filename == __file__:
            frame = frame.f_back
        key = (frame.f_code.co_filename, frame.f_lineno, frame.f_lasti)
        entry = self.static_map.get(key)
        if entry is None:
            pc = len(self.static_words)
            word = encode(opcode, dst=dst, src1=src1, src2=src2,
                          imm=imm & ((1 << 26) - 1))
            self.static_words.append(word)
            entry = self.static_map[key] = (pc, word)
        return entry

    def _dst_regno(self, pc: int) -> int:
        return 8 + pc % 56

    # ------------------------------------------------------------------
    # Emission core
    # ------------------------------------------------------------------

    def _tally_warp(self, unit: Unit, values: np.ndarray,
                    is_store: bool) -> None:
        self.batch.add_warp(unit, values, self.active, is_store)

    def _reg_read(self, reg: Reg) -> None:
        if reg.is_sreg:
            return
        self._tally_warp(Unit.REG, reg.values, is_store=False)

    def _reg_write(self, values: np.ndarray, regno: int) -> Reg:
        self._tally_warp(Unit.REG, values, is_store=True)
        if self.profiler is not None:
            self._writebacks.append(values)
        return Reg(values, regno)

    def end_round(self) -> None:
        """Close a barrier round: hand its register write-backs to the
        profiler in warp-serial order (warp by warp, each in issue
        order), the order its sampling and float sums depend on."""
        if self._writebacks:
            rows = np.stack(self._writebacks, axis=1).reshape(-1, LANES)
            self._writebacks = []
            self.profiler.on_reg_block(rows)

    def _emit(self, opcode: Opcode, srcs, result: Optional[np.ndarray],
              imm: int = 0, mem: Optional[MemAccess] = None,
              is_barrier: bool = False) -> Optional[Reg]:
        regs = [s for s in srcs if isinstance(s, Reg)]
        src1 = regs[0].regno if regs else 0
        src2 = regs[1].regno if len(regs) > 1 else 0
        # Peek the PC first so the destination register is stable per site.
        pc, word = self._site_pc(opcode, 0, src1, src2, imm)
        dst = self._dst_regno(pc) if result is not None else 0
        for reg in regs:
            self._reg_read(reg)
        out = None
        active = self.active
        if result is not None:
            masked = np.where(active, result.astype(_U32), _U32(0))
            out = self._reg_write(masked, dst)
        op_class = OPCODE_CLASS[opcode]
        lanes = np.count_nonzero(active, axis=1).tolist()
        for w, trace in enumerate(self.traces):
            access = None
            if mem is not None:
                # One warp's access is its row of the block's access.
                access = MemAccess(mem.space, mem.is_store, mem.addrs[w],
                                   mem.active[w],
                                   None if mem.data is None else mem.data[w])
            trace.records.append(InstRecord(pc, word, op_class, lanes[w],
                                            access, is_barrier))
        return out

    def _vals(self, operand) -> np.ndarray:
        if isinstance(operand, Reg):
            return operand.values
        # Scalars wrap two's-complement, as the hardware datapath would.
        return np.full(self._shape, np.int64(operand) & 0xFFFFFFFF,
                       dtype=_U32)

    def _fvals(self, operand) -> np.ndarray:
        if isinstance(operand, Reg):
            return bits_to_float(operand.values)
        return np.full(self._shape, operand, dtype=np.float32)

    def _imm_of(self, *operands) -> int:
        for op in operands:
            if not isinstance(op, Reg):
                return int(op) & 0x3FFFFFF
        return 0

    # ------------------------------------------------------------------
    # Integer / logic ops
    # ------------------------------------------------------------------

    def const(self, value) -> Reg:
        vals = self._vals(value)
        return self._emit(Opcode.MOV, (), vals, imm=int(value) & 0x3FFFFFF)

    def mov(self, a) -> Reg:
        return self._emit(Opcode.MOV, (a,), self._vals(a))

    def iadd(self, a, b) -> Reg:
        vals = self._vals(a) + self._vals(b)
        return self._emit(Opcode.IADD, (a, b), vals, imm=self._imm_of(a, b))

    def isub(self, a, b) -> Reg:
        vals = self._vals(a) - self._vals(b)
        return self._emit(Opcode.ISUB, (a, b), vals, imm=self._imm_of(a, b))

    def imul(self, a, b) -> Reg:
        vals = self._vals(a) * self._vals(b)
        return self._emit(Opcode.IMUL, (a, b), vals, imm=self._imm_of(a, b))

    def imad(self, a, b, c) -> Reg:
        vals = self._vals(a) * self._vals(b) + self._vals(c)
        return self._emit(Opcode.IMAD, (a, b, c), vals, imm=self._imm_of(a, b, c))

    def iand(self, a, b) -> Reg:
        vals = self._vals(a) & self._vals(b)
        return self._emit(Opcode.AND, (a, b), vals, imm=self._imm_of(a, b))

    def ior(self, a, b) -> Reg:
        vals = self._vals(a) | self._vals(b)
        return self._emit(Opcode.OR, (a, b), vals, imm=self._imm_of(a, b))

    def ixor(self, a, b) -> Reg:
        vals = self._vals(a) ^ self._vals(b)
        return self._emit(Opcode.XOR, (a, b), vals, imm=self._imm_of(a, b))

    def shl(self, a, shift: int) -> Reg:
        vals = self._vals(a) << _U32(shift)
        return self._emit(Opcode.SHL, (a,), vals, imm=shift)

    def shr(self, a, shift: int) -> Reg:
        vals = self._vals(a) >> _U32(shift)
        return self._emit(Opcode.SHR, (a,), vals, imm=shift)

    def imin(self, a, b) -> Reg:
        av, bv = self._vals(a).view(np.int32), self._vals(b).view(np.int32)
        return self._emit(Opcode.MIN, (a, b), np.minimum(av, bv).view(_U32))

    def imax(self, a, b) -> Reg:
        av, bv = self._vals(a).view(np.int32), self._vals(b).view(np.int32)
        return self._emit(Opcode.MAX, (a, b), np.maximum(av, bv).view(_U32))

    def clz(self, a) -> Reg:
        vals = leading_zeros32(self._vals(a)).astype(_U32)
        return self._emit(Opcode.CLZ, (a,), vals)

    def popc(self, a) -> Reg:
        vals = popcount32(self._vals(a)).astype(_U32)
        return self._emit(Opcode.POPC, (a,), vals)

    def i2f(self, a) -> Reg:
        vals = float_to_bits(self._vals(a).view(np.int32).astype(np.float32))
        return self._emit(Opcode.I2F, (a,), vals)

    def f2i(self, a) -> Reg:
        f = self._fvals(a)
        vals = np.clip(np.nan_to_num(f), -2**31, 2**31 - 1).astype(np.int32)
        return self._emit(Opcode.F2I, (a,), vals.view(_U32))

    # ------------------------------------------------------------------
    # Floating point (single precision, stored as bit patterns)
    # ------------------------------------------------------------------

    def fconst(self, value: float) -> Reg:
        vals = float_to_bits(self._fvals(value))
        return self._emit(Opcode.MOV, (), vals)

    def _fop(self, opcode: Opcode, fn, *operands) -> Reg:
        floats = [self._fvals(op) for op in operands]
        with np.errstate(all="ignore"):
            result = fn(*floats).astype(np.float32)
        return self._emit(opcode, operands, float_to_bits(result))

    def fadd(self, a, b) -> Reg:
        return self._fop(Opcode.FADD, np.add, a, b)

    def fsub(self, a, b) -> Reg:
        return self._fop(Opcode.FSUB, np.subtract, a, b)

    def fmul(self, a, b) -> Reg:
        return self._fop(Opcode.FMUL, np.multiply, a, b)

    def ffma(self, a, b, c) -> Reg:
        return self._fop(Opcode.FFMA, lambda x, y, z: x * y + z, a, b, c)

    def fmin(self, a, b) -> Reg:
        return self._fop(Opcode.FMIN, np.fmin, a, b)

    def fmax(self, a, b) -> Reg:
        return self._fop(Opcode.FMAX, np.fmax, a, b)

    def frcp(self, a) -> Reg:
        return self._fop(Opcode.RCP, lambda x: np.where(x != 0, 1.0 / np.where(x != 0, x, 1), np.float32(np.inf)), a)

    def fsqrt(self, a) -> Reg:
        return self._fop(Opcode.SQRT, lambda x: np.sqrt(np.abs(x)), a)

    def frsq(self, a) -> Reg:
        return self._fop(Opcode.RSQ, lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-30), a)

    def fexp(self, a) -> Reg:
        return self._fop(Opcode.EXP, lambda x: np.exp(np.clip(x, -80, 80)), a)

    def flog(self, a) -> Reg:
        return self._fop(Opcode.LOG, lambda x: np.log(np.abs(x) + 1e-30), a)

    def fsin(self, a) -> Reg:
        return self._fop(Opcode.SIN, np.sin, a)

    # ------------------------------------------------------------------
    # Predicates and divergence
    # ------------------------------------------------------------------

    def setp_lt(self, a, b) -> np.ndarray:
        pred = self._vals(a).view(np.int32) < self._vals(b).view(np.int32)
        self._emit(Opcode.SETP, (a, b), None, imm=self._imm_of(a, b))
        return pred

    def setp_ge(self, a, b) -> np.ndarray:
        pred = self._vals(a).view(np.int32) >= self._vals(b).view(np.int32)
        self._emit(Opcode.SETP, (a, b), None, imm=self._imm_of(a, b))
        return pred

    def setp_eq(self, a, b) -> np.ndarray:
        pred = self._vals(a) == self._vals(b)
        self._emit(Opcode.SETP, (a, b), None, imm=self._imm_of(a, b))
        return pred

    def fsetp_lt(self, a, b) -> np.ndarray:
        pred = self._fvals(a) < self._fvals(b)
        self._emit(Opcode.FSETP, (a, b), None)
        return pred

    def fsetp_gt(self, a, b) -> np.ndarray:
        pred = self._fvals(a) > self._fvals(b)
        self._emit(Opcode.FSETP, (a, b), None)
        return pred

    def select(self, pred: np.ndarray, a, b) -> Reg:
        vals = np.where(pred, self._vals(a), self._vals(b))
        return self._emit(Opcode.SEL, (a, b), vals)

    class _Divergence:
        def __init__(self, ctx: "WarpCtx", pred: np.ndarray):
            self.ctx = ctx
            self.pred = np.asarray(pred, dtype=bool)

        def __enter__(self):
            stack = self.ctx._mask_stack
            stack.append(stack[-1] & self.pred)
            self.ctx._emit(Opcode.BRA, (), None)
            return self.ctx.active

        def __exit__(self, *exc):
            self.ctx._mask_stack.pop()
            return False

    def diverge(self, pred: np.ndarray) -> "_Divergence":
        """Execute a region with only the lanes where ``pred`` holds."""
        return self._Divergence(self, pred)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def _addr_vals(self, addr) -> np.ndarray:
        if isinstance(addr, Reg):
            return addr.values.astype(np.int64)
        return np.asarray(addr, dtype=np.int64)

    def ld_global(self, addr) -> Reg:
        addrs = self._addr_vals(addr)
        safe = np.where(self.active, addrs, np.int64(self.mem.align))
        values = self.mem.read_u32(safe)
        access = MemAccess(MemSpace.GLOBAL, False, safe, self.active.copy())
        srcs = (addr,) if isinstance(addr, Reg) else ()
        out = self._emit(Opcode.LDG, srcs, values, mem=access)
        if self.profiler is not None:
            self.profiler.on_global_data(values, self.active)
        return out

    def st_global(self, addr, value) -> None:
        addrs = self._addr_vals(addr)
        safe = np.where(self.active, addrs, np.int64(self.mem.align))
        vals = self._vals(value)
        self.mem.write_u32(safe, vals, mask=self.active)
        access = MemAccess(MemSpace.GLOBAL, True, safe, self.active.copy(),
                           data=vals.copy())
        srcs = tuple(x for x in (addr, value) if isinstance(x, Reg))
        self._emit(Opcode.STG, srcs, None, mem=access)
        if self.profiler is not None:
            self.profiler.on_global_data(vals, self.active)

    def ld_const(self, addr) -> Reg:
        addrs = self._addr_vals(addr)
        safe = np.where(self.active, addrs, np.int64(self.mem.align))
        values = self.mem.read_u32(safe)
        access = MemAccess(MemSpace.CONST, False, safe, self.active.copy())
        srcs = (addr,) if isinstance(addr, Reg) else ()
        return self._emit(Opcode.LDC, srcs, values, mem=access)

    def ld_tex(self, addr) -> Reg:
        addrs = self._addr_vals(addr)
        safe = np.where(self.active, addrs, np.int64(self.mem.align))
        values = self.mem.read_u32(safe)
        access = MemAccess(MemSpace.TEX, False, safe, self.active.copy())
        srcs = (addr,) if isinstance(addr, Reg) else ()
        return self._emit(Opcode.TEX, srcs, values, mem=access)

    def _shared_u32(self) -> np.ndarray:
        return self.shared.view(_U32)

    def ld_shared(self, offset) -> Reg:
        offs = self._addr_vals(offset) >> 2
        offs = np.where(self.active, offs, 0)
        words = self._shared_u32()
        values = words[np.clip(offs, 0, words.size - 1)]
        access = MemAccess(MemSpace.SHARED, False, offs * 4,
                           self.active.copy())
        srcs = (offset,) if isinstance(offset, Reg) else ()
        out = self._emit(Opcode.LDS, srcs, values, mem=access)
        self._tally_warp(Unit.SME, values, is_store=False)
        return out

    def st_shared(self, offset, value) -> None:
        offs = self._addr_vals(offset) >> 2
        vals = self._vals(value)
        words = self._shared_u32()
        idx = np.clip(offs[self.active], 0, words.size - 1)
        words[idx] = vals[self.active]
        access = MemAccess(MemSpace.SHARED, True, offs * 4,
                           self.active.copy(), data=vals.copy())
        srcs = tuple(x for x in (offset, value) if isinstance(x, Reg))
        self._emit(Opcode.STS, srcs, None, mem=access)
        self._tally_warp(Unit.SME, vals, is_store=True)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------

    def barrier(self):
        """Record a block-wide barrier; kernels must ``yield`` the result."""
        self._emit(Opcode.BAR, (), None, is_barrier=True)
        return BARRIER
