"""Phase-1 functional execution of kernel launches.

Runs every block of every launch through its kernel body once, all of
the block's warps in lockstep (see :mod:`repro.arch.warp`), collecting
per-warp dynamic instruction streams, the static binary, register/
shared-memory bit tallies and the snapshot of the allocated memory
extent the replay phase starts from.

Execution model: a block's warps execute each instruction together,
in warp order within the instruction, and blocks run one after
another. So a warp sees every store an earlier instruction of any warp
in its block made, and none that a later instruction makes: a load
that races with another warp's later store reads the old value, and
on a duplicate-address store the highest warp's value wins.

Barrier semantics: kernel bodies that synchronise are generator
functions yielding :data:`~repro.arch.warp.BARRIER`. In lockstep every
warp reaches each barrier together, exactly like ``__syncthreads``;
the engine only drains the block's generator and closes each barrier
round for the lane profiler.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .memory import GlobalMemory
from .stats import Encoders, Tally, TallyBatch
from .trace import AppTrace, BlockTrace, LaunchTrace
from .warp import BARRIER, LANES, WarpCtx

__all__ = ["Launch", "run_functional", "FunctionalResult"]


@dataclass
class Launch:
    """One kernel launch: a body plus its grid geometry.

    ``body(w)`` runs once per block and receives the block's
    :class:`~repro.arch.warp.WarpCtx`; bodies that use barriers are
    generators yielding ``w.barrier()``.
    """

    name: str
    body: Callable
    n_blocks: int
    warps_per_block: int
    shared_bytes: int = 0

    def __post_init__(self):
        if self.n_blocks < 1 or self.warps_per_block < 1:
            raise ValueError("launch geometry must be positive")

    @property
    def threads(self) -> int:
        return self.n_blocks * self.warps_per_block * LANES


@dataclass
class FunctionalResult:
    """Phase-1 output for one application."""

    trace: AppTrace
    tally: Tally = field(default_factory=Tally)


def _run_block(launch: Launch, ctx: WarpCtx) -> None:
    """Execute one block's body, all its warps in lockstep."""
    steps = launch.body(ctx)
    if inspect.isgenerator(steps):
        for token in steps:
            if token is not BARRIER:
                raise RuntimeError(
                    f"kernel {launch.name!r} yielded a non-barrier value; "
                    "bodies must only `yield w.barrier()`"
                )
            ctx.end_round()
    ctx.end_round()


def run_functional(app_name: str, mem: GlobalMemory,
                   launches: List[Launch], encoders: Encoders,
                   profiler=None) -> FunctionalResult:
    """Execute an app's launches functionally and collect its traces.

    The code region is allocated and the memory's allocated extent
    snapshotted *before* execution; after execution each launch's
    static binary is patched into the snapshot's code region (kernels
    never touch it), so the replay phase can fetch real instruction
    bytes.
    """
    code_buf = mem.alloc(256 << 10, f"{app_name}.code")
    initial_image = mem.snapshot()
    tally = Tally()
    batch = TallyBatch(encoders, tally)
    trace = AppTrace(app_name=app_name)
    next_code = code_buf.base

    for launch in launches:
        static_map: dict = {}
        static_words: List[int] = []
        launch_trace = LaunchTrace(name=launch.name, code_base=next_code,
                                   static_words=static_words)
        for block_idx in range(launch.n_blocks):
            shared = np.zeros(max(launch.shared_bytes, 4), dtype=np.uint8)
            ctx = WarpCtx(
                mem=mem, shared=shared, batch=batch,
                static_map=static_map, static_words=static_words,
                block_idx=block_idx,
                warps_per_block=launch.warps_per_block,
                profiler=profiler,
            )
            _run_block(launch, ctx)
            launch_trace.blocks.append(
                BlockTrace(block=block_idx, warps=ctx.traces)
            )

        binary_bytes = len(static_words) * 8
        if next_code + binary_bytes > code_buf.end:
            raise MemoryError(
                f"code region exhausted for {app_name!r} "
                f"(need {binary_bytes} more bytes)"
            )
        # Patch the binary into both images so replay instruction
        # fetches (and phase-1 reads, for symmetry) see real bits.
        words = np.asarray(static_words, dtype=np.uint64)
        raw = words.view(np.uint8)
        mem.image[next_code:next_code + binary_bytes] = raw
        initial_image[next_code:next_code + binary_bytes] = raw
        trace.launches.append(launch_trace)
        next_code += -(-binary_bytes // 128) * 128

    trace.initial_image = initial_image
    batch.flush()
    return FunctionalResult(trace=trace, tally=tally)
