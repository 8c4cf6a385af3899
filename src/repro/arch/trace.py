"""Trace records emitted by functional execution, consumed by replay.

This mirrors the paper's methodology: GPGPU-Sim is modified to "dump the
access trace (including target addresses, SM-id, warp-id, lane-id,
L2-bank-id, access type, data content, etc.)" which a parser then
post-processes. Our functional engine produces the same information as
in-memory records; the replay engine re-orders them under a warp
scheduler and pushes them through the cache/NoC hierarchy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .isa import OpClass

__all__ = ["MemSpace", "MemAccess", "InstRecord", "WarpTrace",
           "BlockTrace", "LaunchTrace", "AppTrace"]


class MemSpace(enum.Enum):
    GLOBAL = "global"
    SHARED = "shared"
    CONST = "const"
    TEX = "tex"


@dataclass
class MemAccess:
    """One warp-wide memory access.

    ``addrs`` holds per-lane byte addresses; inactive lanes are ignored.
    Stores carry their data so the replay phase can apply them in
    scheduler order; load data is re-read from the replay-time memory
    image, which store application keeps coherent.
    """

    space: MemSpace
    is_store: bool
    addrs: np.ndarray            # int64, one per lane
    active: np.ndarray           # bool, one per lane
    data: Optional[np.ndarray] = None  # uint32 per lane, stores only

    def active_addrs(self) -> np.ndarray:
        return self.addrs[self.active]


@dataclass
class InstRecord:
    """One dynamic warp instruction."""

    pc: int                      # static program counter (site-based)
    word: int                    # encoded 64-bit instruction
    op_class: OpClass
    active_lanes: int
    mem: Optional[MemAccess] = None
    is_barrier: bool = False


@dataclass
class WarpTrace:
    """The full dynamic instruction stream of one warp."""

    block: int
    warp: int
    records: List[InstRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class BlockTrace:
    block: int
    warps: List[WarpTrace] = field(default_factory=list)


@dataclass
class LaunchTrace:
    """One kernel launch: its static binary plus all dynamic streams."""

    name: str
    code_base: int
    static_words: List[int] = field(default_factory=list)
    blocks: List[BlockTrace] = field(default_factory=list)

    @property
    def dynamic_instructions(self) -> int:
        return sum(len(w) for b in self.blocks for w in b.warps)


@dataclass
class AppTrace:
    """Everything phase 1 produced for one application."""

    app_name: str
    launches: List[LaunchTrace] = field(default_factory=list)
    # Device memory before the first launch, code binaries patched in.
    # It covers the allocated extent only, not the device capacity.
    initial_image: Optional[np.ndarray] = None

    @property
    def static_binary(self) -> np.ndarray:
        """Concatenated static instruction words across launches."""
        words: List[int] = []
        for launch in self.launches:
            words.extend(launch.static_words)
        return np.asarray(words, dtype=np.uint64)

    @property
    def dynamic_instructions(self) -> int:
        return sum(l.dynamic_instructions for l in self.launches)
