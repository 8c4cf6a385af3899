"""The three BVF coders: Narrow Value, Value Similarity, ISA Preference.

All three are XNOR-based involutions (Section 4): encoding twice
recovers the original, so a single physical coder serves as both
encoder and decoder on a read/write port. Each coder maximises the
occurrence of bit-1s in its BVF space by XNORing data against a
reference that statistically matches it:

* **NV** — each word against its own replicated sign bit: positive
  narrow values (long runs of leading 0s) invert to runs of 1s,
  negative narrow values (leading 1s) pass through unchanged;
* **VS** — each lane/element against a pivot lane/element: inter-lane
  Hamming similarity turns matching bits into 1s;
* **ISA** — each 64-bit instruction against a per-architecture static
  mask extracted from the bit-position statistics of application
  binaries (Table 2).

All transforms are vectorised over NumPy word arrays; none require
extra metadata bits, which is what lets whole BVF spaces share one
format on the NoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .bitutils import INST_BITS, WORD_BITS
from .spaces import CODER_SPACES, Unit

__all__ = [
    "Coder",
    "IdentityCoder",
    "NVCoder",
    "VSCoder",
    "ISACoder",
    "ComposedCoder",
    "DEFAULT_PIVOT_LANE",
    "xnor",
]

#: The empirically best pivot lane across the paper's 58 applications
#: (Figure 11): lane 21, not the conventionally assumed lane 0.
DEFAULT_PIVOT_LANE = 21

_U32_MASK = np.uint32(0xFFFFFFFF)
_U64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def xnor(a, b, bits: int = WORD_BITS):
    """Bitwise XNOR of two word arrays at the given width."""
    if bits == WORD_BITS:
        return (~(np.asarray(a, np.uint32) ^ np.asarray(b, np.uint32))) & _U32_MASK
    if bits == INST_BITS:
        return (~(np.asarray(a, np.uint64) ^ np.asarray(b, np.uint64))) & _U64_MASK
    raise ValueError(f"unsupported word width: {bits}")


class Coder:
    """Base interface for a BVF coder.

    Subclasses implement :meth:`encode_words`; because every coder here
    is an involution, :meth:`decode_words` defaults to encoding again.
    """

    abbr: str = "?"
    name: str = "abstract"
    word_bits: int = WORD_BITS

    @property
    def units(self) -> frozenset:
        """The coder's BVF space (Table 1)."""
        return CODER_SPACES[self.abbr].units

    def covers(self, unit: Unit) -> bool:
        return unit in self.units

    def encode_words(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode_words(self, words: np.ndarray) -> np.ndarray:
        """Inverse transform; identical to encode for XNOR involutions."""
        return self.encode_words(words)

    def is_involution_on(self, words: np.ndarray) -> bool:
        """Check f(f(x)) == x on a sample (used by tests and self-checks)."""
        w = np.asarray(words)
        return bool(np.array_equal(self.encode_words(self.encode_words(w)), w))


class IdentityCoder(Coder):
    """No-op coder: the baseline (uncoded) configuration."""

    abbr = "ID"
    name = "identity"

    @property
    def units(self) -> frozenset:
        return frozenset()

    def encode_words(self, words):
        return np.asarray(words).copy()


class NVCoder(Coder):
    """Narrow Value coder (Section 4.1).

    ``E = [b0, b1 xnor b0, ..., bn xnor b0]``: the sign bit is kept and
    every other bit is XNORed with it. For a positive value (b0 = 0) all
    remaining bits invert — leading 0s become 1s; for a negative value
    (b0 = 1, leading 1s already) the word passes through unchanged.
    Self-inverse, purely word-local, implemented with one XNOR gate per
    bit in hardware (Figure 10).
    """

    abbr = "NV"
    name = "narrow value"

    def encode_words(self, words):
        w = np.asarray(words, dtype=np.uint32)
        sign = (w >> np.uint32(31)) & np.uint32(1)
        # Replicate the sign into the 31 lower positions; bit 31 of the
        # reference is forced to 1 so the sign bit XNORs to itself.
        reference = (sign * np.uint32(0x7FFFFFFF)) | np.uint32(0x80000000)
        return xnor(w, reference)


class VSCoder(Coder):
    """Value Similarity coder (Section 4.2).

    Operates on a *block* of words — the 32 lanes of a warp register
    access, or the words of a cache line — XNORing every non-pivot word
    against the pivot. Bits equal to the pivot's become 1. The pivot
    itself is stored raw so the block is self-describing.

    The pivot index is lane 21 for warp registers (the paper's profiled
    optimum) and element 0 for cache lines, where per-element pivots
    cannot be profiled.
    """

    abbr = "VS"
    name = "value similarity"

    def __init__(self, pivot_index: int = DEFAULT_PIVOT_LANE):
        if pivot_index < 0:
            raise ValueError("pivot_index must be non-negative")
        self.pivot_index = pivot_index

    def _pivot_for(self, block: np.ndarray) -> int:
        # Fall back toward the front of short blocks (e.g. cache lines
        # addressed with element-0 pivots, or partially active warps).
        return min(self.pivot_index, block.shape[0] - 1)

    def encode_words(self, words):
        """Encode a block; axis 0 indexes lanes/elements."""
        block = np.asarray(words, dtype=np.uint32)
        if block.ndim == 0 or block.shape[0] == 0:
            return block.copy()
        pivot = self._pivot_for(block)
        out = xnor(block, block[pivot])
        out[pivot] = block[pivot]
        return out

    def encode_masked(self, block: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Encode only active lanes (branch divergence, Section 4.2.2).

        Inactive lanes pass through untouched; if the pivot lane itself
        is inactive the hardware issues the dummy-mov re-pivot, which at
        the bit level is equivalent to using the first active lane as
        pivot — modelled exactly that way here.
        """
        block = np.asarray(block, dtype=np.uint32)
        active = np.asarray(active, dtype=bool)
        if block.shape[0] != active.shape[0]:
            raise ValueError("active mask must match block's lane count")
        if not active.any():
            return block.copy()
        pivot = self._pivot_for(block)
        if not active[pivot]:
            pivot = int(np.flatnonzero(active)[0])
        out = block.copy()
        out[active] = xnor(block[active], block[pivot])
        out[pivot] = block[pivot]
        return out

    def decode_masked(self, block: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode_masked` (same operation)."""
        return self.encode_masked(block, active)

    # -- whole-trace batched forms ---------------------------------------
    #
    # The replay hot path stacks every tallied block of a trace into one
    # (n_blocks, lanes) matrix and encodes them all in a handful of
    # array ops. These are bit-exact batched equivalents of
    # encode_words/encode_masked with axis 1 (not axis 0) indexing
    # lanes; tests/test_vectorized_equivalence.py pins them against the
    # scalar forms.

    def encode_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_words` over a stack of blocks.

        ``blocks`` is ``(n_blocks, lanes)``; every row is encoded
        independently against its own pivot lane.
        """
        b = np.asarray(blocks, dtype=np.uint32)
        if b.ndim != 2:
            raise ValueError("encode_blocks expects a (n_blocks, lanes) array")
        if b.shape[0] == 0 or b.shape[1] == 0:
            return b.copy()
        pivot = min(self.pivot_index, b.shape[1] - 1)
        out = xnor(b, b[:, pivot:pivot + 1])
        out[:, pivot] = b[:, pivot]
        return out

    def encode_masked_blocks(self, blocks: np.ndarray,
                             active: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_masked` over a stack of blocks.

        ``blocks`` and ``active`` are both ``(n_blocks, lanes)``; each
        row applies the scalar form's exact pivot rules — inactive
        lanes pass through, an inactive pivot re-pivots to the row's
        first active lane, and all-inactive rows copy through.
        """
        b = np.asarray(blocks, dtype=np.uint32)
        act = np.asarray(active, dtype=bool)
        if b.ndim != 2 or b.shape != act.shape:
            raise ValueError("active mask must match the blocks' shape")
        n, lanes = b.shape
        if n == 0 or lanes == 0:
            return b.copy()
        rows = np.arange(n)
        base_pivot = min(self.pivot_index, lanes - 1)
        any_active = act.any(axis=1)
        first_active = np.argmax(act, axis=1)
        pivot = np.where(act[:, base_pivot] | ~any_active,
                         base_pivot, first_active)
        pivot_vals = b[rows, pivot]
        encoded = xnor(b, pivot_vals[:, None])
        out = np.where(act, encoded, b)
        out[rows, pivot] = pivot_vals
        return out

    def decode_masked_blocks(self, blocks: np.ndarray,
                             active: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode_masked_blocks` (same operation)."""
        return self.encode_masked_blocks(blocks, active)

    def encode_segments(self, words: np.ndarray,
                        sizes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_words` over blocks of any length.

        ``words`` is the concatenation of consecutive blocks whose
        lengths are ``sizes`` (summing to ``words.size``); each block is
        encoded against its own pivot, and an empty block encodes to
        nothing.
        """
        w = np.asarray(words, dtype=np.uint32)
        sizes = np.asarray(sizes, dtype=np.int64)
        if w.ndim != 1 or sizes.sum() != w.size:
            raise ValueError("segment sizes must cover the word array")
        live = sizes > 0
        sizes = sizes[live]
        starts = np.cumsum(sizes) - sizes
        pivots = starts + np.minimum(self.pivot_index, sizes - 1)
        out = xnor(w, np.repeat(w[pivots], sizes))
        out[pivots] = w[pivots]
        return out


class ISACoder(Coder):
    """ISA Preference coder (Section 4.3).

    XNORs each 64-bit instruction word with a static, per-architecture
    mask whose bit b is 0 where the ISA statistically prefers 0 at that
    position (so the XNOR yields 1 for the common case). The mask is
    derived offline from application binaries — see
    :mod:`repro.core.masks`.
    """

    abbr = "ISA"
    name = "ISA preference"
    word_bits = INST_BITS

    def __init__(self, mask: int):
        self.mask = np.uint64(mask & 0xFFFFFFFFFFFFFFFF)

    def encode_words(self, words):
        return xnor(np.asarray(words, dtype=np.uint64), self.mask,
                    bits=INST_BITS)


@dataclass
class ComposedCoder:
    """Order-sensitive composition of coders sharing a space overlap.

    Where spaces overlap (e.g. REG is in both NV's and VS's space) the
    stored format is the outer coder applied to the inner coder's
    output. Property II of Section 3.3 — spaces don't corrupt each
    other — holds because decoding peels the layers in reverse order.
    """

    stages: Sequence[Coder] = field(default_factory=tuple)

    def encode_words(self, words: np.ndarray) -> np.ndarray:
        out = np.asarray(words)
        for stage in self.stages:
            out = stage.encode_words(out)
        return out

    def decode_words(self, words: np.ndarray) -> np.ndarray:
        out = np.asarray(words)
        for stage in reversed(self.stages):
            out = stage.decode_words(out)
        return out

    @property
    def abbrs(self) -> Tuple[str, ...]:
        return tuple(s.abbr for s in self.stages)
