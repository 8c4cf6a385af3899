"""Bus-invert coding: the classic low-power bus baseline (Section 3.2).

Stan & Burleson's bus-invert code is the optimal scheme for reducing
parallel-bus toggling under uniform random data: if more than half of a
word's bits would toggle relative to the previous transmission, send
the inverted word and assert a parity line. The paper contrasts it with
BVF on two grounds, both reproducible here:

1. it needs an extra parity bit per channel — a real overhead inside
   memory arrays, which is why it is used on buses, not SRAM;
2. it minimises Hamming *distance* between consecutive words and is
   indifferent to Hamming *weight*, so it does nothing for BVF cells,
   whose energy depends on the stored values themselves.

The implementation is stateful per channel (the decoder must track the
same reference the encoder used). :meth:`BusInvertEncoder.encode` is the
scalar definition; streams are encoded in one closed-form pass
(:func:`_invert_flags`) that reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bitutils import WORD_BITS, popcount32

__all__ = ["BusInvertEncoder", "BusInvertDecoder", "bus_invert_toggles"]

_U32_MASK = np.uint32(0xFFFFFFFF)


@dataclass
class BusInvertEncoder:
    """Stateful bus-invert encoder for one 32-bit channel."""

    previous: np.uint32 = np.uint32(0)
    inversions: int = 0
    transmissions: int = 0

    def encode(self, word) -> Tuple[int, bool]:
        """Encode one word; returns (wire word, invert-line state)."""
        w = np.uint32(word)
        toggles = int(popcount32(w ^ self.previous))
        invert = toggles > WORD_BITS // 2
        wire = (~w & _U32_MASK) if invert else w
        self.previous = wire
        self.transmissions += 1
        self.inversions += int(invert)
        return int(wire), invert

    def encode_stream(self, words) -> Tuple[np.ndarray, np.ndarray]:
        """Encode a word sequence; returns (wire words, invert flags).

        Equal to calling :meth:`encode` once per word, state included,
        but computed in one vectorised pass.
        """
        stream = np.asarray(words, dtype=np.uint32).ravel()
        __, flags = _invert_flags(stream, self.previous)
        wire = np.where(flags, ~stream, stream)
        if stream.size:
            self.previous = wire[-1]
        self.transmissions += int(stream.size)
        self.inversions += int(np.count_nonzero(flags))
        return wire, flags


def _invert_flags(stream: np.ndarray,
                  previous) -> Tuple[np.ndarray, np.ndarray]:
    """Raw distances and invert flags of bus-invert over ``stream``.

    With ``d_i = popcount(w_i ^ w_{i-1})``, where ``w_{-1}`` is
    ``previous`` (the last wire word, taken as sent plain), the wire
    word before ``w_i`` differs from it in ``d_i`` bits if that word
    went out plain and in ``32 - d_i`` if inverted. So the flag obeys
    ``s_i = s_{i-1} XOR (d_i > 16)``, except that a tie ``d_i == 16``
    resets it to 0 (neither choice exceeds half the wires). That is a
    prefix parity of ``d > 16`` restarted at every tie: a ``cumsum``
    minus its value at the last tie, found with ``maximum.accumulate``.
    """
    if stream.size == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool)
    before = np.empty_like(stream)
    before[0] = previous
    before[1:] = stream[:-1]
    dist = popcount32(stream ^ before)
    half = WORD_BITS // 2
    odd = np.cumsum(dist > half, dtype=np.int64)
    ties = np.where(dist == half, np.arange(stream.size), -1)
    last_tie = np.maximum.accumulate(ties)
    at_tie = np.where(last_tie >= 0, odd[last_tie], 0)
    return dist, ((odd - at_tie) & 1).astype(bool)


@dataclass
class BusInvertDecoder:
    """Inverse of :class:`BusInvertEncoder` (needs the invert line)."""

    def decode_stream(self, wire_words, invert_flags) -> np.ndarray:
        wire = np.asarray(wire_words, dtype=np.uint32)
        flags = np.asarray(invert_flags, dtype=bool)
        if wire.shape != flags.shape:
            raise ValueError("wire words and invert flags differ in shape")
        return np.where(flags, ~wire & _U32_MASK, wire)


def bus_invert_toggles(words) -> Tuple[int, int]:
    """Toggle counts for a word stream: (uncoded, bus-invert coded).

    The coded count includes the invert line's own transitions — the
    parity overhead the paper calls out. Both lines start at 0.
    """
    stream = np.asarray(words, dtype=np.uint32).ravel()
    dist, flags = _invert_flags(stream, np.uint32(0))
    # A wire word toggles d_i bits when the flag repeats and 32 - d_i
    # when it flips; the invert line toggles exactly when it flips.
    flips = flags != np.concatenate(([False], flags[:-1]))
    raw = int(dist.sum(dtype=np.int64))
    coded = int(np.where(flips, WORD_BITS - dist.astype(np.int64),
                         dist).sum()) + int(np.count_nonzero(flips))
    return raw, coded
