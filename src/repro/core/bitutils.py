"""Bit-level utilities over NumPy arrays of 32-bit and 64-bit words.

Everything in the BVF pipeline — Hamming-weight accounting, coder
transforms, NoC toggle counting, narrow-value profiling — reduces to a
handful of vectorised bit operations on word arrays. They live here so
the rest of the library never touches raw bit twiddling.

Words are represented as ``np.uint32`` (data path) or ``np.uint64``
(instruction path) arrays. All functions accept scalars or arrays and
return NumPy results.

Popcounts use the hardware ``np.bitwise_count`` ufunc when the
installed NumPy provides it (>= 2.0), falling back to a 16-bit lookup
table otherwise; both paths produce identical integers. Bit-plane
histograms reduce each word's bytes through per-byte ``bincount``
histograms folded against a (256, 8) bit-membership matrix, so a whole
trace's planes are counted without a per-position Python loop.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "WORD_BITS",
    "INST_BITS",
    "popcount32",
    "popcount64",
    "hamming_weight",
    "hamming_distance",
    "count_bits",
    "leading_zeros32",
    "signed_leading_zeros32",
    "bit_plane_counts",
    "words_to_bytes",
    "bytes_to_words",
    "pack_flits",
    "toggles_between",
    "sequence_toggles",
    "float_to_bits",
    "bits_to_float",
]

WORD_BITS = 32
INST_BITS = 64

#: NumPy >= 2.0 exposes the hardware popcount instruction as a ufunc.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# 16-bit popcount lookup table for the pre-2.0 fallback path.
_POP16 = np.array(
    [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
)

#: Bit-membership matrix: ``_BYTE_PLANES[v, p]`` is bit ``p`` of byte
#: value ``v``, MSB first — the fold matrix for plane histograms.
_BYTE_PLANES = (
    (np.arange(256, dtype=np.int64)[:, None]
     >> np.arange(7, -1, -1, dtype=np.int64)) & 1
)


def popcount32(words) -> np.ndarray:
    """Per-element number of set bits in an array of uint32 words.

    Counts come back as uint8 (a count is at most 32); NumPy's sum
    reductions upcast small integers to 64 bits, so totals never wrap.
    """
    w = np.asarray(words, dtype=np.uint32)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(w)
    lo = w & np.uint32(0xFFFF)
    hi = w >> np.uint32(16)
    return _POP16[lo] + _POP16[hi]


def popcount64(words) -> np.ndarray:
    """Per-element number of set bits in an array of uint64 words.

    Counts come back as uint8 (a count is at most 64); NumPy's sum
    reductions upcast small integers to 64 bits, so totals never wrap.
    """
    w = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(w)
    flat = np.ascontiguousarray(w).reshape(-1)
    if flat.size == 0:
        return np.zeros(w.shape, dtype=np.uint8)
    halves = _POP16[flat.view(np.uint16)].reshape(-1, 4)
    return halves.sum(axis=1, dtype=np.uint8).reshape(w.shape)


def hamming_weight(words, bits: int = WORD_BITS) -> int:
    """Total number of set bits across an array of words."""
    if bits == WORD_BITS:
        return int(popcount32(words).sum())
    if bits == INST_BITS:
        return int(popcount64(words).sum())
    raise ValueError(f"unsupported word width: {bits}")


def hamming_distance(a, b, bits: int = WORD_BITS) -> np.ndarray:
    """Per-element Hamming distance between two equal-shape word arrays."""
    if bits == WORD_BITS:
        x = np.asarray(a, dtype=np.uint32) ^ np.asarray(b, dtype=np.uint32)
        return popcount32(x)
    if bits == INST_BITS:
        x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
        return popcount64(x)
    raise ValueError(f"unsupported word width: {bits}")


def count_bits(words, bits: int = WORD_BITS) -> tuple:
    """Return ``(zeros, ones)`` totals across an array of words."""
    w = np.asarray(words)
    ones = hamming_weight(w, bits)
    total = int(w.size) * bits
    return total - ones, ones


def leading_zeros32(words) -> np.ndarray:
    """Per-element count of leading zero bits (the ``clz`` PTX op)."""
    w = np.asarray(words, dtype=np.uint32)
    out = np.full(w.shape, 32, dtype=np.int64)
    nz = w != 0
    if np.any(nz):
        # floor(log2(w)) gives the index of the highest set bit.
        high = np.zeros(w.shape, dtype=np.int64)
        high[nz] = np.floor(np.log2(w[nz].astype(np.float64))).astype(np.int64)
        out[nz] = 31 - high[nz]
    return out


def signed_leading_zeros32(words) -> np.ndarray:
    """Leading-zero counts after inverting negative values.

    This is the paper's Figure-8 metric: values with the sign bit set are
    bit-wise inverted before counting, so two's-complement small-magnitude
    negatives (leading 1s) count the same as small positives (leading 0s).
    """
    w = np.asarray(words, dtype=np.uint32)
    negative = (w >> np.uint32(31)).astype(bool)
    adjusted = np.where(negative, ~w, w).astype(np.uint32)
    return leading_zeros32(adjusted)


def bit_plane_counts(words, bits: int = WORD_BITS) -> np.ndarray:
    """Count of set bits at each bit position across an array of words.

    Position 0 is the most-significant bit, matching the paper's
    Figure-14 x-axis convention for instruction words.

    Computed as whole-array byte histograms: each of the word's byte
    columns is ``bincount``-ed once and the 256-bin histogram is folded
    through the per-byte bit-membership matrix — no per-position loop.
    """
    if bits == WORD_BITS:
        w = np.asarray(words, dtype=np.uint32).ravel()
    elif bits == INST_BITS:
        w = np.asarray(words, dtype=np.uint64).ravel()
    else:
        raise ValueError(f"unsupported word width: {bits}")
    n_bytes = bits // 8
    cols = np.ascontiguousarray(w).view(np.uint8).reshape(-1, n_bytes)
    if sys.byteorder == "little":
        # Byte 0 holds the least-significant bits; plane 0 is the MSB.
        cols = cols[:, ::-1]
    counts = np.empty(bits, dtype=np.int64)
    for byte in range(n_bytes):
        histogram = np.bincount(cols[:, byte], minlength=256)
        counts[byte * 8:(byte + 1) * 8] = histogram @ _BYTE_PLANES
    return counts


def words_to_bytes(words) -> np.ndarray:
    """Little-endian byte view of a uint32 word array."""
    w = np.ascontiguousarray(np.asarray(words, dtype=np.uint32))
    return w.view(np.uint8).reshape(w.shape + (4,)).reshape(-1)


def bytes_to_words(data) -> np.ndarray:
    """Inverse of :func:`words_to_bytes` (length must be a multiple of 4)."""
    b = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
    if b.size % 4:
        raise ValueError("byte length must be a multiple of 4")
    return b.view(np.uint32)


def pack_flits(payload_bytes, flit_bytes: int) -> np.ndarray:
    """Split a byte payload into fixed-size flits, zero-padding the tail.

    Returns a 2-D ``(n_flits, flit_bytes)`` uint8 array.
    """
    b = np.asarray(payload_bytes, dtype=np.uint8).ravel()
    n_flits = max(1, -(-b.size // flit_bytes))
    padded = np.zeros(n_flits * flit_bytes, dtype=np.uint8)
    padded[: b.size] = b
    return padded.reshape(n_flits, flit_bytes)


def toggles_between(prev_flit, next_flit) -> int:
    """Bit toggles between two consecutive flits on the same channel."""
    a = np.asarray(prev_flit, dtype=np.uint8)
    b = np.asarray(next_flit, dtype=np.uint8)
    x = a ^ b
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(x).sum(dtype=np.int64))
    return int(_POP16[x].sum(dtype=np.int64))


def sequence_toggles(flits) -> np.ndarray:
    """Per-transition toggle counts across a whole flit sequence.

    ``flits`` is a ``(..., n_states, width)`` uint8 array of consecutive
    wire states on one channel (leading axes, such as coder variants,
    are independent sequences); element ``i`` along the second-to-last
    axis of the result counts the bit flips between states ``i`` and
    ``i + 1`` — the vectorised equivalent of calling
    :func:`toggles_between` on every consecutive pair.
    """
    f = np.asarray(flits, dtype=np.uint8)
    if f.ndim < 2:
        raise ValueError(
            "sequence_toggles expects a (..., n_states, width) array")
    if f.shape[-2] < 2:
        return np.zeros(f.shape[:-2] + (0,), dtype=np.int64)
    x = f[..., 1:, :] ^ f[..., :-1, :]
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(x).sum(axis=-1, dtype=np.int64)
    return _POP16[x].sum(axis=-1, dtype=np.int64)


def float_to_bits(values) -> np.ndarray:
    """IEEE-754 single-precision bit patterns of a float array."""
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def bits_to_float(words) -> np.ndarray:
    """Inverse of :func:`float_to_bits`."""
    return np.asarray(words, dtype=np.uint32).view(np.float32)
