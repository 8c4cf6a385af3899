"""Bit-statistics accounting: per-unit tallies under every coder variant.

The paper's trace parser counts, for each BVF unit, "the volume of bit
0/1 in the data contents in terms of reads and writes", and for the NoC
"the volume of bit transition for every two consecutive flit
transmissions in the same channel" — first for the baseline, then with
each coder enabled. We do the same, in a single pass: every tallied
word batch is encoded under each variant and counted.

Variants: ``base`` (no coder), ``NV``, ``VS``, ``ISA`` (each coder
alone) and ``ALL`` (the paper's deployed combination). A variant's
counts for a unit outside that coder's BVF space equal the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.bitutils import (INST_BITS, WORD_BITS, popcount32, popcount64,
                             sequence_toggles)
from ..core.coders import ISACoder, NVCoder, VSCoder
from ..core.spaces import CODER_SPACES, Unit

__all__ = ["VARIANTS", "AccessCounts", "Tally", "TallyBatch", "Encoders",
           "NoCStats", "TimingStats"]

VARIANTS = ("base", "NV", "VS", "ISA", "ALL")


@dataclass
class AccessCounts:
    """Per-bit-value access totals for one (unit, variant)."""

    read0: int = 0
    read1: int = 0
    write0: int = 0
    write1: int = 0

    def add(self, is_store: bool, zeros: int, ones: int) -> None:
        if is_store:
            self.write0 += zeros
            self.write1 += ones
        else:
            self.read0 += zeros
            self.read1 += ones

    @property
    def total_bits(self) -> int:
        return self.read0 + self.read1 + self.write0 + self.write1

    @property
    def one_fraction(self) -> float:
        total = self.total_bits
        ones = self.read1 + self.write1
        return ones / total if total else 0.0

    def merged(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            self.read0 + other.read0, self.read1 + other.read1,
            self.write0 + other.write0, self.write1 + other.write1,
        )

    def as_dict(self) -> Dict[str, int]:
        return {"read0": self.read0, "read1": self.read1,
                "write0": self.write0, "write1": self.write1}


class Tally:
    """Access-count accumulator over (unit, variant) pairs."""

    def __init__(self):
        self.counts: Dict[Tuple[Unit, str], AccessCounts] = {}

    def add(self, unit: Unit, variant: str, is_store: bool,
            zeros: int, ones: int) -> None:
        key = (unit, variant)
        counts = self.counts.get(key)
        if counts is None:
            counts = self.counts[key] = AccessCounts()
        counts.add(is_store, zeros, ones)

    def get(self, unit: Unit, variant: str) -> AccessCounts:
        return self.counts.get((unit, variant), AccessCounts())

    def merge(self, other: "Tally") -> None:
        for key, counts in other.counts.items():
            self.counts[key] = self.get(*key).merged(counts)

    def units(self):
        return sorted({unit for unit, __ in self.counts}, key=lambda u: u.name)


class Encoders:
    """Applies each variant's coder stack to word batches for tallying.

    ``pivot_lane`` parameterises the warp-register VS coder (the paper's
    profiled optimum is lane 21); cache-line VS coding always pivots on
    element 0 because per-line pivots cannot be profiled (Section 4.2.1).
    """

    def __init__(self, isa_mask: int, pivot_lane: int = 21):
        self.nv = NVCoder()
        self.vs_warp = VSCoder(pivot_index=pivot_lane)
        self.vs_line = VSCoder(pivot_index=0)
        self.isa = ISACoder(isa_mask)

    # -- data stream ----------------------------------------------------

    def _vs_for(self, blocked: str) -> VSCoder:
        return self.vs_warp if blocked == "warp" else self.vs_line

    def data_variants(self, unit: Unit, words: np.ndarray,
                      blocked: str = "line",
                      active: Optional[np.ndarray] = None,
                      sizes: Optional[np.ndarray] = None
                      ) -> Dict[str, np.ndarray]:
        """Per-variant encodings of a data word batch for ``unit``.

        ``blocked`` selects the VS blocking: "warp" (axis-0 lanes, pivot
        lane 21, honouring the active mask) or "line" (axis-0 words of a
        cache line, pivot element 0). With ``sizes``, ``words`` is a
        concatenation of blocks of those lengths (NoC packets), each
        VS-coded against its own pivot: one call encodes them all.
        """
        w = np.asarray(words, dtype=np.uint32)
        in_nv = unit in CODER_SPACES["NV"].units
        in_vs = unit in CODER_SPACES["VS"].units
        nv_words = self.nv.encode_words(w) if in_nv else w
        if in_vs:
            vs = self._vs_for(blocked)
            if blocked == "warp" and active is not None:
                vs_words = vs.encode_masked(w, active)
                all_words = vs.encode_masked(nv_words, active)
            elif sizes is not None:
                vs_words = vs.encode_segments(w, sizes)
                all_words = vs.encode_segments(nv_words, sizes)
            else:
                vs_words = vs.encode_words(w)
                all_words = vs.encode_words(nv_words)
        else:
            vs_words = w
            all_words = nv_words
        return {"base": w, "NV": nv_words, "VS": vs_words,
                "ISA": w, "ALL": all_words}

    def data_variant_blocks(self, unit: Unit, blocks: np.ndarray,
                            blocked: str = "line",
                            active: Optional[np.ndarray] = None
                            ) -> Dict[str, np.ndarray]:
        """Vectorised :meth:`data_variants` over a stack of blocks.

        ``blocks`` is ``(n_blocks, width)`` with axis 1 indexing lanes
        (warp blocking) or line words (line blocking); ``active`` is an
        optional same-shape mask honoured by warp-blocked VS coding.
        Every returned variant matrix is the row-wise equivalent of
        calling :meth:`data_variants` per block.
        """
        w = np.asarray(blocks, dtype=np.uint32)
        in_nv = unit in CODER_SPACES["NV"].units
        in_vs = unit in CODER_SPACES["VS"].units
        nv_words = self.nv.encode_words(w) if in_nv else w
        if in_vs:
            vs = self._vs_for(blocked)
            if blocked == "warp" and active is not None:
                vs_words = vs.encode_masked_blocks(w, active)
                all_words = vs.encode_masked_blocks(nv_words, active)
            else:
                vs_words = vs.encode_blocks(w)
                all_words = vs.encode_blocks(nv_words)
        else:
            vs_words = w
            all_words = nv_words
        return {"base": w, "NV": nv_words, "VS": vs_words,
                "ISA": w, "ALL": all_words}

    # -- instruction stream ----------------------------------------------

    def inst_variants(self, words: np.ndarray) -> Dict[str, np.ndarray]:
        w = np.asarray(words, dtype=np.uint64)
        encoded = self.isa.encode_words(w)
        return {"base": w, "NV": w, "VS": w, "ISA": encoded, "ALL": encoded}


#: Rows (data) or words (instructions) one :class:`TallyBatch` record
#: holds before it is tallied: bounds memory on long traces. Tallies
#: are exact integer sums, so the bound never changes a count.
FLUSH_ROWS = 4096


def flush_chunks(items):
    """``items`` in consecutive slices of at most :data:`FLUSH_ROWS`,
    so a bulk record holds no more than one flush's worth at once."""
    return [items[i:i + FLUSH_ROWS] for i in range(0, len(items), FLUSH_ROWS)]


@lru_cache(maxsize=None)
def _all_counted(shape: Tuple[int, ...]) -> np.ndarray:
    """A shared read-only mask counting every word of a block."""
    mask = np.ones(shape, dtype=bool)
    mask.flags.writeable = False
    return mask


def _ones_per_variant(variants: Dict[str, np.ndarray], ones) -> list:
    """``ones(array)`` for each of :data:`VARIANTS`, computed once per
    distinct array: a variant whose coder leaves the unit alone shares
    the baseline's array (or another variant's) rather than a copy."""
    distinct = {id(words): words for words in variants.values()}
    counted = {key: ones(words) for key, words in distinct.items()}
    return [counted[id(variants[variant])] for variant in VARIANTS]


class TallyBatch:
    """Deferred whole-trace tallying over an :class:`Encoders`/:class:`Tally`.

    Per-access tallying costs a dozen NumPy dispatches on a 32-element
    array, so accesses are recorded raw, one record shape per stream:

    * data: ``(rows, width)`` uint32 blocks plus a same-shape bool mask
      of the words each access counts, keyed by ``(unit, blocked,
      width, is_store)``; a warp access is one row;
    * instructions: 64-bit words keyed by ``(unit, is_store)``.

    A flush stacks each key's records, encodes them under every coder
    variant with the batched coder paths and sums the popcounts of the
    counted words. Tallies are exact integer sums, so the counts are
    **bit-identical** to per-access scalar tallying (the golden
    fixtures and ``tests/test_vectorized_equivalence.py`` pin this),
    and a key with no counted word creates no tally entry.
    """

    def __init__(self, encoders: Encoders, tally: Tally):
        self.encoders = encoders
        self.tally = tally
        #: data key -> [[blocks], [counted masks], rows]
        self._data: Dict[tuple, list] = {}
        #: (unit, is_store) -> [words]
        self._inst: Dict[tuple, list] = {}

    # -- recording -------------------------------------------------------

    def add_warp(self, unit: Unit, values: np.ndarray, active: np.ndarray,
                 is_store: bool) -> None:
        """Record warp-blocked register/shared-memory accesses: a
        ``(warps, 32)`` block (or one ``(32,)`` warp) of lane values,
        one row per warp, counted where ``active``."""
        width = values.shape[-1]
        self._add_data((unit, "warp", width, is_store),
                       values, active, values.size // width)

    def add_line(self, unit: Unit, lines: np.ndarray, is_store: bool,
                 counted: Optional[np.ndarray] = None) -> None:
        """Record a ``(rows, width)`` block of cache-line accesses.

        ``counted`` is a same-shape bool mask of the words each access
        touches (default: every word).
        """
        if counted is None:
            counted = _all_counted(lines.shape)
        self._add_data((unit, "line", lines.shape[1], is_store),
                       lines, counted, lines.shape[0])

    def _add_data(self, key: tuple, blocks: np.ndarray, counted: np.ndarray,
                  rows: int) -> None:
        entry = self._data.get(key)
        if entry is None:
            entry = self._data[key] = [[], [], 0]
        entry[0].append(blocks)
        entry[1].append(counted)
        entry[2] += rows
        if entry[2] >= FLUSH_ROWS:
            del self._data[key]
            self._tally_data(key, entry[0], entry[1])

    def add_inst(self, unit: Unit, words, is_store: bool) -> None:
        """Record one access of each 64-bit instruction word in
        ``words`` (a sequence of ints or a uint64 array)."""
        key = (unit, is_store)
        entry = self._inst.get(key)
        if entry is None:
            entry = self._inst[key] = []
        entry.extend(words)
        if len(entry) >= FLUSH_ROWS:
            del self._inst[key]
            self._tally_inst(key, entry)

    # -- flushing --------------------------------------------------------

    def flush(self) -> None:
        """Tally everything recorded since the last flush."""
        for key, (blocks, masks, __) in self._data.items():
            self._tally_data(key, blocks, masks)
        for key, words in self._inst.items():
            self._tally_inst(key, words)
        self._data.clear()
        self._inst.clear()

    def _tally_data(self, key: tuple, blocks: list, masks: list) -> None:
        unit, blocked, __, is_store = key
        counted = np.vstack(masks)
        n_words = int(np.count_nonzero(counted))
        if not n_words:
            return
        variants = self.encoders.data_variant_blocks(
            unit, np.vstack(blocks), blocked,
            counted if blocked == "warp" else None)
        self._book(unit, is_store, n_words * WORD_BITS, _ones_per_variant(
            variants, lambda words: (popcount32(words) * counted).sum()))

    def _tally_inst(self, key: tuple, words: list) -> None:
        unit, is_store = key
        variants = self.encoders.inst_variants(
            np.array(words, dtype=np.uint64))
        self._book(unit, is_store, len(words) * INST_BITS, _ones_per_variant(
            variants, lambda words: popcount64(words).sum()))

    def _book(self, unit: Unit, is_store: bool, total: int,
              ones: list) -> None:
        """Add each variant's one-bit count out of ``total`` bits."""
        for variant, count in zip(VARIANTS, ones):
            count = int(count)
            self.tally.add(unit, variant, is_store, total - count, count)


class NoCStats:
    """Per-channel consecutive-flit toggle counting, per variant.

    Channels are physical serialisation points of the crossbar: one
    request channel per L2 bank (all SMs' flits serialise at the bank's
    input port) and one response channel per SM. Wormhole routing with
    virtual-channel arbitration interleaves the flits of packets in
    flight on the same channel; we model two VCs per channel, so each
    pair of consecutive packets alternates its flits on the wire.

    :meth:`count` takes a drain's packets on every channel at once and
    counts them in one segmented pass. A channel's odd last packet is
    held until its VC partner arrives in a later drain, or until
    :meth:`flush` sends it alone; each channel's wire state carries
    over from one drain to the next. Toggle sums are order-exact, so
    where the drains fall never changes a count.
    """

    def __init__(self, flit_bytes: int):
        self.flit_bytes = flit_bytes
        self.toggles: Dict[str, int] = {v: 0 for v in VARIANTS}
        self.flits: int = 0
        #: Per-channel ``(variants, flit_bytes)`` wire state after the
        #: last count.
        self._last: Dict[int, np.ndarray] = {}
        #: Per-channel odd last packet, ``(variants, bytes)``, waiting
        #: for its VC partner.
        self.held: Dict[int, np.ndarray] = {}

    def count(self, channels: np.ndarray, starts: np.ndarray,
              sizes: np.ndarray, payload: np.ndarray) -> None:
        """Count packets sent in order: packet ``i`` travels on channel
        ``channels[i]`` (an int) and is ``payload[:, starts[i]:starts[i]
        + sizes[i]]`` of a ``(variants, bytes)`` uint8 block, rows in
        :data:`VARIANTS` order."""
        self._count(channels, starts, sizes, payload, hold=True)

    def flush(self) -> None:
        """Count every held packet, each alone on its channel."""
        n_variants = len(VARIANTS)
        self._count(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros((n_variants, 0), dtype=np.uint8), hold=False)

    def _count(self, channels, starts, sizes, payload, hold: bool) -> None:
        """The segmented pass.

        Every packet pads to whole flits, its last flit driving only the
        bytes left (an empty packet still takes one undriven flit). One
        sort by (channel, VC pair, 2 * flit slot + parity) lays out
        each channel's wire behind a row holding its carried state: each
        pair of consecutive packets alternates its flits, the first
        packet first, and the longer one's surplus flits follow back to
        back. A partial flit leaves its unused wires holding their
        previous values (idle bus lines do not switch), so each byte
        lane is forward-filled from the latest row that drove it; a
        channel's first row is fully driven, so nothing fills across
        channels. One XOR/popcount then counts every transition except
        those into a channel's first row.
        """
        if self.held:
            held = self.held
            self.held = {}
            blocks = list(held.values())
            held_sizes = np.array([b.shape[1] for b in blocks], dtype=np.int64)
            payload = np.concatenate(blocks + [payload], axis=1)
            channels = np.r_[np.fromiter(held, dtype=np.int64,
                                         count=len(held)), channels]
            starts = np.r_[np.cumsum(held_sizes) - held_sizes,
                           starts + held_sizes.sum()]
            sizes = np.r_[held_sizes, sizes]
        if not channels.size:
            return
        # Each packet's sequence number on its channel (held packets
        # come first on theirs).
        order = np.argsort(channels, kind="stable")
        chan = channels[order]
        first = np.flatnonzero(np.r_[True, chan[1:] != chan[:-1]])
        per_channel = np.diff(np.r_[first, chan.size])
        seq = np.arange(chan.size) - np.repeat(first, per_channel)
        if hold:
            odd = first[per_channel % 2 == 1] + per_channel[
                per_channel % 2 == 1] - 1
            for k in odd.tolist():
                p = order[k]
                self.held[int(chan[k])] = payload[
                    :, starts[p]:starts[p] + sizes[p]].copy()
            keep = np.ones(chan.size, dtype=bool)
            keep[odd] = False
            order, chan, seq = order[keep], chan[keep], seq[keep]
            if not chan.size:
                return
        fb = self.flit_bytes
        n_variants = payload.shape[0]
        n_bytes = sizes[order]
        n_flits = np.maximum(1, -(-n_bytes // fb))
        total = int(n_flits.sum())
        ends = np.cumsum(n_flits)
        slot = np.arange(total) - np.repeat(ends - n_flits, n_flits)
        # Flit rows, then one carried-state row per channel, each a
        # window of ``fb`` bytes of one buffer: the payload, the
        # channels' carried states and ``fb`` bytes of slack.
        present = chan[np.r_[True, chan[1:] != chan[:-1]]].tolist()
        fresh = np.zeros((n_variants, fb), dtype=np.uint8)
        buffer = np.concatenate(
            [payload] + [self._last.get(c, fresh) for c in present]
            + [fresh], axis=1)
        # One sort key per row: (channel, VC pair, 2 * slot + parity),
        # a channel's carried state sorting first as pair -1.
        pairs = int(seq.max()) // 2 + 2
        slots = 2 * int(n_flits.max()) + 2
        row_key = np.r_[
            (np.repeat(chan * pairs + seq // 2 + 1, n_flits) * slots
             + 2 * slot + np.repeat(seq % 2, n_flits)),
            np.array(present, dtype=np.int64) * pairs * slots]
        row_base = np.r_[np.repeat(starts[order], n_flits) + slot * fb,
                         payload.shape[1] + fb * np.arange(len(present))]
        row_driven = np.r_[
            np.minimum(fb, np.repeat(n_bytes, n_flits) - slot * fb),
            np.full(len(present), fb)]
        rows = np.argsort(row_key)
        states = sliding_window_view(buffer, fb, axis=1)[:, row_base[rows]]
        driven = row_driven[rows]
        partial = np.flatnonzero(driven < fb)
        if partial.size:
            # Forward fill: each pass settles one more row of every run
            # of consecutive partial rows (a channel's first row is
            # fully driven, so no run crosses channels).
            undriven = np.arange(fb) >= driven[partial][:, None]
            runs = np.diff(np.flatnonzero(np.diff(partial, prepend=-2,
                                                  append=-2) != 1))
            for __ in range(int(runs.max())):
                states[:, partial] = np.where(undriven, states[:, partial - 1],
                                              states[:, partial])
        carried = rows >= total
        toggles = sequence_toggles(states)
        counts = (toggles.sum(axis=1)
                  - toggles[:, np.flatnonzero(carried[1:])].sum(axis=1))
        for variant, count in zip(VARIANTS, counts.tolist()):
            self.toggles[variant] += count
        self.flits += total
        heads = np.flatnonzero(carried)
        tails = states[:, np.r_[heads[1:], rows.size] - 1].copy()
        for i, c in enumerate(present):
            self._last[c] = tails[:, i]

    @property
    def bit_slots(self) -> int:
        """Total transmitted bit-times (for toggle-rate normalisation)."""
        return self.flits * self.flit_bytes * 8

    def toggle_rate(self, variant: str) -> float:
        slots = self.bit_slots
        return self.toggles[variant] / slots if slots else 0.0


@dataclass
class TimingStats:
    """Coarse performance counters from the replay phase."""

    cycles: int = 0
    instructions: int = 0
    lane_ops: int = 0
    used_sms: int = 0
    class_lane_ops: Dict[str, int] = field(default_factory=dict)
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0

    def count_op(self, op_class: str, lanes: int) -> None:
        self.instructions += 1
        self.lane_ops += lanes
        self.class_lane_ops[op_class] = (
            self.class_lane_ops.get(op_class, 0) + lanes
        )

    @property
    def l1d_hit_rate(self) -> float:
        if not self.l1d_accesses:
            return 0.0
        return 1.0 - self.l1d_misses / self.l1d_accesses
