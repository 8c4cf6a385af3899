"""Differential harness: vectorized hot paths vs pinned scalar oracles.

The replay/simulate pipeline was rewritten as whole-trace NumPy
bitplane operations (batched popcounts, bincount bit-plane histograms,
XNOR block coding, wire-state toggle matrices, deferred tallying).
Every fast path here is driven against a slow reference that is either
pure-Python bit arithmetic or a verbatim copy of the pre-vectorization
scalar implementation, over random, adversarial and empty inputs.

These oracles are pinned on purpose: do not "simplify" them to call
the code under test.
"""

import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.gpu import GPUReplay
from repro.arch.memory import GlobalMemory
from repro.arch.stats import Encoders, NoCStats, Tally, TallyBatch, VARIANTS
from repro.core import bitutils as bu
from repro.core.coders import VSCoder, xnor
from repro.core.spaces import Unit

LANES = 32

u32s = st.integers(min_value=0, max_value=0xFFFFFFFF)
u64s = st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF)
u8s = st.integers(min_value=0, max_value=0xFF)

#: Adversarial uint32 word patterns: all-zeros, all-ones, alternating
#: bits and bytes, sign-boundary values.
ADVERSARIAL_U32 = [0, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555,
                   0x00FF00FF, 0xFF00FF00, 0x80000000, 0x7FFFFFFF, 1]
ADVERSARIAL_U64 = [0, 0xFFFFFFFFFFFFFFFF, 0xAAAAAAAAAAAAAAAA,
                   0x5555555555555555, 0x8000000000000000, 1,
                   0x00FF00FF00FF00FF]


# ---------------------------------------------------------------------------
# Pinned scalar oracles (pre-vectorization implementations / pure Python)
# ---------------------------------------------------------------------------

def oracle_popcount(value: int) -> int:
    return bin(int(value)).count("1")


def oracle_leading_zeros32(value: int) -> int:
    return 32 - int(value).bit_length()


def oracle_bit_plane_counts(words, bits: int) -> np.ndarray:
    """Verbatim copy of the pre-vectorization per-position shift loop."""
    if bits == 32:
        w = np.asarray(words, dtype=np.uint32).ravel()
    else:
        w = np.asarray(words, dtype=np.uint64).ravel()
    counts = np.empty(bits, dtype=np.int64)
    one = w.dtype.type(1)
    for pos in range(bits):
        shift = w.dtype.type(bits - 1 - pos)
        counts[pos] = int(((w >> shift) & one).sum())
    return counts


def oracle_toggles_between(prev_flit, next_flit) -> int:
    a = np.asarray(prev_flit, dtype=np.uint8)
    b = np.asarray(next_flit, dtype=np.uint8)
    return sum(oracle_popcount(int(x)) for x in (a ^ b))


def oracle_encode_masked(pivot_index: int, block, active) -> np.ndarray:
    """Verbatim copy of the scalar VSCoder.encode_masked semantics."""
    block = np.asarray(block, dtype=np.uint32)
    active = np.asarray(active, dtype=bool)
    if not active.any():
        return block.copy()
    pivot = min(pivot_index, block.shape[0] - 1)
    if not active[pivot]:
        pivot = int(np.flatnonzero(active)[0])
    out = block.copy()
    out[active] = xnor(block[active], block[pivot])
    out[pivot] = block[pivot]
    return out


def oracle_tally_warp(encoders: Encoders, tally: Tally, unit: Unit,
                      words: np.ndarray, is_store: bool, blocked: str = "line",
                      active=None) -> None:
    """Verbatim copy of the pre-vectorization Encoders.tally_data."""
    w = np.asarray(words, dtype=np.uint32)
    if active is not None and blocked == "warp":
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            return
        total = n_active * 32
    else:
        if w.size == 0:
            return
        total = w.size * 32
    for variant, encoded in encoders.data_variants(unit, w, blocked,
                                                   active).items():
        if active is not None and blocked == "warp":
            ones = bu.hamming_weight(encoded[active])
        else:
            ones = bu.hamming_weight(encoded)
        tally.add(unit, variant, is_store, total - ones, ones)


def oracle_tally_line(encoders: Encoders, tally: Tally, unit: Unit,
                      line_words: np.ndarray, is_store: bool,
                      subset=None) -> None:
    """Verbatim copy of the pre-vectorization GPUReplay._tally_line."""
    variants = encoders.data_variants(unit, line_words, "line")
    if subset is None:
        total = line_words.size * 32
        for variant, encoded in variants.items():
            ones = bu.hamming_weight(encoded)
            tally.add(unit, variant, is_store, total - ones, ones)
    else:
        if subset.size == 0:
            return
        total = subset.size * 32
        for variant, encoded in variants.items():
            ones = int(bu.popcount32(encoded[subset]).sum())
            tally.add(unit, variant, is_store, total - ones, ones)


def oracle_tally_inst_word(encoders: Encoders, tally: Tally, unit: Unit,
                           word: int, is_store: bool, count: int = 1) -> None:
    """Verbatim copy of the pre-vectorization GPUReplay._tally_inst_word."""
    arr = np.asarray([word], dtype=np.uint64)
    ones_base = int(bu.popcount64(arr)[0])
    ones_isa = int(bu.popcount64(encoders.isa.encode_words(arr))[0])
    total = 64 * count
    for variant, ones in (("base", ones_base), ("NV", ones_base),
                          ("VS", ones_base), ("ISA", ones_isa),
                          ("ALL", ones_isa)):
        tally.add(unit, variant, is_store, total - ones * count,
                  ones * count)


class OracleNoC:
    """Standalone scalar reference for :class:`NoCStats`.

    The pre-vectorization design, kept independent of the code under
    test: per-variant lists of ``flit_bytes`` chunks, an element-wise
    virtual-channel interleave of two pending packets, and a per-flit
    copy of the held wire state that a partial flit only partly
    overwrites. Toggles are counted flit by flit, bit by bit. It offers
    the slice of the ``NoCStats`` interface that ``Crossbar`` and
    ``GPUReplay`` drive (``send``, ``flush``, ``toggles``, ``flits``),
    so the end-to-end test can swap it in.
    """

    def __init__(self, flit_bytes: int, virtual_channels: int = 2):
        self.flit_bytes = flit_bytes
        self.virtual_channels = virtual_channels
        self.toggles = {v: 0 for v in VARIANTS}
        self.flits = 0
        self._last = {}
        self._pending = {}

    def _chunks(self, payload):
        n_flits = max(1, -(-payload.size // self.flit_bytes))
        return [payload[i * self.flit_bytes:(i + 1) * self.flit_bytes]
                for i in range(n_flits)]

    @staticmethod
    def _interleave(a, b):
        out = []
        for i in range(max(len(a), len(b))):
            if i < len(a):
                out.append(a[i])
            if i < len(b):
                out.append(b[i])
        return out

    def _transmit(self, channel, chunk_lists):
        self.flits += len(chunk_lists[VARIANTS[0]])
        last = self._last.setdefault(channel, {
            v: np.zeros(self.flit_bytes, dtype=np.uint8) for v in VARIANTS
        })
        for variant in VARIANTS:
            prev = last[variant]
            for chunk in chunk_lists[variant]:
                flit = prev.copy()
                flit[:chunk.size] = chunk
                self.toggles[variant] += oracle_toggles_between(prev, flit)
                prev = flit
            last[variant] = prev

    def send(self, channel, payload):
        """``payload`` is a ``(variants, bytes)`` array, rows in
        VARIANTS order."""
        chunk_lists = {
            v: self._chunks(np.asarray(row, dtype=np.uint8))
            for v, row in zip(VARIANTS, payload)
        }
        if self.virtual_channels < 2:
            self._transmit(channel, chunk_lists)
            return
        pending = self._pending.pop(channel, None)
        if pending is None:
            self._pending[channel] = chunk_lists
            return
        self._transmit(channel, {
            v: self._interleave(pending[v], chunk_lists[v]) for v in VARIANTS
        })

    def flush(self):
        for channel, chunk_lists in sorted(self._pending.items()):
            self._transmit(channel, chunk_lists)
        self._pending.clear()


# ---------------------------------------------------------------------------
# Bit primitives
# ---------------------------------------------------------------------------

class TestPopcounts:
    @given(st.lists(u32s, max_size=64))
    def test_popcount32_matches_python(self, values):
        arr = np.asarray(values, dtype=np.uint32)
        expected = [oracle_popcount(v) for v in values]
        assert bu.popcount32(arr).tolist() == expected

    @given(st.lists(u64s, max_size=64))
    def test_popcount64_matches_python(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        expected = [oracle_popcount(v) for v in values]
        assert bu.popcount64(arr).tolist() == expected

    def test_adversarial_words(self):
        a32 = np.asarray(ADVERSARIAL_U32, dtype=np.uint32)
        a64 = np.asarray(ADVERSARIAL_U64, dtype=np.uint64)
        assert bu.popcount32(a32).tolist() == [oracle_popcount(v)
                                               for v in ADVERSARIAL_U32]
        assert bu.popcount64(a64).tolist() == [oracle_popcount(v)
                                               for v in ADVERSARIAL_U64]

    def test_empty_inputs(self):
        assert bu.popcount32(np.empty(0, dtype=np.uint32)).size == 0
        assert bu.popcount64(np.empty(0, dtype=np.uint64)).size == 0
        assert bu.popcount64(np.empty((0, 4), dtype=np.uint64)).shape == (0, 4)

    def test_2d_shapes_preserved(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        out = bu.popcount64(arr)
        assert out.shape == (3, 4)
        assert out.ravel().tolist() == [oracle_popcount(v)
                                        for v in arr.ravel()]

    @given(st.lists(u32s, min_size=1, max_size=32),
           st.lists(u64s, min_size=1, max_size=32))
    def test_table_fallback_matches_ufunc_path(self, v32, v64):
        """The pre-NumPy-2.0 lookup-table path must agree bit for bit."""
        a32 = np.asarray(v32, dtype=np.uint32)
        a64 = np.asarray(v64, dtype=np.uint64)
        fast32, fast64 = bu.popcount32(a32), bu.popcount64(a64)
        original = bu._HAS_BITWISE_COUNT
        bu._HAS_BITWISE_COUNT = False
        try:
            assert np.array_equal(bu.popcount32(a32), fast32)
            assert np.array_equal(bu.popcount64(a64), fast64)
        finally:
            bu._HAS_BITWISE_COUNT = original


class TestLeadingZeros:
    @given(st.lists(u32s, max_size=64))
    def test_matches_bit_length(self, values):
        arr = np.asarray(values, dtype=np.uint32)
        expected = [oracle_leading_zeros32(v) for v in values]
        assert bu.leading_zeros32(arr).tolist() == expected

    def test_adversarial(self):
        arr = np.asarray(ADVERSARIAL_U32, dtype=np.uint32)
        assert bu.leading_zeros32(arr).tolist() == [
            oracle_leading_zeros32(v) for v in ADVERSARIAL_U32]


class TestBitPlaneCounts:
    @given(st.lists(u32s, max_size=64))
    def test_u32_matches_shift_loop(self, values):
        arr = np.asarray(values, dtype=np.uint32)
        assert np.array_equal(bu.bit_plane_counts(arr, 32),
                              oracle_bit_plane_counts(arr, 32))

    @given(st.lists(u64s, max_size=64))
    def test_u64_matches_shift_loop(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        assert np.array_equal(bu.bit_plane_counts(arr, 64),
                              oracle_bit_plane_counts(arr, 64))

    def test_adversarial_and_empty(self):
        for bits, adv, dtype in ((32, ADVERSARIAL_U32, np.uint32),
                                 (64, ADVERSARIAL_U64, np.uint64)):
            arr = np.asarray(adv, dtype=dtype)
            assert np.array_equal(bu.bit_plane_counts(arr, bits),
                                  oracle_bit_plane_counts(arr, bits))
            empty = np.empty(0, dtype=dtype)
            assert bu.bit_plane_counts(empty, bits).tolist() == [0] * bits


class TestSequenceToggles:
    @given(st.lists(st.lists(u8s, min_size=8, max_size=8),
                    min_size=2, max_size=16))
    def test_matches_pairwise_toggles(self, rows):
        flits = np.asarray(rows, dtype=np.uint8)
        expected = [oracle_toggles_between(flits[i - 1], flits[i])
                    for i in range(1, flits.shape[0])]
        assert bu.sequence_toggles(flits).tolist() == expected

    def test_agrees_with_toggles_between(self):
        rng = np.random.default_rng(7)
        flits = rng.integers(0, 256, (20, 32), dtype=np.uint8)
        per_pair = [bu.toggles_between(flits[i - 1], flits[i])
                    for i in range(1, 20)]
        assert bu.sequence_toggles(flits).tolist() == per_pair

    @pytest.mark.parametrize("bitwise_count", [True, False])
    def test_leading_axes_are_independent_sequences(self, bitwise_count,
                                                    monkeypatch):
        monkeypatch.setattr(bu, "_HAS_BITWISE_COUNT",
                            bitwise_count and bu._HAS_BITWISE_COUNT)
        rng = np.random.default_rng(3)
        flits = rng.integers(0, 256, (5, 9, 16), dtype=np.uint8)
        stacked = bu.sequence_toggles(flits)
        assert stacked.shape == (5, 8)
        for row, seq in zip(stacked, flits):
            assert row.tolist() == [oracle_toggles_between(seq[i], seq[i + 1])
                                    for i in range(8)]
        assert bu.sequence_toggles(flits[:, :1]).shape == (5, 0)

    def test_short_and_invalid_inputs(self):
        assert bu.sequence_toggles(np.zeros((1, 8), np.uint8)).size == 0
        assert bu.sequence_toggles(np.zeros((0, 8), np.uint8)).size == 0
        with pytest.raises(ValueError):
            bu.sequence_toggles(np.zeros(8, np.uint8))

    def test_adversarial_patterns(self):
        alt = np.asarray([[0x00] * 4, [0xFF] * 4] * 4, dtype=np.uint8)
        assert bu.sequence_toggles(alt).tolist() == [32] * 7
        flat = np.full((5, 4), 0xAA, dtype=np.uint8)
        assert bu.sequence_toggles(flat).tolist() == [0] * 4


# ---------------------------------------------------------------------------
# Batched VS coding
# ---------------------------------------------------------------------------

class TestVSCoderBlocks:
    @given(st.integers(0, 8), st.integers(1, LANES), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_encode_blocks_matches_per_row(self, n_rows, lanes, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 2**32, (n_rows, lanes), dtype=np.uint32)
        coder = VSCoder(pivot_index=21)
        batched = coder.encode_blocks(blocks)
        for row in range(n_rows):
            assert np.array_equal(batched[row],
                                  coder.encode_words(blocks[row]))

    @given(st.integers(0, 8), st.integers(1, LANES), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_encode_masked_blocks_matches_per_row(self, n_rows, lanes, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 2**32, (n_rows, lanes), dtype=np.uint32)
        active = rng.random((n_rows, lanes)) < 0.6
        coder = VSCoder(pivot_index=21)
        batched = coder.encode_masked_blocks(blocks, active)
        for row in range(n_rows):
            expected = oracle_encode_masked(21, blocks[row], active[row])
            assert np.array_equal(batched[row], expected)
            assert np.array_equal(expected,
                                  coder.encode_masked(blocks[row],
                                                      active[row]))

    def test_adversarial_masks(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 2**32, (4, LANES), dtype=np.uint32)
        coder = VSCoder(pivot_index=21)
        masks = np.ones((4, LANES), dtype=bool)
        masks[0] = False                       # all-inactive: copy-through
        masks[1, 21] = False                   # pivot inactive: re-pivot
        masks[2, :] = False
        masks[2, 31] = True                    # single active lane
        batched = coder.encode_masked_blocks(blocks, masks)
        for row in range(4):
            assert np.array_equal(
                batched[row], oracle_encode_masked(21, blocks[row],
                                                   masks[row]))

    def test_decode_inverts_encode(self):
        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 2**32, (6, LANES), dtype=np.uint32)
        active = rng.random((6, LANES)) < 0.5
        coder = VSCoder(pivot_index=21)
        encoded = coder.encode_masked_blocks(blocks, active)
        assert np.array_equal(coder.decode_masked_blocks(encoded, active),
                              blocks)

    def test_empty_blocks(self):
        coder = VSCoder(pivot_index=21)
        empty = np.empty((0, LANES), dtype=np.uint32)
        assert coder.encode_blocks(empty).shape == (0, LANES)
        assert coder.encode_masked_blocks(
            empty, np.empty((0, LANES), dtype=bool)).shape == (0, LANES)

    def test_shape_validation(self):
        coder = VSCoder(pivot_index=21)
        with pytest.raises(ValueError):
            coder.encode_blocks(np.zeros(LANES, dtype=np.uint32))
        with pytest.raises(ValueError):
            coder.encode_masked_blocks(np.zeros((2, 4), dtype=np.uint32),
                                       np.ones((2, 5), dtype=bool))


class TestDataVariantBlocks:
    @given(st.integers(1, 6), st.integers(0, 2**32),
           st.sampled_from([Unit.REG, Unit.SME, Unit.L2, Unit.L1D,
                            Unit.NOC]))
    @settings(max_examples=40)
    def test_matches_per_row_data_variants(self, n_rows, seed, unit):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 2**32, (n_rows, LANES), dtype=np.uint32)
        active = rng.random((n_rows, LANES)) < 0.7
        encoders = Encoders(isa_mask=0x1234, pivot_lane=21)
        for blocked, mask in (("line", None), ("warp", active)):
            batched = encoders.data_variant_blocks(unit, blocks, blocked,
                                                   mask)
            for row in range(n_rows):
                row_active = None if mask is None else mask[row]
                scalar = encoders.data_variants(unit, blocks[row], blocked,
                                                row_active)
                for variant in VARIANTS:
                    assert np.array_equal(batched[variant][row],
                                          scalar[variant]), (
                        f"{unit} {blocked} {variant} row {row}")


# ---------------------------------------------------------------------------
# Deferred tallying
# ---------------------------------------------------------------------------

def _oracle_line_block(encoders, tally, unit, lines, is_store, counted):
    """Tally a ``(rows, width)`` block row by row through the oracle."""
    for row, line in enumerate(lines):
        subset = None if counted is None else np.flatnonzero(counted[row])
        oracle_tally_line(encoders, tally, unit, line, is_store, subset)


def _oracle_inst_words(encoders, tally, unit, words, is_store):
    """Tally each word of an instruction record through the oracle."""
    for word in np.array(words, dtype=np.uint64, ndmin=1).tolist():
        oracle_tally_inst_word(encoders, tally, unit, word, is_store)


class TestTallyBatch:
    @given(st.integers(0, 2**32), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_warp_accesses_match_scalar_tally(self, seed, n_accesses):
        rng = np.random.default_rng(seed)
        encoders = Encoders(isa_mask=0xBEEF, pivot_lane=21)
        scalar_tally, batch_tally = Tally(), Tally()
        batch = TallyBatch(encoders, batch_tally)
        for __ in range(n_accesses):
            values = rng.integers(0, 2**32, LANES, dtype=np.uint32)
            active = rng.random(LANES) < rng.choice([0.0, 0.3, 1.0])
            unit = [Unit.REG, Unit.SME][int(rng.integers(2))]
            is_store = bool(rng.integers(2))
            oracle_tally_warp(encoders, scalar_tally, unit, values, is_store,
                              blocked="warp", active=active)
            batch.add_warp(unit, values, active, is_store)
        batch.flush()
        assert batch_tally.counts == scalar_tally.counts

    @given(st.integers(0, 2**32), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_line_accesses_match_scalar_tally(self, seed, n_accesses):
        """Blocks of 1..4 lines, each with every word counted or a
        counted mask whose rows may be sparse, full or all False."""
        rng = np.random.default_rng(seed)
        encoders = Encoders(isa_mask=0xBEEF, pivot_lane=21)
        scalar_tally, batch_tally = Tally(), Tally()
        batch = TallyBatch(encoders, batch_tally)
        for __ in range(n_accesses):
            n_rows = int(rng.integers(1, 5))
            lines = rng.integers(0, 2**32, (n_rows, 32), dtype=np.uint32)
            unit = [Unit.L2, Unit.L1D, Unit.L1C][int(rng.integers(3))]
            is_store = bool(rng.integers(2))
            if rng.integers(3) == 0:
                counted = None
            else:
                density = rng.choice([0.0, 0.4, 1.0], size=(n_rows, 1))
                counted = rng.random((n_rows, 32)) < density
            _oracle_line_block(encoders, scalar_tally, unit, lines,
                               is_store, counted)
            batch.add_line(unit, lines, is_store, counted)
        batch.flush()
        assert batch_tally.counts == scalar_tally.counts

    @given(st.lists(st.tuples(u64s, st.booleans(), st.integers(1, 4)),
                    min_size=1, max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_inst_words_match_scalar_tally(self, accesses):
        encoders = Encoders(isa_mask=0x0F0F0F0F0F0F0F0F, pivot_lane=21)
        scalar_tally, batch_tally = Tally(), Tally()
        batch = TallyBatch(encoders, batch_tally)
        for word, is_store, count in accesses:
            unit = Unit.IFB if is_store else Unit.L1I
            for __ in range(count):
                oracle_tally_inst_word(encoders, scalar_tally, unit, word,
                                       is_store)
                batch.add_inst(unit, (word,), is_store)
        batch.flush()
        assert batch_tally.counts == scalar_tally.counts

    @given(st.lists(st.tuples(st.lists(st.sampled_from(ADVERSARIAL_U64)
                                       | u64s, min_size=16, max_size=16),
                              st.booleans()),
                    min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_inst_lines_match_per_word_tally(self, lines):
        """One add_inst per 16-word instruction line equals 16 oracle
        calls, one per word."""
        encoders = Encoders(isa_mask=0x0F0F0F0F0F0F0F0F, pivot_lane=21)
        scalar_tally, batch_tally = Tally(), Tally()
        batch = TallyBatch(encoders, batch_tally)
        for words, is_store in lines:
            line = np.array(words, dtype=np.uint64)
            _oracle_inst_words(encoders, scalar_tally, Unit.L2, line,
                               is_store)
            batch.add_inst(Unit.L2, line, is_store)
        batch.flush()
        assert batch_tally.counts == scalar_tally.counts

    def test_all_inactive_rows_create_no_entries(self):
        encoders = Encoders(isa_mask=0, pivot_lane=21)
        tally = Tally()
        batch = TallyBatch(encoders, tally)
        batch.add_warp(Unit.REG, np.ones(LANES, dtype=np.uint32),
                       np.zeros(LANES, dtype=bool), is_store=False)
        batch.add_line(Unit.L2, np.ones((2, 32), dtype=np.uint32), False,
                       np.zeros((2, 32), dtype=bool))
        batch.flush()
        assert tally.counts == {}

    def test_incremental_flush_matches_single_flush(self, monkeypatch):
        import repro.arch.stats as stats_mod
        rng = np.random.default_rng(5)
        encoders = Encoders(isa_mask=0xABCD, pivot_lane=21)
        accesses = [(rng.integers(0, 2**32, LANES, dtype=np.uint32),
                     rng.random(LANES) < 0.5,
                     rng.integers(0, 2**32, (3, 32), dtype=np.uint32),
                     rng.integers(0, 2**63, 16, dtype=np.uint64))
                    for __ in range(11)]

        def record(batch):
            for values, active, lines, words in accesses:
                batch.add_warp(Unit.REG, values, active, False)
                batch.add_line(Unit.L2, lines, True)
                batch.add_inst(Unit.L2, words, False)
            batch.flush()

        big_tally = Tally()
        record(TallyBatch(encoders, big_tally))
        for flush_rows in (1, 2):
            small_tally = Tally()
            with monkeypatch.context() as patch:
                patch.setattr(stats_mod, "FLUSH_ROWS", flush_rows)
                record(TallyBatch(encoders, small_tally))
            assert small_tally.counts == big_tally.counts


class TestGroupLines:
    @given(st.lists(st.integers(0, 4 * 128 // 4 - 1), min_size=1,
                    max_size=LANES),
           st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_grouping(self, word_offsets, base_line):
        """``_group_lines`` equals the per-lane dict grouping it
        replaced: sorted lines, each line's lanes in lane order, and
        the set of words each line's lanes touch."""
        from repro.arch.config import BASELINE_CONFIG
        line_bytes = BASELINE_CONFIG.l1_line_bytes
        addrs = (np.asarray(word_offsets, dtype=np.int64) * 4
                 + base_line * line_bytes)
        lanes_by_line, words_by_line = {}, {}
        for lane, addr in enumerate(addrs.tolist()):
            line = addr - addr % line_bytes
            lanes_by_line.setdefault(line, []).append(lane)
            words_by_line.setdefault(line, set()).add(
                (addr % line_bytes) >> 2)
        replay = GPUReplay(BASELINE_CONFIG, Encoders(isa_mask=0))
        line_list, index, touched = replay._group_lines(addrs)
        assert line_list == sorted(lanes_by_line)
        assert touched.shape == (len(line_list), line_bytes // 4)
        for j, line in enumerate(line_list):
            assert np.flatnonzero(index == j).tolist() == lanes_by_line[line]
            assert set(np.flatnonzero(touched[j]).tolist()) == \
                words_by_line[line]


class TestNoCEquivalence:
    def _run_packets(self, noc: NoCStats, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for __ in range(40):
            channel = ("req", int(rng.integers(3)))
            size = int(rng.integers(1, 70))  # exercises partial flits
            payload = rng.integers(0, 256, size, dtype=np.uint8)
            noc.send(channel, np.tile(payload, (len(VARIANTS), 1)))
        noc.flush()

    def test_transmit_matches_scalar_loop(self):
        fast = NoCStats(flit_bytes=16)
        slow = OracleNoC(flit_bytes=16)
        self._run_packets(fast, seed=11)
        self._run_packets(slow, seed=11)
        assert fast.toggles == slow.toggles
        assert fast.flits == slow.flits

    def test_distinct_variant_payloads(self):
        rng = np.random.default_rng(13)
        fast = NoCStats(flit_bytes=8)
        slow = OracleNoC(flit_bytes=8)
        for noc in (fast, slow):
            payload_rng = np.random.default_rng(99)
            for __ in range(12):
                payloads = payload_rng.integers(0, 256, (len(VARIANTS), 20),
                                                dtype=np.uint8)
                noc.send(("resp", 0), payloads)
            noc.flush()
        assert fast.toggles == slow.toggles

    @given(flit_bytes=st.sampled_from([4, 8, 16, 32]),
           drain_pairs=st.integers(1, 16),
           packets=st.lists(st.tuples(st.integers(0, 2),
                                      st.integers(0, 4 * 32 - 1),
                                      st.booleans()),
                            max_size=24),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_random_packet_streams(
            self, flit_bytes, drain_pairs, packets, seed):
        """Exact toggles and flits for 0..3 whole flits plus a partial
        flit, unequal VC partners, distinct or shared variant rows and
        drains every ``2 * drain_pairs`` packets of a channel."""
        import repro.arch.stats as stats_mod
        rng = np.random.default_rng(seed)
        fast = NoCStats(flit_bytes)
        slow = OracleNoC(flit_bytes)
        with mock.patch.object(stats_mod, "DRAIN_PACKETS", 2 * drain_pairs):
            for channel, size, distinct in packets:
                size %= 4 * flit_bytes
                if distinct:
                    payload = rng.integers(0, 256, (len(VARIANTS), size),
                                           dtype=np.uint8)
                else:
                    payload = np.tile(
                        rng.integers(0, 256, size, dtype=np.uint8),
                        (len(VARIANTS), 1))
                fast.send(("req", channel), payload)
                slow.send(("req", channel), payload)
        fast.flush()
        slow.flush()
        assert fast.toggles == slow.toggles
        assert fast.flits == slow.flits


class TestMemoryVectorization:
    @given(st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_write_read_roundtrip_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        mem = GlobalMemory(size_bytes=4096)
        # Allocate the whole 4096 bytes (block 0 is already the
        # unmapped one): only the allocated extent is addressable.
        mem.alloc(4096 - mem.align, "words")
        addrs = rng.integers(0, 1024, LANES, dtype=np.int64) * 4
        vals = rng.integers(0, 2**32, LANES, dtype=np.uint32)
        mask = rng.random(LANES) < 0.7
        mem.write_u32(addrs, vals, mask=mask)
        # Scalar oracle: apply writes in order, last write wins.
        image = np.zeros(4096, dtype=np.uint8)
        for a, v, keep in zip(addrs, vals, mask):
            if keep:
                image[a:a + 4] = np.uint32(v).reshape(1).view(np.uint8)
        assert np.array_equal(mem.image, image)
        got = mem.read_u32(addrs)
        expected = np.ascontiguousarray(
            np.stack([image[a:a + 4] for a in addrs])).view(
                np.uint32).ravel()
        assert np.array_equal(got, expected)

    def test_empty_write_is_noop(self):
        mem = GlobalMemory(size_bytes=1024)
        before = mem.image.copy()
        mem.write_u32(np.asarray([4, 8], dtype=np.int64),
                      np.asarray([1, 2], dtype=np.uint32),
                      mask=np.asarray([False, False]))
        assert np.array_equal(mem.image, before)


# ---------------------------------------------------------------------------
# Result caches
# ---------------------------------------------------------------------------

class _Renamed:
    """Same app object, different name (and thus different cache keys)."""

    def __init__(self, app, name):
        self._app = app
        self.name = name

    def __getattr__(self, attr):
        return getattr(self._app, attr)


def _worker_stats_cache_size(queue):
    from repro import sim
    from repro.kernels import get_app
    sim.simulate_app(get_app("VEC"))
    queue.put(len(sim._STATS_CACHE))


class TestStatsCache:
    def test_renamed_clone_replays_to_identical_stats(self):
        """The app name keys the cache but never the numbers: a clone
        under another name replays again and lands on the same stats."""
        from repro import sim
        from repro.kernels import get_app
        sim.clear_caches()
        app = get_app("VEC")
        first = sim.simulate_app(app)
        renamed = sim.simulate_app(_Renamed(app, "VEC-clone"))
        assert len(sim._STATS_CACHE) == 2
        assert renamed.app_name == "VEC-clone"
        assert renamed.counts == first.counts
        assert renamed.noc_toggles == first.noc_toggles
        assert renamed.cycles == first.cycles
        sim.clear_caches()

    def test_clear_caches_drops_every_cache(self):
        from repro import sim
        from repro.kernels import get_app
        sim.clear_caches()
        sim.simulate_app(get_app("VEC"))
        assert len(sim._FUNCTIONAL_CACHE) == len(sim._STATS_CACHE) == 1
        sim.clear_caches()
        assert not sim._FUNCTIONAL_CACHE and not sim._STATS_CACHE

    def test_fault_runs_bypass_stats_cache(self):
        from repro import sim
        from repro.faults import FaultModel
        from repro.kernels import get_app
        sim.clear_caches()
        fm = FaultModel(p_flip=1e-6, seed=1)
        sim.simulate_app(get_app("VEC"), fault_model=fm)
        assert not sim._STATS_CACHE
        sim.clear_caches()

    def test_parallel_workers_keep_process_local_caches(self):
        from repro import sim
        sim.clear_caches()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_worker_stats_cache_size, args=(queue,))
        proc.start()
        worker_entries = queue.get(timeout=120)
        proc.join(timeout=120)
        assert not proc.is_alive()
        assert worker_entries == 1
        # The parent's cache never saw the worker's entry.
        assert not sim._STATS_CACHE


# ---------------------------------------------------------------------------
# End-to-end: a fully scalar replay of a real app equals the batched one
# ---------------------------------------------------------------------------

class _ScalarBatch:
    """TallyBatch stand-in that tallies immediately via the oracles."""

    def __init__(self, encoders, tally):
        self.encoders = encoders
        self.tally = tally

    def add_warp(self, unit, values, active, is_store):
        # A (warps, 32) block is one oracle access per warp.
        for row, row_active in zip(values, active):
            oracle_tally_warp(self.encoders, self.tally, unit, row,
                              is_store, blocked="warp", active=row_active)

    def add_line(self, unit, lines, is_store, counted=None):
        _oracle_line_block(self.encoders, self.tally, unit, lines, is_store,
                           counted)

    def add_inst(self, unit, words, is_store):
        _oracle_inst_words(self.encoders, self.tally, unit, words, is_store)

    def flush(self):
        pass


class TestEndToEndEquivalence:
    def test_scalar_pipeline_reproduces_batched_results(self, monkeypatch):
        """Simulate VEC and ATA twice each — once on the vectorized
        pipeline, once with every deferred/batched path swapped for the
        pinned scalar oracles — and require identical tallies and NoC
        toggles. ATA adds multi-line loads and many instruction-line
        fills to VEC's few line tallies."""
        from repro.core.masks import derive_mask
        from repro.kernels import get_app
        from repro.sim import _functional_pass, clear_caches
        from repro.arch.config import BASELINE_CONFIG
        import repro.arch.engine as engine_mod
        import repro.arch.gpu as gpu_mod
        import repro.arch.noc as noc_mod

        for name in ("VEC", "ATA"):
            app = get_app(name)

            clear_caches()
            functional, __ = _functional_pass(app, 21)
            isa_mask = derive_mask(functional.trace.static_binary)
            encoders = Encoders(isa_mask=isa_mask, pivot_lane=21)
            fast = GPUReplay(BASELINE_CONFIG, encoders).run(functional.trace)

            clear_caches()
            with monkeypatch.context() as patch:
                patch.setattr(engine_mod, "TallyBatch", _ScalarBatch)
                patch.setattr(gpu_mod, "TallyBatch", _ScalarBatch)
                patch.setattr(noc_mod, "NoCStats", OracleNoC)
                scalar_functional, __ = _functional_pass(app, 21)
                scalar_encoders = Encoders(isa_mask=isa_mask, pivot_lane=21)
                slow = GPUReplay(BASELINE_CONFIG,
                                 scalar_encoders).run(scalar_functional.trace)

            assert scalar_functional.tally.counts == functional.tally.counts
            assert slow.tally.counts == fast.tally.counts, name
            assert slow.noc.stats.toggles == fast.noc.stats.toggles, name
            assert slow.noc.stats.flits == fast.noc.stats.flits, name
            assert slow.timing.cycles == fast.timing.cycles, name
        clear_caches()

    @pytest.mark.parametrize("name, expected", [
        ("LBM", (548, 27103, 26117, 21857, 101023)),
        ("STO", (392, 37427, 38106, 37075, 61229)),
    ])
    def test_multi_line_stores_keep_pinned_counts(self, name, expected):
        """LBM and STO issue stores that span several lines, which the
        golden apps never do. Pinned: NoC flits and toggles (each
        line's write packet carries its lanes in lane order) and the
        L1D store tallies (the words each line's lanes touch)."""
        from repro.kernels import get_app
        from repro.sim import clear_caches, simulate_app
        clear_caches()
        stats = simulate_app(get_app(name))
        l1d = stats.counts[(Unit.L1D, "ALL")]
        assert (stats.noc_flits, stats.noc_toggles["base"],
                stats.noc_toggles["ALL"], l1d.write0, l1d.write1) == expected
        clear_caches()
