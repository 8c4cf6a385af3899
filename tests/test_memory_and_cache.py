"""Tests for device memory, caches, MSHRs, DRAM and the crossbar."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import (Cache, CacheStats, Crossbar, DRAMSystem,
                        GlobalMemory, MSHRFile)


class TestGlobalMemory:
    def setup_method(self):
        self.mem = GlobalMemory(size_bytes=1 << 20)

    def test_alloc_alignment(self):
        buf = self.mem.alloc(100, "a")
        assert buf.base % 128 == 0

    def test_address_zero_unmapped(self):
        buf = self.mem.alloc(64, "a")
        assert buf.base >= 128

    def test_duplicate_name(self):
        self.mem.alloc(64, "a")
        with pytest.raises(ValueError):
            self.mem.alloc(64, "a")

    def test_exhaustion(self):
        with pytest.raises(MemoryError):
            self.mem.alloc(2 << 20, "big")

    def test_zero_size(self):
        with pytest.raises(ValueError):
            self.mem.alloc(0, "zero")

    def test_u32_roundtrip(self):
        buf = self.mem.alloc(256, "a")
        addrs = buf.base + np.arange(8) * 4
        vals = np.arange(8, dtype=np.uint32) * 0x01010101
        self.mem.write_u32(addrs, vals)
        assert np.array_equal(self.mem.read_u32(addrs), vals)

    def test_masked_write(self):
        buf = self.mem.alloc(64, "a")
        addrs = buf.base + np.arange(4) * 4
        self.mem.write_u32(addrs, np.full(4, 7, dtype=np.uint32))
        mask = np.array([True, False, True, False])
        self.mem.write_u32(addrs, np.full(4, 9, dtype=np.uint32), mask=mask)
        assert self.mem.read_u32(addrs).tolist() == [9, 7, 9, 7]

    def test_out_of_range_read(self):
        with pytest.raises(IndexError):
            self.mem.read_u32(np.array([self.mem.size]))

    def test_u64_roundtrip(self):
        buf = self.mem.alloc(64, "a")
        self.mem.write_u64(buf.base, 0x0123456789ABCDEF)
        assert self.mem.read_u64(buf.base) == 0x0123456789ABCDEF

    def test_line_read_alignment(self):
        with pytest.raises(ValueError):
            self.mem.read_line(4)

    def test_snapshot_from_image_roundtrip(self):
        buf = self.mem.alloc(64, "a")
        self.mem.write_u32(np.array([buf.base]), np.array([7], np.uint32))
        snap = self.mem.snapshot()
        self.mem.write_u32(np.array([buf.base]), np.array([42], np.uint32))
        replay = GlobalMemory.from_image(snap)
        assert int(replay.read_u32(np.array([buf.base]))[0]) == 7
        # The new memory owns a copy: writes reach neither side.
        replay.write_u32(np.array([buf.base]), np.array([9], np.uint32))
        assert int(snap[buf.base:buf.base + 4].view(np.uint32)[0]) == 7
        assert int(self.mem.read_u32(np.array([buf.base]))[0]) == 42

    def test_image_is_the_allocated_extent(self):
        assert self.mem.image.size == 128
        a = self.mem.alloc(100, "a")
        b = self.mem.alloc(300, "b")
        assert self.mem.image.size == b.base + 384 == a.base + 128 + 384
        assert self.mem.snapshot().size == self.mem.image.size
        assert GlobalMemory.from_image(self.mem.snapshot()).image.size \
            == self.mem.image.size

    def test_access_past_last_allocation_raises(self):
        buf = self.mem.alloc(128, "a")
        end = np.array([buf.base + 128])
        with pytest.raises(IndexError):
            self.mem.read_u32(end)
        with pytest.raises(IndexError):
            self.mem.write_u32(end, np.array([1], np.uint32))
        with pytest.raises(IndexError):
            self.mem.read_line(buf.base + 128)
        # The last word of the allocation is still in range.
        self.mem.write_u32(end - 4, np.array([1], np.uint32))
        assert int(self.mem.read_u32(end - 4)[0]) == 1

    def test_alloc_array_contents(self):
        vals = np.arange(16, dtype=np.uint32)
        buf = self.mem.alloc_array(vals, "arr")
        assert np.array_equal(self.mem.to_numpy(buf), vals)

    def test_buffer_addr_helper(self):
        buf = self.mem.alloc(64, "a")
        assert int(buf.addr(3)) == buf.base + 12
        assert buf.contains(buf.base) and not buf.contains(buf.end)


class TestCache:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", size_kb=3, line_bytes=128, assoc=7)

    def test_miss_then_hit(self):
        c = Cache("c", 16, 128, 4)
        assert not c.lookup(0)
        c.fill(0)
        assert c.lookup(0)

    def test_lru_eviction(self):
        c = Cache("c", 1, 128, 2)   # 4 sets x 2 ways
        set_stride = 128 * c.n_sets
        lines = [i * set_stride for i in range(3)]  # same set
        for line in lines:
            c.fill(line)
        assert not c.lookup(lines[0])     # oldest evicted
        assert c.lookup(lines[1]) and c.lookup(lines[2])

    def test_lru_updated_on_hit(self):
        c = Cache("c", 1, 128, 2)
        stride = 128 * c.n_sets
        c.fill(0)
        c.fill(stride)
        c.lookup(0)                  # refresh line 0
        c.fill(2 * stride)           # should evict line `stride`
        assert c.lookup(0)
        assert not c.lookup(stride)

    def test_dirty_writeback_on_eviction(self):
        c = Cache("c", 1, 128, 1)
        stride = 128 * c.n_sets
        c.fill(0, dirty=True)
        victim = c.fill(stride)
        assert victim == 0

    def test_clean_eviction_no_writeback(self):
        c = Cache("c", 1, 128, 1)
        stride = 128 * c.n_sets
        c.fill(0, dirty=False)
        assert c.fill(stride) is None

    def test_invalidate_write_evict(self):
        c = Cache("c", 16, 128, 4)
        c.fill(256)
        assert c.invalidate(256)
        assert not c.lookup(256)
        assert c.stats.write_evicts == 1

    def test_invalidate_absent(self):
        c = Cache("c", 16, 128, 4)
        assert not c.invalidate(512)

    def test_stats(self):
        c = Cache("c", 16, 128, 4)
        c.lookup(0)
        c.fill(0)
        c.lookup(0)
        s = c.stats
        assert s.accesses == 2 and s.hits == 1 and s.misses == 1
        assert s.hit_rate == 0.5

    def test_line_of(self):
        c = Cache("c", 16, 128, 4)
        assert c.line_of(131) == 128

    def test_resident_lines(self):
        c = Cache("c", 16, 128, 4)
        for i in range(5):
            c.fill(i * 128)
        assert c.resident_lines == 5

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, accesses):
        c = Cache("c", 1, 128, 2)
        for a in accesses:
            if not c.lookup(a * 128):
                c.fill(a * 128)
        assert c.resident_lines <= 8   # 1 KB / 128 B


class TestMSHR:
    def test_needs_entry(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_no_delay_when_free(self):
        m = MSHRFile(4)
        assert m.acquire(now=10, service_cycles=100) == 10

    def test_delay_when_full(self):
        m = MSHRFile(2)
        m.acquire(0, 100)
        m.acquire(0, 100)
        start = m.acquire(0, 100)
        assert start == 100
        assert m.full_events == 1

    def test_ties_pick_lowest_entry(self):
        m = MSHRFile(3)
        m.acquire(0, 10)
        assert m._free_at == [10, 0, 0]
        m.acquire(0, 10)
        m.acquire(0, 10)
        assert m._free_at == [10, 10, 10]
        assert m.acquire(0, 7) == 10
        assert m._free_at == [17, 10, 10]

    def test_scripted_sequence(self):
        m = MSHRFile(3)
        script = [(0, 10), (0, 10), (0, 5), (0, 1), (2, 4), (3, 7),
                  (3, 1), (20, 2), (20, 2), (21, 9), (21, 9), (22, 1)]
        starts = [m.acquire(now, service) for now, service in script]
        assert starts == [0, 0, 0, 5, 6, 10, 10, 20, 20, 21, 22, 22]
        assert m.full_events == 5
        assert m._free_at == [30, 31, 23]


class TestDRAM:
    def test_row_hit_is_faster(self):
        d = DRAMSystem(n_channels=1, base_latency=300)
        first = d.service(0, 0)
        second = d.service(first, 128)       # same 2 KB row
        assert second - first < first - 0

    def test_channel_interleaving(self):
        d = DRAMSystem(n_channels=4, base_latency=300)
        chans = {d.channel_of(i * 128).index for i in range(8)}
        assert chans == {0, 1, 2, 3}

    def test_queueing_serialises(self):
        d = DRAMSystem(n_channels=1, base_latency=300)
        t1 = d.service(0, 0)
        t2 = d.service(0, 1 << 20)          # different row, queued
        assert t2 > t1 - 300

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMSystem(n_channels=0, base_latency=300)

    def test_row_hit_rate_tracked(self):
        d = DRAMSystem(n_channels=1, base_latency=300)
        d.service(0, 0)
        d.service(0, 128)
        assert d.channels[0].row_hit_rate == 0.5


class TestCrossbar:
    def _payload(self, byte):
        """A 128 B packet carrying ``byte`` under all five variants."""
        return np.full((5, 128), byte, dtype=np.uint8)

    def test_bank_interleaving(self):
        xb = Crossbar(n_sms=15, n_banks=6, flit_bytes=32)
        banks = {xb.bank_of(i * 128, 128) for i in range(12)}
        assert banks == set(range(6))

    def test_requests_ride_control_network(self):
        xb = Crossbar(2, 2, 32)
        xb.send_request(0, 0, 0)
        assert xb.control_flits == 1
        assert xb.stats.flits == 0

    def test_response_flit_count(self):
        xb = Crossbar(2, 2, 32)
        xb.send_response(0, 0, self._payload(0xAA))
        xb.send_response(0, 0, self._payload(0xAA))
        xb.stats.flush()
        assert xb.stats.flits == 8          # 2 x 128B / 32B

    def test_identical_interleaved_payloads_do_not_toggle(self):
        xb = Crossbar(2, 2, 32)
        xb.send_response(0, 0, self._payload(0x00))
        xb.send_response(0, 0, self._payload(0x00))
        xb.stats.flush()
        assert xb.toggles["base"] == 0

    def test_alternating_payloads_toggle(self):
        xb = Crossbar(2, 2, 32)
        xb.send_response(0, 0, self._payload(0x00))
        xb.send_response(0, 0, self._payload(0xFF))
        xb.stats.flush()
        # VC interleaving alternates the two packets' flits: seven
        # 0x00 <-> 0xFF transitions of 256 bits each.
        assert xb.toggles["base"] == 7 * 256

    def test_toggle_rate_normalisation(self):
        xb = Crossbar(2, 2, 32)
        xb.send_response(0, 0, self._payload(0x0F))
        xb.stats.flush()
        assert 0.0 <= xb.toggle_rate("base") <= 1.0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Crossbar(0, 6, 32)
