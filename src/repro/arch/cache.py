"""Set-associative caches with LRU replacement and GPU write policies.

The L1 data cache follows the paper's (and Fermi's) policy: write-evict,
write-no-allocate — a store invalidates any matching L1 line and goes
straight to L2, which is why the VS coder's cache-line pivot can always
be recovered at L1 (Section 4.2.2-A). L1I/L1C/L1T are read-only. The
unified L2 is write-allocate, write-back, organised as address-
interleaved banks.

The cache stores *tags only*; line data always comes from the memory
image, which the replay engine keeps coherent by applying stores in
scheduler order. This keeps the model fast while preserving exact bit
contents for the tallies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CacheStats", "Cache", "MSHRFile"]


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    evictions: int = 0
    write_evicts: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (aggregating per-SM caches to one level)."""
        return CacheStats(
            self.accesses + other.accesses, self.hits + other.hits,
            self.evictions + other.evictions,
            self.write_evicts + other.write_evicts,
        )

    def to_dict(self) -> Dict[str, int]:
        """Plain-int snapshot for AppStats / the metrics registry."""
        return {"accesses": self.accesses, "hits": self.hits,
                "evictions": self.evictions,
                "write_evicts": self.write_evicts}


class Cache:
    """Tag-store-only set-associative cache with true-LRU replacement.

    Each set is a dict whose insertion order is its LRU order: a hit
    moves its line to the end, a fill appends, and a full set evicts
    its first line. The replay's load path probes these dicts inline
    (:meth:`repro.arch.gpu.GPUReplay._load`), so the layout is part of
    the class's contract.
    """

    def __init__(self, name: str, size_kb: int, line_bytes: int,
                 assoc: int, on_fill=None):
        size_bytes = size_kb << 10
        if size_bytes % (line_bytes * assoc):
            raise ValueError(
                f"{name}: size {size_kb}KB not divisible by "
                f"line*assoc ({line_bytes}*{assoc})"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = size_bytes // (line_bytes * assoc)
        #: optional ``callback(cache_name, line_addr)`` invoked on every
        #: fill — the fault-injection layer counts fills as read-disturb
        #: exposure events.
        self.on_fill = on_fill
        self.stats = CacheStats()
        # sets[set_index] holds the set's resident lines, least recently
        # used first (values unused); dirty flags are tracked separately
        # (L2 write-back).
        self._sets: Dict[int, Dict[int, None]] = {}
        self._dirty: set = set()

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.n_sets

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def lookup(self, line_addr: int) -> bool:
        """Probe and touch a line. Counts as an access."""
        self.stats.accesses += 1
        lines = self._sets.get((line_addr // self.line_bytes) % self.n_sets)
        if lines is not None and line_addr in lines:
            self.stats.hits += 1
            del lines[line_addr]
            lines[line_addr] = None
            return True
        return False

    def fill(self, line_addr: int, dirty: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted *dirty* line address, if any."""
        idx = (line_addr // self.line_bytes) % self.n_sets
        lines = self._sets.get(idx)
        if lines is None:
            lines = self._sets[idx] = {}
        victim_writeback = None
        if line_addr in lines:
            del lines[line_addr]
        elif len(lines) >= self.assoc:
            victim = next(iter(lines))
            del lines[victim]
            self.stats.evictions += 1
            if victim in self._dirty:
                self._dirty.discard(victim)
                victim_writeback = victim
        lines[line_addr] = None
        if dirty:
            self._dirty.add(line_addr)
        if self.on_fill is not None:
            self.on_fill(self.name, line_addr)
        return victim_writeback

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (the L1D write-evict policy). True if present."""
        lines = self._sets.get(self._set_index(line_addr))
        if lines is not None and line_addr in lines:
            del lines[line_addr]
            self._dirty.discard(line_addr)
            self.stats.write_evicts += 1
            return True
        return False

    def mark_dirty(self, line_addr: int) -> None:
        self._dirty.add(line_addr)

    @property
    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets.values())


class MSHRFile:
    """Miss-status holding registers: bounds a core's outstanding misses.

    The replay model charges an extra queueing delay when all entries
    are busy, approximating the stall a full MSHR file causes. The
    entries are a min-heap of the cycles they free at: a miss takes the
    earliest-free entry.
    """

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.n_entries = n_entries
        self._free_at = [0] * n_entries
        self.full_events = 0

    def acquire(self, now: int, service_cycles: int) -> int:
        """Reserve an entry; returns the cycle the miss can start."""
        start = self._free_at[0]
        if start > now:
            self.full_events += 1
        else:
            start = now
        heapq.heapreplace(self._free_at, start + service_cycles)
        return start
