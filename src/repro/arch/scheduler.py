"""Warp schedulers: GTO, loose round-robin, and two-level (Section 6.2-B).

The scheduler decides which ready warp issues next, which determines
the interleaving of memory accesses through the caches and NoC — the
mechanism behind the paper's scheduler-sensitivity study. All three
policies evaluated in the paper are implemented:

* **GTO** (greedy-then-oldest, the baseline): keep issuing from the
  last-issued warp while it is ready, otherwise fall back to the oldest.
* **LRR** (loose round-robin): rotate through ready warps.
* **Two-level**: only a small active set of warps is eligible; a warp
  that stalls on a long-latency operation is swapped out for a pending
  one, giving the set time to re-converge (Narasiman et al.).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["WarpSlot", "Scheduler", "GTOScheduler", "LRRScheduler",
           "TwoLevelScheduler", "make_scheduler"]


class WarpSlot:
    """Replay state of one resident warp on an SM."""

    __slots__ = ("uid", "age", "ready_at", "done", "at_barrier", "block_key")

    def __init__(self, uid: int, age: int, block_key):
        self.uid = uid
        self.age = age              # issue priority: lower = older
        self.ready_at = 0
        self.done = False
        self.at_barrier = False
        self.block_key = block_key

    def ready(self, cycle: int) -> bool:
        return (not self.done and not self.at_barrier
                and self.ready_at <= cycle)


class Scheduler:
    """Base warp scheduler interface."""

    name = "abstract"

    def pick(self, warps: Sequence[WarpSlot], cycle: int) -> Optional[WarpSlot]:
        """Choose the warp to issue this cycle, or None if all stalled."""
        raise NotImplementedError

    def next_event(self, warps: Sequence[WarpSlot]) -> Optional[int]:
        """Earliest cycle any warp becomes ready (for time jumps)."""
        pending = [w.ready_at for w in warps
                   if not w.done and not w.at_barrier]
        return min(pending) if pending else None


class GTOScheduler(Scheduler):
    name = "gto"

    def __init__(self):
        self._last: Optional[WarpSlot] = None

    def pick(self, warps, cycle):
        """The last-issued warp while it is ready, else the oldest ready
        one: ``warps`` is in age order (oldest first), so that is the
        first ready warp in the list."""
        last = self._last
        if last is not None and last.ready(cycle):
            return last
        for w in warps:
            # WarpSlot.ready, inlined: this scan is the issue loop.
            if not w.done and not w.at_barrier and w.ready_at <= cycle:
                self._last = w
                return w
        return None


class LRRScheduler(Scheduler):
    name = "lrr"

    def __init__(self):
        self._next_index = 0

    def pick(self, warps, cycle):
        n = len(warps)
        if n == 0:
            return None
        for offset in range(n):
            w = warps[(self._next_index + offset) % n]
            if w.ready(cycle):
                self._next_index = (self._next_index + offset + 1) % n
                return w
        return None


class TwoLevelScheduler(Scheduler):
    """Active-set scheduling: LRR within the set, swap on long stalls."""

    name = "two_level"

    def __init__(self, active_size: int = 8):
        if active_size < 1:
            raise ValueError("active set must hold at least one warp")
        self.active_size = active_size
        self._active: List[int] = []
        self._rr = 0

    def _refresh_active(self, warps, cycle):
        live = {w.uid for w in warps if not w.done}
        self._active = [uid for uid in self._active if uid in live]
        by_uid = {w.uid: w for w in warps}
        # Demote active warps that are stalled far in the future.
        horizon = cycle + 16
        self._active = [
            uid for uid in self._active
            if by_uid[uid].at_barrier or by_uid[uid].ready_at <= horizon
        ]
        if len(self._active) < self.active_size:
            pending = sorted(
                (w for w in warps if not w.done and w.uid not in self._active),
                key=lambda w: w.age,
            )
            for w in pending:
                if len(self._active) >= self.active_size:
                    break
                self._active.append(w.uid)

    def pick(self, warps, cycle):
        self._refresh_active(warps, cycle)
        by_uid = {w.uid: w for w in warps}
        n = len(self._active)
        for offset in range(n):
            uid = self._active[(self._rr + offset) % n]
            w = by_uid[uid]
            if w.ready(cycle):
                self._rr = (self._rr + offset + 1) % n
                return w
        # Nothing in the active set is ready; fall back to any ready warp.
        ready = [w for w in warps if w.ready(cycle)]
        if ready:
            return min(ready, key=lambda w: w.age)
        return None


def make_scheduler(name: str, active_size: int = 8) -> Scheduler:
    if name == "gto":
        return GTOScheduler()
    if name == "lrr":
        return LRRScheduler()
    if name == "two_level":
        return TwoLevelScheduler(active_size)
    raise ValueError(f"unknown scheduler {name!r}")
