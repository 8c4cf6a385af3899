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

from itertools import chain
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


#: ``soonest`` before any warp is seen: later than every cycle.
_NEVER = float("inf")


class Scheduler:
    """Base warp scheduler interface.

    ``warps`` is the SM's resident warps in age order (oldest first).
    A pick that finds no ready warp has looked at every live warp, so
    it leaves in :attr:`soonest` the earliest cycle one becomes ready
    (None if every live warp is at a barrier): what
    :meth:`next_event` would return, without a second scan.
    """

    name = "abstract"
    soonest: Optional[int] = None

    def pick(self, warps: Sequence[WarpSlot], cycle: int) -> Optional[WarpSlot]:
        """Choose the warp to issue this cycle, or None if all stalled."""
        raise NotImplementedError

    def next_event(self, warps: Sequence[WarpSlot]) -> Optional[int]:
        """Earliest cycle any warp becomes ready (for time jumps)."""
        pending = [w.ready_at for w in warps
                   if not w.done and not w.at_barrier]
        return min(pending) if pending else None

    def _first_ready(self, warps, cycle) -> Optional[WarpSlot]:
        """The oldest ready warp; if none, sets :attr:`soonest`."""
        soonest = _NEVER
        for w in warps:
            # WarpSlot.ready, inlined: this scan is the issue loop.
            if not w.done and not w.at_barrier:
                ready_at = w.ready_at
                if ready_at <= cycle:
                    return w
                if ready_at < soonest:
                    soonest = ready_at
        self.soonest = None if soonest is _NEVER else soonest
        return None


class GTOScheduler(Scheduler):
    name = "gto"

    def __init__(self):
        self._last: Optional[WarpSlot] = None

    def pick(self, warps, cycle):
        """The last-issued warp while it is ready, else the oldest ready
        one: the first ready warp in the age-ordered list."""
        last = self._last
        if (last is not None and not last.done and not last.at_barrier
                and last.ready_at <= cycle):
            return last
        w = self._first_ready(warps, cycle)
        if w is not None:
            self._last = w
        return w


class LRRScheduler(Scheduler):
    name = "lrr"

    def __init__(self):
        #: Position in ``warps`` the next scan starts at (taken modulo
        #: the list's current length).
        self._next_index = 0

    def pick(self, warps, cycle):
        n = len(warps)
        if n == 0:
            self.soonest = None
            return None
        start = self._next_index % n
        soonest = _NEVER
        for i in chain(range(start, n), range(start)):
            w = warps[i]
            if not w.done and not w.at_barrier:
                ready_at = w.ready_at
                if ready_at <= cycle:
                    self._next_index = i + 1 if i + 1 < n else 0
                    return w
                if ready_at < soonest:
                    soonest = ready_at
        self.soonest = None if soonest is _NEVER else soonest
        return None


class TwoLevelScheduler(Scheduler):
    """Active-set scheduling: LRR within the set, swap on long stalls.

    Each pick drops finished warps and warps stalled past a short
    horizon from the active set, then tops it up with the oldest live
    warps outside it. A warp dropped for a stall is older than every
    warp never yet active, and the set always has room for the warps
    just dropped, so they rejoin at once at the back of the set, oldest
    first; the rest of the top-up comes from a cursor over the
    age-ordered ``warps``.
    """

    name = "two_level"

    def __init__(self, active_size: int = 8):
        if active_size < 1:
            raise ValueError("active set must hold at least one warp")
        self.active_size = active_size
        self._active: List[WarpSlot] = []
        self._rr = 0
        #: ``warps[:_cursor]`` have all been active or are done; the
        #: cursor sits just past ``_passed``, the youngest of them.
        self._cursor = 0
        self._passed: Optional[WarpSlot] = None

    def _refresh_active(self, warps, cycle):
        active = self._active
        horizon = cycle + 16
        for w in active:
            if w.done or (not w.at_barrier and w.ready_at > horizon):
                break
        else:
            if len(active) >= self.active_size:
                return
        kept = []
        stalled = []
        for w in active:
            if w.done:
                continue
            if w.at_barrier or w.ready_at <= horizon:
                kept.append(w)
            else:
                # Insert by age: at most the set's few warps.
                i = len(stalled)
                while i and stalled[i - 1].age > w.age:
                    i -= 1
                stalled.insert(i, w)
        kept += stalled
        room = self.active_size - len(kept)
        if room > 0:
            i = self._cursor
            passed = self._passed
            if i and (i > len(warps) or warps[i - 1] is not passed):
                # ``warps`` was compacted: find the cursor again.
                i = 0
                while i < len(warps) and warps[i].age <= passed.age:
                    i += 1
            while room and i < len(warps):
                w = warps[i]
                i += 1
                passed = w
                if not w.done:
                    kept.append(w)
                    room -= 1
            self._cursor = i
            self._passed = passed
        self._active = kept

    def pick(self, warps, cycle):
        self._refresh_active(warps, cycle)
        active = self._active
        n = len(active)
        if n:
            start = self._rr % n
            for i in chain(range(start, n), range(start)):
                w = active[i]
                if (not w.done and not w.at_barrier
                        and w.ready_at <= cycle):
                    self._rr = i + 1 if i + 1 < n else 0
                    return w
        # Nothing in the active set is ready; fall back to any ready warp.
        return self._first_ready(warps, cycle)


def make_scheduler(name: str, active_size: int = 8) -> Scheduler:
    if name == "gto":
        return GTOScheduler()
    if name == "lrr":
        return LRRScheduler()
    if name == "two_level":
        return TwoLevelScheduler(active_size)
    raise ValueError(f"unknown scheduler {name!r}")
