"""Tests for the GTO / LRR / two-level warp schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.scheduler import (GTOScheduler, LRRScheduler,
                                  TwoLevelScheduler, WarpSlot,
                                  make_scheduler)


def make_warps(n, block_key="b0"):
    return [WarpSlot(uid=i, age=i, block_key=block_key) for i in range(n)]


class TestWarpSlot:
    def test_ready_when_time_reached(self):
        w = make_warps(1)[0]
        w.ready_at = 5
        assert not w.ready(4)
        assert w.ready(5)

    def test_done_never_ready(self):
        w = make_warps(1)[0]
        w.done = True
        assert not w.ready(100)

    def test_barrier_blocks(self):
        w = make_warps(1)[0]
        w.at_barrier = True
        assert not w.ready(100)


class TestGTO:
    def test_greedy_sticks_with_last(self):
        warps = make_warps(4)
        sched = GTOScheduler()
        first = sched.pick(warps, 0)
        assert sched.pick(warps, 1) is first

    def test_falls_back_to_oldest(self):
        warps = make_warps(4)
        sched = GTOScheduler()
        first = sched.pick(warps, 0)
        first.ready_at = 100
        second = sched.pick(warps, 1)
        assert second is not first
        assert second.age == min(w.age for w in warps if w.ready(1))

    def test_none_when_all_stalled(self):
        warps = make_warps(2)
        for w in warps:
            w.ready_at = 50
        assert GTOScheduler().pick(warps, 0) is None

    def test_next_event(self):
        warps = make_warps(3)
        warps[0].ready_at = 30
        warps[1].ready_at = 10
        warps[2].done = True
        assert GTOScheduler().next_event(warps) == 10


class OracleGTO:
    """The scan-based GTO pick the first-ready pick replaced, pinned:
    the last warp while ready, else the minimum-age ready warp."""

    def __init__(self):
        self._last = None

    def pick(self, warps, cycle):
        if (self._last is not None and not self._last.done
                and self._last.ready(cycle)):
            return self._last
        ready = [w for w in warps if w.ready(cycle)]
        if not ready:
            return None
        self._last = min(ready, key=lambda w: w.age)
        return self._last


#: One warp's state at one step: (done, at_barrier, ready_at).
_warp_states = st.tuples(st.booleans(), st.booleans(), st.integers(0, 8))


class TestGTOMatchesScan:
    @given(n_warps=st.integers(0, 12), age_gaps=st.lists(
               st.integers(1, 3), min_size=12, max_size=12),
           steps=st.lists(st.tuples(st.integers(0, 8),
                                    st.lists(_warp_states, min_size=12,
                                             max_size=12)),
                          max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_same_pick_sequence(self, n_warps, age_gaps, steps):
        """Over warps in age order whose states change between picks,
        the first-ready pick and the scan pick agree at every step."""
        ages = [sum(age_gaps[:i + 1]) for i in range(n_warps)]
        warps = [WarpSlot(uid=i, age=a, block_key="b0")
                 for i, a in enumerate(ages)]
        fast, slow = GTOScheduler(), OracleGTO()
        for cycle, states in steps:
            for warp, (done, barrier, ready_at) in zip(warps, states):
                warp.done, warp.at_barrier, warp.ready_at = (
                    done, barrier, ready_at)
            assert fast.pick(warps, cycle) is slow.pick(warps, cycle)


class TestLRR:
    def test_round_robins(self):
        warps = make_warps(3)
        sched = LRRScheduler()
        picks = [sched.pick(warps, 0).uid for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_stalled(self):
        warps = make_warps(3)
        warps[1].ready_at = 100
        sched = LRRScheduler()
        picks = [sched.pick(warps, 0).uid for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_empty(self):
        assert LRRScheduler().pick([], 0) is None


class TestTwoLevel:
    def test_limits_active_set(self):
        warps = make_warps(16)
        sched = TwoLevelScheduler(active_size=4)
        picks = {sched.pick(warps, 0).uid for _ in range(12)}
        assert picks == {0, 1, 2, 3}

    def test_swaps_out_long_stalls(self):
        warps = make_warps(8)
        sched = TwoLevelScheduler(active_size=2)
        first = sched.pick(warps, 0)
        first.ready_at = 1000        # long-latency stall
        later = {sched.pick(warps, 1).uid for _ in range(4)}
        assert first.uid not in later

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(active_size=0)

    def test_fallback_outside_active_set(self):
        warps = make_warps(4)
        sched = TwoLevelScheduler(active_size=2)
        warps[0].ready_at = 17        # stalled but within the horizon
        warps[1].ready_at = 17
        pick = sched.pick(warps, 0)
        assert pick is not None and pick.uid in (2, 3)


class TestFactory:
    def test_all_names(self):
        for name in ("gto", "lrr", "two_level"):
            assert make_scheduler(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo")
