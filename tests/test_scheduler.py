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


class OracleLRR:
    """The modulo-scan LRR pick, pinned: the rotation index is a
    position in ``warps``, taken modulo the list's current length."""

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


class OracleTwoLevel:
    """The uid-dict two-level pick, pinned: drop done and far-stalled
    warps from the active set, top it up with the oldest other live
    warps (sorted by age), rotate through it, else fall back to the
    oldest ready warp."""

    def __init__(self, active_size=8):
        self.active_size = active_size
        self._active = []
        self._rr = 0

    def _refresh_active(self, warps, cycle):
        live = {w.uid for w in warps if not w.done}
        self._active = [uid for uid in self._active if uid in live]
        by_uid = {w.uid: w for w in warps}
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
        ready = [w for w in warps if w.ready(cycle)]
        if ready:
            return min(ready, key=lambda w: w.age)
        return None


#: One step of a replay-shaped pick sequence: a pick at a cycle after
#: new warp states (a warp that finishes stays finished), new warps
#: joining in age order, or finished warps being compacted away.
_sched_steps = st.lists(st.one_of(
    st.tuples(st.just("pick"), st.integers(0, 40),
              st.lists(st.tuples(st.integers(0, 7).map(lambda x: x == 0),
                                 st.booleans(), st.integers(0, 60)),
                       min_size=32, max_size=32)),
    st.tuples(st.just("grow"), st.integers(1, 6), st.just(())),
    st.tuples(st.just("compact"), st.just(0), st.just(()))),
    max_size=40)


def _drive(fast, slow, n_warps, steps):
    """Run both schedulers over one evolving, age-ordered warp list and
    require the same warp at every pick; returns the picks made."""
    warps = make_warps(n_warps)
    next_age = n_warps
    picks = 0
    for kind, arg, states in steps:
        if kind == "grow":
            for __ in range(arg):
                warps.append(WarpSlot(uid=next_age, age=next_age,
                                      block_key="b1"))
                next_age += 1
        elif kind == "compact":
            warps = [w for w in warps if not w.done]
        else:
            for warp, (finish, barrier, ready_at) in zip(warps, states):
                warp.done = warp.done or finish
                warp.at_barrier = barrier
                warp.ready_at = ready_at
            picked = fast.pick(warps, arg)
            assert picked is slow.pick(warps, arg)
            if picked is None:
                assert fast.soonest == fast.next_event(warps)
            picks += 1
    return picks


class TestLRRMatchesScan:
    @given(n_warps=st.integers(0, 12), steps=_sched_steps)
    @settings(max_examples=150, deadline=None)
    def test_same_pick_sequence(self, n_warps, steps):
        _drive(LRRScheduler(), OracleLRR(), n_warps, steps)

    def test_rotation_is_a_position_after_compaction(self):
        warps = make_warps(6)
        fast, slow = LRRScheduler(), OracleLRR()
        for __ in range(4):
            assert fast.pick(warps, 0) is slow.pick(warps, 0)
        warps[0].done = warps[2].done = True
        warps = [w for w in warps if not w.done]
        picks = [fast.pick(warps, 0) for __ in range(5)]
        assert picks == [slow.pick(warps, 0) for __ in range(5)]
        # Position 4 of a 4-warp list wraps to its first warp, not to
        # the warp after the last one picked.
        assert [w.uid for w in picks] == [1, 3, 4, 5, 1]


class TestTwoLevelMatchesScan:
    @given(active_size=st.integers(1, 5), n_warps=st.integers(0, 12),
           steps=_sched_steps)
    @settings(max_examples=200, deadline=None)
    def test_same_pick_sequence(self, active_size, n_warps, steps):
        _drive(TwoLevelScheduler(active_size), OracleTwoLevel(active_size),
               n_warps, steps)

    def test_demoted_warp_rejoins_at_the_back(self):
        """A far-stalled active warp is dropped and, being the oldest
        live warp, re-enters the set at once: at the back of the
        rotation."""
        warps = make_warps(4)
        fast, slow = TwoLevelScheduler(2), OracleTwoLevel(2)
        assert fast.pick(warps, 0) is slow.pick(warps, 0) is warps[0]
        warps[0].ready_at = 100
        for cycle in range(1, 5):
            picked = fast.pick(warps, cycle)
            assert picked is slow.pick(warps, cycle)
            if picked is None:
                assert fast.soonest == fast.next_event(warps)


    def test_top_up_resumes_after_compaction(self):
        """Compacting finished warps away shifts the list under the
        top-up cursor; the next top-up still takes the oldest warp
        never yet active."""
        warps = make_warps(6)
        fast, slow = TwoLevelScheduler(2), OracleTwoLevel(2)
        assert fast.pick(warps, 0) is slow.pick(warps, 0)
        warps[0].done = True
        warps = [w for w in warps if not w.done]
        assert fast.pick(warps, 1) is slow.pick(warps, 1)
        assert [w.uid for w in fast._active] == slow._active == [1, 2]

    def test_stalled_warps_rejoin_oldest_first(self):
        """Warps dropped together rejoin in age order, not in their
        order in the set."""
        warps = make_warps(6)
        fast, slow = TwoLevelScheduler(4), OracleTwoLevel(4)
        script = [(0, {}), (1, {0: 100}), (2, {0: 100, 3: 100}),
                  (3, {0: 3, 3: 3}), (3, {}), (3, {}), (3, {}), (3, {})]
        for cycle, stalls in script:
            for w in warps:
                w.ready_at = stalls.get(w.uid, 0)
            assert fast.pick(warps, cycle) is slow.pick(warps, cycle)
        assert [w.uid for w in fast._active] == slow._active == [1, 2, 0, 3]


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
