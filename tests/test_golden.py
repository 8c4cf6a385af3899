"""Golden-result regression suite for the sweep runner.

Pins down the determinism contract that makes parallel execution safe
to trust: a small representative sweep must produce *byte-identical*
merged result tables whether it runs serially, on 2 workers, or on 4 —
and those bytes must match the committed fixture in ``tests/golden/``.

Regenerate fixtures intentionally (after a change that is *supposed*
to move the numbers) with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and commit the diff; an unintentional diff here is a regression.
"""

import dataclasses
import hashlib
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentResult, canonical_json
from repro.obs.metrics import VOLATILE_METRIC_FAMILIES
from repro.runner import Checkpoint, SweepRunner, unit_key

GOLDEN_DIR = Path(__file__).parent / "golden"
SMOKE_FIXTURE = GOLDEN_DIR / "smoke_sweep.json"
METRICS_FIXTURE = GOLDEN_DIR / "smoke_metrics.json"
FAULT_FIXTURE = GOLDEN_DIR / "fault_replay.json"
LEDGER_FIXTURE = GOLDEN_DIR / "smoke_ledger.json"
FUNCTIONAL_FIXTURE = GOLDEN_DIR / "functional_digests.json"
REPLAY_FIXTURE = GOLDEN_DIR / "replay_digests.json"
CONFIG_REPLAY_FIXTURE = GOLDEN_DIR / "config_replay_digests.json"

#: A representative but cheap sweep: two per-app experiments (one
#: replay-heavy, one mask-profiling) and one whole-experiment driver.
SMOKE_EXPERIMENTS = ["fig09", "table2", "sec3.1-leakage"]
SMOKE_APPS = ("ATA", "VEC")


def _get_apps():
    from repro.kernels import get_app
    return [get_app(name) for name in SMOKE_APPS]


#: (results_json, metrics_json, trace_root_dict, ledger_json) per
#: jobs count.
#: Determinism makes re-running a given jobs count pointless, and
#: parallel sweeps pay a worker warm-up every time — so each count
#: runs once per session.
_SWEEP_CACHE = {}


def _deterministic_metrics(registry) -> str:
    """Registry snapshot minus host-measurement families (peak RSS):
    those merge deterministically but *measure* non-deterministically,
    so byte-identity fixtures must not see them."""
    snapshot = registry.to_dict()
    for family in VOLATILE_METRIC_FAMILIES:
        snapshot["families"].pop(family, None)
    return canonical_json(snapshot)


def _smoke_sweep(jobs):
    if jobs not in _SWEEP_CACHE:
        from repro.obs.ledger import normalize_events
        runner = SweepRunner(experiments=SMOKE_EXPERIMENTS,
                             apps=_get_apps(), jobs=jobs, observe=True)
        results = runner.run()
        assert runner.stats.failed == 0, runner.failed_units
        _SWEEP_CACHE[jobs] = (
            canonical_json([r.to_dict() for r in results]),
            _deterministic_metrics(runner.metrics),
            runner.tracer.root.to_dict(),
            canonical_json(normalize_events(runner.ledger.events)),
        )
    return _SWEEP_CACHE[jobs]


class TestGoldenSmokeSweep:
    """Serial and parallel runs of the smoke sweep, against the fixture."""

    def test_serial_matches_fixture(self, update_golden):
        text = _smoke_sweep(jobs=1)[0]
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            SMOKE_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("golden fixture regenerated; commit the diff")
        assert SMOKE_FIXTURE.exists(), (
            "missing golden fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == SMOKE_FIXTURE.read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_fixture_byte_identically(self, jobs,
                                                       update_golden):
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        assert _smoke_sweep(jobs=jobs)[0] == \
            SMOKE_FIXTURE.read_text(encoding="utf-8")

    def test_interrupted_parallel_sweep_resumes_cleanly(self, tmp_path,
                                                        update_golden):
        """A killed --jobs sweep must resume, skip finished units, and
        still land on the golden bytes."""
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        path = str(tmp_path / "ck.json")

        def die_after_first(key, record):
            raise KeyboardInterrupt

        killed = SweepRunner(experiments=SMOKE_EXPERIMENTS, apps=_get_apps(),
                             jobs=2, checkpoint_path=path,
                             on_unit_done=die_after_first)
        with pytest.raises(KeyboardInterrupt):
            killed.run()
        survived = len(Checkpoint.load(path))
        assert survived >= 1  # completed units outlived the kill

        resumed = SweepRunner(experiments=SMOKE_EXPERIMENTS, apps=_get_apps(),
                              jobs=2, checkpoint_path=path, resume=True)
        results = resumed.run()
        assert resumed.stats.skipped == survived      # nothing re-ran
        assert resumed.stats.run + survived == len(resumed.plan())
        assert canonical_json([r.to_dict() for r in results]) == \
            SMOKE_FIXTURE.read_text(encoding="utf-8")


class TestGoldenSmokeMetrics:
    """The merged metrics registry of the same smoke sweep, pinned to a
    fixture at every worker count.

    Metrics are published from finished artifacts (never from in-flight
    execution) and merged in sorted unit-key order, so the snapshot is
    independent of memoisation warmth, completion order, and ``jobs``.
    """

    def test_serial_metrics_match_fixture(self, update_golden):
        metrics = _smoke_sweep(jobs=1)[1]
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            METRICS_FIXTURE.write_text(metrics, encoding="utf-8")
            pytest.skip("metrics fixture regenerated; commit the diff")
        assert METRICS_FIXTURE.exists(), (
            "missing metrics fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert metrics == METRICS_FIXTURE.read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_metrics_match_fixture_byte_identically(
            self, jobs, update_golden):
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        assert _smoke_sweep(jobs=jobs)[1] == \
            METRICS_FIXTURE.read_text(encoding="utf-8")


class TestGoldenLedgerIdentity:
    """The run ledger's normalized event set, pinned to a fixture at
    every worker count.

    Ledger events are sequenced live — completion order *does* move
    the raw stream — so the contract is on ``normalize_events``: sort
    by unit key, drop sequence/timestamps and the volatile attrs
    (wall times, dispatch and worker counts), and serial and parallel
    runs of the same sweep must describe identical lifecycles.
    """

    def test_serial_normalized_ledger_matches_fixture(self,
                                                      update_golden):
        text = _smoke_sweep(jobs=1)[3]
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            LEDGER_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("ledger fixture regenerated; commit the diff")
        assert LEDGER_FIXTURE.exists(), (
            "missing ledger fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == LEDGER_FIXTURE.read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_normalized_ledger_matches_fixture(self, jobs,
                                                        update_golden):
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        assert _smoke_sweep(jobs=jobs)[3] == \
            LEDGER_FIXTURE.read_text(encoding="utf-8")


def _faulted_replay_json() -> str:
    """Canonical JSON of a VEC replay under a seeded fault model."""
    from repro.faults import FaultModel
    from repro.kernels import get_app
    from repro.sim import clear_caches, simulate_app

    clear_caches()
    fault_model = FaultModel(p_flip=1e-4, seed=2017)
    stats = simulate_app(get_app("VEC"), fault_model=fault_model)
    clear_caches()
    payload = {
        "app": stats.app_name,
        "counts": {
            f"{unit.name}/{variant}": counts.as_dict()
            for (unit, variant), counts in sorted(
                stats.counts.items(), key=lambda kv: (kv[0][0].name,
                                                      kv[0][1]))
        },
        "noc_toggles": {v: stats.noc_toggles[v]
                        for v in sorted(stats.noc_toggles)},
        "noc_bit_slots": stats.noc_bit_slots,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "array_flips": fault_model.array_flips,
        "noc_flips": fault_model.noc_flips,
    }
    return canonical_json(payload)


class TestGoldenFaultedReplay:
    """A replay with an active fault model, pinned byte-for-byte.

    Faulted runs bypass every memoisation layer, so this fixture pins
    the whole fault path: the injector's RNG stream, read-disturb
    persistence write-backs, the damaged tallies and the flip counters.
    """

    def test_faulted_replay_matches_fixture(self, update_golden):
        text = _faulted_replay_json()
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            FAULT_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("fault fixture regenerated; commit the diff")
        assert FAULT_FIXTURE.exists(), (
            "missing fault fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == FAULT_FIXTURE.read_text(encoding="utf-8")

    def test_faulted_replay_is_rerun_deterministic(self):
        assert _faulted_replay_json() == _faulted_replay_json()


def _functional_digest(app) -> str:
    """SHA-256 over everything one app's functional pass produces.

    Covers every warp's dynamic records (PC, word, active lanes,
    barrier flag; for memory records the space, the store flag, the
    active mask, the active addresses and the store data), the static
    binary, the initial image, the phase-1 tally and both profiler
    aggregates.
    """
    from repro.analysis.profiling import Profiler
    from repro.arch import Encoders, GlobalMemory, run_functional

    mem = GlobalMemory(size_bytes=app.memory_bytes)
    launches = app.build(mem, np.random.default_rng(app.seed))
    profiler = Profiler()
    result = run_functional(app.name, mem, launches,
                            Encoders(isa_mask=0, pivot_lane=21),
                            profiler=profiler)
    trace = result.trace
    digest = hashlib.sha256()
    for launch in trace.launches:
        for block in launch.blocks:
            for warp in block.warps:
                digest.update(struct.pack("<qqq", block.block, warp.warp,
                                          len(warp.records)))
                for rec in warp.records:
                    digest.update(struct.pack("<qQq?", rec.pc, rec.word,
                                              rec.active_lanes,
                                              rec.is_barrier))
                    acc = rec.mem
                    if acc is None:
                        continue
                    digest.update(f"{acc.space.value}/{acc.is_store}".encode())
                    digest.update(acc.active.tobytes())
                    digest.update(acc.addrs[acc.active].tobytes())
                    if acc.data is not None:
                        digest.update(acc.data.tobytes())
    digest.update(trace.static_binary.tobytes())
    digest.update(trace.initial_image.tobytes())
    tally = sorted((unit.name, variant, counts.read0, counts.read1,
                    counts.write0, counts.write1)
                   for (unit, variant), counts in result.tally.counts.items())
    narrow = profiler.narrow
    digest.update(repr((tally, narrow.values, narrow.leading_zero_bits,
                        narrow.one_bits, profiler.lanes.blocks)).encode())
    digest.update(profiler.lanes.distance_sums.tobytes())
    return digest.hexdigest()


class TestGoldenFunctionalDigests:
    """One digest per app of its whole functional pass, for all 58
    apps: any change to what phase 1 hands the replay, the tallies or
    the profiles shows up as a changed entry naming the app."""

    def test_functional_digests_match_fixture(self, update_golden):
        from repro.kernels import all_apps
        text = canonical_json({app.name: _functional_digest(app)
                               for app in all_apps()})
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            FUNCTIONAL_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("functional fixture regenerated; commit the diff")
        assert FUNCTIONAL_FIXTURE.exists(), (
            "missing functional fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == FUNCTIONAL_FIXTURE.read_text(encoding="utf-8")


def _replay_digest(result) -> str:
    """SHA-256 over everything one app's replay measured.

    Covers every (unit, variant) replay tally count, the NoC toggles
    per variant and the flit count, every :class:`TimingStats` field
    (``class_lane_ops`` in insertion order, which the power model's
    float sums follow), each cache level's counters, the DRAM access
    count and the footprints.
    """
    from repro.arch.stats import VARIANTS

    tally = sorted((unit.name, variant, counts.read0, counts.read1,
                    counts.write0, counts.write1)
                   for (unit, variant), counts in result.tally.counts.items())
    noc = result.noc.stats
    caches = sorted((level, stats.to_dict())
                    for level, stats in result.cache_stats.items())
    footprints = sorted((unit.name, fraction)
                        for unit, fraction in result.footprints.items())
    payload = (tally, [noc.toggles[v] for v in VARIANTS], noc.flits,
               dataclasses.asdict(result.timing), caches,
               result.dram_accesses, footprints)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class TestGoldenReplayDigests:
    """One digest per app of its clean replay in the 58-app baseline
    suite (corpus ISA mask): any change to what phase 2 measures shows
    up as a changed entry naming the app."""

    def test_replay_digests_match_fixture(self, baseline_suite,
                                          update_golden):
        suite, replays = baseline_suite
        assert sorted(replays) == suite.app_names and len(replays) == 58
        text = canonical_json({name: _replay_digest(result)
                               for name, result in replays.items()})
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            REPLAY_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("replay fixture regenerated; commit the diff")
        assert REPLAY_FIXTURE.exists(), (
            "missing replay fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == REPLAY_FIXTURE.read_text(encoding="utf-8")


#: Apps and configs of the config-sweep fixture: the memory-heavy apps
#: the scheduler and capacity studies spend their replays on, a light
#: one, and the two apps whose line contents depend on the schedule
#: (LUD, SSP).
CONFIG_REPLAY_APPS = ("ATA", "GES", "VEC", "LUD", "SSP")


def _config_replay_configs():
    from repro.arch.config import BASELINE_CONFIG, CAPACITY_CONFIGS
    return {"lrr": BASELINE_CONFIG.with_scheduler("lrr"),
            "two_level": BASELINE_CONFIG.with_scheduler("two_level"),
            "Tesla-P100": CAPACITY_CONFIGS["Tesla-P100"],
            "Tesla-K80": CAPACITY_CONFIGS["Tesla-K80"]}


class TestGoldenConfigReplayDigests:
    """One digest per (config, app) of a clean replay under the
    non-baseline schedulers and SRAM capacities the Fig 21/22 sweeps
    use, with the 58-app corpus ISA mask: the replay digests above pin
    only the GTO baseline."""

    def test_config_replay_digests_match_fixture(self, baseline_suite,
                                                 update_golden):
        from repro.arch.gpu import GPUReplay
        from repro.arch.stats import Encoders
        from repro.kernels import get_app
        from repro.sim import _functional_pass

        suite, __ = baseline_suite
        digests = {}
        for label, config in _config_replay_configs().items():
            digests[label] = {}
            for name in CONFIG_REPLAY_APPS:
                functional, __ = _functional_pass(get_app(name), 21)
                encoders = Encoders(isa_mask=suite.isa_profile.mask,
                                    pivot_lane=21)
                result = GPUReplay(config, encoders).run(functional.trace)
                digests[label][name] = _replay_digest(result)
        text = canonical_json(digests)
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            CONFIG_REPLAY_FIXTURE.write_text(text, encoding="utf-8")
            pytest.skip("config replay fixture regenerated; commit the diff")
        assert CONFIG_REPLAY_FIXTURE.exists(), (
            "missing config replay fixture — generate it with "
            "`python -m pytest tests/test_golden.py --update-golden`")
        assert text == CONFIG_REPLAY_FIXTURE.read_text(encoding="utf-8")


class TestHotspotReconciliation:
    """Hotspot self-times must telescope to the trace's root wall time
    at any worker count (the invariant ``repro bench hotspots`` leans
    on), and the structural aggregates must be jobs-invariant."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_self_time_totals_telescope_to_root_wall(self, jobs,
                                                     update_golden):
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        from repro.bench import aggregate_hotspots
        report = aggregate_hotspots(_smoke_sweep(jobs=jobs)[2])
        assert report.span_count > 0
        assert report.total_self_wall_s == \
            pytest.approx(report.root_wall_s, rel=1e-9, abs=1e-9)

    def test_structural_aggregates_match_across_jobs(self, update_golden):
        """Unit counts and instruction volumes are the same whether
        the trace was built serially or merged from 4 workers.

        Deeper structure (``replay``/``functional`` sub-spans) is
        legitimately warmth-dependent — memoised units skip them — so
        the jobs-invariant skeleton is: one ``unit`` span per planned
        unit, one ``simulate_app`` span per per-app unit, and the same
        total warp-instruction volume attributed to them."""
        if update_golden:
            pytest.skip("fixture regeneration runs serially")
        from repro.bench import aggregate_hotspots
        serial = aggregate_hotspots(_smoke_sweep(jobs=1)[2])
        merged = aggregate_hotspots(_smoke_sweep(jobs=4)[2])
        for name in ("unit", "simulate_app"):
            assert serial.hotspots[name].calls == \
                merged.hotspots[name].calls, name
            assert serial.hotspots[name].unclosed == 0, name
            assert merged.hotspots[name].unclosed == 0, name
        assert serial.hotspots["simulate_app"].instructions == \
            merged.hotspots["simulate_app"].instructions > 0


# ---------------------------------------------------------------------------
# Merge-order invariance (property test)
# ---------------------------------------------------------------------------

class _ToyApp:
    def __init__(self, name):
        self.name = name


_TOY_APPS = [_ToyApp(n) for n in ("ALP", "BET", "GAM", "DEL", "EPS")]


def _toy_record(app_name: str) -> dict:
    """A synthetic per-app unit record with app-dependent numbers."""
    value = float(sum(app_name.encode()) % 97) / 7.0
    payload = ExperimentResult(
        exp_id="fig09", title="toy slice", headers=["metric"],
        rows=[[round(value, 6)]],
        summary={"metric": value, "weight": value * 3.5},
    )
    return {"status": "ok", "attempts": 1, "wall_s": 0.0,
            "payload": payload.to_dict(), "error": None}


def _merge_in_order(order) -> str:
    # "fig09" stands in for any per-app experiment: _merge only needs
    # its registry entry to accept apps, the records are synthetic.
    runner = SweepRunner(experiments=["fig09"], apps=_TOY_APPS)
    for idx in order:
        app = _TOY_APPS[idx]
        runner.checkpoint.records[unit_key("fig09", app.name)] = \
            _toy_record(app.name)
    return canonical_json(runner._merge("fig09").to_dict())


_CANONICAL_MERGE = None


def _canonical_merge() -> str:
    global _CANONICAL_MERGE
    if _CANONICAL_MERGE is None:
        _CANONICAL_MERGE = _merge_in_order(range(len(_TOY_APPS)))
    return _CANONICAL_MERGE


class TestMergeOrderInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(len(_TOY_APPS)))))
    def test_merge_is_invariant_under_completion_order(self, order):
        """Shuffled record arrival (what a process pool produces) must
        merge to the same bytes — rows, float summary means, notes."""
        assert _merge_in_order(order) == _canonical_merge()

    def test_merge_row_order_is_sorted_by_app(self):
        merged = SweepRunner(experiments=["fig09"], apps=_TOY_APPS)
        for idx in (3, 0, 4, 2, 1):
            app = _TOY_APPS[idx]
            merged.checkpoint.records[unit_key("fig09", app.name)] = \
                _toy_record(app.name)
        result = merged._merge("fig09")
        assert [row[0] for row in result.rows] == \
            sorted(a.name for a in _TOY_APPS)


class TestPerUnitSeeding:
    def test_global_rng_paths_are_order_independent(self):
        """Two different unit execution orders leave a driver that uses
        the *global* RNGs with identical per-unit draws."""
        from repro.runner import seed_unit_rngs

        def draw(key):
            seed_unit_rngs(key)
            return (np.random.random(), random.random())

        keys = [unit_key("fig09", a.name) for a in _TOY_APPS]
        forward = {k: draw(k) for k in keys}
        backward = {k: draw(k) for k in reversed(keys)}
        assert forward == backward
        assert len({v for v in forward.values()}) == len(keys)
