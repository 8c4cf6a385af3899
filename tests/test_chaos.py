"""Chaos-hardening suite: deterministic fault injection end to end.

The core property: a sweep under ANY recoverable chaos plan produces
merged results byte-identical to a fault-free run, a loadable
checkpoint with the same content digest, and no temp-file debris.
Quarantine (genuinely poisonous units) is exercised separately with
toy drivers that kill their worker on every dispatch.
"""

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.chaos import (CAMPAIGNS, ChaosError, ChaosPlan,
                         checkpoint_digest, parse_chaos_spec,
                         render_survival_matrix)
from repro.chaos.campaign import run_scenario
from repro.chaos.inject import CORRUPT_MARKER, checkpoint_chaos_hook
from repro.experiments.base import ExperimentResult, canonical_json
from repro.kernels import get_app
from repro.runner import (Checkpoint, CheckpointError, SweepInterrupted,
                          SweepRunner, quarantine_record, unit_key,
                          validate_unit_record)

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="chaos harness requires POSIX signals")

SWEEP_EXPERIMENTS = ["fig09", "table2", "sec3.1-leakage"]
SWEEP_APPS = [get_app(n) for n in ("ATA", "VEC")]


def make_runner(tmp_path=None, name="ck.json", **kwargs):
    kwargs.setdefault("experiments", SWEEP_EXPERIMENTS)
    kwargs.setdefault("apps", SWEEP_APPS)
    if tmp_path is not None:
        kwargs.setdefault("checkpoint_path", str(tmp_path / name))
    return SweepRunner(**kwargs)


def merged_bytes(results):
    return canonical_json([r.to_dict() for r in results])


@pytest.fixture(scope="module")
def golden():
    """Fault-free serial reference: (result bytes, checkpoint digest)."""
    runner = make_runner()
    results = runner.run()
    assert not runner.failed_units
    return merged_bytes(results), checkpoint_digest(runner.checkpoint.records)


# ---------------------------------------------------------------------------
# The plan: pure, seeded, replayable
# ---------------------------------------------------------------------------

class TestChaosPlan:
    def test_same_seed_same_decisions(self):
        a = parse_chaos_spec("kill=0.4,torn=0.3,exit=0.2", seed=42)
        b = parse_chaos_spec("kill=0.4,torn=0.3,exit=0.2", seed=42)
        keys = [f"fig09::{app}" for app in ("ATA", "VEC", "BLA", "FFT")]
        assert ([a.worker_event(k, 1) for k in keys]
                == [b.worker_event(k, 1) for k in keys])
        assert ([a.checkpoint_event(i) for i in range(1, 6)]
                == [b.checkpoint_event(i) for i in range(1, 6)])

    def test_different_seeds_differ_somewhere(self):
        keys = [f"e{i}::A" for i in range(64)]
        decisions = [
            tuple(ChaosPlan(seed=s, rates={"kill": 0.5}).worker_event(k, 1)
                  is not None for k in keys)
            for s in range(3)]
        assert len(set(decisions)) > 1

    def test_fire_then_stand_down(self):
        plan = ChaosPlan(seed=1, rates={"kill": 1.0}, times=2)
        key = "fig09::ATA"
        assert plan.worker_event(key, 1).kind == "kill"
        assert plan.worker_event(key, 2).kind == "kill"
        assert plan.worker_event(key, 3) is None

    def test_rate_zero_never_fires(self):
        plan = ChaosPlan(seed=9, rates={"kill": 0.0})
        assert all(plan.worker_event(f"e{i}::A", 1) is None
                   for i in range(100))

    def test_signal_budget_is_bounded(self):
        plan = ChaosPlan(seed=3, rates={"sigterm": 1.0}, max_signals=2)
        fired = sum(plan.sweep_event(f"e{i}::A") is not None
                    for i in range(50))
        assert fired == 2

    def test_torn_offset_is_deterministic_and_in_range(self):
        plan = ChaosPlan(seed=5, rates={"torn": 1.0})
        offs = [plan.torn_offset(1000, i) for i in range(1, 5)]
        assert offs == [plan.torn_offset(1000, i) for i in range(1, 5)]
        assert all(0 <= o < 1000 for o in offs)

    @pytest.mark.parametrize("spec", ["nope=1", "kill=x", "kill=-0.1",
                                      "kill=1.5", "times=oops", "hang=1",
                                      "hang_s=oops", ""])
    def test_bad_specs_raise_chaos_error(self, spec):
        with pytest.raises(ChaosError):
            parse_chaos_spec(spec)

    def test_bare_kind_means_rate_one(self):
        plan = parse_chaos_spec("kill,times=3")
        assert plan.rates["kill"] == 1.0
        assert plan.times == 3


# ---------------------------------------------------------------------------
# Survival: chaotic sweeps are byte-identical to fault-free ones
# ---------------------------------------------------------------------------

class TestWorkerFaultSurvival:
    def test_sigkill_every_unit_once(self, tmp_path, golden):
        runner = make_runner(tmp_path, jobs=2,
                             chaos=ChaosPlan(seed=7, rates={"kill": 1.0}))
        results = runner.run()
        assert merged_bytes(results) == golden[0]
        assert checkpoint_digest(runner.checkpoint.records) == golden[1]
        assert runner.stats.redispatched > 0
        assert not runner.quarantined_units
        # one record per planned unit, however often it was dispatched
        assert runner.stats.run == len(runner.plan())

    def test_corrupt_results_are_redispatched(self, tmp_path, golden):
        runner = make_runner(tmp_path, jobs=2,
                             chaos=ChaosPlan(seed=11,
                                             rates={"corrupt": 1.0}))
        results = runner.run()
        assert merged_bytes(results) == golden[0]
        assert runner.stats.redispatched > 0
        assert runner.stats.run == len(runner.plan())
        # the mangled payloads never reach the checkpoint
        text = json.dumps(runner.checkpoint.records)
        assert CORRUPT_MARKER not in text


def _poison_driver(apps=None):  # noqa: ARG001 — registry signature
    # A crash blames every unit in flight; the pause lets the healthy
    # fig09 units (warm, see below) finish before the worker dies.
    time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGKILL)


_SLOW_S = 4.0


def _slow_driver(apps=None):  # noqa: ARG001 — registry signature
    time.sleep(_SLOW_S)


class TestQuarantine:
    def test_poison_unit_is_quarantined_not_fatal(self, tmp_path,
                                                  monkeypatch, golden):
        # fork start method (Linux default) propagates the patched
        # registry into pool workers, and the caches ``golden`` warmed.
        from repro.experiments import registry
        monkeypatch.setitem(registry.EXPERIMENTS, "poison", _poison_driver)
        runner = make_runner(tmp_path,
                             experiments=["fig09", "poison"],
                             jobs=2, max_dispatches=2)
        results = runner.run()
        keys = [unit_key("poison", app.name) for app in SWEEP_APPS]
        assert runner.quarantined_units == sorted(keys)
        assert runner.stats.quarantined == len(keys)
        rec = runner.checkpoint.get(keys[0])
        assert rec["status"] == "failed" and rec["quarantined"]
        assert rec["error"]["type"] == "WorkerCrash"
        assert rec["dispatches"] == 2
        # the healthy experiment still merged cleanly
        ok = [r for r in results if r.exp_id == "fig09"]
        assert ok and ok[0].summary["units_ok"] == 2.0
        # quarantine is not a driver failure for exit-code consumers
        assert runner.failed_units == []

    def test_quarantine_record_validates(self):
        rec = quarantine_record("e::A", 3, "worker died", 1.0)
        assert validate_unit_record(rec) is None
        assert rec["quarantined"] and rec["status"] == "failed"

    def test_validate_rejects_corrupt_shapes(self):
        assert validate_unit_record("not a dict")
        assert validate_unit_record({"status": "weird"})
        assert validate_unit_record({"status": "ok", "attempts": -1,
                                     "payload": {"x": 1}})


# ---------------------------------------------------------------------------
# Checkpoint faults: torn writes, full disk, debris
# ---------------------------------------------------------------------------

class TestCheckpointFaults:
    @pytest.mark.parametrize("spec", ["torn=1.0,times=2",
                                      "enospc=1.0,times=2",
                                      "eacces=1.0,times=2",
                                      "stale_tmp=1.0,times=3"])
    def test_sweep_survives_checkpoint_faults(self, tmp_path, spec,
                                              golden, recwarn):
        plan = parse_chaos_spec(spec, seed=17)
        runner = make_runner(tmp_path, jobs=1, chaos=plan)
        results = runner.run()
        assert merged_bytes(results) == golden[0]
        # the final checkpoint is durable, loadable, and debris-free
        loaded = Checkpoint.load(runner.checkpoint.path)
        assert checkpoint_digest(loaded.records) == golden[1]
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob(".*.tmp"))
        if "torn" in spec or "enospc" in spec or "eacces" in spec:
            assert runner.checkpoint.save_failures > 0

    def test_torn_write_never_corrupts_target(self, tmp_path):
        path = tmp_path / "ck.json"
        ckpt = Checkpoint(path=str(path))
        ckpt.save()  # the runner writes the header before any chaos
        plan = ChaosPlan(seed=23, rates={"torn": 1.0}, times=1)
        ckpt.chaos_hook = checkpoint_chaos_hook(plan)
        with pytest.warns(RuntimeWarning, match="torn write"):
            ckpt.record("a::A", {"status": "ok", "attempts": 1,
                                 "wall_s": 0.0, "payload": None,
                                 "error": None})
        # the first append was torn (soft-absorbed): the journal ends in
        # a partial line, which loading drops
        assert not path.read_text().endswith("\n")
        assert Checkpoint.load(str(path)).records == {}
        ckpt.record("b::B", {"status": "ok", "attempts": 1,
                             "wall_s": 0.0, "payload": None,
                             "error": None})
        assert ckpt.flush()
        # the retry truncated the torn line before appending: every
        # line is whole
        lines = path.read_text().split("\n")
        assert lines[-1] == "" and all(json.loads(l) for l in lines[:-1])
        loaded = Checkpoint.load(str(path))
        assert set(loaded.records) == {"a::A", "b::B"}


# ---------------------------------------------------------------------------
# Graceful draining: SIGTERM/SIGINT and resume
# ---------------------------------------------------------------------------

class TestGracefulDrain:
    def test_sigterm_drains_and_resume_is_byte_identical(self, tmp_path,
                                                         golden):
        plan = ChaosPlan(seed=29, rates={"sigterm": 1.0}, max_signals=1)
        path = tmp_path / "ck.json"
        runner = make_runner(tmp_path, jobs=2, chaos=plan)
        with pytest.raises(SweepInterrupted):
            runner.run()
        first = Checkpoint.load(str(path))
        assert len(first) >= 1  # completed units were flushed
        # resume with the SAME plan object: its signal budget is spent
        resumed = make_runner(tmp_path, jobs=2, chaos=plan, resume=True)
        results = resumed.run()
        assert resumed.stats.skipped >= 1
        assert merged_bytes(results) == golden[0]
        assert checkpoint_digest(resumed.checkpoint.records) == golden[1]

    def test_interrupt_mid_merge_then_resume(self, tmp_path, golden):
        plan = ChaosPlan(seed=31, rates={"sigterm_merge": 1.0})
        runner = make_runner(tmp_path, jobs=1, chaos=plan)
        with pytest.raises(SweepInterrupted):
            runner.run()
        # every unit had completed; the interrupt hit between execute
        # and merge, so the resume only re-merges
        resumed = make_runner(tmp_path, jobs=1, chaos=plan, resume=True)
        results = resumed.run()
        assert resumed.stats.run == 0
        assert merged_bytes(results) == golden[0]

    def test_keyboard_interrupt_flushes_completed_units(self, tmp_path):
        # satellite 3: a KeyboardInterrupt escaping the dispatch loop
        # must not lose completed-but-unflushed units.
        path = tmp_path / "ck.json"
        seen = []

        def die_after_first(key, record):
            seen.append(key)
            raise KeyboardInterrupt

        runner = make_runner(tmp_path, jobs=1, on_unit_done=die_after_first)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        loaded = Checkpoint.load(str(path))
        assert seen[0] in loaded.records

    def test_sigterm_ends_a_blocked_pool_wait(self, tmp_path, monkeypatch):
        # The supervisor blocks on the first completion with no poll
        # timeout; a signal must still end that wait at once rather
        # than after the slowest in-flight unit.
        from repro.experiments import registry
        monkeypatch.setitem(registry.EXPERIMENTS, "slow", _slow_driver)
        runner = make_runner(tmp_path, experiments=["slow"], jobs=2,
                             max_attempts=1)
        default = signal.getsignal(signal.SIGTERM)

        def terminate_once_armed():
            deadline = time.monotonic() + _SLOW_S
            while signal.getsignal(signal.SIGTERM) is default:
                if time.monotonic() > deadline:
                    return      # never armed: the run fails on its own
                time.sleep(0.01)
            time.sleep(0.5)     # let the pool start and the wait block
            os.kill(os.getpid(), signal.SIGTERM)

        killer = threading.Thread(target=terminate_once_armed, daemon=True)
        killer.start()
        start = time.monotonic()
        with pytest.raises(SweepInterrupted):
            runner.run()
        assert time.monotonic() - start < _SLOW_S / 2
        assert runner.stats.run == 0
        killer.join(timeout=_SLOW_S)
        assert not killer.is_alive()


# ---------------------------------------------------------------------------
# Campaign machinery
# ---------------------------------------------------------------------------

class TestCampaign:
    def test_smoke_campaign_names_cover_required_faults(self):
        faults = set()
        for scenario in CAMPAIGNS["smoke"]:
            faults.update(scenario.rates)
        assert {"kill", "torn", "sigterm"} <= faults

    def test_single_scenario_survives(self, tmp_path, golden):
        scenario = CAMPAIGNS["smoke"][0]  # worker-sigkill
        row = run_scenario(scenario, seed=1234, jobs=2,
                           baseline=golden, workdir=str(tmp_path))
        assert row["survived"], row

    def test_render_survival_matrix_shape(self):
        report = {"campaign": "smoke", "seed": 1, "jobs": 2,
                  "survived_all": False,
                  "scenarios": [{
                      "scenario": "x", "completed": True,
                      "results_identical": True,
                      "checkpoint_digest_identical": False,
                      "no_tmp_debris": True, "resumes": 1,
                      "quarantined_units": [], "error": None,
                      "survived": False}]}
        text = render_survival_matrix(report)
        assert "0/1 scenarios survived" in text
        assert "HARNESS NOT CHAOS-SAFE" in text

    def test_checkpoint_digest_ignores_volatile_fields(self):
        base = {"a::A": {"status": "ok", "payload": {"v": 1},
                         "attempts": 1, "wall_s": 0.5, "error": None}}
        noisy = {"a::A": {"status": "ok", "payload": {"v": 1},
                          "attempts": 3, "wall_s": 9.9, "error": None,
                          "dispatches": 3, "obs": {"span": {}}}}
        changed = {"a::A": {"status": "ok", "payload": {"v": 2},
                            "attempts": 1, "wall_s": 0.5, "error": None}}
        assert checkpoint_digest(base) == checkpoint_digest(noisy)
        assert checkpoint_digest(base) != checkpoint_digest(changed)


# ---------------------------------------------------------------------------
# Satellite 1: serial soft timeout without SIGALRM
# ---------------------------------------------------------------------------

class TestSerialTimeoutOffMainThread:
    def test_timeout_enforced_without_sigalrm(self, monkeypatch):
        # Simulate the SIGALRM-less environment (worker thread, or a
        # non-POSIX host): the serial path must fall back to the
        # wall-clock guard instead of silently running unbounded.
        import repro.runner.pool as pool
        from repro.experiments import registry
        monkeypatch.setattr(pool, "sigalrm_usable", lambda: False)

        def sleepy_driver(apps=None):  # noqa: ARG001
            time.sleep(30)

        monkeypatch.setitem(registry.EXPERIMENTS, "sleepy", sleepy_driver)
        t0 = time.monotonic()
        record = pool.run_unit_attempts(
            "sleepy", None, unit_key("sleepy"),
            max_attempts=1, backoff_s=0.0, timeout_s=0.3,
            sleep=lambda s: None)
        assert time.monotonic() - t0 < 10
        assert record["status"] == "failed"
        assert record["error"]["type"] == "UnitTimeout"


# ---------------------------------------------------------------------------
# Fidelity integration: quarantined units grade not-run
# ---------------------------------------------------------------------------

class TestFidelityQuarantine:
    def test_quarantined_summary_key_maps_to_not_available(self):
        from repro.fidelity.extract import ArtifactSet, NotAvailable
        result = ExperimentResult(
            exp_id="fig09", title="t", headers=["app"], rows=[],
            summary={"units_ok": 1.0, "units_failed": 1.0,
                     "units_quarantined": 1.0})
        artifacts = ArtifactSet()
        artifacts.add([result])
        with pytest.raises(NotAvailable, match="quarantined"):
            artifacts.summary("fig09", "mean_zero_bits")

    def test_build_record_carries_quarantined_units(self):
        from repro.fidelity import build_record
        record = build_record([], "tiny",
                              quarantined_units=["poison::*"],
                              created_utc="2026-01-01T00:00:00Z")
        assert record["quarantined_units"] == ["poison::*"]
        clean = build_record([], "tiny",
                             created_utc="2026-01-01T00:00:00Z")
        assert "quarantined_units" not in clean
