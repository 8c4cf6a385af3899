"""Tests for the resilient sweep runner, checkpointing, and the CLI."""

import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentResult, accepts_apps
from repro.experiments.registry import EXPERIMENTS
from repro.runner import (CHECKPOINT_SCHEMA_VERSION, CHECKPOINT_VERSION,
                          Checkpoint, CheckpointError, SweepRunner,
                          UnitTask, UnitTimeout, call_with_wall_clock_limit,
                          error_report, seed_unit_rngs, soft_time_limit,
                          unit_key, unit_seed)
from repro.runner.pool import pool_tasks


class ToyApp:
    def __init__(self, name):
        self.name = name


APPS = [ToyApp("AAA"), ToyApp("BB")]


def toy_perapp(apps=None):
    app = apps[0]
    return ExperimentResult(
        exp_id="toy-perapp", title="toy per-app",
        headers=["app", "len"], rows=[[app.name, len(app.name)]],
        summary={"len": float(len(app.name))})


def toy_whole():
    return ExperimentResult(
        exp_id="toy-whole", title="toy whole",
        headers=["k"], rows=[["v"]], summary={"k": 1.0})


def toy_global_rng(apps=None):
    """Driver drawing from the *global* RNGs — per-unit seeding makes
    it reproducible regardless of execution order or process."""
    value = float(np.random.random()) + random.random()
    return ExperimentResult(
        exp_id="toy-rng", title="toy rng", headers=["app", "draw"],
        rows=[[apps[0].name, value]], summary={"draw": value})


def toy_sleepy(apps=None):
    time.sleep(0.5)
    return toy_perapp(apps=apps)


def toy_slow_whole():
    time.sleep(2.0)
    return toy_whole()


def toy_always_fails(apps=None):
    raise ValueError(f"bad data in {apps[0].name}")


_POOL_FLAKY_CALLS = {"n": 0}


def toy_flaky_for_pool(apps=None):
    # The counter lives in the worker process: all attempts of one unit
    # run in the same worker, so in-memory state works there too.
    _POOL_FLAKY_CALLS["n"] += 1
    if _POOL_FLAKY_CALLS["n"] < 3:
        raise OSError("transient")
    return toy_perapp(apps=apps)


@pytest.fixture
def toy_registry(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "toy-perapp", toy_perapp)
    monkeypatch.setitem(EXPERIMENTS, "toy-whole", toy_whole)
    yield


class TestAcceptsApps:
    def test_explicit_parameter(self):
        assert accepts_apps(lambda apps=None: None)
        assert accepts_apps(toy_perapp)

    def test_keyword_only(self):
        def driver(*, apps=None):
            return None
        assert accepts_apps(driver)

    def test_kwargs_catch_all_does_not_count(self):
        # Registry lambdas swallow apps via **kw but ignore it;
        # decomposing them per app would re-run the full driver N times.
        assert not accepts_apps(lambda **kw: None)

    def test_no_parameters(self):
        assert not accepts_apps(toy_whole)

    def test_real_registry_split(self):
        assert accepts_apps(EXPERIMENTS["fig09"])
        assert not accepts_apps(EXPERIMENTS["fig01"])
        assert not accepts_apps(EXPERIMENTS["sec7.1"])


class TestExperimentResultSerialization:
    def test_roundtrip_with_numpy_scalars(self):
        result = ExperimentResult(
            exp_id="x", title="t", headers=["a", "b"],
            rows=[[np.int64(3), np.float32(0.5)], ["s", None]],
            summary={"m": np.float64(1.25)})
        payload = json.loads(json.dumps(result.to_dict()))
        back = ExperimentResult.from_dict(payload)
        assert back.rows == [[3, 0.5], ["s", None]]
        assert back.summary == {"m": 1.25}
        assert back.to_text() == ExperimentResult.from_dict(
            result.to_dict()).to_text()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpoint(path=path, meta={"note": "hi"})
        ck.record("a::b", {"status": "ok", "attempts": 1, "wall_s": 0.1,
                           "payload": None, "error": None})
        loaded = Checkpoint.load(path)
        assert loaded.meta == {"note": "hi"}
        assert loaded.get("a::b")["status"] == "ok"

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION + 1,
                                    "records": {}}))
        with pytest.raises(ValueError):
            Checkpoint.load(str(path))

    def test_records_journaled_in_completion_order(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpoint(path=path)
        for key in ("z::*", "a::*", "m::*"):
            ck.record(key, {"status": "ok"})
        header, *lines = open(path).read().splitlines()
        assert json.loads(header) == {
            "schema_version": CHECKPOINT_SCHEMA_VERSION, "meta": {}}
        # one compact line per record, appended as it was recorded
        assert lines == ['{"key":"z::*","record":{"status":"ok"}}',
                         '{"key":"a::*","record":{"status":"ok"}}',
                         '{"key":"m::*","record":{"status":"ok"}}']

    def test_last_line_for_a_key_wins(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpoint(path=path)
        ck.record("a::*", {"status": "failed", "attempts": 3})
        ck.record("b::*", {"status": "ok"})
        ck.record("a::*", {"status": "ok", "attempts": 1})
        assert len(open(path).read().splitlines()) == 4
        loaded = Checkpoint.load(path)
        assert loaded.records == ck.records
        assert loaded.get("a::*") == {"status": "ok", "attempts": 1}

    def test_resumed_writer_appends_to_the_same_file(self, tmp_path):
        path = str(tmp_path / "ck.json")
        Checkpoint(path=path, meta={"n": 1}).record("a::*", {"status": "ok"})
        resumed = Checkpoint.load(path)
        resumed.record("b::*", {"status": "ok"})
        loaded = Checkpoint.load(path)
        assert loaded.meta == {"n": 1}
        assert list(loaded.records) == ["a::*", "b::*"]

    def test_pathless_checkpoint_is_memory_only(self):
        ck = Checkpoint()
        ck.record("k", {"status": "ok"})
        assert ck.get("k") is not None  # and no file was written

    def test_unit_key(self):
        assert unit_key("fig18", "ATA") == "fig18::ATA"
        assert unit_key("fig01") == "fig01::*"


class TestCheckpointSchema:
    """schema_version handling: migration, corruption, forward-compat."""

    def test_saved_file_carries_schema_version(self, tmp_path):
        path = str(tmp_path / "ck.json")
        Checkpoint(path=path).save()
        data = json.loads(open(path).read())
        assert data["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_v1_and_v2_snapshots_are_a_clear_error(self, tmp_path):
        # The snapshot formats older builds wrote: one JSON document.
        path = tmp_path / "ck.json"
        for field, version in (("version", 1), ("schema_version", 2)):
            path.write_text(json.dumps({
                field: version, "meta": {"note": "old"},
                "records": {"fig01::*": {"status": "ok", "attempts": 1,
                                         "wall_s": 0.1, "payload": None,
                                         "error": None}}}, indent=1))
            with pytest.raises(CheckpointError,
                               match=f"schema_version {version} snapshot.*"
                                     f"without --resume"):
                Checkpoint.load(str(path))

    def test_corrupt_json_is_a_clear_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json at all")
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            Checkpoint.load(str(path))

    def test_truncated_file_is_a_clear_error(self, tmp_path):
        # Only a torn header makes a truncated journal unreadable.
        path = tmp_path / "ck.json"
        Checkpoint(path=str(path)).record("a::*", {"status": "ok"})
        header = path.read_text().index("\n")
        for cut in (header // 2, header):  # mid-header, before its newline
            path.write_text(path.read_text()[:cut])
            with pytest.raises(CheckpointError,
                               match="corrupt or truncated"):
                Checkpoint.load(str(path))

    def test_torn_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path=str(path))
        ck.record("a::*", {"status": "ok"})
        ck.record("b::*", {"status": "ok"})
        full = path.read_text()
        path.write_text(full[:-5])  # simulate a torn append
        assert list(Checkpoint.load(str(path)).records) == ["a::*"]

    def test_bad_middle_line_is_a_clear_error(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path=str(path))
        ck.record("a::*", {"status": "ok"})
        header, line = path.read_text().splitlines()
        path.write_text(f"{header}\n{line[:-3]}\n{line}\n")
        with pytest.raises(CheckpointError, match="line 2 is corrupt"):
            Checkpoint.load(str(path))

    def test_newer_schema_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema_version": 99, "records": {}}))
        with pytest.raises(CheckpointError, match="99"):
            Checkpoint.load(str(path))

    def test_missing_version_field_is_not_a_keyerror(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"records": {}}))
        with pytest.raises(CheckpointError, match="schema_version"):
            Checkpoint.load(str(path))

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            Checkpoint.load(str(path))

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        header = {"schema_version": CHECKPOINT_SCHEMA_VERSION, "meta": {}}
        for line in ({"key": "a::*", "record": {"no_status": True}},
                     {"key": "a::*"}, {"record": {"status": "ok"}},
                     [1, 2]):
            path.write_text(f"{json.dumps(header)}\n{json.dumps(line)}\n")
            with pytest.raises(CheckpointError, match="is malformed"):
                Checkpoint.load(str(path))

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_resume_from_corrupt_checkpoint_via_runner(self, tmp_path,
                                                       toy_registry):
        path = tmp_path / "ck.json"
        path.write_text('{"version": 1, "records"')
        with pytest.raises(CheckpointError):
            SweepRunner(experiments=["toy-whole"], apps=APPS,
                        checkpoint_path=str(path), resume=True)


class TestCheckpointDurability:
    """Durable saves: orphan sweeping, soft failures, torn-write safety."""

    def _record(self, ck, key="a::*"):
        ck.record(key, {"status": "ok", "attempts": 1, "wall_s": 0.1,
                        "payload": None, "error": None})

    def test_orphaned_tmp_swept_on_load(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path=str(path))
        self._record(ck)
        # debris a writer killed mid-save would leave behind
        orphan = tmp_path / ".ck.json.deadwriter42.tmp"
        orphan.write_text('{"schema_version": 2, "rec')
        # a different checkpoint's namespace must NOT be touched
        other = tmp_path / ".other.json.w1.tmp"
        other.write_text("not ours")
        loaded = Checkpoint.load(str(path))
        assert loaded.get("a::*")["status"] == "ok"
        assert not orphan.exists()
        assert other.exists()

    def test_orphaned_tmp_swept_on_open_for_writing(self, tmp_path):
        orphan = tmp_path / ".ck.json.stale.tmp"
        orphan.write_text("junk")
        Checkpoint(path=str(tmp_path / "ck.json"))
        assert not orphan.exists()

    def test_save_failure_is_soft_and_retried(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path=str(path))
        boom = {"on": True}

        def failing_hook(checkpoint, payload):
            if boom["on"]:
                raise OSError(28, "no space left on device")

        ck.chaos_hook = failing_hook
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._record(ck)          # save fails softly
        assert ck.dirty and ck.save_failures == 1
        assert ck.get("a::*") is not None   # record survived in memory
        boom["on"] = False
        assert ck.flush()                   # retry succeeds
        assert not ck.dirty
        assert Checkpoint.load(str(path)).get("a::*")["status"] == "ok"

    def test_flush_never_raises_even_when_disk_stays_broken(self, tmp_path):
        ck = Checkpoint(path=str(tmp_path / "ck.json"))

        def always_fails(checkpoint, payload):
            raise OSError(28, "no space left on device")

        ck.chaos_hook = always_fails
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._record(ck)
            assert ck.flush() is False      # reported, not raised

    def test_no_tmp_files_left_after_normal_saves(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path=str(path))
        for i in range(5):
            self._record(ck, key=f"e{i}::*")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []


class TestCheckpointTruncation:
    """Satellite: a checkpoint torn at ANY byte offset either resumes
    cleanly or raises a precise CheckpointError — never a raw
    json.JSONDecodeError or KeyError."""

    def _golden_text(self, tmp_path):
        path = tmp_path / "full.json"
        ck = Checkpoint(path=str(path), meta={"experiments": ["toy-whole"]})
        ck.record("toy-whole::*",
                  {"status": "ok", "attempts": 1, "wall_s": 0.1,
                   "payload": None, "error": None})
        ck.record("toy-perapp::AAA",
                  {"status": "failed", "attempts": 2, "wall_s": 0.2,
                   "payload": None,
                   "error": {"type": "ValueError", "message": "x",
                             "traceback_tail": ""}})
        return path.read_text()

    def test_every_truncation_offset_is_clean(self, tmp_path):
        full = self._golden_text(tmp_path)
        victim = tmp_path / "ck.json"
        for offset in range(len(full)):
            victim.write_text(full[:offset])
            try:
                loaded = Checkpoint.load(str(victim))
            except CheckpointError:
                continue                      # precise, typed failure
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"offset {offset}: leaked "
                            f"{type(exc).__name__}: {exc}")
            # a parse that happens to succeed must be a usable store
            assert isinstance(loaded.records, dict)
        # the untruncated file always loads
        victim.write_text(full)
        assert len(Checkpoint.load(str(victim)).records) == 2

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_content_random_truncation(self, tmp_path, data):
        # A journal truncated at any byte loads exactly the records of
        # its complete lines (the last line for a key winning); only a
        # torn header is a CheckpointError.
        keys = data.draw(st.lists(
            st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF),
                    min_size=1, max_size=12),
            min_size=1, max_size=6))
        path = tmp_path / f"h{data.draw(st.integers(0, 10**6))}.json"
        ck = Checkpoint(path=str(path), meta={"keys": len(keys)})
        ends = [len(path.read_bytes()) if ck.save() is None else None]
        for attempt, key in enumerate(keys):
            ck.record(key, {"status": "ok", "attempts": attempt,
                            "wall_s": 0.0, "payload": None, "error": None})
            ends.append(len(path.read_bytes()))
        full = path.read_bytes()
        offset = data.draw(st.integers(0, len(full)))
        path.write_bytes(full[:offset])
        complete = sum(end <= offset for end in ends)
        if complete == 0:
            with pytest.raises(CheckpointError, match="corrupt or truncated"):
                Checkpoint.load(str(path))
            return
        expected = {}
        for attempt, key in enumerate(keys[:complete - 1]):
            expected[key] = attempt
        loaded = Checkpoint.load(str(path))
        assert {k: r["attempts"] for k, r in loaded.records.items()} \
            == expected
        assert loaded.meta == {"keys": len(keys)}

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_resumed_or_failed_writer_leaves_no_torn_middle_line(
            self, tmp_path, data):
        # Appends that tear at a random byte (then fail), and resumes
        # from a file cut at a random byte past its header: whatever
        # happens, every line before the last newline is whole, and the
        # file folds to what the final writer holds in memory.
        path = tmp_path / f"w{data.draw(st.integers(0, 10**6))}.json"
        ck = Checkpoint(path=str(path))
        ck.save()
        header_end = len(path.read_bytes())
        tear = {"at": None}

        def tearing_hook(checkpoint, payload):
            if tear["at"] is not None:
                checkpoint._append(payload[:tear["at"] % (len(payload) + 1)])
                raise OSError(5, "torn write")

        for step in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["record", "tear", "resume"]))
            if op == "resume":
                full = path.read_bytes()
                path.write_bytes(full[:data.draw(
                    st.integers(header_end, len(full)))])
                ck = Checkpoint.load(str(path))
                continue
            tear["at"] = data.draw(st.integers(0, 200)) \
                if op == "tear" else None
            ck.chaos_hook = tearing_hook
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ck.record(f"k{step % 3}", {"status": "ok", "step": step})
        tear["at"] = None
        assert ck.flush()
        lines = path.read_text().split("\n")[:-1]  # drop any torn tail
        assert all(json.loads(line) for line in lines)
        assert Checkpoint.load(str(path)).records == ck.records

    def test_truncated_resume_via_runner_is_exit2_material(self, tmp_path,
                                                           toy_registry):
        full = self._golden_text(tmp_path)
        victim = tmp_path / "ck.json"
        victim.write_text(full[: full.index("\n") // 2])  # torn header
        with pytest.raises(CheckpointError):
            SweepRunner(experiments=["toy-whole"], apps=APPS,
                        checkpoint_path=str(victim), resume=True)

    def test_torn_tail_resume_via_runner_reruns_only_the_lost_unit(
            self, tmp_path, toy_registry):
        full = self._golden_text(tmp_path)
        victim = tmp_path / "ck.json"
        victim.write_text(full[:-7])  # the failed unit's line is torn
        runner = SweepRunner(experiments=["toy-whole"], apps=APPS,
                             checkpoint_path=str(victim), resume=True)
        assert list(runner.checkpoint.records) == ["toy-whole::*"]
        assert runner.pending() == [] and runner.stats.skipped == 1


class TestSoftTimeLimit:
    def test_raises_after_deadline(self):
        with pytest.raises(UnitTimeout):
            with soft_time_limit(0.05):
                time.sleep(0.5)

    def test_noop_when_disabled(self):
        with soft_time_limit(None):
            pass
        with soft_time_limit(0):
            pass

    def test_timer_disarmed_after_block(self):
        with soft_time_limit(0.05):
            pass
        time.sleep(0.08)  # would fire here if left armed

    def test_warns_not_crashes_without_sigalrm(self, monkeypatch):
        import signal as signal_module
        monkeypatch.delattr(signal_module, "SIGALRM")
        ran = []
        with pytest.warns(RuntimeWarning, match="SIGALRM unavailable"):
            with soft_time_limit(0.05):
                ran.append(True)
        assert ran  # the block still executed, unguarded

    def test_warns_not_crashes_off_main_thread(self):
        caught = []

        def off_main():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with soft_time_limit(0.05):
                    caught.append("ran")
                caught.extend(w for w in seen
                              if issubclass(w.category, RuntimeWarning))

        worker = threading.Thread(target=off_main)
        worker.start()
        worker.join()
        assert "ran" in caught
        assert any(not isinstance(c, str) for c in caught), \
            "expected a RuntimeWarning from the fallback path"

    def test_no_warning_when_no_limit_requested_off_main_thread(self):
        seen = []

        def off_main():
            with warnings.catch_warnings(record=True) as w:
                warnings.simplefilter("always")
                with soft_time_limit(None):
                    pass
                seen.extend(w)

        worker = threading.Thread(target=off_main)
        worker.start()
        worker.join()
        assert not seen


class TestWallClockLimit:
    def test_returns_value_inline_without_limit(self):
        assert call_with_wall_clock_limit(lambda: 42, None) == 42
        assert call_with_wall_clock_limit(lambda: 42, 0) == 42

    def test_returns_value_under_limit(self):
        assert call_with_wall_clock_limit(lambda: "ok", 5.0) == "ok"

    def test_raises_unit_timeout_on_expiry(self):
        with pytest.raises(UnitTimeout, match="wall-clock"):
            call_with_wall_clock_limit(lambda: time.sleep(0.5), 0.05)

    def test_propagates_callable_exceptions(self):
        def boom():
            raise RuntimeError("inner")
        with pytest.raises(RuntimeError, match="inner"):
            call_with_wall_clock_limit(boom, 5.0)


class TestUnitSeeding:
    def test_unit_seed_is_stable_and_distinct(self):
        a = unit_seed("fig18::ATA")
        assert a == unit_seed("fig18::ATA")
        assert a != unit_seed("fig18::VEC")
        assert a != unit_seed("fig19::ATA")

    def test_seed_unit_rngs_pins_global_streams(self):
        seed_unit_rngs("fig18::ATA")
        draws = (np.random.random(), random.random())
        seed_unit_rngs("fig18::VEC")  # scramble with a different unit
        np.random.random(), random.random()
        seed_unit_rngs("fig18::ATA")
        assert (np.random.random(), random.random()) == draws


class TestErrorReport:
    def test_fields(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            report = error_report(exc)
        assert report["type"] == "RuntimeError"
        assert report["message"] == "boom"
        assert "RuntimeError: boom" in report["traceback_tail"]


class TestSweepRunner:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(KeyError):
            SweepRunner(experiments=["nope"], apps=APPS)

    def test_plan_decomposes_per_app(self, toy_registry):
        runner = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS)
        plan = runner.plan()
        assert [(e, a.name if a else None) for e, a in plan] == [
            ("toy-perapp", "AAA"), ("toy-perapp", "BB"),
            ("toy-whole", None)]

    def test_merge_prefixes_app_column(self, toy_registry):
        runner = SweepRunner(experiments=["toy-perapp"], apps=APPS)
        (merged,) = runner.run()
        assert merged.headers[0] == "app"
        assert merged.rows == [["AAA", "AAA", 3], ["BB", "BB", 2]]
        assert merged.summary["len"] == pytest.approx(2.5)  # mean(3, 2)
        assert merged.summary["units_ok"] == 2
        assert merged.summary["units_failed"] == 0
        assert merged.title.endswith("[per-app resilient sweep]")

    def test_whole_experiment_passes_through(self, toy_registry):
        runner = SweepRunner(experiments=["toy-whole"], apps=APPS)
        (result,) = runner.run()
        assert result.to_text() == toy_whole().to_text()

    def test_resume_skips_completed_units(self, toy_registry, tmp_path):
        path = str(tmp_path / "ck.json")
        first = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                            apps=APPS, checkpoint_path=path)
        results_a = first.run()
        assert first.stats.run == 3 and first.stats.skipped == 0

        second = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS, checkpoint_path=path, resume=True)
        results_b = second.run()
        assert second.stats.run == 0 and second.stats.skipped == 3
        assert [r.to_text() for r in results_a] == \
               [r.to_text() for r in results_b]

    def test_kill_then_resume_matches_uninterrupted(self, toy_registry,
                                                    tmp_path):
        path = str(tmp_path / "ck.json")

        def die_after_first(key, record):
            raise KeyboardInterrupt

        killed = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS, checkpoint_path=path,
                             on_unit_done=die_after_first)
        with pytest.raises(KeyboardInterrupt):
            killed.run()
        assert len(Checkpoint.load(path)) == 1  # the finished unit survived

        resumed = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                              apps=APPS, checkpoint_path=path, resume=True)
        resumed_results = resumed.run()
        assert resumed.stats.skipped == 1 and resumed.stats.run == 2

        clean = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                            apps=APPS).run()
        assert [r.to_text() for r in resumed_results] == \
               [r.to_text() for r in clean]

    def test_flaky_unit_retried_with_backoff(self, monkeypatch):
        calls = {"n": 0}

        def flaky(apps=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return toy_perapp(apps=apps)

        monkeypatch.setitem(EXPERIMENTS, "toy-flaky", flaky)
        slept = []
        runner = SweepRunner(experiments=["toy-flaky"], apps=[APPS[0]],
                             max_attempts=3, backoff_s=0.5,
                             sleep=slept.append)
        (merged,) = runner.run()
        rec = runner.checkpoint.get(unit_key("toy-flaky", "AAA"))
        assert rec["status"] == "ok" and rec["attempts"] == 3
        assert slept == [0.5, 1.0]  # exponential backoff
        assert runner.stats.retried == 2
        assert merged.summary["units_ok"] == 1

    def test_failing_unit_reported_not_fatal(self, toy_registry,
                                             monkeypatch):
        def always_fails(apps=None):
            raise ValueError(f"bad data in {apps[0].name}")

        monkeypatch.setitem(EXPERIMENTS, "toy-bad", always_fails)
        runner = SweepRunner(experiments=["toy-bad", "toy-whole"],
                             apps=APPS, max_attempts=2, backoff_s=0.0,
                             sleep=lambda s: None)
        results = runner.run()
        assert len(results) == 2  # the sweep completed anyway

        rec = runner.checkpoint.get(unit_key("toy-bad", "AAA"))
        assert rec["status"] == "failed" and rec["attempts"] == 2
        assert rec["error"]["type"] == "ValueError"
        assert "bad data in AAA" in rec["error"]["message"]
        assert "ValueError" in rec["error"]["traceback_tail"]

        bad = results[0]
        assert "FAILED toy-bad::AAA" in bad.notes
        assert "FAILED toy-bad::BB" in bad.notes
        assert bad.summary["units_failed"] == 2
        assert runner.failed_units == ["toy-bad::AAA", "toy-bad::BB"]
        assert "2 failed" in runner.report_line()

    def test_partial_failure_merges_the_survivors(self, monkeypatch):
        def picky(apps=None):
            if apps[0].name == "BB":
                raise RuntimeError("no BB")
            return toy_perapp(apps=apps)

        monkeypatch.setitem(EXPERIMENTS, "toy-picky", picky)
        runner = SweepRunner(experiments=["toy-picky"], apps=APPS,
                             max_attempts=1)
        (merged,) = runner.run()
        assert merged.rows == [["AAA", "AAA", 3]]
        assert merged.summary["units_ok"] == 1
        assert merged.summary["units_failed"] == 1
        assert "FAILED toy-picky::BB" in merged.notes

    def test_timeout_recorded_as_structured_failure(self, monkeypatch):
        def sleepy(apps=None):
            time.sleep(0.5)
            return toy_perapp(apps=apps)

        monkeypatch.setitem(EXPERIMENTS, "toy-sleepy", sleepy)
        runner = SweepRunner(experiments=["toy-sleepy"], apps=[APPS[0]],
                             max_attempts=1, timeout_s=0.05)
        runner.run()
        rec = runner.checkpoint.get(unit_key("toy-sleepy", "AAA"))
        assert rec["status"] == "failed"
        assert rec["error"]["type"] == "UnitTimeout"


class TestParallelSweepRunner:
    """The ProcessPoolExecutor backend (jobs > 1)."""

    @pytest.fixture
    def pool_registry(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "toy-perapp", toy_perapp)
        monkeypatch.setitem(EXPERIMENTS, "toy-whole", toy_whole)
        monkeypatch.setitem(EXPERIMENTS, "toy-rng", toy_global_rng)
        monkeypatch.setitem(EXPERIMENTS, "toy-sleepy", toy_sleepy)
        monkeypatch.setitem(EXPERIMENTS, "toy-bad", toy_always_fails)
        monkeypatch.setitem(EXPERIMENTS, "toy-flaky", toy_flaky_for_pool)
        yield

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(experiments=["fig01"], apps=APPS, jobs=0)

    def test_parallel_results_match_serial(self, pool_registry):
        serial = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS).run()
        parallel = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                               apps=APPS, jobs=2).run()
        assert [r.to_text() for r in serial] == \
               [r.to_text() for r in parallel]

    def test_parallel_global_rng_driver_matches_serial(self, pool_registry):
        """Per-unit seeding: even a driver drawing from global RNGs
        produces identical tables serially and across workers."""
        serial = SweepRunner(experiments=["toy-rng"], apps=APPS).run()
        parallel = SweepRunner(experiments=["toy-rng"], apps=APPS,
                               jobs=2).run()
        assert [r.to_text() for r in serial] == \
               [r.to_text() for r in parallel]

    def test_parallel_stats_and_checkpoint(self, pool_registry, tmp_path):
        path = str(tmp_path / "ck.json")
        runner = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS, jobs=2, checkpoint_path=path)
        runner.run()
        assert runner.stats.run == 3 and runner.stats.failed == 0
        loaded = Checkpoint.load(path)
        assert len(loaded) == 3
        assert loaded.get("toy-whole::*")["status"] == "ok"

    def test_parallel_failures_are_isolated(self, pool_registry):
        runner = SweepRunner(experiments=["toy-bad", "toy-whole"],
                             apps=APPS, jobs=2, max_attempts=2,
                             backoff_s=0.0)
        results = runner.run()
        assert len(results) == 2
        rec = runner.checkpoint.get(unit_key("toy-bad", "AAA"))
        assert rec["status"] == "failed" and rec["attempts"] == 2
        assert rec["error"]["type"] == "ValueError"
        assert "bad data in AAA" in rec["error"]["message"]
        assert runner.stats.failed == 2

    def test_parallel_retry_happens_inside_the_worker(self, pool_registry):
        _POOL_FLAKY_CALLS["n"] = 0  # workers fork a copy of this state
        runner = SweepRunner(experiments=["toy-flaky", "toy-whole"],
                             apps=[APPS[0]], jobs=2, max_attempts=3,
                             backoff_s=0.01)
        (merged, _whole) = runner.run()
        rec = runner.checkpoint.get(unit_key("toy-flaky", "AAA"))
        assert rec["status"] == "ok" and rec["attempts"] == 3
        assert runner.stats.retried == 2
        assert merged.summary["units_ok"] == 1

    def test_parallel_timeout_uses_wall_clock_guard(self, pool_registry):
        runner = SweepRunner(experiments=["toy-sleepy", "toy-whole"],
                             apps=[APPS[0]], jobs=2, max_attempts=1,
                             timeout_s=0.05)
        runner.run()
        rec = runner.checkpoint.get(unit_key("toy-sleepy", "AAA"))
        assert rec["status"] == "failed"
        assert rec["error"]["type"] == "UnitTimeout"
        assert "wall-clock" in rec["error"]["message"]

    def test_interrupted_parallel_sweep_resumes(self, pool_registry,
                                                tmp_path):
        path = str(tmp_path / "ck.json")

        def die_after_first(key, record):
            raise KeyboardInterrupt

        killed = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                             apps=APPS, jobs=2, checkpoint_path=path,
                             on_unit_done=die_after_first)
        with pytest.raises(KeyboardInterrupt):
            killed.run()
        survived = len(Checkpoint.load(path))
        assert survived >= 1

        resumed = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                              apps=APPS, jobs=2, checkpoint_path=path,
                              resume=True)
        resumed_results = resumed.run()
        assert resumed.stats.skipped == survived
        assert resumed.stats.run == 3 - survived

        clean = SweepRunner(experiments=["toy-perapp", "toy-whole"],
                            apps=APPS).run()
        assert [r.to_text() for r in resumed_results] == \
               [r.to_text() for r in clean]

    def test_single_pending_unit_runs_in_process(self, pool_registry):
        # One pending unit is not worth a pool; the serial path is used
        # (observable through the injectable sleeper, which workers
        # cannot see).
        slept = []
        runner = SweepRunner(experiments=["toy-flaky"], apps=[APPS[0]],
                             jobs=4, max_attempts=3, backoff_s=0.5,
                             sleep=slept.append)
        _POOL_FLAKY_CALLS["n"] = 0
        runner.run()
        assert slept == [0.5, 1.0]

    def test_pool_tasks_group_units_by_app_largest_first(self):
        units = [UnitTask("e1", APPS[0], "e1::AAA"),
                 UnitTask("e1", APPS[1], "e1::BB"),
                 UnitTask("w", None, "w::*"),
                 UnitTask("e2", APPS[1], "e2::BB")]
        assert [[u.key for u in task] for task in pool_tasks(units)] == \
            [["e1::BB", "e2::BB"], ["e1::AAA"], ["w::*"]]

    def test_no_worker_outlives_a_parallel_sweep(self, pool_registry):
        before = set(multiprocessing.active_children())
        SweepRunner(experiments=["toy-perapp", "toy-whole"], apps=APPS,
                    jobs=2).run()
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        # A parent killed outright cannot shut its pool down; the
        # workers must notice and go instead of idling forever.
        script = (
            "import os, time\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.runner.pool import exit_with_parent\n"
            "def pid(delay):\n"
            "    time.sleep(delay)\n"
            "    return os.getpid()\n"
            "pool = ProcessPoolExecutor(2, initializer=exit_with_parent)\n"
            "print(*set(pool.map(pid, [0.3, 0.3])), flush=True)\n"
            "time.sleep(60)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2
        parent.kill()
        parent.wait()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))

    def test_parallel_sweep_makes_one_functional_pass_per_app(self):
        # Each app's units share one pool task, so its functional pass
        # and clean replays are computed once, as in a serial sweep.
        from repro import sim
        from repro.kernels import get_app

        def sweep(jobs):
            sim.clear_caches()
            runner = SweepRunner(experiments=["fig09", "table2"],
                                 apps=[get_app("ATA"), get_app("VEC")],
                                 jobs=jobs)
            runner.run()
            return runner.checkpoint.records

        serial, parallel = sweep(jobs=1), sweep(jobs=2)
        for records in (serial, parallel):
            passes = {}
            for key, rec in records.items():
                app = key.split("::")[1]
                passes[app] = passes.get(app, 0) + rec["functional_passes"]
            assert passes == {"ATA": 1, "VEC": 1}
        assert sum(r["replays"] for r in parallel.values()) == \
            sum(r["replays"] for r in serial.values()) > 0

    def test_registry_and_apps_are_picklable(self):
        # The parallel backend ships apps through pickle and resolves
        # drivers by id; keep both layers pool-safe.
        from repro.kernels import all_apps
        pickle.dumps(EXPERIMENTS)
        pickle.dumps(all_apps())


class TestCLI:
    def test_checkpoint_then_resume(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "ck.json")
        assert main(["run", "fig01", "--checkpoint", path]) == 0
        header = json.loads((tmp_path / "ck.json").read_text()
                            .splitlines()[0])
        assert header["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert Checkpoint.load(path).get("fig01::*")["status"] == "ok"
        assert main(["run", "fig01", "--resume", path]) == 0
        assert "1 resumed" in capsys.readouterr().out

    def test_jobs_flag_runs_parallel_sweep(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "ck.json")
        assert main(["run", "table2", "--apps", "ATA,VEC",
                     "--jobs", "2", "--checkpoint", path]) == 0
        out, err = capsys.readouterr()
        assert "jobs=2" in out
        assert "[2/2]" in err          # progress went to stderr
        assert set(Checkpoint.load(path).records) == {"table2::ATA",
                                                      "table2::VEC"}

    def test_jobs_flag_rejects_zero(self, capsys):
        from repro.__main__ import main
        assert main(["run", "fig01", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--max-attempts", "0"), ("--max-dispatches", "0"),
        ("--retry-backoff", "-1")])
    def test_bad_retry_options_exit_2(self, tmp_path, capsys, flag, value):
        """Rejected up front with a one-line usage error, not a runner
        traceback or a negative sleep on the first retry."""
        from repro.__main__ import main
        ck = tmp_path / "ck.json"
        try:
            code = main(["run", "fig01", "--checkpoint", str(ck),
                         flag, value])
        except SystemExit as exc:      # argparse type errors
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not ck.exists()

    def test_timeout_bounds_a_plain_run(self, monkeypatch, capsys):
        """--timeout alone (no checkpoint, jobs, sink or chaos flag)
        still guards every attempt: the unit fails and the run exits 3
        instead of printing the driver's table."""
        from repro.__main__ import main
        monkeypatch.setitem(EXPERIMENTS, "toy-slow", toy_slow_whole)
        assert main(["run", "toy-slow", "--timeout", "0.05",
                     "--max-attempts", "1"]) == 3
        out, err = capsys.readouterr()
        assert "UnitTimeout" in out
        assert "failed unit: toy-slow::*" in err

    @pytest.mark.parametrize("argv", [
        ["run", "fig01", "--timeout", "0"],
        ["run", "fig01", "--timeout", "-1"],
        ["run", "fig01", "--timeout", "nan"],
        ["run", "fig01", "--timeout", "inf"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_time_options_must_be_finite_and_positive(self, capsys, argv):
        """A zero, negative, NaN or infinite time option would disable
        the limit, never fire, or overflow the timer; it is a usage
        error (exit 2) naming the option."""
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_closed_stdout_is_a_clean_exit(self):
        """``repro list | head`` closes stdout before the output is
        written: the command exits 0 with no traceback on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)                  # the reader is already gone
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        try:
            proc = subprocess.run([sys.executable, "-m", "repro", "list"],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_resume_from_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "ck.json"
        path.write_text("{torn")
        assert main(["run", "fig01", "--resume", str(path)]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_missing_resume_file(self, tmp_path, capsys):
        from repro.__main__ import main
        missing = str(tmp_path / "nope.json")
        assert main(["run", "fig01", "--resume", missing]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        from repro.__main__ import main
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_app_suggests_close_names(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig09", "--apps", "ATAX"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown app 'ATAX'" in err
        assert "did you mean" in err and "ATA" in err
