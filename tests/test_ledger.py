"""Tests for the run ledger and ``obs diff`` on top.

Covers the crash-safety contracts the ledger promises: torn tails are
"not yet an event" for every reader, reads mid-sweep see a growing,
valid stream, and SIGKILLed chaos sweeps still produce a valid ledger.
The serial-vs-``--jobs`` normalized event-set identity is pinned
against a committed fixture in ``test_golden.py``.
"""

import json
import os

import pytest

from repro.obs.ledger import (EVENT_TYPES, LEDGER_SCHEMA_VERSION,
                              RunLedger, normalize_events,
                              parse_ledger_text, read_ledger,
                              status_totals, validate_ledger)

SMOKE_EXPERIMENTS = ["fig09"]
SMOKE_APPS = ("ATA", "VEC")


def _smoke_runner(ledger_path=None, **kwargs):
    from repro.kernels import get_app
    from repro.runner import SweepRunner
    return SweepRunner(experiments=SMOKE_EXPERIMENTS,
                       apps=[get_app(name) for name in SMOKE_APPS],
                       ledger_path=ledger_path, **kwargs)


# ---------------------------------------------------------------------------
# RunLedger
# ---------------------------------------------------------------------------

class TestRunLedger:
    def test_opens_with_schema_header_and_counts_seq(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path, meta={"experiments": ["fig09"]})
        ledger.emit("sweep_begin", jobs=1)
        ledger.emit("unit_started", "fig09::VEC")
        ledger.close()
        events = read_ledger(path)
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert events[0]["type"] == "ledger_open"
        assert events[0]["attrs"]["schema_version"] == LEDGER_SCHEMA_VERSION
        assert events[0]["attrs"]["meta"]["experiments"] == ["fig09"]
        assert events[2]["key"] == "fig09::VEC"
        assert validate_ledger(events) == []

    def test_pathless_ledger_is_in_memory_only(self, tmp_path):
        ledger = RunLedger()
        ledger.emit("sweep_begin", jobs=1)
        assert ledger.ok
        assert [e["type"] for e in ledger.events] \
            == ["ledger_open", "sweep_begin"]
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_degrades_to_warning(self, tmp_path):
        path = str(tmp_path / "nodir" / "run.jsonl")
        with pytest.warns(RuntimeWarning, match="unwritable"):
            ledger = RunLedger(path=path)
        assert ledger.ok is False
        ledger.emit("sweep_begin", jobs=1)   # dropped from disk, no raise
        assert [e["type"] for e in ledger.events] \
            == ["ledger_open", "sweep_begin"]
        ledger.close()
        assert not os.path.exists(path)

    def test_reserved_attr_names_rejected(self):
        ledger = RunLedger()
        with pytest.raises(ValueError, match="reserved"):
            ledger.emit("sweep_begin", seq=99)

    def test_every_event_type_in_vocabulary_is_unique(self):
        assert len(EVENT_TYPES) == len(set(EVENT_TYPES))
        assert EVENT_TYPES[0] == "ledger_open"


# ---------------------------------------------------------------------------
# Torn tails and parsing
# ---------------------------------------------------------------------------

class TestTornTails:
    def test_parse_skips_torn_and_garbled_lines(self):
        text = ('{"seq": 1, "type": "ledger_open", "attrs": {}}\n'
                "not json at all\n"
                '{"seq": 2, "type": "sweep_begin"'  # torn: no close/newline
                )
        events = parse_ledger_text(text)
        assert [e["seq"] for e in events] == [1]

    def test_read_ledger_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path)
        ledger.emit("sweep_begin", jobs=2)
        ledger.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 3, "type": "sweep_')  # writer died mid-line
        events = read_ledger(path)
        assert [e["seq"] for e in events] == [1, 2]
        assert validate_ledger(events) == []

    def test_torn_tail_invisible_until_completed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path)
        # A writer mid-write: half an event, no newline yet.
        line = json.dumps({"seq": 2, "ts": 0.0, "type": "sweep_begin",
                           "key": None, "attrs": {}})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[:10])
            fh.flush()
            assert [e["seq"] for e in read_ledger(path)] == [1]
            fh.write(line[10:] + "\n")
        assert [e["seq"] for e in read_ledger(path)] == [1, 2]
        ledger.close()


# ---------------------------------------------------------------------------
# Normalization and validation
# ---------------------------------------------------------------------------

class TestNormalizeValidate:
    def test_normalize_strips_volatile_attrs_and_seq(self):
        events = [
            {"seq": 1, "ts": 9.0, "type": "ledger_open", "key": None,
             "attrs": {"schema_version": 1,
                       "meta": {"jobs": 4, "experiments": ["fig09"]}}},
            {"seq": 2, "ts": 9.1, "type": "unit_started", "key": "b",
             "attrs": {}},
            {"seq": 3, "ts": 9.2, "type": "unit_completed", "key": "a",
             "attrs": {"status": "ok", "wall_s": 0.5, "unit_wall_s": 0.4,
                       "attempts": 1}},
        ]
        normalized = normalize_events(events)
        # sweep-level first (empty key), then units a, b
        assert [e["key"] for e in normalized] == [None, "a", "b"]
        assert normalized[0]["attrs"]["meta"] == {"experiments": ["fig09"]}
        assert normalized[1]["attrs"] == {"status": "ok", "attempts": 1}
        assert normalized[2]["attrs"] == {}
        for event in normalized:
            assert "seq" not in event and "ts" not in event

    def test_validate_flags_schema_problems(self):
        bad = [
            {"seq": 1, "ts": 0.0, "type": "sweep_begin", "attrs": {}},
            {"seq": 3, "ts": 0.1, "type": "not_a_type", "attrs": {}},
            {"seq": 3, "ts": 0.2, "type": "sweep_end", "attrs": []},
        ]
        problems = "\n".join(validate_ledger(bad))
        assert "expected 'ledger_open'" in problems
        assert "seq gap" in problems
        assert "unknown type 'not_a_type'" in problems
        assert "not strictly increasing" in problems
        assert "attrs is list" in problems
        assert validate_ledger([]) == ["ledger has no events"]

    def test_status_totals_keeps_final_status_only(self):
        events = [
            {"type": "unit_completed", "key": "a",
             "attrs": {"status": "failed"}},
            {"type": "unit_completed", "key": "a",
             "attrs": {"status": "ok"}},
            {"type": "unit_completed", "key": "b",
             "attrs": {"status": "ok"}},
        ]
        assert status_totals(events) == {"ok": 2}


# ---------------------------------------------------------------------------
# Sweeps write ledgers: live tailing, chaos, SIGKILLed workers
# ---------------------------------------------------------------------------

class TestSweepLedger:
    def test_serial_sweep_emits_valid_lifecycle(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        runner = _smoke_runner(ledger_path=path)
        runner.run()
        events = read_ledger(path)
        assert validate_ledger(events) == []
        types = [e["type"] for e in events]
        assert types[0] == "ledger_open"
        assert types[-1] == "sweep_end"
        assert types.count("unit_completed") == 2
        assert status_totals(events) == {"ok": 2}
        for key in ("fig09::ATA", "fig09::VEC"):
            unit_types = [e["type"] for e in events if e["key"] == key]
            assert unit_types == ["unit_scheduled", "unit_started",
                                  "unit_attempt", "unit_completed"]

    def test_follower_tails_a_live_sweep(self, tmp_path):
        """Reading mid-sweep (from the parent's unit callback) sees a
        growing, valid stream and never disturbs the writer."""
        path = str(tmp_path / "run.jsonl")
        mid_reads = []

        def on_unit_done(key, record):
            events = read_ledger(path)
            assert validate_ledger(events) == []
            assert events[-1]["type"] != "sweep_end"
            mid_reads.append(len(events))

        runner = _smoke_runner(ledger_path=path,
                               on_unit_done=on_unit_done)
        runner.run()
        assert len(mid_reads) == 2 and mid_reads[0] < mid_reads[1]
        events = read_ledger(path)
        assert validate_ledger(events) == []
        assert len(events) > mid_reads[-1]
        assert events[-1]["type"] == "sweep_end"

    def test_sigkilled_workers_still_yield_valid_ledger(self, tmp_path):
        """Chaos SIGKILLs every unit's first dispatch; the ledger must
        record the redispatches and stay schema-valid end to end."""
        from repro.chaos import ChaosPlan
        path = str(tmp_path / "run.jsonl")
        runner = _smoke_runner(
            ledger_path=path, jobs=2,
            chaos=ChaosPlan(seed=7, rates={"kill": 1.0}))
        runner.run()
        assert runner.stats.redispatched > 0
        events = read_ledger(path)
        assert validate_ledger(events) == []
        types = [e["type"] for e in events]
        assert "unit_redispatch" in types
        assert status_totals(events) == {"ok": 2}
        # the whole chaotic stream reads back in seq order
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))

    def test_interrupted_sweep_gets_terminal_event(self, tmp_path):
        path = str(tmp_path / "run.jsonl")

        def die(key, record):
            raise KeyboardInterrupt

        runner = _smoke_runner(ledger_path=path, on_unit_done=die)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        events = read_ledger(path)
        assert events[-1]["type"] == "sweep_end"
        assert events[-1]["attrs"]["status"] == "interrupted"


# ---------------------------------------------------------------------------
# obs diff
# ---------------------------------------------------------------------------

class TestDiff:
    def test_ledger_self_compare_is_clean(self, tmp_path):
        from repro.compare import gate_exit_code
        from repro.obs.diff import diff_ledgers
        path = str(tmp_path / "run.jsonl")
        _smoke_runner(ledger_path=path).run()
        events = read_ledger(path)
        deltas = diff_ledgers(events, events)
        assert all(d.verdict == "ok" for d in deltas)
        assert gate_exit_code(deltas, gate=True) == 0

    def test_ledger_diff_flags_lifecycle_changes(self, tmp_path):
        from repro.obs.diff import diff_ledgers
        old = RunLedger()
        new = RunLedger()
        for ledger in (old, new):
            ledger.emit("sweep_begin", jobs=1)
            ledger.emit("unit_completed", "fig09::ATA", status="ok",
                        attempts=1)
        new.emit("unit_retry", "fig09::VEC", attempt=2)   # only in new
        old.emit("unit_completed", "fig09::BFS", status="ok", attempts=1)
        new.emit("unit_completed", "fig09::BFS", status="failed",
                 attempts=3)
        verdicts = {d.name: d.verdict
                    for d in diff_ledgers(old.events, new.events)}
        assert verdicts["fig09::ATA"] == "ok"
        assert verdicts["fig09::VEC"] == "new"
        assert verdicts["fig09::BFS"] == "changed"

    def test_trace_diff_verdicts(self):
        from repro.obs.diff import diff_traces

        def unit(key, wall, children=()):
            return {"name": "unit", "attrs": {"key": key},
                    "wall_s": wall, "cpu_s": wall,
                    "children": list(children)}

        old = [{"name": "sweep", "attrs": {}, "wall_s": 3.0, "cpu_s": 3.0,
                "children": [unit("a", 1.0), unit("gone", 1.0)]}]
        new = [{"name": "sweep", "attrs": {}, "wall_s": 9.0, "cpu_s": 9.0,
                "children": [unit("a", 2.0), unit("fresh", 1.0)]}]
        verdicts = {d.name: d.verdict for d in diff_traces(old, new)}
        assert verdicts["sweep/unit[a]"] == "regression"   # 1.0 -> 2.0
        assert verdicts["sweep/unit[gone]"] == "missing"
        assert verdicts["sweep/unit[fresh]"] == "new"
        # below the absolute floor: jitter, not a verdict
        calm = {d.name: d.verdict
                for d in diff_traces([unit("a", 0.010)],
                                     [unit("a", 0.014)])}
        assert calm["unit[a]"] == "ok"

    def test_trace_calls_mismatch_is_changed_not_timing(self):
        from repro.obs.diff import diff_traces
        span = {"name": "attempt", "attrs": {}, "wall_s": 1.0,
                "cpu_s": 1.0, "children": []}
        old = [dict(span)]
        new = [dict(span), dict(span)]       # a retry appeared
        (delta,) = diff_traces(old, new)
        assert delta.verdict == "changed"
        assert "calls 1 -> 2" in delta.detail

    def test_metrics_diff_skips_volatile_families(self):
        from repro.obs.diff import diff_metrics

        def snapshot(value, rss):
            return {"families": {
                "app_runs_total": {"kind": "counter", "series": [
                    {"labels": {"app": "VEC"}, "value": value}]},
                "unit_peak_rss_bytes": {"kind": "gauge", "series": [
                    {"labels": {}, "value": rss}]},
            }}

        deltas = diff_metrics(snapshot(1, 100), snapshot(2, 999))
        assert [(d.name, d.verdict) for d in deltas] \
            == [("app_runs_total{app=VEC}", "changed")]

    def test_diff_cli_self_compare_and_gate(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "run.jsonl")
        _smoke_runner(ledger_path=path).run()
        code = main(["obs", "diff", "--ledger", path, path, "--gate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 gating difference(s)" in out

    def test_diff_cli_requires_a_pair(self, capsys):
        from repro.__main__ import main
        assert main(["obs", "diff"]) == 2
        assert "at least one" in capsys.readouterr().err.lower()

    def test_diff_cli_missing_file_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main
        missing = str(tmp_path / "none.jsonl")
        assert main(["obs", "diff", "--ledger", missing, missing]) == 2
