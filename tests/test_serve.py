"""Tests for ``repro obs serve``: the run index, the ledger fan-out
hub, and the HTTP/SSE service itself.

The acceptance pin of this layer lives here: two concurrent SSE
clients tailing one live ledger, one of them disconnecting mid-stream
and resuming via ``Last-Event-ID`` while the writer rotates the sink —
every event delivered to both, exactly once, no duplicates and no
gaps. Plus the byte-identity contract: the ``/metrics`` body equals
``repro obs report --metrics SNAP --prometheus`` output exactly.
"""

import http.client
import json
import os
import threading

import pytest

from repro.obs.ledger import (LedgerHub, RunLedger, ledger_segments,
                              read_ledger)
from repro.obs.runindex import RunIndex, classify_artifact, run_id_for
from repro.obs.serve import (ObsHTTPServer, PROMETHEUS_CONTENT_TYPE,
                             SSE_CONTENT_TYPE, serve)

SMOKE_EXPERIMENTS = ["fig09"]
SMOKE_APPS = ("ATA", "VEC")


def _smoke_artifacts(tmp_path, run_id="smoke"):
    """Run the golden-smoke sweep with all three artifact sinks named
    so they catalog under one run id; returns the directory."""
    from repro.kernels import get_app
    from repro.runner import SweepRunner
    SweepRunner(experiments=SMOKE_EXPERIMENTS,
                apps=[get_app(name) for name in SMOKE_APPS],
                ledger_path=str(tmp_path / f"{run_id}.jsonl"),
                trace_path=str(tmp_path / f"{run_id}.trace.jsonl"),
                metrics_path=str(tmp_path / f"{run_id}.metrics.json")
                ).run()
    return str(tmp_path)


class _Server:
    """In-process ObsHTTPServer on an ephemeral port."""

    def __init__(self, directory, **kwargs):
        kwargs.setdefault("poll_interval_s", 0.01)
        kwargs.setdefault("heartbeat_s", 0.2)
        self.server = ObsHTTPServer(("127.0.0.1", 0), directory, **kwargs)
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self._thread.join(timeout=5)
        self.server.server_close()

    # -- client helpers --------------------------------------------------

    def get(self, path, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=10)
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        body = resp.read()
        conn.close()
        return resp.status, resp.getheader("Content-Type"), body

    def get_json(self, path):
        status, ctype, body = self.get(path)
        assert ctype.startswith("application/json")
        return status, json.loads(body.decode("utf-8"))

    def sse_connect(self, path, last_event_id=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=10)
        headers = {}
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(last_event_id)
        conn.request("GET", path, headers=headers)
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == SSE_CONTENT_TYPE
        return conn, resp


def _read_frames(resp, limit=None):
    """Parse SSE frames off a response until the stream closes (or
    ``limit`` data frames arrived). Heartbeat comments are skipped;
    the ``retry:`` prelude never forms a data frame."""
    frames, current = [], {}
    while True:
        raw = resp.readline()
        if not raw:
            break                          # server closed the stream
        line = raw.decode("utf-8").rstrip("\n")
        if not line:
            if "data" in current:
                frames.append(current)
                if limit is not None and len(frames) >= limit:
                    break
            current = {}
            continue
        if line.startswith(":"):
            continue                       # keep-alive comment
        field, _, value = line.partition(":")
        current[field] = value.lstrip()
    return frames


def _ids(frames):
    return [int(frame["id"]) for frame in frames]


# ---------------------------------------------------------------------------
# Run index
# ---------------------------------------------------------------------------

class TestRunIndex:
    def test_run_id_strips_qualifiers(self):
        assert run_id_for("/x/inject.jsonl") == "inject"
        assert run_id_for("inject.trace.jsonl") == "inject"
        assert run_id_for("inject.metrics.json") == "inject"
        assert run_id_for("inject.ledger.jsonl") == "inject"
        assert run_id_for("noext") == "noext"

    def test_classify_by_content_not_name(self, tmp_path):
        ledger = tmp_path / "weird-name.jsonl"
        ledger.write_text('{"seq": 1, "ts": 0, "type": "ledger_open", '
                          '"key": null, "attrs": {}}\n')
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type": "span", "name": "root", "depth": 0, '
                         '"wall_s": 1.0}\n')
        metrics = tmp_path / "m.json"
        metrics.write_text('{"families": {}}')
        bench = tmp_path / "BENCH_X.json"
        bench.write_text('{"schema": "repro-bench", "scenarios": {}}')
        junk = tmp_path / "junk.json"
        junk.write_text('{"neither": true}')
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"seq": 1, "ty')
        assert classify_artifact(str(ledger)) == "ledger"
        assert classify_artifact(str(trace)) == "trace"
        assert classify_artifact(str(metrics)) == "metrics"
        assert classify_artifact(str(bench)) == "bench"
        assert classify_artifact(str(junk)) is None
        assert classify_artifact(str(torn)) is None
        assert classify_artifact(str(tmp_path / "absent.jsonl")) is None

    def test_groups_artifact_trio_into_one_run(self, tmp_path):
        directory = _smoke_artifacts(tmp_path)
        index = RunIndex(directory)
        assert list(index.runs) == ["smoke"]
        entry = index.get("smoke")
        assert entry.ledger and entry.trace and entry.metrics
        assert entry.status == "ok"
        assert entry.last_seq == read_ledger(entry.ledger.path)[-1]["seq"]
        assert entry.meta.get("experiments") == SMOKE_EXPERIMENTS
        assert entry.created_ts is not None

    def test_unfinished_ledger_reads_running(self, tmp_path):
        ledger = RunLedger(path=str(tmp_path / "live.jsonl"))
        ledger.emit("sweep_begin", jobs=1)
        index = RunIndex(str(tmp_path))
        assert index.get("live").status == "running"
        ledger.emit("sweep_end", status="ok")
        ledger.close()
        assert index.refresh().get("live").status == "ok"

    def test_latest_run_honors_artifact_requirement(self, tmp_path):
        directory = _smoke_artifacts(tmp_path)
        orphan = RunLedger(path=os.path.join(directory, "zz.jsonl"))
        orphan.emit("sweep_end", status="ok")
        orphan.close()
        now = os.path.getmtime(os.path.join(directory, "smoke.jsonl"))
        os.utime(os.path.join(directory, "zz.jsonl"), (now + 60, now + 60))
        index = RunIndex(directory)
        assert index.latest_run().run_id == "zz"          # newest overall
        assert index.latest_run(require="metrics").run_id == "smoke"
        assert index.latest_run(require="trace").run_id == "smoke"

    def test_records_catalogued_newest_first(self, tmp_path):
        for stamp in ("20260101T000000Z", "20260202T000000Z"):
            (tmp_path / f"BENCH_{stamp}.json").write_text(json.dumps(
                {"schema": "repro-bench", "created_utc": stamp,
                 "scenarios": {"a": {}, "b": {}}}))
        (tmp_path / "FIDELITY_X.json").write_text(json.dumps(
            {"schema": "repro-fidelity", "created_utc": "2026",
             "claims": {"c": {}}}))
        index = RunIndex(str(tmp_path))
        assert [r.kind for r in index.records].count("bench") == 2
        assert index.records[0].record_id == "BENCH_20260202T000000Z"
        assert index.records[0].entries == 2
        payload = index.to_dict()
        assert payload["runs"] == []
        assert len(payload["records"]) == 3


# ---------------------------------------------------------------------------
# LedgerHub fan-out
# ---------------------------------------------------------------------------

class TestLedgerHub:
    def test_two_subscribers_each_get_every_event_once(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path)
        hub = LedgerHub(path)
        first, second = hub.subscribe(), hub.subscribe()
        assert hub.subscriber_count == 2
        for i in range(5):
            ledger.emit("unit_started", f"u{i}")
        hub.pump()
        ledger.close()

        def _drain(subscription):
            seqs = []
            while True:
                event = subscription.get()
                if event is None:
                    return seqs
                seqs.append(event["seq"])

        assert _drain(first) == list(range(1, 7))
        assert _drain(second) == list(range(1, 7))
        first.close()
        assert hub.subscriber_count == 1

    def test_late_subscriber_resumes_without_duplicates(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path, max_bytes=160)
        hub = LedgerHub(path)
        for i in range(10):
            ledger.emit("unit_started", f"u{i}")
        hub.pump()                           # hub is ahead of the client
        assert len(ledger_segments(path)) > 1
        resumed = hub.subscribe(last_seq=4)  # stored Last-Event-ID
        ledger.emit("sweep_end", status="ok")
        ledger.close()
        hub.pump()
        seqs = []
        while True:
            event = resumed.get()
            if event is None:
                break
            seqs.append(event["seq"])
        assert seqs == list(range(5, 13))    # catch-up + live, no seam
        assert hub.ended is True
        assert hub.last_seq() == 12

    def test_pending_is_non_destructive(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        RunLedger(path=path).close()
        hub = LedgerHub(path)
        subscription = hub.subscribe()
        assert subscription.pending() is True
        assert subscription.get()["seq"] == 1    # still delivered
        assert subscription.pending() is False


# ---------------------------------------------------------------------------
# HTTP endpoints against a finished run
# ---------------------------------------------------------------------------

class TestServeEndpoints:
    @pytest.fixture(scope="class")
    def smoke_dir(self, tmp_path_factory):
        return _smoke_artifacts(tmp_path_factory.mktemp("runs"))

    def test_root_and_runs_catalog(self, smoke_dir):
        with _Server(smoke_dir) as srv:
            status, root = srv.get_json("/")
            assert status == 200
            assert "/events?run=ID" in root["endpoints"]
            status, runs = srv.get_json("/runs")
            assert status == 200
            (run,) = runs["runs"]
            assert run["run_id"] == "smoke"
            assert run["status"] == "ok"
            assert run["artifacts"]["ledger"]["path"] == "smoke.jsonl"
            assert run["artifacts"]["metrics"]["path"] \
                == "smoke.metrics.json"

    def test_status_folds_run_state(self, smoke_dir):
        with _Server(smoke_dir) as srv:
            status, named = srv.get_json("/status?run=smoke")
            assert status == 200
            snap = named["status"]
            assert snap["end_status"] == "ok"
            assert snap["done"] == snap["total"] == len(SMOKE_APPS)
            states = {unit["key"]: unit["state"]
                      for unit in snap["units"]}
            assert states == {f"fig09::{app}": "ok"
                              for app in SMOKE_APPS}
            status, default = srv.get_json("/status")  # latest run
            assert status == 200 and default["run_id"] == "smoke"

    def test_metrics_content_type_and_cli_byte_identity(
            self, smoke_dir, capsys):
        from repro.__main__ import main
        snapshot_path = os.path.join(smoke_dir, "smoke.metrics.json")
        with _Server(smoke_dir) as srv:
            status, ctype, body = srv.get("/metrics?run=smoke")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert main(["obs", "report", "--metrics", snapshot_path,
                     "--prometheus"]) == 0
        cli_text = capsys.readouterr().out
        assert body.decode("utf-8") == cli_text        # byte-identical
        assert "# TYPE" in cli_text

    def test_events_streams_finished_ledger_to_close(self, smoke_dir):
        ledger_path = os.path.join(smoke_dir, "smoke.jsonl")
        expected = [e["seq"] for e in read_ledger(ledger_path)]
        with _Server(smoke_dir) as srv:
            conn, resp = srv.sse_connect("/events?run=smoke")
            frames = _read_frames(resp)    # runs until server closes
            conn.close()
        assert _ids(frames) == expected
        assert frames[0]["event"] == "ledger_open"
        assert frames[-1]["event"] == "sweep_end"
        assert json.loads(frames[-1]["data"])["seq"] == expected[-1]

    def test_events_resume_skips_delivered_prefix(self, smoke_dir):
        ledger_path = os.path.join(smoke_dir, "smoke.jsonl")
        expected = [e["seq"] for e in read_ledger(ledger_path)]
        with _Server(smoke_dir) as srv:
            conn, resp = srv.sse_connect("/events?run=smoke",
                                         last_event_id=expected[2])
            frames = _read_frames(resp)
            conn.close()
        assert _ids(frames) == expected[3:]

    def test_diff_self_compare_is_clean(self, smoke_dir):
        with _Server(smoke_dir) as srv:
            status, payload = srv.get_json("/diff?a=smoke&b=smoke")
        assert status == 200
        assert sorted(payload["kinds"]) == ["ledger", "metrics", "trace"]
        assert payload["gating"] == 0
        assert set(payload["verdicts"]) <= {"ok"}
        assert payload["aligned"] == len(payload["deltas"]) > 0

    def test_diff_endpoint_matches_cli_json(self, smoke_dir, capsys):
        """``GET /diff`` and ``obs diff --json`` serve one payload, in
        the same trace, metrics, ledger delta order."""
        from repro.__main__ import main
        argv = ["obs", "diff", "--json"]
        for flag, suffix in (("--trace", ".trace.jsonl"),
                             ("--metrics", ".metrics.json"),
                             ("--ledger", ".jsonl")):
            path = os.path.join(smoke_dir, f"smoke{suffix}")
            argv += [flag, path, path]
        assert main(argv) == 0
        cli = json.loads(capsys.readouterr().out)
        with _Server(smoke_dir) as srv:
            status, served = srv.get_json("/diff?a=smoke&b=smoke")
        assert status == 200
        assert served["kinds"] == ["trace", "metrics", "ledger"]
        assert served["deltas"] == cli["deltas"]

    def test_error_responses_are_json(self, smoke_dir):
        with _Server(smoke_dir) as srv:
            status, payload = srv.get_json("/status?run=nope")
            assert status == 404 and "nope" in payload["error"]
            status, payload = srv.get_json("/no/such")
            assert status == 404 and "endpoint" in payload["error"]
            status, payload = srv.get_json("/diff?a=smoke")
            assert status == 400 and "two run ids" in payload["error"]
            for query in ("threshold=abc", "threshold=nan",
                          "threshold=inf", "threshold=-0.1",
                          "abs_floor_s=xyz", "abs_floor_s=-1"):
                status, payload = srv.get_json(
                    f"/diff?a=smoke&b=smoke&{query}")
                assert status == 400, query
                assert query.split("=")[0] in payload["error"]
            status, payload = srv.get_json(
                "/diff?a=smoke&b=smoke&threshold=0.5&abs_floor_s=0")
            assert status == 200 and payload["gating"] == 0

    def test_empty_directory_404s_with_hint(self, tmp_path):
        with _Server(str(tmp_path)) as srv:
            status, payload = srv.get_json("/status")
            assert status == 404
            assert "ledger" in payload["error"]
            status, runs = srv.get_json("/runs")
            assert status == 200 and runs["runs"] == []


# ---------------------------------------------------------------------------
# The acceptance pin: concurrent SSE clients + reconnect + rotation
# ---------------------------------------------------------------------------

class TestSSEReconnect:
    def test_two_clients_one_reconnects_across_rotation(self, tmp_path):
        """Client A stays connected for the whole run; client B reads a
        prefix, drops the connection, and resumes from its stored
        ``Last-Event-ID`` — while the writer keeps appending and the
        sink rotates in between. Both clients must observe the full
        event sequence exactly once."""
        path = str(tmp_path / "live.jsonl")
        ledger = RunLedger(path=path, max_bytes=200,
                           meta={"experiments": SMOKE_EXPERIMENTS})
        for i in range(4):
            ledger.emit("unit_started", f"fig09::u{i}")
        with _Server(str(tmp_path)) as srv:
            conn_a, resp_a = srv.sse_connect("/events?run=live")
            conn_b, resp_b = srv.sse_connect("/events?run=live")
            head_a = _read_frames(resp_a, limit=5)
            head_b = _read_frames(resp_b, limit=3)
            assert _ids(head_a) == [1, 2, 3, 4, 5]
            assert _ids(head_b) == [1, 2, 3]
            stored = int(head_b[-1]["id"])     # B's Last-Event-ID
            conn_b.close()                     # B drops mid-stream

            for i in range(4, 12):             # writer keeps going...
                ledger.emit("unit_started", f"fig09::u{i}")
            ledger.emit("sweep_end", status="ok")
            ledger.close()
            assert len(ledger_segments(path)) > 1   # ...and rotated

            tail_a = _read_frames(resp_a)      # A rides through it all
            conn_a.close()
            conn_b2, resp_b2 = srv.sse_connect("/events?run=live",
                                               last_event_id=stored)
            tail_b = _read_frames(resp_b2)     # B resumes exactly-once
            conn_b2.close()

        full = list(range(1, 15))              # open + 12 units + end
        assert _ids(head_a) + _ids(tail_a) == full
        assert _ids(head_b) + _ids(tail_b) == full
        assert json.loads(tail_b[-1]["data"])["type"] == "sweep_end"


# ---------------------------------------------------------------------------
# serve() CLI entry + watch --wait + JSON CLI modes
# ---------------------------------------------------------------------------

class TestServeCLI:
    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert serve(str(tmp_path / "absent")) == 2

    def test_port_conflict_is_usage_error(self, tmp_path):
        with _Server(str(tmp_path)) as srv:
            messages = []
            assert serve(str(tmp_path), port=srv.port,
                         log=messages.append) == 2
            assert "cannot bind" in messages[0]

    def test_cli_rejects_bad_poll_interval(self, tmp_path):
        from repro.__main__ import main
        assert main(["obs", "serve", "--dir", str(tmp_path),
                     "--poll-interval", "0"]) == 2

    def test_sigterm_drains_to_exit_zero(self, tmp_path):
        """The CI contract: SIGTERM on a serving process yields a clean
        exit 0 after the shutdown message."""
        import re
        import signal
        import subprocess
        import sys
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "obs", "serve",
             "--dir", str(tmp_path), "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            lines = [proc.stderr.readline(), proc.stderr.readline()]
            banner = "".join(lines)
            assert re.search(r"listening on http://127\.0\.0\.1:\d+",
                             banner)
            proc.send_signal(signal.SIGTERM)
            out = proc.stderr.read()
            assert proc.wait(timeout=10) == 0
            assert "SIGTERM received; shutting down" in out
        finally:
            proc.kill()


class TestWatchWait:
    def test_wait_polls_until_ledger_appears(self, tmp_path):
        from repro.obs.live import watch
        path = str(tmp_path / "late.jsonl")
        frames, naps = [], []

        def arrive_during_nap(seconds):
            naps.append(seconds)
            ledger = RunLedger(path=path)
            ledger.emit("sweep_begin", jobs=1)
            ledger.emit("sweep_plan", units=1, skipped=0)
            ledger.emit("sweep_end", status="ok")
            ledger.close()

        code = watch(path, once=True, wait=True, interval_s=0.01,
                     write=frames.append, sleep=arrive_during_nap)
        assert code == 0
        assert naps == [0.01]                  # exactly one wait nap
        assert "ENDED (ok)" in "\n".join(frames)

    def test_wait_timeout_expires_to_exit_2(self, tmp_path):
        from repro.obs.live import watch
        ticks = iter([0.0, 10.0, 20.0])
        frames = []
        code = watch(str(tmp_path / "never.jsonl"), wait=True,
                     timeout_s=5.0, interval_s=0.01,
                     write=frames.append, sleep=lambda s: None,
                     clock=lambda: next(ticks))
        assert code == 2
        assert "after waiting 5s" in frames[0]

    def test_no_wait_no_ledger_exits_nonzero_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["obs", "watch", str(tmp_path / "none.jsonl"),
                     "--once"]) == 2
        assert "no ledger" in capsys.readouterr().out

    def test_cli_rejects_nonpositive_timeout(self, tmp_path):
        from repro.__main__ import main
        assert main(["obs", "watch", str(tmp_path / "x.jsonl"),
                     "--wait", "--timeout", "0"]) == 2


class TestJsonCLIModes:
    def test_diff_json_round_trips(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path)
        ledger.emit("sweep_begin", jobs=1)
        ledger.emit("unit_started", "fig09::ATA")
        ledger.emit("unit_completed", "fig09::ATA", status="ok",
                    attempts=1, unit_wall_s=1.0)
        ledger.emit("sweep_end", status="ok")
        ledger.close()
        assert main(["obs", "diff", "--ledger", path, path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gating"] == 0
        assert payload["verdicts"] == {"ok": payload["aligned"]}
        assert {d["kind"] for d in payload["deltas"]} == {"ledger"}

    def test_report_prometheus_requires_metrics(self, capsys):
        from repro.__main__ import main
        assert main(["obs", "report", "--prometheus"]) == 2
        assert "--metrics" in capsys.readouterr().err
