"""``repro obs serve``: a zero-dependency HTTP telemetry service.

The observability front door of the sweep stack: one stdlib-only HTTP
server (``http.server.ThreadingHTTPServer``, no new dependencies)
pointed at a runs directory, exposing everything the local CLIs
already compute — live, over the network, to many clients at once:

* ``GET /runs`` — the :class:`~repro.obs.runindex.RunIndex` catalog:
  every discovered run (ledger / trace / metrics artifacts grouped by
  run id) plus the committed ``BENCH_*`` / ``FIDELITY_*`` history.
* ``GET /status?run=ID`` — the folded
  :class:`~repro.obs.live.RunState` of a run's ledger as JSON:
  per-unit lifecycle, throughput, the median/MAD ETA band, live
  straggler verdicts. Exactly what ``obs watch`` renders, as data.
* ``GET /metrics?run=ID`` — the run's merged metrics snapshot in
  Prometheus text exposition format, served with the conformant
  ``text/plain; version=0.0.4`` content type. Byte-identical to
  ``repro obs report --metrics <snapshot> --prometheus``.
* ``GET /events?run=ID`` — the run ledger as a live server-sent-event
  stream. Each frame carries ``id:`` = the event's ledger ``seq``,
  so the standard SSE reconnect mechanism — the client echoing the
  last id back as a ``Last-Event-ID`` header — resumes delivery
  exactly once across disconnects *and* ledger rotation: the
  :class:`~repro.obs.ledger.LedgerHub` seeds a
  :class:`~repro.obs.ledger.LedgerFollower` rescan from that
  sequence number, which is precisely the resume contract the
  follower was built around. The stream closes after the terminal
  ``sweep_end`` event; until then it heartbeats SSE comments.
* ``GET /diff?a=ID&b=ID`` — the cross-run comparator over every
  artifact kind both runs share (trace name-paths, metrics series,
  ledger lifecycles), as :func:`~repro.obs.diff.diff_to_dict` JSON —
  the same payload ``obs diff --json`` prints for the same pair.
  ``threshold`` / ``abs_floor_s`` set the timing bars; a value that is
  not a finite number >= 0 answers 400.

The service is strictly read-only — it opens ledger/metrics/trace
files the sweeps wrote and never writes anything — so pointing it at
a directory a live sweep is filling is safe by construction, the same
contract the watcher keeps. Errors are JSON (``{"error": ...}``) with
honest status codes; unknown routes 404.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .ledger import LedgerHub
from .live import load_run_state
from .metrics import MetricsRegistry
from .runindex import RunEntry, RunIndex

__all__ = ["ObsHTTPServer", "ObsRequestHandler", "serve",
           "PROMETHEUS_CONTENT_TYPE", "SSE_CONTENT_TYPE",
           "DEFAULT_PORT"]

DEFAULT_PORT = 8377
DEFAULT_POLL_INTERVAL_S = 0.25
DEFAULT_HEARTBEAT_S = 15.0

#: The exposition-format version the Prometheus scrape protocol pins;
#: parsers reject a bare ``text/plain``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
SSE_CONTENT_TYPE = "text/event-stream; charset=utf-8"

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class ObsHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one runs directory.

    One daemon thread per request keeps slow SSE consumers from
    starving the JSON endpoints; per-ledger :class:`LedgerHub` fan-out
    keeps N streaming clients from re-reading the segment chain N
    times per poll.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], directory: str,
                 poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 verbose: bool = False):
        super().__init__(address, ObsRequestHandler)
        self.directory = directory
        self.poll_interval_s = float(poll_interval_s)
        self.heartbeat_s = float(heartbeat_s)
        self.verbose = verbose
        self._hubs: Dict[str, LedgerHub] = {}
        self._hubs_lock = threading.Lock()

    def build_index(self) -> RunIndex:
        """A fresh catalog of the runs directory (no caching: the
        directory mutates under a live sweep)."""
        return RunIndex(self.directory)

    def hub_for(self, ledger_path: str) -> LedgerHub:
        """The shared fan-out hub of one ledger path."""
        with self._hubs_lock:
            hub = self._hubs.get(ledger_path)
            if hub is None:
                hub = self._hubs[ledger_path] = LedgerHub(ledger_path)
            return hub

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests over the run index and the ledger hubs."""

    server: ObsHTTPServer
    server_version = "repro-obs/1"

    # -- plumbing --------------------------------------------------------

    def log_message(self, fmt, *args):   # noqa: N802 (stdlib name)
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_body(self, status: int, content_type: str,
                   body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=1)
                + "\n").encode("utf-8")
        self._send_body(status, _JSON_CONTENT_TYPE, body)

    def _fail(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _resolve_run(self, params: Dict[str, List[str]],
                     require: str, name: str = "run"
                     ) -> Optional[RunEntry]:
        """The run a request addresses, or None after a JSON error.

        ``require`` names the artifact kind the endpoint needs
        (``"ledger"`` / ``"metrics"`` / ``"trace"``). Without a
        ``run=`` parameter the most recently updated run that has the
        artifact is selected.
        """
        index = self.server.build_index()
        run_id = (params.get(name) or [None])[0]
        if run_id is None:
            entry = index.latest_run(require=require)
            if entry is None:
                self._fail(404, f"no run with a {require} artifact in "
                                f"{os.path.abspath(self.server.directory)}")
            return entry
        entry = index.get(run_id)
        if entry is None:
            known = ", ".join(sorted(index.runs)) or "(none)"
            self._fail(404, f"unknown run {run_id!r}; indexed runs: "
                            f"{known}")
            return None
        if getattr(entry, require) is None:
            self._fail(404, f"run {run_id!r} has no {require} artifact")
            return None
        return entry

    # -- routing ---------------------------------------------------------

    def do_GET(self):   # noqa: N802 (stdlib name)
        split = urlsplit(self.path)
        params = parse_qs(split.query)
        route = {
            "/": self._get_root,
            "/runs": self._get_runs,
            "/status": self._get_status,
            "/metrics": self._get_metrics,
            "/events": self._get_events,
            "/diff": self._get_diff,
        }.get(split.path.rstrip("/") or "/")
        if route is None:
            self._fail(404, f"no such endpoint {split.path!r}; see /")
            return
        try:
            route(params)
        except (BrokenPipeError, ConnectionResetError):
            pass   # client went away; nothing to salvage
        except OSError as exc:
            # An artifact raced away (rotation, cleanup) mid-request.
            try:
                self._fail(503, f"artifact read failed: {exc}")
            except OSError:
                pass

    # -- endpoints -------------------------------------------------------

    def _get_root(self, _params) -> None:
        self._send_json({
            "service": "repro obs serve",
            "directory": os.path.abspath(self.server.directory),
            "endpoints": {
                "/runs": "run + record catalog of the directory",
                "/status?run=ID": "folded RunState of a run's ledger",
                "/metrics?run=ID": "Prometheus exposition of a run's "
                                   "metrics snapshot",
                "/events?run=ID": "SSE stream of a run's ledger "
                                  "(resume via Last-Event-ID)",
                "/diff?a=ID&b=ID": "cross-run comparator (JSON)",
            },
        })

    def _get_runs(self, _params) -> None:
        self._send_json(self.server.build_index().to_dict())

    def _get_status(self, params) -> None:
        entry = self._resolve_run(params, require="ledger")
        if entry is None:
            return
        state = load_run_state(entry.ledger.path)
        payload = {"run_id": entry.run_id, "status": state.snapshot()}
        self._send_json(payload)

    def _get_metrics(self, params) -> None:
        entry = self._resolve_run(params, require="metrics")
        if entry is None:
            return
        try:
            with open(entry.metrics.path, "r", encoding="utf-8") as fh:
                snapshot = json.load(fh)
            registry = MetricsRegistry.from_dict(snapshot)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            self._fail(500, f"metrics snapshot "
                            f"{os.path.basename(entry.metrics.path)!r} "
                            f"did not load: {exc}")
            return
        body = registry.to_prometheus().encode("utf-8")
        self._send_body(200, PROMETHEUS_CONTENT_TYPE, body)

    # -- SSE -------------------------------------------------------------

    def _last_event_id(self, params) -> int:
        """Resume point: ``Last-Event-ID`` header (the SSE reconnect
        contract) or a ``last_id`` query parameter (curl convenience).
        Malformed values mean "from the start" rather than an error —
        a reconnecting browser must never be locked out."""
        raw = self.headers.get("Last-Event-ID")
        if raw is None:
            raw = (params.get("last_id") or ["0"])[0]
        try:
            return max(0, int(raw))
        except (TypeError, ValueError):
            return 0

    def _write_sse_event(self, event: dict) -> None:
        data = json.dumps(event, sort_keys=True)
        frame = (f"id: {event.get('seq', 0)}\n"
                 f"event: {event.get('type', 'message')}\n"
                 f"data: {data}\n\n")
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _get_events(self, params) -> None:
        entry = self._resolve_run(params, require="ledger")
        if entry is None:
            return
        last_seq = self._last_event_id(params)
        self.send_response(200)
        self.send_header("Content-Type", SSE_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(b"retry: 2000\n\n")
        self.wfile.flush()
        hub = self.server.hub_for(entry.ledger.path)
        subscription = hub.subscribe(last_seq=last_seq)
        heartbeat_budget = self.server.heartbeat_s
        try:
            while True:
                event = subscription.get(
                    timeout=self.server.poll_interval_s)
                if event is not None:
                    heartbeat_budget = self.server.heartbeat_s
                    self._write_sse_event(event)
                    if event.get("type") == "sweep_end":
                        return
                    continue
                hub.pump()
                if hub.ended and not subscription.pending():
                    # The sweep is over and this client's backlog is
                    # drained (it resumed from at or past the terminal
                    # event): nothing more can ever arrive.
                    return
                heartbeat_budget -= self.server.poll_interval_s
                if heartbeat_budget <= 0:
                    heartbeat_budget = self.server.heartbeat_s
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
        finally:
            subscription.close()

    # -- diff ------------------------------------------------------------

    def _get_diff(self, params) -> None:
        from .diff import (DEFAULT_ABS_FLOOR_S, DEFAULT_REL_THRESHOLD,
                           diff_paths, diff_to_dict)
        index = self.server.build_index()
        pair = []
        for name in ("a", "b"):
            run_id = (params.get(name) or [None])[0]
            if run_id is None:
                self._fail(400, "diff needs two run ids: /diff?a=ID&b=ID")
                return
            entry = index.get(run_id)
            if entry is None:
                self._fail(404, f"unknown run {run_id!r}")
                return
            pair.append(entry)
        old, new = pair
        bars = {}
        for name, default in (("threshold", DEFAULT_REL_THRESHOLD),
                              ("abs_floor_s", DEFAULT_ABS_FLOOR_S)):
            raw = (params.get(name) or [str(default)])[0]
            try:
                bars[name] = float(raw)
            except ValueError:
                bars[name] = math.nan
            if not math.isfinite(bars[name]) or bars[name] < 0:
                self._fail(400, f"{name} must be a finite number >= 0, "
                                f"not {raw!r}")
                return
        pairs = {kind: (getattr(old, kind).path, getattr(new, kind).path)
                 for kind in ("trace", "metrics", "ledger")
                 if getattr(old, kind) and getattr(new, kind)}
        if not pairs:
            self._fail(409, f"runs {old.run_id!r} and {new.run_id!r} "
                            f"share no comparable artifact kind")
            return
        deltas = diff_paths(**pairs, rel_threshold=bars["threshold"],
                            abs_floor_s=bars["abs_floor_s"])
        payload = {"a": old.run_id, "b": new.run_id, "kinds": list(pairs)}
        payload.update(diff_to_dict(deltas))
        self._send_json(payload)


# ---------------------------------------------------------------------------
# CLI entry: bind, serve, drain on SIGTERM/SIGINT
# ---------------------------------------------------------------------------

class _ServeShutdown(Exception):
    """Raised out of ``serve_forever`` by the signal handlers."""


def serve(directory: str, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT,
          poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
          heartbeat_s: float = DEFAULT_HEARTBEAT_S,
          verbose: bool = False,
          log=None) -> int:
    """Run the telemetry service until SIGTERM/SIGINT; returns the CLI
    exit code (0 clean shutdown, 2 usage error).

    The signal handlers raise through ``serve_forever`` rather than
    calling ``shutdown()`` — that method blocks until the serve loop
    exits, which can never happen from a handler running *on* the
    serving thread. In-flight SSE streams run on daemon threads and
    end with the process; that is the documented contract (the ledger
    on disk is the durable artifact, the stream is a view).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    if not os.path.isdir(directory):
        log(f"obs serve: {directory!r} is not a directory")
        return 2
    try:
        server = ObsHTTPServer((host, port), directory,
                               poll_interval_s=poll_interval_s,
                               heartbeat_s=heartbeat_s, verbose=verbose)
    except OSError as exc:
        log(f"obs serve: cannot bind {host}:{port} ({exc})")
        return 2

    def _handler(signum, frame):
        raise _ServeShutdown(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (OSError, ValueError):   # non-main thread / platform
            pass
    try:
        index = server.build_index()
        log(f"obs serve: {len(index.runs)} run(s), {len(index.records)} "
            f"record(s) in {os.path.abspath(directory)}")
        log(f"obs serve: listening on {server.url} "
            f"(endpoints: /runs /status /metrics /events /diff)")
        server.serve_forever(poll_interval=0.2)
    except (_ServeShutdown, KeyboardInterrupt) as exc:
        name = str(exc) or "SIGINT"
        log(f"obs serve: {name} received; shutting down")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    return 0
