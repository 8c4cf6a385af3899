"""Fault-tolerant sweep engine for the experiment suite.

Wraps every unit of work — an ``(experiment, app)`` pair when the
driver accepts an app list, the whole experiment otherwise — with:

* exception isolation (one crashing app can't abort the sweep),
* a configurable soft timeout per attempt — the one bound on a slow
  or hung unit, serial or parallel,
* bounded retry with exponential backoff,
* an append-only checkpoint journal so a killed ``run all`` resumes
  where it stopped (:mod:`repro.runner.checkpoint`),
* and, with ``jobs > 1``, a process-pool backend that runs pending
  units concurrently, one pool task per app (:mod:`repro.runner.pool`).

Determinism guarantees: every unit is seeded from its key alone
(:func:`~repro.runner.pool.seed_unit_rngs`) and the merge assembles
per-app slices in sorted app-name order, so serial and parallel sweeps
— at any worker count and any completion order — produce byte-identical
result tables.

Failed units end up as structured error reports in the merged
:class:`~repro.experiments.base.ExperimentResult` (exception type,
message, traceback tail, attempt count, wall time) rather than as a
dead process.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments.base import ExperimentResult
from ..experiments.registry import EXPERIMENTS, accepts_apps
from ..obs.ledger import RunLedger
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, trace_span
from .checkpoint import Checkpoint, unit_key
from .pool import (DEFAULT_MAX_DISPATCHES, UnitTask, UnitTimeout,
                   error_report, run_unit_attempts, run_units_parallel,
                   soft_time_limit)

__all__ = ["SweepRunner", "SweepStats", "SweepInterrupted", "UnitTimeout",
           "soft_time_limit", "error_report"]


class SweepInterrupted(BaseException):
    """SIGTERM/SIGINT arrived; the sweep drained and checkpointed.

    A ``BaseException`` (like ``KeyboardInterrupt``) so driver-level
    ``except Exception`` isolation can never swallow an operator's
    kill. By the time this propagates out of :meth:`SweepRunner.run`,
    completed units — including completed-but-uncollected worker
    futures — are recorded and the checkpoint is flushed, so
    ``--resume`` picks up cleanly.
    """


@dataclass
class SweepStats:
    """Counters for one :meth:`SweepRunner.run` invocation."""

    run: int = 0        # units executed this invocation
    skipped: int = 0    # units restored from the checkpoint
    failed: int = 0     # units that exhausted their attempts
    retried: int = 0    # extra attempts beyond the first, summed
    quarantined: int = 0   # poison units recorded by the supervisor
    redispatched: int = 0  # re-submissions after worker death/corruption
    sleeps: List[float] = field(default_factory=list)  # serial path only


class SweepRunner:
    """Resilient driver for one or many experiments over an app list.

    Parameters
    ----------
    experiments:
        Experiment ids to run, in order (default: every registered id).
    apps:
        App objects to sweep (default: the full suite) for drivers that
        accept an ``apps`` argument; other drivers run whole.
    checkpoint_path / resume:
        Where to persist unit outcomes; with ``resume=True`` the file
        must already exist and its completed units are skipped.
    max_attempts / backoff_s / timeout_s:
        Per-unit retry budget, base backoff (doubles per retry), and
        per-attempt soft time limit in seconds (None disables it). The
        limit is the one bound on a slow or hung unit: ``SIGALRM`` in
        the serial path, the wall-clock guard in pool workers.
    jobs:
        Number of worker processes. 1 (the default) runs in-process;
        larger values dispatch pending units to a
        ``ProcessPoolExecutor``, one task per app. Results are
        identical either way.
    sleep / on_unit_done:
        Injection points for tests: the backoff sleeper (serial path;
        workers always use ``time.sleep``), and a callback
        ``(key, record)`` invoked after each unit is checkpointed — in
        completion order when ``jobs > 1``.
    trace_path / metrics_path / observe:
        Observability outputs. ``trace_path`` gets the merged span tree
        as JSONL, ``metrics_path`` the merged metrics registry (JSON,
        or Prometheus text for ``.prom``/``.txt``). Setting either
        implies ``observe``; ``observe`` alone collects the artifacts
        on ``self.tracer`` / ``self.metrics`` without writing files.
        Per-unit payloads ride in checkpoint records and are merged in
        sorted unit-key order, so the artifacts are deterministic at
        any ``jobs`` count (span *structure* and metrics exactly;
        timings are measurements).
    chaos:
        Optional :class:`~repro.chaos.plan.ChaosPlan` injecting
        harness faults at the runner's boundaries — worker execution
        (pool path only; killing the parent is the signal-drain test),
        checkpoint saves, and post-unit/merge signals. The hardened
        runner must produce byte-identical merged results under any
        recoverable plan.
    max_dispatches:
        Supervision knob for the pool backend: total worker hand-outs
        per unit before quarantine.
    ledger_path:
        Live telemetry. ``ledger_path`` streams typed, monotonically
        sequenced lifecycle events to an append-only JSONL ledger as
        they happen (``repro obs watch`` re-reads it); without a path the
        events are still retained on ``self.ledger.events``. All
        emission happens in the parent — workers ship their facts home
        inside unit records — so serial and parallel sweeps produce
        identical event sets after order-normalization.
    """

    def __init__(self,
                 experiments: Optional[Sequence[str]] = None,
                 apps: Optional[Sequence] = None,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 max_attempts: int = 3,
                 backoff_s: float = 0.5,
                 timeout_s: Optional[float] = None,
                 jobs: int = 1,
                 sleep: Callable[[float], None] = time.sleep,
                 on_unit_done: Optional[Callable[[str, dict], None]] = None,
                 trace_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 observe: bool = False,
                 chaos=None,
                 max_dispatches: int = DEFAULT_MAX_DISPATCHES,
                 ledger_path: Optional[str] = None):
        self.experiments = list(experiments or EXPERIMENTS)
        unknown = [e for e in self.experiments if e not in EXPERIMENTS]
        if unknown:
            raise KeyError(f"unknown experiments: {unknown}")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        from ..experiments.base import default_apps
        self.apps = default_apps(apps)
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.jobs = int(jobs)
        self.sleep = sleep
        self.on_unit_done = on_unit_done
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.observe = bool(observe or trace_path or metrics_path)
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.chaos = chaos
        if max_dispatches < 1:
            raise ValueError("max_dispatches must be >= 1")
        self.max_dispatches = int(max_dispatches)
        if resume:
            if checkpoint_path is None:
                raise ValueError("resume requires a checkpoint path")
            self.checkpoint = Checkpoint.load(checkpoint_path)
        else:
            self.checkpoint = Checkpoint(
                path=checkpoint_path,
                meta={"experiments": self.experiments,
                      "apps": [app.name for app in self.apps]})
            self.checkpoint.save()
        # The ledger always exists — pathless means in-memory only —
        # so tests and downstream consumers can read self.ledger.events
        # from any run. All emission is parent-side: workers return
        # their facts (pid, timeouts, durations) inside records and
        # the parent synthesizes the attempt-level events, which is
        # what makes serial and parallel event sets identical after
        # order-normalization.
        self.ledger = RunLedger(
            path=ledger_path,
            meta={"experiments": self.experiments,
                  "apps": [app.name for app in self.apps],
                  "jobs": self.jobs,
                  "checkpoint": self.checkpoint.path})
        self.checkpoint.observer = self._on_checkpoint_event
        if chaos is not None:
            from ..chaos.inject import checkpoint_chaos_hook
            self.checkpoint.chaos_hook = checkpoint_chaos_hook(
                chaos, emit=lambda kind, save: self._emit(
                    "chaos_injected", site="checkpoint", kind=kind,
                    save=save))
        self.stats = SweepStats()
        self.results: List[ExperimentResult] = []

    # -- planning ---------------------------------------------------------

    def plan(self) -> List[Tuple[str, Optional[object]]]:
        """The ordered unit list: ``(exp_id, app-or-None)`` pairs."""
        units: List[Tuple[str, Optional[object]]] = []
        for exp_id in self.experiments:
            if accepts_apps(EXPERIMENTS[exp_id]):
                units.extend((exp_id, app) for app in self.apps)
            else:
                units.append((exp_id, None))
        return units

    def pending(self) -> List[Tuple[str, Optional[object], str]]:
        """Planned units not yet completed in the checkpoint.

        Counts checkpoint hits into ``stats.skipped`` as a side effect,
        exactly once per :meth:`run` invocation.
        """
        todo: List[Tuple[str, Optional[object], str]] = []
        for exp_id, app in self.plan():
            key = unit_key(exp_id, app.name if app is not None else None)
            existing = self.checkpoint.get(key)
            if existing is not None and existing["status"] == "ok":
                self.stats.skipped += 1
                continue
            todo.append((exp_id, app, key))
        return todo

    # -- execution --------------------------------------------------------

    @contextmanager
    def _graceful_signals(self):
        """Convert SIGTERM/SIGINT into :class:`SweepInterrupted`.

        Only arms on the main thread (signal handlers can't be
        installed elsewhere); previous handlers are restored on exit.
        The conversion is what makes draining possible: the exception
        surfaces at a bytecode boundary in the dispatch loop, which
        then records completed futures and flushes the checkpoint
        before letting it propagate.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _handler(signum, frame):
            name = signal.Signals(signum).name
            raise SweepInterrupted(
                f"{name} received; completed units checkpointed")

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (OSError, ValueError):  # platform without the signal
                pass
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def run(self) -> List[ExperimentResult]:
        """Execute the sweep; return merged results in experiment order.

        Each phase — planning, unit execution, result merge, obs
        assembly — runs inside a ``trace_span``, so a caller that
        installs an ambient tracer (the benchmark harness, a profiling
        session) gets the runner's stage timings for free; with no
        tracer installed the spans are no-ops.

        Interrupts are drained, never dropped: SIGTERM/SIGINT (and any
        exception out of the dispatch loop) pass through a ``finally``
        that flushes every recorded unit to the checkpoint, so
        ``--resume`` always starts from the true completion frontier.
        """
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        try:
            self._emit("sweep_begin", jobs=self.jobs)
            with trace_span("sweep_plan"):
                todo = self.pending()
            self._emit("sweep_plan", units=len(todo),
                       skipped=self.stats.skipped)
            for _exp_id, _app, key in todo:
                self._emit("unit_scheduled", key)
            with trace_span("sweep_execute", units=len(todo),
                            jobs=self.jobs), \
                    self._graceful_signals():
                try:
                    if self.jobs > 1 and len(todo) > 1:
                        tasks = [UnitTask(exp_id=exp_id, app=app, key=key,
                                          max_attempts=self.max_attempts,
                                          backoff_s=self.backoff_s,
                                          timeout_s=self.timeout_s,
                                          observe=self.observe,
                                          chaos=self.chaos)
                                 for exp_id, app, key in todo]
                        run_units_parallel(
                            tasks, self.jobs, self._record,
                            max_dispatches=self.max_dispatches,
                            on_event=self._on_pool_event)
                    else:
                        for exp_id, app, key in todo:
                            self._emit("unit_started", key)
                            self._record(key,
                                         self._run_unit(exp_id, app, key))
                finally:
                    # Completed-but-unflushed units must survive any
                    # exit path (KeyboardInterrupt, SIGTERM drain, a
                    # crashed save earlier in the run).
                    self.checkpoint.flush()
            if self.chaos is not None:
                event = self.chaos.merge_event()
                if event is not None:
                    from ..chaos.inject import send_self_signal
                    self._emit("chaos_injected", site="merge",
                               kind=event.kind)
                    with self._graceful_signals():
                        send_self_signal(event.kind)
                        time.sleep(0)  # deliver while the handler is armed
            with trace_span("sweep_merge"):
                self._emit("sweep_merge")
                results = [self._merge(exp_id)
                           for exp_id in self.experiments]
            if self.observe:
                with trace_span("sweep_obs"):
                    self._assemble_obs()
                    self._write_sinks()
        except BaseException:
            # The drain path still gets a terminal event, so a watcher
            # sees the sweep end rather than a silent stall; --resume
            # starts a fresh ledger.
            self._emit("sweep_end", status="interrupted",
                       run=self.stats.run, failed=self.stats.failed)
            self.ledger.close()
            raise
        # Retained so downstream consumers (the fidelity scorecard
        # assembles claims over several runners' outputs) can read the
        # merged results without re-deriving them from the checkpoint.
        self.results = results
        self._emit("sweep_end", status="ok", run=self.stats.run,
                   failed=self.stats.failed)
        self.ledger.close()
        return results

    # -- run ledger -------------------------------------------------------

    def _emit(self, type_: str, key: Optional[str] = None,
              **attrs) -> None:
        """Append one lifecycle event to the run ledger."""
        self.ledger.emit(type_, key, **attrs)

    def _on_checkpoint_event(self, kind: str, info: dict) -> None:
        """Checkpoint durability transitions, folded into the ledger."""
        if kind == "flush":
            self._emit("checkpoint_flush", **info)
        elif kind == "save_failed":
            self._emit("checkpoint_save_failed", **info)

    def _on_pool_event(self, kind: str, key: str) -> None:
        """Supervision actions from the pool, folded into stats."""
        if kind == "start":
            self._emit("unit_started", key)
            return
        if kind == "redispatch":
            self.stats.redispatched += 1
            self._emit("unit_redispatch", key)
        elif kind == "quarantine":
            self.stats.quarantined += 1
            self._emit("unit_quarantined", key)

    def _record(self, key: str, record: dict) -> None:
        """Account for one finished unit and persist it.

        The attempt-level ledger events (``unit_attempt`` /
        ``unit_retry`` / ``unit_timeout``) are
        synthesized *here*, from the returned record, for the serial
        and parallel paths alike — a worker process cannot reach the
        parent's sequence counter, and parent-side synthesis is what
        keeps the two paths' event sets identical.
        """
        self.stats.run += 1
        self.stats.retried += max(0, record.get("attempts", 1) - 1)
        if record["status"] == "failed":
            self.stats.failed += 1
        if not record.get("quarantined"):
            for attempt in range(1, max(1, record.get("attempts", 1)) + 1):
                if attempt > 1:
                    self._emit("unit_retry", key, attempt=attempt)
                self._emit("unit_attempt", key, attempt=attempt)
        if record.get("timeouts"):
            self._emit("unit_timeout", key,
                       count=int(record["timeouts"]))
        completed = {"status": record["status"],
                     "attempts": record.get("attempts", 0),
                     "wall_s": record.get("wall_s"),
                     "unit_wall_s": record.get("unit_wall_s")}
        if record.get("quarantined"):
            completed["quarantined"] = True
        self._emit("unit_completed", key, **completed)
        self.checkpoint.record(key, record)
        if self.on_unit_done is not None:
            self.on_unit_done(key, record)
        if self.chaos is not None:
            event = self.chaos.sweep_event(key)
            if event is not None:
                from ..chaos.inject import send_self_signal
                self._emit("chaos_injected", key, site="sweep",
                           kind=event.kind)
                send_self_signal(event.kind)

    def _run_unit(self, exp_id: str, app, key: str) -> dict:
        """Serial (in-process) execution of one unit."""
        return run_unit_attempts(
            exp_id, app, key,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
            timeout_s=self.timeout_s,
            sleep=self.sleep,
            on_backoff=self.stats.sleeps.append,
            observe=self.observe,
        )

    # -- observability ----------------------------------------------------

    def _assemble_obs(self) -> None:
        """Merge per-unit obs payloads into one tracer and one registry.

        Walks checkpoint records in sorted unit-key order — never
        submission or completion order — so the merged span-tree
        structure and metrics snapshot are byte-identical for serial
        and parallel sweeps. Units restored by ``--resume`` contribute
        too: their obs payloads were persisted with their records.

        The merged root span's wall/CPU time is the sweep's *actual*
        elapsed time (measured from :meth:`run`), not the assembly
        duration — so hotspot self-times reconcile against it: at
        ``--jobs 1`` the root's self time is the runner's own overhead,
        and at ``--jobs N`` it goes negative by exactly the workers'
        wall-clock overlap.
        """
        tracer = Tracer("sweep", experiments=len(self.experiments),
                        apps=len(self.apps), jobs=self.jobs)
        registry = MetricsRegistry()
        status_totals: Dict[str, int] = {}
        for key in sorted(self.checkpoint.records):
            record = self.checkpoint.records[key]
            status = record.get("status", "?")
            if record.get("quarantined"):
                status = "quarantined"
            status_totals[status] = status_totals.get(status, 0) + 1
            obs = record.get("obs")
            if not obs:
                continue
            tracer.attach(obs["span"])
            if obs.get("metrics") is not None:
                # Failed units ship their span but no metrics: a timed-out
                # attempt's half-published counters would depend on where
                # the deadline hit, breaking snapshot determinism.
                registry.merge_snapshot(obs["metrics"])
        for status in sorted(status_totals):
            registry.counter(
                "sweep_units_total", {"status": status},
                help_text="sweep units by final status").inc(
                    status_totals[status])
        # Failure-path supervision counters: only published when they
        # fired, so a fault-free sweep's snapshot is unchanged (and
        # the golden metrics fixture stays byte-stable).
        for family, help_text, value in (
                ("sweep_redispatches_total",
                 "unit re-dispatches after worker death or corrupt "
                 "records", self.stats.redispatched),
                ("sweep_quarantined_units_total",
                 "poison units recorded as structured failures",
                 self.stats.quarantined),
                ("sweep_checkpoint_save_failures_total",
                 "checkpoint saves absorbed by the soft-failure path",
                 self.checkpoint.save_failures)):
            if value:
                registry.counter(family, help_text=help_text).inc(value)
        # Stamp the true sweep duration onto the root before finish()
        # (which only fills in durations that are still unset). CPU
        # time is the parent process's: worker CPU lives in the unit
        # spans themselves.
        wall0 = getattr(self, "_wall0", None)
        if wall0 is not None:
            tracer.root.wall_s = time.perf_counter() - wall0
            tracer.root.cpu_s = time.process_time() - self._cpu0
        tracer.finish()
        self.tracer = tracer
        self.metrics = registry

    def _write_sinks(self) -> None:
        from ..obs.report import write_metrics, write_trace_jsonl
        if self.trace_path and self.tracer is not None:
            write_trace_jsonl(self.tracer, self.trace_path)
        if self.metrics_path and self.metrics is not None:
            write_metrics(self.metrics, self.metrics_path)

    # -- merging ----------------------------------------------------------

    def _merge(self, exp_id: str) -> ExperimentResult:
        """Reassemble one experiment's result from its unit records.

        Per-app slices are assembled in sorted app-name order — never
        submission or completion order — so the merged table (rows,
        float summary accumulation, failure notes) is byte-identical
        for serial and parallel sweeps.
        """
        if not accepts_apps(EXPERIMENTS[exp_id]):
            rec = self.checkpoint.get(unit_key(exp_id))
            if rec is None or rec["status"] != "ok":
                return self._failure_result(exp_id, {None: rec})
            return ExperimentResult.from_dict(rec["payload"])

        parts: Dict[str, dict] = {
            app.name: self.checkpoint.get(unit_key(exp_id, app.name))
            for app in self.apps
        }
        order = sorted(parts)
        ok = {name: parts[name] for name in order
              if parts[name] is not None and parts[name]["status"] == "ok"}
        if not ok:
            return self._failure_result(exp_id, parts)

        slices = {name: ExperimentResult.from_dict(rec["payload"])
                  for name, rec in ok.items()}
        first = next(iter(slices.values()))
        headers = ["app"] + list(first.headers)
        rows = []
        summary_acc: Dict[str, List[float]] = {}
        for name in order:
            part = slices.get(name)
            if part is None:
                continue
            for row in part.rows:
                rows.append([name] + list(row))
            for k, v in part.summary.items():
                summary_acc.setdefault(k, []).append(float(v))
        summary = {k: sum(vs) / len(vs) for k, vs in summary_acc.items()}
        summary["units_ok"] = float(len(ok))
        summary["units_failed"] = float(len(parts) - len(ok))
        quarantined = [name for name in order
                       if parts[name] is not None
                       and parts[name].get("quarantined")]
        if quarantined:
            # Conditional key: fault-free merges (and their golden
            # fixtures) are byte-unchanged; the fidelity extractor
            # reads it to grade quarantine-starved claims not-run.
            summary["units_quarantined"] = float(len(quarantined))

        notes = [first.notes] if first.notes else []
        for name in order:
            rec = parts[name]
            if rec is None or rec["status"] == "ok":
                continue
            err = rec["error"] or {}
            label = "QUARANTINED" if rec.get("quarantined") else "FAILED"
            notes.append(
                f"{label} {exp_id}::{name}: {err.get('type', '?')}: "
                f"{err.get('message', '')} (attempts={rec['attempts']}, "
                f"wall={rec['wall_s']}s)")

        return ExperimentResult(
            exp_id=exp_id,
            title=first.title + " [per-app resilient sweep]",
            headers=headers,
            rows=rows,
            paper_expectation=first.paper_expectation,
            notes="\n".join(notes),
            summary=summary,
            anchor=first.anchor,
        )

    def _failure_result(self, exp_id: str, parts: dict) -> ExperimentResult:
        """Placeholder result when every unit of an experiment failed."""
        notes = []
        for name in sorted(parts, key=lambda n: n or ""):
            rec = parts[name]
            err = (rec or {}).get("error") or {}
            label = unit_key(exp_id, name)
            notes.append(
                f"FAILED {label}: {err.get('type', '?')}: "
                f"{err.get('message', '')} "
                f"(attempts={(rec or {}).get('attempts', 0)}, "
                f"wall={(rec or {}).get('wall_s', 0)}s)")
        return ExperimentResult(
            exp_id=exp_id,
            title=f"{exp_id} FAILED (no unit completed)",
            headers=["status"],
            rows=[["failed"]],
            notes="\n".join(notes),
            summary={"units_ok": 0.0, "units_failed": float(len(parts))},
        )

    # -- reporting --------------------------------------------------------

    @property
    def failed_units(self) -> List[str]:
        """Units that exhausted their attempts, quarantines excluded.

        Quarantined units are a supervision outcome, not a driver
        failure: consumers that hard-fail on ``failed_units`` (the
        bench harness, the CLI's exit-3 contract) treat them
        separately via :attr:`quarantined_units`.
        """
        return [key for key, rec in sorted(self.checkpoint.records.items())
                if rec["status"] == "failed"
                and not rec.get("quarantined")]

    @property
    def quarantined_units(self) -> List[str]:
        """Poison units the supervisor recorded as structured failures."""
        return [key for key, rec in sorted(self.checkpoint.records.items())
                if rec.get("quarantined")]

    def report_line(self) -> str:
        s = self.stats
        line = (f"sweep: {s.run} run, {s.skipped} resumed, "
                f"{s.failed} failed, {s.retried} retries")
        if s.quarantined or s.redispatched:
            line += (f", {s.quarantined} quarantined, "
                     f"{s.redispatched} redispatched")
        if self.jobs > 1:
            line += f" (jobs={self.jobs})"
        if self.checkpoint.path:
            line += f" (checkpoint: {self.checkpoint.path})"
        return line
