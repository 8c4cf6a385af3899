"""Unit execution primitives and the process-pool sweep backend.

This module owns everything about running *one unit of work* — an
``(experiment, app)`` pair or a whole experiment — plus the machinery
to fan pending units out to a :class:`~concurrent.futures.\
ProcessPoolExecutor`:

* :func:`run_unit_attempts` — the retry/backoff/timeout loop shared by
  the serial and parallel paths, so both produce byte-identical unit
  records (modulo wall time);
* :func:`seed_unit_rngs` — per-unit seeding of the ``random`` and
  ``numpy.random`` global streams, derived from the unit key alone, so
  any stochastic path is reproducible regardless of which worker runs
  the unit or in what order units complete;
* :func:`soft_time_limit` — the SIGALRM guard used on the main thread
  of the parent process (degrades to a warning, never a crash, off the
  main thread or on platforms without ``SIGALRM``);
* :func:`call_with_wall_clock_limit` — the portable wall-clock guard
  used inside workers, where arming signals is either impossible or
  unwanted: the driver runs on a watched daemon thread and the unit is
  failed with :class:`UnitTimeout` once the deadline passes;
* :func:`run_units_parallel` — group pending units into pool tasks,
  one per app (:func:`pool_tasks`), so each app's functional pass and
  clean replays are computed in one process; hand the records back to
  the caller as tasks finish (completion order); cancel what is still
  pending if the caller aborts. At most one copy of a unit is in
  flight; a slow unit ends only at its per-attempt timeout. A task
  whose worker died, or that returned a corrupt record, is re-queued
  one unit per task, so the dispatch budget and quarantine stay per
  unit.

Workers resolve the experiment driver from the registry *by id*, so
the task payload stays small and lambdas never cross the process
boundary; app objects are pickled (every registered
:class:`~repro.kernels.api.GPUApp` carries only module-level builder
functions, so they pickle by reference).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.resources import peak_rss_bytes
from ..obs.tracer import Tracer, use_tracer

__all__ = [
    "UnitTask", "UnitTimeout", "error_report", "soft_time_limit",
    "call_with_wall_clock_limit", "unit_seed", "seed_unit_rngs",
    "run_unit_attempts", "execute_unit_task", "execute_unit_tasks",
    "pool_tasks", "run_units_parallel",
    "validate_unit_record", "quarantine_record",
]

_TRACEBACK_TAIL_LINES = 8


class UnitTimeout(Exception):
    """One unit of work exceeded the per-attempt soft time limit."""


# ---------------------------------------------------------------------------
# Timeout guards
# ---------------------------------------------------------------------------

def sigalrm_usable() -> bool:
    """True when a SIGALRM timer can be armed right here, right now."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def soft_time_limit(seconds: Optional[float]):
    """Raise :class:`UnitTimeout` in the block after ``seconds``.

    Uses ``SIGALRM``, so it only arms on the main thread of the main
    interpreter and on platforms that have the signal. Elsewhere a
    requested limit degrades to an *unguarded* run with a
    :class:`RuntimeWarning` — a soft limit, not a hard guarantee.
    Callers that must enforce the limit everywhere (the unit retry
    loop) route through :func:`call_with_wall_clock_limit` when
    :func:`sigalrm_usable` says this guard cannot arm.
    """
    wanted = seconds is not None and seconds > 0
    usable = wanted and sigalrm_usable()
    if not usable:
        if wanted:
            warnings.warn(
                "soft_time_limit: SIGALRM unavailable here (not the main "
                "thread, or platform without SIGALRM); running the block "
                "without a time guard", RuntimeWarning, stacklevel=3)
        yield
        return

    def _on_alarm(signum, frame):
        raise UnitTimeout(f"unit exceeded soft time limit of {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def call_with_wall_clock_limit(fn: Callable[[], object],
                               seconds: Optional[float]):
    """Run ``fn()`` with a portable wall-clock deadline.

    With no limit the call runs inline. With a limit the call runs on a
    daemon thread and the caller waits up to ``seconds``; on expiry a
    :class:`UnitTimeout` is raised. The abandoned thread may keep
    running until its current operation finishes — like the SIGALRM
    guard, this is a soft limit that bounds how long the *sweep* waits,
    not a preemption mechanism.
    """
    if seconds is None or seconds <= 0:
        return fn()
    outcome: List[object] = []
    failure: List[BaseException] = []

    def _target():
        try:
            outcome.append(fn())
        except BaseException as exc:  # noqa: BLE001 — re-raised in caller
            failure.append(exc)

    worker = threading.Thread(target=_target, daemon=True,
                              name="unit-wall-clock-guard")
    worker.start()
    worker.join(float(seconds))
    if worker.is_alive():
        raise UnitTimeout(
            f"unit exceeded soft time limit of {seconds:g}s "
            f"(wall-clock guard)")
    if failure:
        raise failure[0]
    return outcome[0]


# ---------------------------------------------------------------------------
# Per-unit determinism
# ---------------------------------------------------------------------------

def unit_seed(key: str) -> int:
    """Stable 64-bit seed derived from a unit key alone.

    Depends on nothing but the key string, so the same unit gets the
    same seed in a serial sweep, in any worker of a parallel sweep, and
    across resumes — completion order can never leak into results.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_unit_rngs(key: str) -> int:
    """Seed the ``random`` and legacy ``numpy.random`` global streams.

    Drivers that follow repo convention use explicitly seeded
    ``np.random.default_rng`` instances and are deterministic anyway;
    this pins down any path that reaches for a global generator so the
    golden-result guarantee holds for future code too. Returns the seed
    for logging/tests.
    """
    seed = unit_seed(key)
    random.seed(seed)
    np.random.seed(seed % 2**32)
    return seed


# ---------------------------------------------------------------------------
# Unit execution (shared by serial and parallel paths)
# ---------------------------------------------------------------------------

def error_report(exc: BaseException) -> dict:
    """Structured, JSON-safe description of an exception."""
    tb_lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(tb_lines).strip().splitlines()[-_TRACEBACK_TAIL_LINES:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback_tail": "\n".join(tail),
    }


@dataclass
class UnitTask:
    """Picklable description of one pending unit of work.

    ``dispatch`` counts how many times the supervisor has handed this
    unit to a worker (1 = first try); the chaos injector keys its
    fire-then-stand-down schedule on it. ``chaos`` is the optional
    :class:`~repro.chaos.plan.ChaosPlan` shipped to the worker.
    """

    exp_id: str
    app: Optional[object]        # GPUApp or None for whole-experiment units
    key: str                     # unit_key(exp_id, app.name)
    max_attempts: int = 3
    backoff_s: float = 0.5
    timeout_s: Optional[float] = None
    observe: bool = False        # ship span tree + metrics in the record
    dispatch: int = 1
    chaos: Optional[object] = None


def run_unit_attempts(exp_id: str, app, key: str, *,
                      max_attempts: int,
                      backoff_s: float,
                      timeout_s: Optional[float],
                      sleep: Callable[[float], None] = time.sleep,
                      on_backoff: Optional[Callable[[float], None]] = None,
                      use_wall_clock_guard: bool = False,
                      observe: bool = False) -> dict:
    """Run one unit through the retry/backoff/timeout loop.

    Returns the checkpoint record dict (``status``/``attempts``/
    ``wall_s``/``unit_wall_s``/``payload``/``error``/``pid``/
    ``timeouts``, ``functional_passes``/``replays`` — the cold
    functional passes and replays run while the unit ran — plus ``obs``
    when ``observe`` is set). Exceptions from the driver are isolated into
    the record; this function itself only raises on programming errors
    (e.g. an unknown experiment id).

    Every attempt runs under a *fresh* tracer — ``wall_s`` covers the
    whole retry loop including backoff sleeps, while ``unit_wall_s`` is
    the final attempt's pure driver time from its root span. With
    ``observe`` the attempt also gets a fresh metrics registry, and the
    record's ``obs`` payload carries only the returning attempt's span
    tree and metric snapshot: a retried unit never double-counts the
    half-published metrics of a failed attempt, and an abandoned
    wall-clock-guard thread keeps writing into its own attempt's pair
    instead of corrupting the next one's.
    """
    from ..experiments.registry import EXPERIMENTS
    from ..sim import work_counts
    driver = EXPERIMENTS[exp_id]
    work0 = work_counts()

    def _work() -> dict:
        # Cold work done while this unit ran: what the caches of this
        # process could not spare (depends on warmth and job count).
        return {k: v - work0[k] for k, v in work_counts().items()}

    def _call_driver():
        if app is not None:
            return driver(apps=[app])
        return driver()

    start = time.monotonic()
    error = None
    unit_wall = 0.0
    timeouts = 0
    for attempt in range(1, max_attempts + 1):
        if attempt > 1:
            delay = backoff_s * 2 ** (attempt - 2)
            if on_backoff is not None:
                on_backoff(delay)
            sleep(delay)
        seed_unit_rngs(key)
        tracer = Tracer("unit", key=key, attempt=attempt)
        registry = MetricsRegistry() if observe else None

        def _invoke():
            # Installed by whichever thread actually runs the driver —
            # inline here, or the wall-clock guard's daemon thread —
            # so instrumented layers always find the pair thread-local.
            with use_tracer(tracer), use_registry(registry):
                return _call_driver()

        # Timeouts are enforced everywhere: SIGALRM where it can arm,
        # the portable wall-clock guard where it can't (workers, any
        # non-main thread, platforms without the signal) — a requested
        # limit never silently degrades to an unbounded run.
        wall_guard = use_wall_clock_guard or (
            timeout_s is not None and timeout_s > 0
            and not sigalrm_usable())
        try:
            if wall_guard:
                result = call_with_wall_clock_limit(_invoke, timeout_s)
            else:
                with soft_time_limit(timeout_s):
                    result = _invoke()
            tracer.finish()
            record = {
                "status": "ok",
                "attempts": attempt,
                "wall_s": round(time.monotonic() - start, 3),
                "unit_wall_s": round(tracer.root.wall_s, 3),
                "payload": result.to_dict(),
                "error": None,
                "pid": os.getpid(),
                "timeouts": timeouts,
                **_work(),
            }
            if observe:
                # Memory rides the same deterministic merge as every
                # other metric: the gauge max-merges across units, so
                # the sweep-level value is the hungriest process's
                # high-water mark. Graceful None on platforms without
                # getrusage; the golden suite strips this family
                # (VOLATILE_METRIC_FAMILIES) before byte comparisons.
                rss = peak_rss_bytes()
                if rss is not None:
                    registry.gauge(
                        "unit_peak_rss_bytes",
                        help_text="peak RSS of the process that ran "
                                  "the unit").set(rss)
                record["obs"] = {"span": tracer.root.to_dict(),
                                 "metrics": registry.to_dict()}
            return record
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            unit_wall = tracer.finish().wall_s
            failed_span = tracer.root.to_dict()
            error = error_report(exc)
            if isinstance(exc, UnitTimeout):
                timeouts += 1
    record = {
        "status": "failed",
        "attempts": max_attempts,
        "wall_s": round(time.monotonic() - start, 3),
        "unit_wall_s": round(unit_wall, 3),
        "payload": None,
        "error": error,
        "pid": os.getpid(),
        "timeouts": timeouts,
        **_work(),
    }
    if observe:
        # The last attempt's span tree still ships — a failed unit is
        # when the trace matters most — but its half-published metrics
        # do not: only successful attempts feed the merged registry.
        record["obs"] = {"span": failed_span, "metrics": None}
    return record


def execute_unit_task(task: UnitTask) -> Tuple[str, dict]:
    """Worker entry point: run one task, return ``(key, record)``.

    Runs in a pool worker process; the experiment driver is resolved
    from the registry by id and the per-attempt timeout uses the
    portable wall-clock guard (SIGALRM stays untouched in workers).

    Workers write nothing to stderr — with several of them finishing
    at once, raw prints interleave into garbage. Progress facts
    (span-sourced duration, pid, timeout count) ride home inside the
    record; the parent turns them into ordered run-ledger events and
    its own stderr progress lines.

    When the task carries a :class:`~repro.chaos.plan.ChaosPlan`, its
    scheduled worker fault is applied here: SIGKILL/``os._exit`` never
    return (the supervisor sees a broken pool and re-dispatches), and
    a corrupt-result fault mangles the record on the way out (caught
    by :func:`validate_unit_record` in the parent).
    """
    chaos_event = None
    if task.chaos is not None:
        chaos_event = task.chaos.worker_event(task.key, task.dispatch)
        if chaos_event is not None:
            from ..chaos.inject import apply_worker_event
            apply_worker_event(chaos_event)
    record = run_unit_attempts(
        task.exp_id, task.app, task.key,
        max_attempts=task.max_attempts,
        backoff_s=task.backoff_s,
        timeout_s=task.timeout_s,
        use_wall_clock_guard=True,
        observe=task.observe,
    )
    if chaos_event is not None and chaos_event.kind == "corrupt":
        from ..chaos.inject import corrupt_record
        record = corrupt_record(record)
    return task.key, record


# ---------------------------------------------------------------------------
# Record integrity & quarantine
# ---------------------------------------------------------------------------

def validate_unit_record(record) -> Optional[str]:
    """Why a worker-returned record is unusable, or None when sound.

    Workers are processes; a bad IPC layer, a chaos ``corrupt`` fault,
    or a future version skew can hand the parent structural garbage.
    Checks are structural only (shape, field types, payload
    round-trip) — never semantic, so a legitimately failed unit's
    record passes.
    """
    if not isinstance(record, dict):
        return f"record is {type(record).__name__}, expected dict"
    status = record.get("status")
    if status not in ("ok", "failed"):
        return f"record has bad status {status!r}"
    attempts = record.get("attempts")
    # 0 is legal: quarantine records count dispatches, not attempts.
    if not isinstance(attempts, int) or attempts < 0:
        return f"record has bad attempts {attempts!r}"
    if status == "ok":
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return f"ok record payload is {type(payload).__name__}"
        try:
            from ..experiments.base import ExperimentResult
            ExperimentResult.from_dict(payload)
        except Exception as exc:  # noqa: BLE001 — any break is corruption
            return f"payload does not round-trip ({exc})"
    return None


def quarantine_record(key: str, dispatches: int, reason: str,
                      wall_s: float) -> dict:
    """Structured ``failed`` record for a poison unit.

    A unit that repeatedly kills its worker (or keeps returning
    garbage) is quarantined instead of sinking the sweep: the sweep
    completes, the merge carries a failure note, and downstream
    consumers (the fidelity scorecard) grade its claims ``not-run``.
    """
    return {
        "status": "failed",
        "attempts": 0,
        "wall_s": round(wall_s, 3),
        "unit_wall_s": 0.0,
        "payload": None,
        "error": {
            "type": "WorkerCrash",
            "message": f"unit {key} quarantined after {dispatches} "
                       f"dispatches: {reason}",
            "traceback_tail": "",
        },
        "quarantined": True,
        "dispatches": dispatches,
    }


# ---------------------------------------------------------------------------
# Supervised parallel dispatch
# ---------------------------------------------------------------------------

#: Default supervision knob (overridable per SweepRunner).
DEFAULT_MAX_DISPATCHES = 3


def execute_unit_tasks(tasks: Sequence[UnitTask]) -> List[Tuple[str, dict]]:
    """Worker entry point for one pool task: run its units in order.

    A pool task is every pending unit of one app (or one
    whole-experiment unit), so the app's functional pass and clean
    replays are computed once in this process and reused by its later
    units. Each unit still goes through :func:`execute_unit_task`.
    """
    return [execute_unit_task(task) for task in tasks]


def exit_with_parent() -> None:
    """Pool-worker initializer: end this worker when its parent dies.

    A parent killed outright (SIGKILL, the OOM killer) cannot shut its
    pool down, and an idle worker would wait on the task queue forever.
    A daemon thread waits on the parent's sentinel instead and exits
    the worker once the parent is gone.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def _watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=_watch, daemon=True,
                     name="exit-with-parent").start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers,
                               initializer=exit_with_parent)


def pool_tasks(tasks: Sequence[UnitTask]) -> List[List[UnitTask]]:
    """Group units into pool tasks: one per app, one per whole experiment.

    Units keep their plan order inside a task; tasks are ordered
    largest first (plan order among equals), so the longest task does
    not start last.
    """
    groups: Dict[object, List[UnitTask]] = {}
    for task in tasks:
        group = task.key if task.app is None else task.app.name
        groups.setdefault(group, []).append(task)
    return sorted(groups.values(), key=len, reverse=True)


def run_units_parallel(tasks: Sequence[UnitTask], jobs: int,
                       on_record: Callable[[str, dict], None],
                       *,
                       max_dispatches: int = DEFAULT_MAX_DISPATCHES,
                       on_event: Optional[Callable[[str, str], None]] = None,
                       ) -> None:
    """Execute ``tasks`` on a *supervised* process pool.

    Units are submitted as pool tasks (:func:`pool_tasks`): one per
    app, holding all of that app's pending units, with one task in
    flight per worker. ``on_record(key, record)`` is invoked in the
    parent for each unit as its task finishes (completion order — the
    caller's merge is responsible for determinism). On top of plain
    dispatch, the supervisor:

    * detects a broken pool (a worker died to SIGKILL, ``os._exit``,
      or the OOM killer), rebuilds the executor, and re-dispatches the
      units of every in-flight task, one unit per task, with bounded
      retries (``max_dispatches`` total hand-outs per unit);
    * quarantines poison units — a unit whose dispatch budget runs out
      is recorded as a structured ``failed`` result
      (:func:`quarantine_record`) instead of sinking the sweep;
    * rejects corrupt records (:func:`validate_unit_record`) the same
      way as crashes — bounded re-dispatch of that unit, then
      quarantine.

    At most one copy of a unit is in flight, so every key yields
    exactly one record. A slow or hung unit is bounded only by the
    task's ``timeout_s`` (the wall-clock guard in the worker).

    If the caller's callback raises (KeyboardInterrupt, the graceful
    SIGTERM drain), records already returned by finished tasks are
    drained into ``on_record`` first, pending work is cancelled, and
    the exception propagates so a later ``--resume`` picks up exactly
    where the sweep stopped. On the normal path the pool is joined:
    no worker outlives the call.

    ``on_event(kind, key)`` observes supervision actions —
    ``start`` (every worker hand-out, including re-dispatches) /
    ``redispatch`` / ``quarantine`` — for stats, metrics, and the run
    ledger.
    """
    if not tasks:
        return
    queue = deque(pool_tasks(tasks))
    workers = max(1, min(int(jobs), len(queue)))
    notify = on_event or (lambda kind, key: None)

    in_flight: Dict[object, List[UnitTask]] = {}
    ready: deque = deque()     # validated records not yet handed over
    dispatches: Dict[str, int] = {task.key: 0 for task in tasks}
    started = time.monotonic()
    pool = _new_pool(workers)

    def _submit(batch: List[UnitTask]) -> None:
        shipped = []
        for task in batch:
            dispatches[task.key] += 1
            shipped.append(replace(task, dispatch=dispatches[task.key]))
        future = pool.submit(execute_unit_tasks, shipped)
        in_flight[future] = batch
        for task in batch:
            notify("start", task.key)

    def _retire_or_quarantine(task: UnitTask, reason: str) -> None:
        """Bounded retry for a unit whose dispatch went wrong."""
        if dispatches[task.key] >= max_dispatches:
            notify("quarantine", task.key)
            ready.append((task.key, quarantine_record(
                task.key, dispatches[task.key], reason,
                wall_s=time.monotonic() - started)))
        else:
            notify("redispatch", task.key)
            queue.append([task])

    def _collect(batch: List[UnitTask], results) -> None:
        """Queue a finished task's sound records; retry the rest."""
        returned = dict(results)
        for task in batch:
            record = returned.get(task.key)
            reason = validate_unit_record(record)
            if reason is not None:
                _retire_or_quarantine(task, f"corrupt record: {reason}")
            else:
                ready.append((task.key, record))

    def _rebuild_after_break(reason: str) -> None:
        """A worker died; blame every in-flight unit and start fresh.

        The executor cannot say which unit killed the worker, so every
        unit of every in-flight task takes a dispatch strike and is
        re-queued as a task of its own — a true poison unit runs out of
        budget while the innocents complete on their next hand-out.
        """
        nonlocal pool
        pool.shutdown(wait=False, cancel_futures=True)
        for batch in list(in_flight.values()):
            for task in batch:
                _retire_or_quarantine(task, reason)
        in_flight.clear()
        pool = _new_pool(workers)

    def _drain_completed() -> None:
        """Record whatever already finished before propagating an abort."""
        for future, batch in list(in_flight.items()):
            if not future.done() or future.cancelled():
                continue
            try:
                results = future.result(timeout=0)
            except BaseException:  # noqa: BLE001 — draining, not failing
                continue
            ready.extend((key, record) for key, record in results
                         if validate_unit_record(record) is None)
        while ready:
            try:
                on_record(*ready.popleft())
            except BaseException:  # noqa: BLE001 — callback is the aborter
                break

    try:
        while queue or in_flight or ready:
            # Hand out work before the parent's per-record writes, so
            # no worker idles while the checkpoint appends.
            while queue and len(in_flight) < workers:
                batch = queue.popleft()
                try:
                    _submit(batch)
                except BrokenExecutor:
                    queue.appendleft(batch)
                    for task in batch:  # submit never reached a worker
                        dispatches[task.key] -= 1
                    _rebuild_after_break("worker pool broke on submit")
            while ready:
                on_record(*ready.popleft())
            if not in_flight:
                continue
            # No timeout: nothing but a completion needs the loop, and a
            # signal (the graceful drain) still ends the wait at once.
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            broke = None
            for future in done:
                batch = in_flight.pop(future)
                try:
                    results = future.result()
                except (BrokenProcessPool, BrokenExecutor, OSError) as exc:
                    # The worker died mid-task. Every other in-flight
                    # future is dead too; finish this batch then
                    # rebuild once.
                    broke = f"worker died: {type(exc).__name__}: {exc}"
                    for task in batch:
                        _retire_or_quarantine(task, broke)
                    continue
                except Exception as exc:  # noqa: BLE001 — e.g. unpicklable
                    reason = f"dispatch failed: {error_report(exc)['message']}"
                    for task in batch:
                        _retire_or_quarantine(task, reason)
                    continue
                _collect(batch, results)
            if broke is not None:
                _rebuild_after_break(broke)
    except BaseException:
        _drain_completed()
        for future in in_flight:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    # Every worker is idle by now; joining them keeps the pool's
    # threads and pipes from outliving the sweep (an unjoined pool can
    # race the interpreter's exit handler).
    pool.shutdown(wait=True)
