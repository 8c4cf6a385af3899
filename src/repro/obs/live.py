"""`repro obs watch`: a live terminal dashboard over a run ledger.

Stdlib only, by design: the watcher is the thing you run on a login
node over ssh while a two-hour sweep grinds elsewhere, so it must not
care whether numpy imports. It never *writes* anything — each poll
re-reads the ledger read-only with :func:`~repro.obs.ledger.read_ledger`
and folds it into a fresh :class:`RunState`, so watching a live sweep
cannot block or corrupt it, and a new run that rewrites the same path
simply shows up on the next frame.

:class:`RunState` is the pure part: fold ledger events into per-unit
state and sweep-level aggregates; :func:`render_dashboard` turns one
state into the terminal screenful for ``obs watch``. :func:`watch` is
the poll/redraw loop with ``--once`` snapshot mode and ``--wait``
appearance polling. The ETA uses the median completed-unit wall
time with a MAD-derived uncertainty band — the same robust statistics
the bench gate already uses.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Callable, Dict, List, Optional

from .ledger import read_ledger

__all__ = ["RunState", "UnitView", "render_dashboard", "watch",
           "DEFAULT_INTERVAL_S", "DEFAULT_MAX_ROWS"]

DEFAULT_INTERVAL_S = 1.0
DEFAULT_MAX_ROWS = 24

#: Dashboard ordering weight per unit state: live work first, then
#: terminal failures, then the quiet bulk.
_STATE_ORDER = {"running": 0, "retrying": 1, "quarantined": 2,
                "failed": 3, "ok": 4, "scheduled": 5, "skipped": 6}


class UnitView:
    """Mutable per-unit state folded out of the event stream."""

    __slots__ = ("key", "state", "started_ts", "ended_ts", "attempts",
                 "wall_s", "note")

    def __init__(self, key: str):
        self.key = key
        self.state = "scheduled"
        self.started_ts: Optional[float] = None
        self.ended_ts: Optional[float] = None
        self.attempts = 0
        self.wall_s: Optional[float] = None
        self.note = ""


class RunState:
    """Aggregate view of one sweep, built by folding ledger events.

    Feed events in seq order through :meth:`fold`; read the per-unit
    table from ``units`` and the sweep aggregates from the remaining
    attributes. The fold is pure — the same events always give the
    same state — and never raises on unknown event types, so future
    vocabulary growth cannot break old watchers.
    """

    def __init__(self):
        self.units: Dict[str, UnitView] = {}
        self.meta: dict = {}
        self.jobs = 1
        self.planned = 0
        self.skipped = 0
        self.begun_ts: Optional[float] = None
        self.ended_ts: Optional[float] = None
        self.end_status: Optional[str] = None
        self.last_ts: Optional[float] = None
        self.checkpoint_failures = 0
        self.chaos_injected = 0

    # -- folding ---------------------------------------------------------

    def _unit(self, key: str) -> UnitView:
        view = self.units.get(key)
        if view is None:
            view = self.units[key] = UnitView(key)
        return view

    def fold(self, event: dict) -> None:
        type_ = event.get("type")
        key = event.get("key")
        attrs = event.get("attrs") or {}
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = float(ts)

        if type_ == "ledger_open":
            self.meta = attrs.get("meta") or {}
        elif type_ == "sweep_begin":
            self.begun_ts = ts
            self.jobs = int(attrs.get("jobs", 1) or 1)
        elif type_ == "sweep_plan":
            self.planned = int(attrs.get("units", 0))
            self.skipped = int(attrs.get("skipped", 0))
        elif type_ == "unit_scheduled" and key:
            self._unit(key)
        elif type_ == "unit_started" and key:
            view = self._unit(key)
            if view.state in ("scheduled", "running", "retrying"):
                view.state = "running"
                if view.started_ts is None:
                    view.started_ts = ts
        elif type_ == "unit_attempt" and key:
            view = self._unit(key)
            view.attempts = max(view.attempts,
                                int(attrs.get("attempt", 1) or 1))
        elif type_ == "unit_retry" and key:
            view = self._unit(key)
            view.attempts = max(view.attempts,
                                int(attrs.get("attempt", 2) or 2))
            if view.state in ("scheduled", "running"):
                view.state = "retrying"
        elif type_ == "unit_timeout" and key:
            self._unit(key).note = "timeout"
        elif type_ == "unit_redispatch" and key:
            view = self._unit(key)
            view.note = "redispatched"
        elif type_ == "unit_quarantined" and key:
            view = self._unit(key)
            view.state = "quarantined"
            view.ended_ts = ts
        elif type_ == "unit_completed" and key:
            view = self._unit(key)
            if view.state != "quarantined":
                view.state = attrs.get("status", "ok")
            view.ended_ts = ts
            view.attempts = max(view.attempts,
                                int(attrs.get("attempts", 1) or 0))
            wall = attrs.get("unit_wall_s", attrs.get("wall_s"))
            if isinstance(wall, (int, float)):
                view.wall_s = float(wall)
        elif type_ == "checkpoint_save_failed":
            self.checkpoint_failures += 1
        elif type_ == "chaos_injected":
            self.chaos_injected += 1
        elif type_ == "sweep_end":
            self.ended_ts = ts
            self.end_status = attrs.get("status", "ok")

    def fold_all(self, events) -> None:
        for event in events:
            self.fold(event)

    # -- derived aggregates ----------------------------------------------

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for view in self.units.values():
            totals[view.state] = totals.get(view.state, 0) + 1
        return totals

    def completed_walls(self) -> List[float]:
        return [view.wall_s for view in self.units.values()
                if view.state == "ok" and view.wall_s is not None]

    def throughput(self, now: Optional[float] = None) -> Optional[float]:
        """Finished units per second of sweep wall time so far."""
        if self.begun_ts is None:
            return None
        done = sum(1 for v in self.units.values()
                   if v.state in ("ok", "failed", "quarantined"))
        end = self.ended_ts if self.ended_ts is not None else (
            now if now is not None else self.last_ts)
        if end is None or done == 0:
            return None
        elapsed = max(end - self.begun_ts, 1e-9)
        return done / elapsed

    def eta_s(self) -> Optional[tuple]:
        """(estimate, uncertainty) seconds until the sweep finishes.

        Robust per-unit estimate: remaining × median completed wall /
        jobs, with a band of remaining × MAD / jobs. None until at
        least one unit has completed (no basis) or once the sweep
        ended (nothing remains).
        """
        if self.ended_ts is not None:
            return None
        walls = self.completed_walls()
        if not walls:
            return None
        remaining = sum(1 for v in self.units.values()
                        if v.state in ("scheduled", "running", "retrying"))
        if remaining == 0:
            return (0.0, 0.0)
        med = median(walls)
        mad = median([abs(w - med) for w in walls])
        jobs = max(self.jobs, 1)
        return (remaining * med / jobs, remaining * mad / jobs)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def render_dashboard(state: RunState, now: Optional[float] = None,
                     max_rows: int = DEFAULT_MAX_ROWS,
                     source: str = "") -> str:
    """One screenful of dashboard text for the current state."""
    now = now if now is not None else time.time()
    counts = state.counts()
    total = len(state.units)
    done = (counts.get("ok", 0) + counts.get("failed", 0)
            + counts.get("quarantined", 0))
    lines: List[str] = []

    title = "repro sweep"
    experiments = state.meta.get("experiments")
    if experiments:
        title += " " + ",".join(experiments[:4]) + (
            ",…" if len(experiments) > 4 else "")
    if state.end_status:
        status = f"ENDED ({state.end_status})"
    elif state.begun_ts is None:
        status = "WAITING"
    else:
        status = "RUNNING"
    lines.append(f"{title}  [{status}]  jobs={state.jobs}"
                 + (f"  {source}" if source else ""))

    bar_w = 32
    frac = done / total if total else 0.0
    bar = "#" * int(round(frac * bar_w))
    lines.append(f"[{bar:<{bar_w}}] {done}/{total} units "
                 f"({counts.get('ok', 0)} ok, {counts.get('failed', 0)} "
                 f"failed, {counts.get('quarantined', 0)} quarantined"
                 + (f", {state.skipped} resumed" if state.skipped else "")
                 + ")")

    rate = state.throughput(now)
    eta = state.eta_s()
    elapsed = None
    if state.begun_ts is not None:
        end = state.ended_ts if state.ended_ts is not None else now
        elapsed = end - state.begun_ts
    bits = [f"elapsed {_fmt_duration(elapsed)}"]
    bits.append(f"{rate:.2f} units/s" if rate is not None else "- units/s")
    if eta is not None:
        est, unc = eta
        bits.append(f"ETA {_fmt_duration(est)} ± {_fmt_duration(unc)}")
    elif state.end_status:
        bits.append("done")
    else:
        bits.append("ETA -")
    if state.chaos_injected:
        bits.append(f"chaos×{state.chaos_injected}")
    if state.checkpoint_failures:
        bits.append(f"ckpt-fail×{state.checkpoint_failures}")
    lines.append("  ".join(bits))
    lines.append("")

    views = sorted(state.units.values(),
                   key=lambda v: (_STATE_ORDER.get(v.state, 9), v.key))
    shown = views[:max_rows] if max_rows else views
    key_w = max([len(v.key) for v in shown], default=4)
    key_w = min(max(key_w, 4), 40)
    lines.append(f"{'unit':<{key_w}}  {'state':<12} {'att':>3} "
                 f"{'wall':>8}  note")
    for view in shown:
        wall = view.wall_s
        if wall is None and view.started_ts is not None and \
                view.state in ("running", "retrying"):
            wall = now - view.started_ts
        lines.append(
            f"{view.key[:key_w]:<{key_w}}  {view.state:<12} "
            f"{view.attempts or '-':>3} {_fmt_duration(wall):>8}  "
            f"{view.note}")
    if len(views) > len(shown):
        lines.append(f"… {len(views) - len(shown)} more units "
                     f"(--max-rows to widen)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The watch loop
# ---------------------------------------------------------------------------

def watch(path: str, once: bool = False,
          interval_s: float = DEFAULT_INTERVAL_S,
          max_rows: int = DEFAULT_MAX_ROWS,
          write: Callable[[str], None] = None,
          sleep: Callable[[float], None] = time.sleep,
          clock: Callable[[], float] = time.time,
          max_polls: Optional[int] = None,
          wait: bool = False,
          timeout_s: Optional[float] = None) -> int:
    """Re-read a ledger and redraw the dashboard until the sweep ends.

    Returns a CLI exit code: 0 after a clean ``sweep_end`` (or a
    ``--once`` snapshot of a usable ledger), 2 when the ledger does
    not exist. A missing ledger is a detectable condition, not a
    silent stall: without ``wait`` the watcher reports it and exits 2
    immediately (so a script launching sweep + watcher can tell "not
    yet" from "watching"); with ``wait`` it polls for the file to
    appear — bounded by ``timeout_s`` when given — and only then
    starts polling, which is how a watcher is started *before* the
    sweep. Every poll rebuilds the state from the whole file.
    ``write``/``sleep``/``clock``/``max_polls`` are test injection
    points.
    """
    import sys
    write = write or (lambda text: print(text, file=sys.stdout, flush=True))
    try:
        if not os.path.exists(path):
            if not wait:
                write(f"obs watch: no ledger at {path} "
                      f"(--wait polls for it)")
                return 2
            deadline = (clock() + timeout_s
                        if timeout_s is not None else None)
            while not os.path.exists(path):
                if deadline is not None and clock() >= deadline:
                    write(f"obs watch: no ledger at {path} after "
                          f"waiting {timeout_s:g}s")
                    return 2
                try:
                    sleep(interval_s)
                except KeyboardInterrupt:
                    return 2
    except BrokenPipeError:
        return 0
    polls = 0
    try:
        while True:
            polls += 1
            state = RunState()
            try:
                state.fold_all(read_ledger(path))
            except FileNotFoundError:
                pass    # removed since the last poll: an empty frame
            if once:
                write(render_dashboard(state, now=clock(),
                                       max_rows=max_rows, source=path))
                return 0
            screen = render_dashboard(state, now=clock(),
                                      max_rows=max_rows, source=path)
            # ANSI home+clear keeps the dashboard in place on a real
            # terminal; piped output just sees successive frames.
            write("\x1b[H\x1b[2J" + screen if sys.stdout.isatty()
                  else screen)
            if state.end_status is not None:
                return 0
            if max_polls is not None and polls >= max_polls:
                return 0
            try:
                sleep(interval_s)
            except KeyboardInterrupt:
                return 0
    except BrokenPipeError:
        # The reader went away (`watch ... | head`): a clean exit,
        # not a stack trace.
        return 0
