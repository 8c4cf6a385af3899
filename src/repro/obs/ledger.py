"""Durable, append-only run ledger: streaming sweep telemetry.

Every observability artifact before this module — span traces, metric
snapshots, bench and fidelity records — is post-mortem: it exists only
once the run that produced it has finished. The ledger is the *live*
counterpart: one JSONL stream per sweep of typed, monotonically
sequenced lifecycle events (unit scheduled/started/attempt/retry/
timeout, redispatch, quarantine, chaos injection, checkpoint flush,
completed), appended and flushed line by line as they happen, so
``tail -f`` or :func:`read_ledger` can follow a sweep while it runs.

Crash-safety follows the trace-JSONL contract (``jsonl_to_trees``):
each line is independently parseable, a killed writer leaves a torn
final line at worst, and every reader here tolerates that torn tail —
it is simply not yet an event.

:class:`RunLedger` is the writer. It is owned by the *parent* sweep
process only (workers ship their facts home inside unit records, so
sequence numbers stay a single monotonic stream) and writes one plain
file, truncated when the run opens it. The sink is best-effort: an
unwritable path degrades to a ``RuntimeWarning`` and in-memory
retention, never a dead sweep. Readers (:func:`read_ledger`, ``repro
obs diff --ledger``) read the whole file; a run's ledger is small
enough that a full read costs milliseconds.

Event lines are JSON objects with four reserved fields — ``seq``
(1-based, monotonic per run), ``ts`` (unix wall clock), ``type``, and
``key`` (the unit key, or null for sweep-level events) — plus an
``attrs`` object of event-specific fields. Determinism contract:
after :func:`normalize_events` (drop volatile attrs, sort by unit key
then sequence), serial and ``--jobs N`` runs of the same sweep
produce identical event sets — pinned by a golden test the same way
merged result tables are.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "LEDGER_SCHEMA_VERSION", "EVENT_TYPES", "VOLATILE_EVENT_ATTRS",
    "RunLedger", "parse_ledger_text", "read_ledger", "normalize_events",
    "validate_ledger",
]

#: On-disk schema of ledger event lines. History: 1 — first version.
LEDGER_SCHEMA_VERSION = 1

#: The typed event vocabulary. Emitters must stay inside it so
#: readers (the diff comparator, the validator) can switch on
#: ``type`` without defensive guessing.
EVENT_TYPES = (
    "ledger_open",          # first line: schema version + run meta
    "sweep_begin",          # run() entered
    "sweep_plan",           # pending units counted (units, skipped)
    "unit_scheduled",       # one pending unit enters the plan
    "unit_started",         # unit handed to a worker / serial loop
    "unit_attempt",         # one attempt of the retry loop
    "unit_retry",           # attempts 2..N (backoff taken)
    "unit_timeout",         # a unit failed with UnitTimeout
    "unit_redispatch",      # supervisor re-dispatched after a crash
    "unit_quarantined",     # poison unit recorded as structured failure
    "chaos_injected",       # a harness fault fired (site, kind)
    "checkpoint_flush",     # durable checkpoint flush (records, clean)
    "checkpoint_save_failed",  # a save absorbed by the soft path
    "unit_completed",       # final unit status recorded
    "sweep_merge",          # result merge began
    "sweep_end",            # run() returning (status, counters)
)

#: Attrs that honestly measure the *host* or the execution schedule —
#: wall times and worker counts — rather than what the sweep does.
#: :func:`normalize_events` drops them, which is what makes the
#: serial-vs-parallel event-set identity checkable.
VOLATILE_EVENT_ATTRS = ("wall_s", "unit_wall_s", "jobs")

#: Reserved top-level fields of an event line (everything else rides
#: inside ``attrs``).
_RESERVED_FIELDS = ("seq", "ts", "type", "key", "attrs")


class RunLedger:
    """Append-only event stream of one sweep run (parent process only).

    ``emit`` assigns the next sequence number under a lock, stamps the
    wall clock, retains the event in memory (``events`` — the in-
    memory mode tests and the golden determinism suite read it), and
    appends one flushed JSON line to the file when a path was given.
    A pathless ledger is purely in-memory, mirroring
    ``Checkpoint(path=None)``.

    File I/O failures are soft, mirroring ``write_text_sink``: the
    first one warns (``RuntimeWarning``), ``ok`` flips False, and
    later lines are dropped — telemetry must never kill the run it
    observes.
    """

    def __init__(self, path: Optional[str] = None,
                 meta: Optional[dict] = None,
                 clock: Callable[[], float] = time.time):
        self.path = path
        self.events: List[dict] = []
        self.ok = True
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._fh = None
        if path is not None:
            try:
                self._fh = open(path, "w", encoding="utf-8")
            except OSError as exc:
                self._fail(exc)
        self.emit("ledger_open", schema_version=LEDGER_SCHEMA_VERSION,
                  meta=dict(meta or {}))

    def _fail(self, exc: OSError) -> None:
        if self.ok:
            self.ok = False
            warnings.warn(
                f"ledger {self.path!r} is unwritable ({exc}); "
                f"continuing without it", RuntimeWarning, stacklevel=3)
        self._fh = None

    def emit(self, type_: str, key: Optional[str] = None,
             **attrs) -> dict:
        """Record one event; returns the event dict (with its seq)."""
        clash = sorted(set(attrs) & set(_RESERVED_FIELDS))
        if clash:
            raise ValueError(f"attrs {clash} clash with reserved "
                             f"event fields {_RESERVED_FIELDS}")
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": round(self._clock(), 6),
                     "type": type_, "key": key, "attrs": attrs}
            self.events.append(event)
            if self._fh is not None:
                try:
                    self._fh.write(json.dumps(event, sort_keys=True) + "\n")
                    self._fh.flush()
                except OSError as exc:
                    self._fail(exc)
        return event

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


# ---------------------------------------------------------------------------
# Reading: torn tails, whole-ledger loads
# ---------------------------------------------------------------------------

def parse_ledger_text(text: str) -> List[dict]:
    """Events from raw ledger text, torn/garbled lines skipped."""
    events: List[dict] = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError:
            continue   # torn tail / partial write: not yet an event
        if isinstance(event, dict) and "seq" in event and "type" in event:
            events.append(event)
    return events


def read_ledger(path: str) -> List[dict]:
    """Every event of a ledger file, seq order (torn tail skipped).

    Raises ``FileNotFoundError`` when the ledger does not exist.
    """
    with open(path, "r", encoding="utf-8") as fh:
        events = parse_ledger_text(fh.read())
    events.sort(key=lambda e: e.get("seq", 0))
    return events


# ---------------------------------------------------------------------------
# Determinism: order-normalization and schema validation
# ---------------------------------------------------------------------------

def normalize_events(events: Iterable[dict]) -> List[dict]:
    """Order-normalized, volatility-stripped view of an event set.

    Sorts by ``(unit key, seq)`` — sweep-level events (null key) sort
    together, and each unit's events keep their intra-unit order —
    then drops ``seq``/``ts`` and every :data:`VOLATILE_EVENT_ATTRS`
    attr. Two runs of the same sweep at any ``--jobs`` count must
    normalize identically; the golden suite pins it.
    """
    ordered = sorted(events, key=lambda e: (str(e.get("key") or ""),
                                            e.get("seq", 0)))
    normalized = []
    for event in ordered:
        attrs = {}
        for k, v in sorted((event.get("attrs") or {}).items()):
            if k in VOLATILE_EVENT_ATTRS:
                continue
            if k == "meta" and isinstance(v, dict):
                # ledger_open carries the run meta; its jobs count is
                # exactly the volatility this normalization exists to
                # erase.
                v = {mk: v[mk] for mk in sorted(v)
                     if mk not in VOLATILE_EVENT_ATTRS}
            attrs[k] = v
        normalized.append({"key": event.get("key"),
                           "type": event.get("type"),
                           "attrs": attrs})
    return normalized


def validate_ledger(events: List[dict]) -> List[str]:
    """Schema-validity problems of an event list (empty = valid).

    Checks: non-empty, opens with a supported ``ledger_open``,
    reserved fields present and well-typed, event types inside the
    vocabulary, and sequence numbers consecutive.
    """
    problems: List[str] = []
    if not events:
        return ["ledger has no events"]
    head = events[0]
    if head.get("type") != "ledger_open":
        problems.append(
            f"first event is {head.get('type')!r}, expected 'ledger_open'")
    else:
        version = (head.get("attrs") or {}).get("schema_version")
        if version != LEDGER_SCHEMA_VERSION:
            problems.append(f"unsupported ledger schema_version "
                            f"{version!r}; this build reads "
                            f"{LEDGER_SCHEMA_VERSION}")
    previous = None
    for i, event in enumerate(events):
        for field in ("seq", "ts", "type"):
            if field not in event:
                problems.append(f"event #{i} lacks {field!r}")
        seq = event.get("seq")
        if not isinstance(seq, int) or seq < 1:
            problems.append(f"event #{i} has bad seq {seq!r}")
            continue
        if previous is not None:
            if seq <= previous:
                problems.append(
                    f"seq not strictly increasing at event #{i} "
                    f"({previous} -> {seq})")
            elif seq != previous + 1:
                problems.append(
                    f"seq gap at event #{i} ({previous} -> {seq})")
        previous = seq
        type_ = event.get("type")
        if type_ is not None and type_ not in EVENT_TYPES:
            problems.append(f"event #{i} has unknown type {type_!r}")
        attrs = event.get("attrs")
        if attrs is not None and not isinstance(attrs, dict):
            problems.append(f"event #{i} attrs is "
                            f"{type(attrs).__name__}, expected dict")
    return problems


def status_totals(events: Iterable[dict]) -> Dict[str, int]:
    """Final unit status counts implied by an event stream."""
    final: Dict[str, str] = {}
    for event in events:
        if event.get("type") == "unit_completed" and event.get("key"):
            final[event["key"]] = (event.get("attrs") or {}).get(
                "status", "?")
    totals: Dict[str, int] = {}
    for status in final.values():
        totals[status] = totals.get(status, 0) + 1
    return totals
