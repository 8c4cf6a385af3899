"""Durable, append-only run ledger: streaming sweep telemetry.

Every observability artifact before this module — span traces, metric
snapshots, bench and fidelity records — is post-mortem: it exists only
once the run that produced it has finished. The ledger is the *live*
counterpart: one JSONL stream per sweep of typed, monotonically
sequenced lifecycle events (unit scheduled/started/attempt/retry/
timeout, straggler re-queue, quarantine, chaos injection, checkpoint
flush, completed), appended and flushed line by line as they happen,
so an external watcher — ``repro obs watch`` or a tail -f — can
follow a two-hour sweep while it runs.

Crash-safety follows the trace-JSONL contract (``jsonl_to_trees``):
each line is independently parseable, a killed writer leaves a torn
final line at worst, and every reader here tolerates that torn tail —
it is simply not yet an event.

Three pieces:

* :class:`RunLedger` — the writer. Owned by the *parent* sweep
  process only (workers ship their facts home inside unit records, so
  sequence numbers stay a single monotonic stream). Sinks are
  best-effort: an unwritable path degrades to a ``RuntimeWarning``
  and in-memory retention, never a dead sweep.
* :class:`RotatingJsonlSink` — the shared size-capped line sink:
  ``max_bytes`` plus ``.1``/``.2`` suffix rollover (``.1`` is the
  most recently rotated segment), used by the ledger and by the trace
  sink so long sweeps cannot grow either file unboundedly.
* :class:`LedgerFollower` — the tailer: ``poll()`` returns only events
  with ``seq`` greater than the last one seen, surviving torn tails
  (the partial line is left for the next poll) and rotation (detected
  via the active file's identity; recovery rescans the segment chain
  by sequence number).

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
import os
import threading
import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LEDGER_SCHEMA_VERSION", "EVENT_TYPES", "VOLATILE_EVENT_ATTRS",
    "RotatingJsonlSink", "RunLedger", "LedgerFollower",
    "ledger_segments", "read_jsonl_segments", "parse_ledger_text",
    "read_ledger", "normalize_events", "validate_ledger",
]

#: On-disk schema of ledger event lines. History: 1 — first version.
LEDGER_SCHEMA_VERSION = 1

#: The typed event vocabulary. Emitters must stay inside it so
#: followers (the watch dashboard, the diff comparator) can switch on
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
    "straggler_requeue",    # supervisor re-dispatched a slow unit
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
#: wall times, dispatch and worker counts — rather than what the sweep
#: does. :func:`normalize_events` drops them, which is what makes the
#: serial-vs-parallel event-set identity checkable.
VOLATILE_EVENT_ATTRS = ("wall_s", "unit_wall_s", "dispatch", "jobs")

#: Reserved top-level fields of an event line (everything else rides
#: inside ``attrs``).
_RESERVED_FIELDS = ("seq", "ts", "type", "key", "attrs")


class RotatingJsonlSink:
    """Size-capped append-a-line JSONL file with suffix rollover.

    When writing a line would push the active file past ``max_bytes``,
    the file rotates: existing ``path.i`` segments shift to
    ``path.(i+1)`` (the oldest, past ``max_segments``, is dropped),
    the active file becomes ``path.1``, and writing continues into a
    fresh ``path``. Readers reassemble oldest-first via
    :func:`read_jsonl_segments`. With ``max_bytes=None`` the file
    grows without bound and no segment is ever created.

    I/O failures are soft, mirroring ``write_text_sink``: the first
    one warns (``RuntimeWarning``), ``ok`` flips False, and further
    writes are dropped — telemetry must never kill the run it
    observes.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None,
                 max_segments: int = 8, fresh: bool = True):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.path = path
        self.max_bytes = max_bytes
        self.max_segments = int(max_segments)
        self.ok = True
        self._size = 0
        self._fh = None
        try:
            if fresh:
                _remove_segments(path)
            self._fh = open(path, "w" if fresh else "a", encoding="utf-8")
            self._size = self._fh.tell()
        except OSError as exc:
            self._fail(exc)

    def _fail(self, exc: OSError) -> None:
        if self.ok:
            self.ok = False
            warnings.warn(
                f"jsonl sink {self.path!r} is unwritable ({exc}); "
                f"continuing without it", RuntimeWarning, stacklevel=3)
        self._fh = None

    def _rotate(self) -> None:
        self._fh.close()
        for i in range(self.max_segments - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "w", encoding="utf-8")
        self._size = 0

    def write_line(self, line: str) -> bool:
        """Append one line (newline added) and flush; False if dropped."""
        if self._fh is None:
            return False
        data = line + "\n"
        try:
            if (self.max_bytes is not None and self._size > 0
                    and self._size + len(data.encode("utf-8"))
                    > self.max_bytes):
                self._rotate()
            self._fh.write(data)
            self._fh.flush()
            self._size += len(data.encode("utf-8"))
        except OSError as exc:
            self._fail(exc)
            return False
        return True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def _remove_segments(path: str) -> None:
    """Drop rotated segments of a previous run of the same path."""
    i = 1
    while True:
        seg = f"{path}.{i}"
        if not os.path.exists(seg):
            break
        try:
            os.unlink(seg)
        except OSError:
            break
        i += 1


class RunLedger:
    """Append-only event stream of one sweep run (parent process only).

    ``emit`` assigns the next sequence number under a lock, stamps the
    wall clock, retains the event in memory (``events`` — the in-
    memory mode tests and the golden determinism suite read it), and
    appends one flushed JSON line to the sink when a path was given.
    A pathless ledger is purely in-memory, mirroring
    ``Checkpoint(path=None)``.
    """

    def __init__(self, path: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 max_segments: int = 8,
                 meta: Optional[dict] = None,
                 clock: Callable[[], float] = time.time):
        self.path = path
        self.events: List[dict] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._sink = (RotatingJsonlSink(path, max_bytes=max_bytes,
                                        max_segments=max_segments)
                      if path is not None else None)
        self.emit("ledger_open", schema_version=LEDGER_SCHEMA_VERSION,
                  meta=dict(meta or {}))

    @property
    def ok(self) -> bool:
        """False once the sink degraded (pathless ledgers stay True)."""
        return self._sink is None or self._sink.ok

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
            if self._sink is not None:
                self._sink.write_line(json.dumps(event, sort_keys=True))
        return event

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


# ---------------------------------------------------------------------------
# Reading: segments, torn tails, whole-ledger loads
# ---------------------------------------------------------------------------

def ledger_segments(path: str) -> List[str]:
    """All on-disk segments of a rotated JSONL file, oldest first.

    ``path.N`` (largest N) is the oldest, ``path`` the active file;
    missing files are simply absent from the list.
    """
    rotated: List[str] = []
    i = 1
    while os.path.exists(f"{path}.{i}"):
        rotated.append(f"{path}.{i}")
        i += 1
    segments = list(reversed(rotated))
    if os.path.exists(path):
        segments.append(path)
    return segments


def read_jsonl_segments(path: str) -> str:
    """Concatenated text of a (possibly rotated) JSONL file.

    Raises ``FileNotFoundError`` when neither the active file nor any
    rotated segment exists; torn tails are the *reader's* problem and
    are preserved verbatim.
    """
    segments = ledger_segments(path)
    if not segments:
        raise FileNotFoundError(path)
    parts = []
    for segment in segments:
        with open(segment, "r", encoding="utf-8") as fh:
            parts.append(fh.read())
    return "".join(parts)


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
    """Every event of a ledger (rotated segments included), seq order."""
    events = parse_ledger_text(read_jsonl_segments(path))
    events.sort(key=lambda e: e.get("seq", 0))
    return events


class LedgerFollower:
    """Tail a live ledger, delivering each event exactly once.

    ``poll()`` is non-blocking and returns the events that arrived
    since the last call (strictly ``seq > last_seq``), in sequence
    order. It never mutates the ledger files.

    Fast path: remember a byte offset into the active file and its
    first line; read only appended bytes. A torn final line (writer
    mid-``write``, or killed) is left unconsumed — the offset stays
    before it, and the completed line is picked up on a later poll.

    Rotation/truncation recovery: when the active file's first line
    changed, or the file shrank below the remembered offset, the
    follower rescans the whole segment chain and filters by sequence
    number, so every event is delivered exactly once even across a
    rollover — unless rotation dropped an unread segment entirely, in
    which case the gap is counted in ``missed`` rather than silently
    swallowed.
    """

    def __init__(self, path: str):
        self.path = path
        self.last_seq = 0
        self.missed = 0
        self._offset = 0
        self._first_line: Optional[bytes] = None

    # -- internals -------------------------------------------------------

    def _read_active(self) -> Tuple[bytes, bytes]:
        """(first line incl. newline, full bytes) of the active file."""
        with open(self.path, "rb") as fh:
            data = fh.read()
        newline = data.find(b"\n")
        first = data[:newline + 1] if newline >= 0 else b""
        return first, data

    def _consume(self, data: bytes, base_offset: int) -> List[dict]:
        """Parse complete lines out of ``data[base_offset:]``.

        Advances ``_offset`` past every *complete* line (torn tails
        stay unconsumed) and returns the fresh events.
        """
        chunk = data[base_offset:]
        end = chunk.rfind(b"\n")
        if end < 0:
            self._offset = base_offset
            return []
        complete = chunk[:end + 1]
        self._offset = base_offset + end + 1
        return self._fresh(parse_ledger_text(
            complete.decode("utf-8", errors="replace")))

    def _fresh(self, events: Iterable[dict]) -> List[dict]:
        fresh = [e for e in sorted(events, key=lambda e: e.get("seq", 0))
                 if e.get("seq", 0) > self.last_seq]
        for event in fresh:
            seq = event["seq"]
            if self.last_seq and seq > self.last_seq + 1:
                self.missed += seq - self.last_seq - 1
            self.last_seq = seq
        return fresh

    def _rescan(self) -> List[dict]:
        """Full segment-chain rescan, filtered by sequence number."""
        events: List[dict] = []
        for segment in ledger_segments(self.path):
            try:
                with open(segment, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue   # rotated away between listing and reading
            if segment == self.path:
                first, _ = self._split_first(data)
                self._first_line = first
                events.extend(self._consume(data, 0))
            else:
                events.extend(self._fresh(parse_ledger_text(
                    data.decode("utf-8", errors="replace"))))
        events.sort(key=lambda e: e.get("seq", 0))
        return events

    @staticmethod
    def _split_first(data: bytes) -> Tuple[bytes, bytes]:
        newline = data.find(b"\n")
        return (data[:newline + 1] if newline >= 0 else b""), data

    # -- public API ------------------------------------------------------

    def poll(self) -> List[dict]:
        """New events since the previous poll (non-blocking)."""
        try:
            first, data = self._read_active()
        except OSError:
            # Active file absent: either the run has not started yet,
            # or we caught the instant between rotate and reopen.
            # Rotated segments may still hold unseen events.
            if ledger_segments(self.path):
                self._offset = 0
                self._first_line = None
                return self._rescan()
            return []
        if (self._first_line is not None and first == self._first_line
                and len(data) >= self._offset):
            return self._consume(data, self._offset)
        # First poll, rotation, or truncation: rebuild from the chain.
        self._offset = 0
        self._first_line = None
        return self._rescan()


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


def validate_ledger(events: List[dict],
                    allow_gaps: bool = False) -> List[str]:
    """Schema-validity problems of an event list (empty = valid).

    Checks: non-empty, opens with a supported ``ledger_open``,
    reserved fields present and well-typed, event types inside the
    vocabulary, and sequence numbers strictly increasing —
    consecutive unless ``allow_gaps`` (a rotation-capped ledger may
    have dropped its oldest segment).
    """
    problems: List[str] = []
    if not events:
        return ["ledger has no events"]
    head = events[0]
    if head.get("type") != "ledger_open":
        problems.append(
            f"first event is {head.get('type')!r}, expected 'ledger_open'"
            f" (rotated-away head segment?)" if allow_gaps else
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
            elif not allow_gaps and seq != previous + 1:
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
