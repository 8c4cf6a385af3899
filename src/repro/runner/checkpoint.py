"""Append-only checkpoint journal for the resilient sweep runner.

One checkpoint file records the outcome of every completed unit of
work — a ``(experiment, app)`` pair, or a whole experiment for drivers
that can't be decomposed per app. The file is JSON Lines:

* a header line ``{"schema_version": 3, "meta": {...}}``;
* then one compact line ``{"key": ..., "record": ...}`` per recorded
  unit, in completion order. A later line for the same key wins.

A save appends only the records not yet on disk and ``fsync``-s, so
its cost is proportional to the new records, not to the sweep so far.
A kill at any byte leaves at most one torn line at the end: loading
drops the text after the last newline, and a writer truncates the file
to its last complete line before it appends (after a resume, and after
a failed append). Orphaned ``*.tmp`` files next to the checkpoint
(debris of older writers or of the ``stale_tmp`` chaos fault) are swept
up the next time the checkpoint is opened or flushed.

Transient I/O failures (a full disk, a permissions hiccup, an injected
chaos fault) do not abort the sweep: :meth:`Checkpoint.record` falls
back to a *soft* save that keeps the records in memory, marks the
store dirty, and retries on the next record; :meth:`Checkpoint.flush`
makes a final durable attempt — the runner calls it in a ``finally``
block so completed units survive interrupts.

Loading is defensive: a torn header, a bad middle line, an older
schema-version snapshot or an unknown version raise
:class:`CheckpointError` with a message that says what is wrong —
never a bare ``KeyError`` or a raw ``json.JSONDecodeError``.
"""

from __future__ import annotations

import glob
import json
import os
import warnings
from typing import Callable, Dict, Optional

__all__ = ["Checkpoint", "CheckpointError", "unit_key",
           "CHECKPOINT_SCHEMA_VERSION", "CHECKPOINT_VERSION"]

#: Current on-disk schema. History:
#: 1 — PR 1 format, version field named ``version``.
#: 2 — renamed to ``schema_version``; one sorted JSON snapshot.
#: 3 — append-only JSON Lines journal (header line, one line per unit).
CHECKPOINT_SCHEMA_VERSION = 3

#: Backwards-compatible alias (pre-schema_version name).
CHECKPOINT_VERSION = CHECKPOINT_SCHEMA_VERSION

_RECORD_REQUIRED_FIELDS = ("status",)

_COMPACT = (",", ":")


class CheckpointError(ValueError):
    """A checkpoint file could not be read or parsed."""


def unit_key(exp_id: str, app_name: Optional[str] = None) -> str:
    """Stable key for one unit of work; ``*`` marks a whole-experiment unit."""
    return f"{exp_id}::{app_name or '*'}"


def _clean_stale_tmps(path: str) -> int:
    """Remove orphaned temp files a dead writer left next to ``path``.

    Temp files are namespaced as ``.<basename>.*.tmp`` in the target's
    directory, so only this checkpoint's own debris is ever touched.
    Returns the number of files removed (best-effort: an unremovable
    orphan is skipped, not fatal).
    """
    directory = os.path.dirname(os.path.abspath(path))
    base = os.path.basename(path)
    removed = 0
    for stale in glob.glob(os.path.join(
            glob.escape(directory), f".{glob.escape(base)}.*.tmp")):
        try:
            os.unlink(stale)
            removed += 1
        except OSError:
            pass
    return removed


def _check_header(path: str, header) -> None:
    """Raise :class:`CheckpointError` unless ``header`` opens a v3 journal."""
    if not isinstance(header, dict):
        raise CheckpointError(
            f"checkpoint {path!r} is not a checkpoint file "
            f"(header is {type(header).__name__}, expected an object)")
    version = header.get("schema_version", header.get("version"))
    if version is None:
        raise CheckpointError(
            f"checkpoint {path!r} has no schema_version field — "
            f"not a sweep checkpoint")
    if version in (1, 2):
        raise CheckpointError(
            f"checkpoint {path!r} is a schema_version {version} snapshot "
            f"from an older build; this build reads the version "
            f"{CHECKPOINT_SCHEMA_VERSION} journal only. Rerun without "
            f"--resume.")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has schema_version {version!r}; "
            f"this build reads version {CHECKPOINT_SCHEMA_VERSION}. "
            f"Regenerate the checkpoint or upgrade the toolkit.")


class Checkpoint:
    """Persistent map from unit key to its outcome record.

    A record is a plain dict::

        {"status": "ok"|"failed", "attempts": int, "wall_s": float,
         "payload": <ExperimentResult.to_dict()> | None,
         "error": {"type", "message", "traceback_tail"} | None}

    With ``path=None`` the checkpoint lives in memory only (saves are
    no-ops) — the runner always goes through one, checkpointing or not.

    ``chaos_hook``, when set, is called with ``(self, payload_text)``
    at the top of every durable save; the harness-fault injector uses
    it to simulate torn appends, ``ENOSPC``, ``EACCES``, and stale temp
    debris (:func:`repro.chaos.inject.checkpoint_chaos_hook`).

    ``observer``, when set, is called with ``(kind, info)`` after
    durability-relevant transitions — ``("flush", {...})`` from
    :meth:`flush` and ``("save_failed", {...})`` from the soft-save
    path — so the sweep runner can stream checkpoint health into the
    run ledger. Observer exceptions are never swallowed *into* the
    save path's error handling: the hook is invoked outside the
    ``try`` blocks and must not raise (ledger emission is in-memory
    bookkeeping plus a soft-failure sink).
    """

    def __init__(self, path: Optional[str] = None,
                 meta: Optional[dict] = None) -> None:
        self.path = path
        self.meta = dict(meta or {})
        self.records: Dict[str, dict] = {}
        self.dirty = False
        self.save_failures = 0
        self.chaos_hook: Optional[Callable[["Checkpoint", str], None]] = None
        self.observer: Optional[Callable[[str, dict], None]] = None
        self._warned_soft_failure = False
        # Keys recorded since the last durable save, and the byte length
        # of the file's complete lines (None: no header on disk yet).
        self._unsaved: Dict[str, None] = {}
        self._end: Optional[int] = None
        if path is not None and os.path.isdir(
                os.path.dirname(os.path.abspath(path))):
            _clean_stale_tmps(path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Fold a journal into a checkpoint that appends to the same file."""
        _clean_stale_tmps(path)
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.rfind(b"\n") + 1
        lines = data[:end].split(b"\n")[:-1]
        try:
            header = json.loads(lines[0]) if lines else None
        except ValueError:
            header = None
        if header is None:
            # No parseable header line: an older build's snapshot (one
            # JSON document), something else entirely, or a torn header.
            try:
                whole = json.loads(data)
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint {path!r} is corrupt or truncated "
                    f"({exc}); delete it or rerun without --resume"
                ) from exc
            _check_header(path, whole)
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt or truncated (torn "
                f"header line); delete it or rerun without --resume")
        _check_header(path, header)
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"checkpoint {path!r} has a malformed meta object")

        records: Dict[str, dict] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint {path!r} line {lineno} is corrupt "
                    f"({exc}); delete it or rerun without --resume"
                ) from exc
            if not isinstance(entry, dict):
                entry = {}
            key, rec = entry.get("key"), entry.get("record")
            if not isinstance(key, str) or not isinstance(rec, dict) or any(
                    f not in rec for f in _RECORD_REQUIRED_FIELDS):
                raise CheckpointError(
                    f"checkpoint {path!r} line {lineno}: record "
                    f"{key!r} is malformed (expected a key and a dict "
                    f"with {_RECORD_REQUIRED_FIELDS})")
            records[key] = rec
        ckpt = cls(path=path, meta=meta)
        ckpt.records = records
        ckpt._end = end
        return ckpt

    def get(self, key: str) -> Optional[dict]:
        return self.records.get(key)

    def record(self, key: str, rec: dict) -> None:
        """Store one unit outcome and persist it (soft on I/O failure).

        A failing save never loses the record: it stays in memory, the
        store is marked dirty, and the next :meth:`record` or
        :meth:`flush` retries the durable write.
        """
        self.records[key] = rec
        self._unsaved[key] = None
        self.dirty = True
        self.save_soft()

    def _payload(self) -> str:
        """The lines a save appends: the header if absent, then every
        unsaved record."""
        lines = [] if self._end is not None else [json.dumps(
            {"schema_version": CHECKPOINT_SCHEMA_VERSION, "meta": self.meta},
            separators=_COMPACT)]
        lines += [json.dumps({"key": key, "record": self.records[key]},
                             separators=_COMPACT)
                  for key in self._unsaved]
        return "".join(line + "\n" for line in lines)

    def _append(self, text: str) -> None:
        """Write ``text`` after the file's last complete line and fsync.

        Anything past that line (a torn append) is truncated first; a
        file with no header on disk yet is rewritten from the start.
        """
        with open(self.path, "wb" if self._end is None else "r+b") as fh:
            if self._end is not None:
                fh.truncate(self._end)
                fh.seek(self._end)
            fh.write(text.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def save(self) -> None:
        """Durable append of the unsaved records (header first if absent).

        Raises ``OSError`` on I/O failure (callers that must not die
        use :meth:`save_soft` / :meth:`flush`).
        """
        if self.path is None:
            self._unsaved.clear()
            self.dirty = False
            return
        payload = self._payload()
        if self.chaos_hook is not None:
            self.chaos_hook(self, payload)
        self._append(payload)
        self._end = (self._end or 0) + len(payload.encode("utf-8"))
        self._unsaved.clear()
        self.dirty = False

    def save_soft(self) -> bool:
        """Attempt a durable save; absorb I/O failures into ``dirty``.

        Returns True when the store is clean on disk afterwards. The
        first failure warns (so a full disk is visible, once); every
        failure increments ``save_failures`` for the obs counters.
        """
        try:
            self.save()
        except OSError as exc:
            self.save_failures += 1
            if not self._warned_soft_failure:
                self._warned_soft_failure = True
                warnings.warn(
                    f"checkpoint save to {self.path!r} failed ({exc}); "
                    f"records are kept in memory and the save will be "
                    f"retried", RuntimeWarning, stacklevel=2)
            if self.observer is not None:
                self.observer("save_failed",
                              {"error": f"{type(exc).__name__}: {exc}",
                               "failures": self.save_failures})
            return False
        return True

    def flush(self) -> bool:
        """Final durable attempt + stale-tmp sweep; True when clean.

        Safe to call from ``finally`` blocks: never raises for I/O
        reasons, and a pathless (in-memory) checkpoint is a no-op.
        """
        if self.path is None:
            if self.observer is not None:
                self.observer("flush", {"records": len(self.records),
                                        "clean": True})
            return True
        clean = True
        if self.dirty:
            clean = self.save_soft()
        if clean:
            _clean_stale_tmps(self.path)
        if self.observer is not None:
            self.observer("flush", {"records": len(self.records),
                                    "clean": clean})
        return clean

    def __len__(self) -> int:
        return len(self.records)
