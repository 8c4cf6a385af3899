"""Applying chaos events at the runner's boundaries.

The plan (:mod:`repro.chaos.plan`) *decides*; this module *acts*. Each
site gets one small hook:

* :func:`apply_worker_event` runs inside a pool worker before the unit
  executes — it kills the process or exits nonzero. Corruption happens
  after the unit via :func:`corrupt_record`, so the corrupted payload
  reaches the parent looking like a real (broken) result.
* :func:`checkpoint_chaos_hook` wraps :meth:`Checkpoint.save`: it
  raises ``ENOSPC``/``EACCES``, tears the journal append itself (a
  partial line in the real file), or drops an orphan ``*.tmp`` — the
  exact debris a crashed writer leaves.
* :func:`send_self_signal` delivers SIGTERM/SIGINT to the parent for
  the graceful-drain paths.

Worker faults are applied only in worker processes (``kill`` in the
parent would take the whole sweep down, which is a different test —
that one is :class:`SweepInterrupted` draining).
"""

from __future__ import annotations

import errno
import os
import signal
from typing import Callable, Optional

from .plan import ChaosEvent, ChaosPlan

__all__ = ["apply_worker_event", "checkpoint_chaos_hook", "corrupt_record",
           "send_self_signal"]

#: Marker left in corrupted records so tests can recognise the mangling.
CORRUPT_MARKER = "__chaos_corrupt__"


def apply_worker_event(event: Optional[ChaosEvent]) -> None:
    """Apply a pre-execution worker fault. Returns for corrupt/None."""
    if event is None or event.site != "worker":
        return
    if event.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif event.kind == "exit":
        os._exit(3)
    # "corrupt" is applied after execution via corrupt_record().


def corrupt_record(record: dict) -> dict:
    """Mangle a finished unit record the way a bad IPC layer would.

    The status stays plausible but the payload is replaced by garbage,
    so only structural validation in the parent can catch it.
    """
    mangled = dict(record)
    mangled["payload"] = {CORRUPT_MARKER: True, "rows": "\x00garbage"}
    mangled["attempts"] = -1
    return mangled


def checkpoint_chaos_hook(plan: ChaosPlan,
                          emit: Optional[Callable[[str, int], None]] = None
                          ) -> Callable:
    """Build the ``Checkpoint.chaos_hook`` for one plan.

    The hook is called by :meth:`Checkpoint.save` with
    ``(checkpoint, payload_text)`` before the real write. It mutates a
    parent-side counter on the plan, so it must only be installed in
    the parent process (workers never write checkpoints).

    ``emit(kind, save_index)``, when given, observes every fault the
    hook actually fires — the sweep runner routes it into the run
    ledger as a ``chaos_injected`` event, so a watcher can tell an
    injected ``ENOSPC`` from a real one.
    """
    state = {"saves": 0}

    def hook(checkpoint, payload: str) -> None:
        state["saves"] += 1
        event = plan.checkpoint_event(state["saves"])
        if event is None:
            return
        if emit is not None:
            emit(event.kind, state["saves"])
        if event.kind == "enospc":
            raise OSError(errno.ENOSPC,
                          "chaos: no space left on device")
        if event.kind == "eacces":
            raise PermissionError(errno.EACCES,
                                  "chaos: permission denied")
        directory = os.path.dirname(os.path.abspath(checkpoint.path))
        base = os.path.basename(checkpoint.path)
        if event.kind == "stale_tmp":
            # Debris from a hypothetical earlier crash; the next
            # Checkpoint open (or final flush) must sweep it up.
            stale = os.path.join(
                directory, f".{base}.chaos-stale{state['saves']}.tmp")
            with open(stale, "w", encoding="utf-8") as fh:
                fh.write(payload[: len(payload) // 3])
            return  # the save itself proceeds
        if event.kind == "torn":
            # An append that died at byte k: a partial line at the end
            # of the journal, then the I/O error the dying writer would
            # have seen. Loading must drop the torn tail, and the next
            # append must truncate it before writing.
            offset = plan.torn_offset(len(payload), state["saves"])
            checkpoint._append(payload[:offset])
            raise OSError(
                errno.EIO, f"chaos: torn write at byte {offset}")

    return hook


def send_self_signal(kind: str) -> None:
    """Deliver the parent-process signal for a sweep/merge event."""
    signum = {"sigterm": signal.SIGTERM, "sigterm_merge": signal.SIGTERM,
              "sigint": signal.SIGINT}[kind]
    os.kill(os.getpid(), signum)
