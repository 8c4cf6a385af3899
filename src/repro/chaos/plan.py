"""Deterministic harness-fault planning.

:mod:`repro.faults` injects faults into the *simulated silicon* (read
disturbance in the arrays, upsets on the NoC wires); this module
injects faults into the *runner itself* — the process pool, checkpoint
I/O, and merge path. Mirroring the paper's §7.1 methodology (validate
the SRAM under injected bit faults), the harness is validated under
injected harness faults: a sweep that survives a :class:`ChaosPlan`
must produce merged results byte-identical to a fault-free run.

Every decision is derived from ``sha256(seed | site | kind | token)``
alone — the same scheme as per-unit result seeding — so a failure
schedule is fully replayable from ``(seed, spec)``: no wall clock, no
``random`` module, no process identity ever leaks in.

Fault sites and kinds:

* ``worker`` (pool workers only, never the parent): ``kill`` (SIGKILL
  mid-unit), ``exit`` (``os._exit`` nonzero), ``corrupt`` (return a
  mangled record).
* ``checkpoint`` (any path through :meth:`Checkpoint.save`): ``torn``
  (partial journal line then an I/O error), ``enospc`` / ``eacces``
  (raised ``OSError``), ``stale_tmp`` (drop an orphan ``*.tmp`` file).
* ``sweep`` / ``merge`` (parent process): ``sigterm`` / ``sigint``
  delivered right after a unit records, ``sigterm_merge`` delivered at
  the start of result merging.

Worker faults decide per ``(kind, unit-key)`` and fire on the first
``times`` dispatches of that unit, then stand down — so a supervised
re-dispatch always has a clean path to completion and quarantine is
reserved for genuinely poisonous units. Parent-side faults (checkpoint
and signals) are counted in the plan instance, so one plan object
carried across ``--resume`` attempts fires a bounded number of times
per campaign scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["CHECKPOINT_KINDS", "MERGE_KINDS", "SWEEP_KINDS", "WORKER_KINDS",
           "ChaosError", "ChaosEvent", "ChaosPlan", "parse_chaos_spec"]

WORKER_KINDS = ("kill", "exit", "corrupt")
CHECKPOINT_KINDS = ("torn", "enospc", "eacces", "stale_tmp")
SWEEP_KINDS = ("sigterm", "sigint")
MERGE_KINDS = ("sigterm_merge",)
ALL_KINDS = WORKER_KINDS + CHECKPOINT_KINDS + SWEEP_KINDS + MERGE_KINDS

#: Spec tokens that set plan parameters instead of fault rates.
_PARAM_TOKENS = {"times": int, "max_signals": int}


class ChaosError(ValueError):
    """A chaos spec could not be parsed."""


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled harness fault, ready to be applied at its site."""

    site: str
    kind: str
    token: str          # the unit key / save index the decision hashed
    detail: str = ""


def _hash01(*tokens) -> float:
    """Uniform [0, 1) from the token tuple, sha256-derived."""
    text = "|".join(str(t) for t in tokens)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass
class ChaosPlan:
    """Seeded, replayable schedule of harness faults.

    ``rates`` maps fault kind to selection probability. ``times``
    bounds how often a selected worker fault fires per unit (by
    dispatch number) and how often each checkpoint fault fires per
    plan instance; ``max_signals`` bounds parent-signal deliveries per
    plan instance. The plan is picklable and ships to workers inside
    :class:`~repro.runner.pool.UnitTask`; only the stateless
    ``worker_event`` is consulted there, so worker-side copies never
    need their counters back.
    """

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    times: int = 1
    max_signals: int = 1
    _ckpt_fired: Dict[str, int] = field(default_factory=dict, repr=False)
    _signals_fired: int = field(default=0, repr=False)
    _merge_fired: int = field(default=0, repr=False)

    def __post_init__(self):
        unknown = sorted(set(self.rates) - set(ALL_KINDS))
        if unknown:
            raise ChaosError(
                f"unknown chaos kind(s) {unknown}; valid kinds: "
                f"{', '.join(ALL_KINDS)}")
        for kind, rate in self.rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ChaosError(
                    f"chaos rate for {kind!r} must be in [0, 1], "
                    f"got {rate!r}")

    # -- decision points --------------------------------------------------

    def _selected(self, site: str, kind: str, token: str) -> bool:
        rate = self.rates.get(kind, 0.0)
        return rate > 0.0 and _hash01(self.seed, site, kind, token) < rate

    def worker_event(self, key: str, dispatch: int) -> Optional[ChaosEvent]:
        """Fault to apply inside the worker running ``key``, if any.

        Stateless: selected faults fire on dispatches ``1..times`` of
        the unit and never afterwards, so a re-dispatched unit runs
        clean. At most one kind fires per unit (first match in the
        fixed ``WORKER_KINDS`` order).
        """
        if dispatch > self.times:
            return None
        for kind in WORKER_KINDS:
            if self._selected("worker", kind, key):
                return ChaosEvent("worker", kind, key,
                                  detail=f"dispatch {dispatch}")
        return None

    def checkpoint_event(self, save_index: int) -> Optional[ChaosEvent]:
        """Fault to apply to the ``save_index``-th checkpoint save."""
        token = str(save_index)
        for kind in CHECKPOINT_KINDS:
            if self._ckpt_fired.get(kind, 0) >= self.times:
                continue
            if self._selected("checkpoint", kind, token):
                self._ckpt_fired[kind] = self._ckpt_fired.get(kind, 0) + 1
                return ChaosEvent("checkpoint", kind, token)
        return None

    def sweep_event(self, key: str) -> Optional[ChaosEvent]:
        """Signal to deliver to the parent right after ``key`` records."""
        if self._signals_fired >= self.max_signals:
            return None
        for kind in SWEEP_KINDS:
            if self._selected("sweep", kind, key):
                self._signals_fired += 1
                return ChaosEvent("sweep", kind, key)
        return None

    def merge_event(self) -> Optional[ChaosEvent]:
        """Signal to deliver at the start of result merging, if any."""
        if self._merge_fired >= self.max_signals:
            return None
        for kind in MERGE_KINDS:
            if self._selected("merge", kind, "merge"):
                self._merge_fired += 1
                return ChaosEvent("merge", kind, "merge")
        return None

    def torn_offset(self, payload_len: int, save_index: int) -> int:
        """Deterministic byte offset for a torn checkpoint write."""
        if payload_len <= 0:
            return 0
        u = _hash01(self.seed, "checkpoint", "torn_offset", str(save_index))
        return int(u * payload_len)

    def describe(self) -> str:
        active = ", ".join(f"{kind}={self.rates[kind]:g}"
                           for kind in ALL_KINDS if kind in self.rates)
        return (f"ChaosPlan(seed={self.seed}, {active or 'no faults'}, "
                f"times={self.times})")


def parse_chaos_spec(spec: str, seed: int = 0, **overrides) -> ChaosPlan:
    """Build a plan from a CLI spec like ``"kill=0.5,torn=0.3,times=2"``.

    Tokens are comma-separated ``kind=rate`` pairs (a bare ``kind``
    means rate 1.0); ``times``/``max_signals`` tokens set
    plan parameters instead. Raises :class:`ChaosError` on anything
    unrecognisable, with the valid kinds in the message.
    """
    rates: Dict[str, float] = {}
    params: dict = {}
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ChaosError(
            f"empty chaos spec; expected kind=rate tokens, e.g. "
            f"'kill=0.5,torn=0.3' (kinds: {', '.join(ALL_KINDS)})")
    for token in tokens:
        name, _, value = token.partition("=")
        name = name.strip()
        if name in _PARAM_TOKENS:
            if not value:
                raise ChaosError(f"chaos parameter {name!r} needs a value")
            try:
                params[name] = _PARAM_TOKENS[name](value)
            except ValueError:
                raise ChaosError(
                    f"chaos parameter {name!r} has a bad value {value!r}")
        elif name in ALL_KINDS:
            try:
                rates[name] = float(value) if value else 1.0
            except ValueError:
                raise ChaosError(
                    f"chaos rate for {name!r} is not a number: {value!r}")
        else:
            raise ChaosError(
                f"unknown chaos token {name!r}; valid kinds: "
                f"{', '.join(ALL_KINDS)}; parameters: "
                f"{', '.join(sorted(_PARAM_TOKENS))}")
    params.update(overrides)
    return ChaosPlan(seed=seed, rates=rates, **params)
