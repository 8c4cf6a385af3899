"""Outside-in layer timers for the end-to-end benchmark.

The simulator is timed from outside: :meth:`Probe.install` replaces each
layer's public entry points with wrappers, at every place the entry
point is looked up (a module function is patched in every ``repro``
module that imported it, a method on the class that defines it, an
experiment entry in the registry dict), and :meth:`Probe.uninstall`
puts the originals back.

Leaf layers make millions of calls per run, so no per-call objects are
kept for them. Each call pushes one child-time accumulator on a stack;
on return the call's self time (its wall time minus the time of nested
timed calls) is added to its layer, and its wall time to the caller's
accumulator. Self times therefore telescope: summed over all layers
they equal the wall time spent inside outermost timed calls, and the
rest of a traced run is the untimed remainder.

Coarse spans (unit -> simulate_app -> replay/functional) are kept as
plain lists and written as trace JSONL in the repository's own span
format, so ``repro bench hotspots`` and ``repro obs tree`` read them.

Untraced samples install only the counters (simulate_app and
GPUReplay.run, a few thousand calls per run) that feed the ``model.*``
sums and the replayed-instruction count. Wrappers assume one thread,
which holds for the serial sweep path and the pool's parent process.
A process forked while a probe is installed (a pool worker) removes
the wrappers at once: nothing reports the worker's numbers, so it must
not pay for them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Layer -> public entry points, as ``module:qualname``. The
#: ``EXPERIMENTS[*]`` form means every entry of that registry dict.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim", ("repro.sim:simulate_app",)),
    ("kernels", ("repro.kernels.api:GPUApp.build",)),
    ("arch.functional", ("repro.arch.engine:run_functional",)),
    ("arch.replay", ("repro.arch.gpu:GPUReplay.run",)),
    ("arch.sched", ("repro.arch.scheduler:GTOScheduler.pick",
                    "repro.arch.scheduler:LRRScheduler.pick",
                    "repro.arch.scheduler:TwoLevelScheduler.pick",
                    "repro.arch.scheduler:Scheduler.next_event")),
    ("arch.cache", ("repro.arch.cache:Cache.lookup",
                    "repro.arch.cache:Cache.fill",
                    "repro.arch.cache:Cache.invalidate",
                    "repro.arch.cache:Cache.mark_dirty",
                    "repro.arch.cache:MSHRFile.acquire")),
    ("arch.mem", ("repro.arch.memory:GlobalMemory.read_line",
                  "repro.arch.memory:GlobalMemory.read_lines",
                  "repro.arch.memory:GlobalMemory.write_u32")),
    ("arch.dram", ("repro.arch.dram:DRAMSystem.service",)),
    ("arch.noc", ("repro.arch.noc:Crossbar.send_request",
                  "repro.arch.noc:Crossbar.send_response",
                  "repro.arch.noc:Crossbar.send_write",
                  "repro.arch.stats:NoCStats.flush")),
    ("arch.encode", ("repro.arch.stats:Encoders.data_variants",
                     "repro.arch.stats:Encoders.data_variant_blocks",
                     "repro.arch.stats:Encoders.inst_variants")),
    ("arch.tally", ("repro.arch.stats:TallyBatch.add_line",
                    "repro.arch.stats:TallyBatch.add_inst",
                    "repro.arch.stats:TallyBatch.flush")),
    ("faults", ("repro.faults.model:FaultModel.corrupt_line",
                "repro.faults.model:FaultModel.corrupt_words",
                "repro.faults.model:FaultModel.corrupt_payloads",
                "repro.faults.model:FaultModel.note_fill")),
    ("analysis", ("repro.analysis.parser:build_app_stats",
                  "repro.analysis.isa_profile:profile_binaries")),
    ("power", ("repro.power.chip:ChipModel.evaluate",
               "repro.power.chip:ChipModel.baseline",
               "repro.power.chip:ChipModel.bvf",
               "repro.power.chip:ChipModel.nonbvf_energies",
               "repro.power.chip:ChipModel.unit_energy")),
    ("experiments", ("repro.experiments.registry:EXPERIMENTS[*]",)),
    ("runner", ("repro.runner.sweep:SweepRunner.run",)),
    ("runner.checkpoint", ("repro.runner.checkpoint:Checkpoint.save",)),
    ("obs.metrics", ("repro.obs.report:publish_app_metrics",)),
    ("obs.ledger", ("repro.obs.ledger:RunLedger.emit",)),
    ("obs.merge", ("repro.obs.tracer:Tracer.attach",
                   "repro.obs.metrics:MetricsRegistry.merge")),
    ("obs.sinks", ("repro.obs.report:write_trace_jsonl",
                   "repro.obs.report:write_metrics")),
    ("fidelity", ("repro.fidelity.scorecard:evaluate_claims",)),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Entry points that also open a coarse span, with the span name.
SPANS = {
    "repro.runner.pool:run_unit_attempts": "unit",
    "repro.sim:simulate_app": "simulate_app",
    "repro.arch.gpu:GPUReplay.run": "replay",
    "repro.arch.engine:run_functional": "functional",
}

#: Entry points counted in every sample, traced or not.
COUNTED = ("repro.sim:simulate_app", "repro.arch.gpu:GPUReplay.run")

ALL_ENTRIES = tuple(dict.fromkeys(
    [e for _, group in LAYERS for e in group] + list(SPANS) + list(COUNTED)))

MODEL_FIELDS = ("cycles", "instructions", "noc_flits", "noc_toggles_base",
                "noc_toggles_all", "dram_accesses", "fault_flips")


class LayerClock:
    """Per-layer (calls, self, cum) aggregates over a self-time stack."""

    def __init__(self, names=LAYER_NAMES):
        self.names = tuple(names)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.cum_s = [0.0] * n
        self.depth = [0] * n
        self.stack: List[float] = []  # child time of each open call
        #: Wall time inside outermost timed calls (the telescoped total).
        self.top_s = 0.0

    def timed(self, fn, slot: int):
        """Wrap ``fn`` so its calls accrue to layer ``slot``."""
        calls, self_s, cum_s, depth = (self.calls, self.self_s, self.cum_s,
                                       self.depth)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[slot] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                depth[slot] -= 1
                calls[slot] += 1
                self_s[slot] += elapsed - child
                if not depth[slot]:
                    cum_s[slot] += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_s += elapsed
        return wrapper

    def table(self) -> Dict[str, dict]:
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "cum_s": self.cum_s[i]}
                for i, name in enumerate(self.names)}


class SpanLog:
    """Coarse spans in pre-order: (name, depth, attrs, start, end)."""

    def __init__(self, root: str):
        self.spans: List[list] = [[root, 0, {}, perf_counter(), None]]
        self.open: List[int] = [0]

    def spanned(self, fn, name: str):
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans.append([name, len(open_), _span_attrs(name, args, kwargs),
                          perf_counter(), None])
            index = len(spans) - 1
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][4] = perf_counter()
                open_.pop()
        return wrapper

    def close(self) -> None:
        self.spans[0][4] = perf_counter()

    def to_jsonl(self) -> str:
        """The repository's trace JSONL: one pre-order line per span."""
        lines = []
        for name, depth, attrs, start, end in self.spans:
            wall = None if end is None else round(end - start, 6)
            lines.append(json.dumps({"type": "span", "depth": depth,
                                     "name": name, "wall_s": wall,
                                     "cpu_s": None, "attrs": attrs,
                                     "events": []}, sort_keys=True))
        return "\n".join(lines) + "\n"


def _span_attrs(name: str, args, kwargs) -> dict:
    if name == "unit":
        key = kwargs.get("key", args[2] if len(args) > 2 else None)
        return {"key": key}
    if name == "simulate_app":
        return {"app": getattr(args[0], "name", None)} if args else {}
    if name == "functional":
        return {"app": args[0]} if args else {}
    return {}


class Counters:
    """``model.*`` sums over returned AppStats, simulate_app latencies,
    and replay counts."""

    def __init__(self):
        self.model = dict.fromkeys(MODEL_FIELDS, 0)
        self.sim_ms: List[float] = []
        self.replays = 0
        self.replayed_instructions = 0

    def counted(self, fn, entry: str):
        if entry == "repro.sim:simulate_app":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                faults = kwargs.get("fault_model")
                before = _flips(faults)
                start = perf_counter()
                stats = fn(*args, **kwargs)
                self.sim_ms.append((perf_counter() - start) * 1e3)
                self.add_stats(stats)
                self.model["fault_flips"] += _flips(faults) - before
                return stats
            return wrapper

        @functools.wraps(fn)
        def replay_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.replays += 1
            self.replayed_instructions += int(result.timing.instructions)
            return result
        return replay_wrapper

    def add_stats(self, stats) -> None:
        model = self.model
        toggles = stats.noc_toggles
        model["cycles"] += int(stats.cycles)
        model["instructions"] += int(stats.instructions)
        model["noc_flits"] += int(stats.noc_flits)
        model["noc_toggles_base"] += int(toggles.get("base", 0))
        model["noc_toggles_all"] += int(toggles.get("ALL", 0))
        model["dram_accesses"] += int(stats.dram_accesses)


def _flips(fault_model) -> int:
    if fault_model is None:
        return 0
    return int(fault_model.array_flips) + int(fault_model.noc_flips)


#: Probes currently installed in this process, oldest first.
_INSTALLED: List["Probe"] = []


def _uninstall_in_child() -> None:
    while _INSTALLED:
        _INSTALLED[-1].uninstall()


os.register_at_fork(after_in_child=_uninstall_in_child)


class Probe:
    """Installed wrappers plus what they measure; undo with uninstall."""

    def __init__(self, traced: bool, root: str = "sample"):
        self.traced = traced
        self.clock = LayerClock() if traced else None
        self.spans = SpanLog(root) if traced else None
        self.counters = Counters()
        self.missing: List[str] = []
        #: (owner, attribute, original) in patch order; dict owners are
        #: restored by key, everything else with setattr.
        self._patches: List[tuple] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, entry: str, slot: Optional[int]):
        """Counter, then layer timer, then span: outermost is the span."""
        if entry in COUNTED:
            fn = self.counters.counted(fn, entry)
        if self.traced and slot is not None:
            fn = self.clock.timed(fn, slot)
        if self.traced and entry in SPANS:
            fn = self.spans.spanned(fn, SPANS[entry])
        return fn

    def _patch_entry(self, entry: str, slot: Optional[int]) -> None:
        module_name, _, qualname = entry.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(entry)
            return
        if qualname.endswith("[*]"):
            registry = getattr(module, qualname[:-3], None)
            if not isinstance(registry, dict):
                self.missing.append(entry)
                return
            for key in list(registry):
                original = registry[key]
                registry[key] = self._wrap(original, entry, slot)
                self._patches.append((registry, key, original))
            return
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = (vars(owner).get(attr)
                        if isinstance(owner, type) else None)
            if original is None:
                self.missing.append(entry)
                return
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self._wrap(original.__func__,
                                                    entry, slot))
            else:
                wrapped = self._wrap(original, entry, slot)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(entry)
            return
        wrapped = self._wrap(original, entry, slot)
        # Every module that looked the function up by name holds its
        # own reference; patch them all so no call path escapes.
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original):
                setattr(other, attr, wrapped)
                self._patches.append((other, attr, original))

    def install(self) -> "Probe":
        # Import every module named here first, so the scan for
        # importers below sees them all and uninstall restores them all.
        for entry in ALL_ENTRIES:
            try:
                importlib.import_module(entry.partition(":")[0])
            except ImportError:
                pass
        plan: Dict[str, Optional[int]] = dict.fromkeys(COUNTED)
        if self.traced:
            plan.update(dict.fromkeys(SPANS))
            for slot, (_, entries) in enumerate(LAYERS):
                plan.update(dict.fromkeys(entries, slot))
        for entry, slot in plan.items():
            self._patch_entry(entry, slot)
        _INSTALLED.append(self)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if self in _INSTALLED:
            _INSTALLED.remove(self)
        if self.spans is not None:
            self.spans.close()

    # -- results ----------------------------------------------------------

    def layer_report(self, wall_s: float) -> Optional[dict]:
        """Per-layer self/cum/calls and the untimed remainder."""
        if self.clock is None:
            return None
        table = self.clock.table()
        return {"layers": table,
                "untimed_s": wall_s - self.clock.top_s,
                "self_sum_s": sum(row["self_s"] for row in table.values())}
