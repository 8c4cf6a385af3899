"""Top-level simulation orchestrator: apps -> AppStats, with caching.

One full run of an application is: build its buffers and launches,
execute functionally (phase 1: traces + REG/SME tallies + data
profiles), derive/receive the ISA mask, replay under a scheduler
(phase 2: cache/L2/NoC/IFB tallies + timing), and assemble
:class:`~repro.analysis.parser.AppStats`.

The suite pipeline mirrors the paper's two-step methodology: the ISA
mask is extracted from the *whole corpus* of static binaries first
(Section 4.3's static method), then every app is replayed with that
single architecture-wide mask.

Results are memoised per (app, config, pivot) in-process so the many
experiments and benchmarks that share a configuration simulate it once.
The caches are process-local by design: parallel sweeps
(``repro.runner`` with ``jobs > 1``) fork workers that each warm their
own copy, which keeps the memoisation lock-free and the results
independent of how units are scheduled. Cache state never influences
simulated numbers — only whether they are recomputed — so serial and
parallel sweeps agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .analysis.isa_profile import ISAProfile, profile_binaries
from .analysis.parser import AppStats, build_app_stats
from .analysis.profiling import Profiler
from .arch.config import BASELINE_CONFIG, GPUConfig
from .arch.engine import run_functional
from .arch.gpu import GPUReplay
from .arch.memory import GlobalMemory
from .arch.stats import Encoders
from .obs.metrics import current_registry, metric_inc
from .obs.tracer import trace_span

__all__ = ["SuiteResult", "simulate_app", "simulate_suite", "clear_caches",
           "work_counts"]

_FUNCTIONAL_CACHE: Dict[tuple, tuple] = {}
_STATS_CACHE: Dict[tuple, AppStats] = {}

#: Cold phase-1 passes and replays this process has run — the work the
#: caches did not spare. Never reset; callers take differences.
_WORK = {"functional_passes": 0, "replays": 0}


def work_counts() -> Dict[str, int]:
    """Snapshot of the cold functional passes and replays run so far."""
    return dict(_WORK)


def clear_caches() -> None:
    """Drop memoised simulation results (mainly for tests)."""
    _FUNCTIONAL_CACHE.clear()
    _STATS_CACHE.clear()


@dataclass
class SuiteResult:
    """Results of one suite sweep at one configuration."""

    config: GPUConfig
    isa_profile: ISAProfile
    apps: Dict[str, AppStats]

    def mean_over_apps(self, fn) -> float:
        values = [fn(stats) for stats in self.apps.values()]
        return float(np.mean(values)) if values else 0.0

    @property
    def app_names(self) -> List[str]:
        return sorted(self.apps)


def _functional_pass(app, pivot_lane: int) -> tuple:
    """Phase 1 for one app (cached: scheduler/voltage don't affect it)."""
    key = (app.name, pivot_lane)
    cached = _FUNCTIONAL_CACHE.get(key)
    if cached is not None:
        return cached
    _WORK["functional_passes"] += 1
    with trace_span("functional", app=app.name) as span:
        mem = GlobalMemory(size_bytes=app.memory_bytes)
        rng = np.random.default_rng(app.seed)
        launches = app.build(mem, rng)
        if not launches:
            raise ValueError(f"app {app.name!r} produced no launches")
        profiler = Profiler()
        # The ISA mask does not affect phase-1 tallies (REG/SME are data
        # units), so phase 1 runs with a placeholder mask.
        encoders = Encoders(isa_mask=0, pivot_lane=pivot_lane)
        result = run_functional(app.name, mem, launches, encoders,
                                profiler=profiler)
        if span is not None:
            span.set(launches=len(launches),
                     blocks=sum(l.n_blocks for l in launches),
                     warps=sum(l.n_blocks * l.warps_per_block
                               for l in launches),
                     image_bytes=result.trace.initial_image.nbytes)
    cached = (result, profiler)
    _FUNCTIONAL_CACHE[key] = cached
    return cached


def simulate_app(app, config: GPUConfig = BASELINE_CONFIG,
                 isa_mask: Optional[int] = None,
                 pivot_lane: int = 21,
                 fault_model=None) -> AppStats:
    """Simulate one application end to end.

    When ``isa_mask`` is None the mask is derived from the app's own
    static binary (useful standalone; suite sweeps pass the corpus-wide
    mask instead).

    ``fault_model`` (a :class:`repro.faults.FaultModel`) injects bit
    errors into the replay phase's array reads and NoC flits. Faulted
    runs bypass the result cache — the model is stateful (its RNG
    stream and counters advance with every read) — and leave phase 1
    untouched: the functional execution models the computation, the
    faults model the storage it is replayed through. A model that
    cannot flip (``p_flip == 0``) is no model: the run takes the cached
    clean path and only publishes its zero flip counts.
    """
    with trace_span("simulate_app", app=app.name) as span:
        functional, profiler = _functional_pass(app, pivot_lane)
        if isa_mask is None:
            from .core.masks import derive_mask
            isa_mask = derive_mask(functional.trace.static_binary)

        key = (app.name, pivot_lane, isa_mask, config)
        faulty = fault_model is not None and fault_model.p_flip > 0.0
        stats = None if faulty else _STATS_CACHE.get(key)
        cache_hit = stats is not None
        flips_before = _fault_flip_counts(fault_model)
        if stats is None:
            encoders = Encoders(isa_mask=isa_mask, pivot_lane=pivot_lane)
            _WORK["replays"] += 1
            replay = GPUReplay(config, encoders,
                               fault_model=fault_model if faulty else None
                               ).run(functional.trace)
            stats = build_app_stats(
                app.name,
                functional_tally=functional.tally,
                replay_result=replay,
                narrow=profiler.narrow,
                lanes=profiler.lanes,
                static_binary=functional.trace.static_binary,
                freq_mhz=config.freq_mhz,
            )
            if not faulty:
                _STATS_CACHE[key] = stats
        _publish_fault_flips(fault_model, flips_before)

        if span is not None:
            span.set(cycles=stats.cycles, instructions=stats.instructions,
                     memoised=cache_hit)
        # Published on every return — memoisation hit or cold run alike —
        # so sweep metrics are independent of cache warmth and job count.
        if current_registry() is not None:
            from .obs.report import publish_app_metrics
            publish_app_metrics(stats)
        return stats


def _fault_flip_counts(fault_model) -> tuple:
    if fault_model is None:
        return (0, 0)
    return (fault_model.array_flips, fault_model.noc_flips)


def _publish_fault_flips(fault_model, before: tuple) -> None:
    """Metrics for the flips this replay injected (counter deltas, so a
    reused model's running totals are never double-counted)."""
    if fault_model is None:
        return
    metric_inc("fault_flips_total",
               fault_model.array_flips - before[0], {"site": "array"},
               help_text="injected bit flips")
    metric_inc("fault_flips_total",
               fault_model.noc_flips - before[1], {"site": "noc"})


def simulate_suite(apps: Iterable, config: GPUConfig = BASELINE_CONFIG,
                   pivot_lane: int = 21) -> SuiteResult:
    """Run the paper's two-step pipeline over a set of applications."""
    apps = list(apps)
    if not apps:
        raise ValueError("no applications given")
    binaries = {}
    for app in apps:
        functional, __ = _functional_pass(app, pivot_lane)
        binaries[app.name] = functional.trace.static_binary
    isa_profile = profile_binaries(binaries)

    results = {
        app.name: simulate_app(app, config, isa_mask=isa_profile.mask,
                               pivot_lane=pivot_lane)
        for app in apps
    }
    return SuiteResult(config=config, isa_profile=isa_profile, apps=results)
