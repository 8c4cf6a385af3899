"""Workload bodies of the end-to-end benchmark, and the sample process.

One *sample* is one fresh Python process running one workload body:

    python benchmarks/e2e/workloads.py '<spec json>'

It prints one JSON result line. Set-up (imports, app registry, any
warm-up the workload needs) is timed from the parent's spawn timestamp
to the moment the body is ready; the body is timed on its own.

The sweeps run one of the scorecard's scales
(``repro.fidelity.scorecard.SCALES``): its experiments, its apps and
its per-experiment app overrides. ``suite-replay`` simulates its own
app list (all 58 apps unless the spec names others). The program
receives only these app lists, each shuffled by a seed-derived order;
every result is merged in sorted key order by the program itself, so
the output digests must not depend on the order.

Each body returns an :class:`Outcome`: how many operations (sweep units
or simulated apps) it attempted, their latencies, failures, digests of
its outputs and workload-specific extras.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Experiments whose units never replay once the caches are warm.
COLD_ONLY_EXPERIMENTS = ("fig21", "fig22", "sec7.1-inject")

#: Warm sweeps per figures-warm sample.
WARM_SWEEPS = 4


@dataclass
class Outcome:
    """What one workload body did."""

    ops: int
    op_ms: List[float]
    failed: int = 0
    mismatches: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    from repro.experiments.base import canonical_json
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _result_digests(results) -> Dict[str, str]:
    return {result.exp_id: _digest(result.to_dict()) for result in results}


def app_order(names: Sequence[str], seed: str) -> List[str]:
    """``names`` shuffled by a seed-derived order."""
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def seeded_scale(scale, seed: str):
    """``scale`` with its app list (all 58 apps when it names none) and
    each override's app list shuffled by a seed-derived order."""
    from repro.kernels import all_apps
    apps = scale.apps or [app.name for app in all_apps()]
    return replace(
        scale, apps=tuple(app_order(apps, seed)),
        app_overrides={exp: tuple(app_order(names, f"{seed}/{exp}"))
                       for exp, names in scale.app_overrides.items()})


def sweep_plan(scale) -> List[Tuple[list, List[str]]]:
    """(apps, experiment ids) of each sweep a scale runs, grouped by app
    set as ``scorecard.run_scale`` groups them (``scale.apps`` set)."""
    from repro.fidelity.claims import required_experiments
    from repro.kernels import get_app
    groups: Dict[Tuple[str, ...], List[str]] = {}
    for exp in scale.experiments or required_experiments():
        names = scale.app_overrides.get(exp, scale.apps)
        groups.setdefault(tuple(names), []).append(exp)
    return [([get_app(name) for name in names], exps)
            for names, exps in groups.items()]


def warm_plan(scale) -> List[Tuple[list, List[str]]]:
    """The sweeps of the scale's experiments that never replay once the
    caches are warm."""
    plan = [(apps, [e for e in exps if e not in COLD_ONLY_EXPERIMENTS])
            for apps, exps in sweep_plan(scale)]
    return [(apps, exps) for apps, exps in plan if exps]


class _UnitClock:
    """``on_unit_done`` callback timing consecutive unit completions."""

    def __init__(self):
        self.op_ms: List[float] = []
        self.records: List[dict] = []
        self.restart()

    def restart(self) -> None:
        self.last = perf_counter()

    def __call__(self, key: str, record: dict) -> None:
        now = perf_counter()
        self.op_ms.append((now - self.last) * 1e3)
        self.last = now
        self.records.append(record)


# ---------------------------------------------------------------------------
# Workload bodies
# ---------------------------------------------------------------------------

def paper_rel_error(claim_results) -> float:
    """Mean |measured - paper| / |paper| over two-sided value claims."""
    from repro.fidelity.claims import CLAIMS, ValueClaim
    two_sided = {claim.claim_id for claim in CLAIMS
                 if isinstance(claim, ValueClaim)
                 and claim.direction == "two-sided"}
    errors = [abs(r.measured - r.expected) / abs(r.expected)
              for r in claim_results
              if r.claim_id in two_sided and r.verdict != "not-run"
              and r.measured is not None and r.expected]
    return sum(errors) / len(errors) if errors else 0.0


def paper_serial(scale, ctx) -> Outcome:
    """The scorecard end to end at ``scale``, serial, then claim grading
    (``repro fidelity run --scale <scale>``)."""
    from repro.fidelity import scorecard
    clock = _UnitClock()
    artifacts, failed, quarantined = scorecard.run_scale(
        scale, jobs=1, on_unit_done=clock)
    claims = scorecard.evaluate_claims(artifacts)
    broken = [r.claim_id for r in claims
              if r.calibrated and r.verdict == "fail"]
    return Outcome(
        ops=len(clock.op_ms), op_ms=clock.op_ms,
        failed=len(failed) + len(quarantined), mismatches=len(broken),
        digests=_result_digests(artifacts.results.values()),
        extra={"claims_pass": sum(r.verdict == "pass" for r in claims),
               "paper_rel_error": paper_rel_error(claims)})


def paper_durable(scale, ctx) -> Outcome:
    """``run all --jobs 2 --checkpoint ck.json --ledger run.jsonl`` over
    each of the scale's sweeps (the full scale has one)."""
    from repro.obs.ledger import read_ledger, validate_ledger
    from repro.runner import Checkpoint, SweepRunner
    jobs = 2
    clock = _UnitClock()
    digests: Dict[str, str] = {}
    failed = mismatches = 0
    sweep_wall = checkpoint_mb = 0.0
    types: List[str] = []
    for i, (apps, experiments) in enumerate(sweep_plan(scale)):
        checkpoint = os.path.join(ctx.tmp, f"ck{i}.json")
        ledger = os.path.join(ctx.tmp, f"run{i}.jsonl")
        runner = SweepRunner(experiments=experiments, apps=apps, jobs=jobs,
                             checkpoint_path=checkpoint, ledger_path=ledger,
                             on_unit_done=clock)
        start = perf_counter()
        digests.update(_result_digests(runner.run()))
        sweep_wall += perf_counter() - start
        failed += len(runner.failed_units) + len(runner.quarantined_units)
        # The durable artifacts must round-trip: every unit reloads from
        # the checkpoint as written, and the ledger is schema-valid.
        if Checkpoint.load(checkpoint).records != runner.checkpoint.records:
            mismatches += 1
        events = read_ledger(ledger)
        if validate_ledger(events):
            mismatches += 1
        types += [event.get("type") for event in events]
        checkpoint_mb = max(checkpoint_mb, os.path.getsize(checkpoint) / 1e6)
    unit_walls = [float(rec.get("unit_wall_s") or 0.0)
                  for rec in clock.records]
    return Outcome(
        ops=len(clock.records), op_ms=[w * 1e3 for w in unit_walls],
        failed=failed, mismatches=mismatches, digests=digests,
        extra={"pool_busy_frac": sum(unit_walls) / (jobs * sweep_wall),
               "pool_dispatches": types.count("unit_attempt"),
               "pool_requeues": (types.count("straggler_requeue")
                                 + types.count("unit_redispatch")),
               "checkpoint_mb": checkpoint_mb})


def suite_replay(scale, ctx) -> Outcome:
    """One cold functional pass and one clean replay per app of
    ``ctx.suite_apps`` (the scale is not used)."""
    from repro import sim
    from repro.arch.config import BASELINE_CONFIG
    apps = ctx.suite_apps
    sim.clear_caches()
    ctx.probe.counters.sim_ms.clear()
    suite = sim.simulate_suite(apps, config=BASELINE_CONFIG)
    per_app = {}
    for name in sorted(suite.apps):
        stats = suite.apps[name]
        per_app[name] = {
            "counts": {f"{unit.name}/{variant}": counts.as_dict()
                       for (unit, variant), counts
                       in sorted(stats.counts.items(),
                                 key=lambda kv: (kv[0][0].name, kv[0][1]))},
            "noc_toggles": stats.noc_toggles, "cycles": stats.cycles,
            "cache_stats": stats.cache_stats}
    missing = len(apps) - len(suite.apps)
    return Outcome(ops=len(apps), op_ms=list(ctx.probe.counters.sim_ms),
                   mismatches=missing, digests={"suite": _digest(per_app)})


def figures_warm_setup(scale, ctx) -> None:
    """One cold pass fills the process's simulation caches."""
    from repro.runner import SweepRunner
    for apps, experiments in warm_plan(scale):
        SweepRunner(experiments=experiments, apps=apps).run()


def figures_warm(scale, ctx) -> Outcome:
    """Back-to-back warm sweeps with trace, metrics and ledger sinks."""
    from repro.runner import SweepRunner
    plan = warm_plan(scale)
    clock = _UnitClock()
    failed = 0
    digests: Optional[Dict[str, str]] = None
    mismatches = 0
    for sweep in range(WARM_SWEEPS):
        current: Dict[str, str] = {}
        for i, (apps, experiments) in enumerate(plan):
            stem = os.path.join(ctx.tmp, f"warm{sweep}-{i}")
            runner = SweepRunner(experiments=experiments, apps=apps,
                                 trace_path=stem + ".trace.jsonl",
                                 metrics_path=stem + ".metrics.json",
                                 ledger_path=stem + ".jsonl",
                                 on_unit_done=clock)
            clock.restart()
            current.update(_result_digests(runner.run()))
            failed += (len(runner.failed_units)
                       + len(runner.quarantined_units))
        if digests is None:
            digests = current
        elif current != digests:
            mismatches += 1
    return Outcome(ops=len(clock.op_ms), op_ms=clock.op_ms, failed=failed,
                   mismatches=mismatches, digests=digests or {})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    body: Callable
    setup: Optional[Callable] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-serial",
             "the paper deliverable end to end: every layer and cache does "
             "real work, and it is the only workload graded against the "
             "paper's numbers",
             paper_serial),
    Workload("paper-durable",
             "the same simulation through the process pool with durable "
             "checkpoint and ledger writes: pool, checkpoint and ledger "
             "costs paper-serial never pays",
             paper_durable),
    Workload("suite-replay",
             "one functional pass and one clean replay per app, no reuse: "
             "isolates the clean replay data path; control for cache and "
             "skip changes",
             suite_replay),
    Workload("figures-warm",
             "warm sweeps that never replay: runner, experiment, power and "
             "observability costs; control for replay changes",
             figures_warm, setup=figures_warm_setup),
)}


# ---------------------------------------------------------------------------
# The sample process
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """Per-sample scratch: a temp dir inside the checkout, suite-replay's
    apps, the probe."""

    tmp: str
    suite_apps: list
    probe: object = None


def _reap_children() -> None:
    """Join worker processes the body left behind before reading RSS."""
    for child in multiprocessing.active_children():
        child.join(30)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) * 1024 / 1e6


def run_sample(spec: dict) -> dict:
    """Set up, run and measure one workload body in this process.

    ``spec`` names the workload, the scorecard ``scale`` of the sweeps,
    ``suite_apps`` (None: all 58), the ``order_seed``, whether to
    ``trace``, the ``trace_path``, the ``workdir`` and ``spawned_at``.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from layers import Probe
    from repro.fidelity.scorecard import SCALES
    from repro.kernels import all_apps, get_app

    workload = WORKLOADS[spec["workload"]]
    seed = spec["order_seed"]
    scale = seeded_scale(SCALES[spec["scale"]], seed)
    suite = spec.get("suite_apps") or [app.name for app in all_apps()]
    os.makedirs(spec["workdir"], exist_ok=True)
    ctx = Context(tmp=os.path.join(spec["workdir"], f"sample-{os.getpid()}"),
                  suite_apps=[get_app(name)
                              for name in app_order(suite, seed)])
    os.makedirs(ctx.tmp, exist_ok=True)
    try:
        if workload.setup is not None:
            workload.setup(scale, ctx)
        setup_s = time.time() - spec["spawned_at"]
        ctx.probe = probe = Probe(traced=bool(spec.get("trace")),
                                  root=workload.name).install()
        start = perf_counter()
        try:
            outcome = workload.body(scale, ctx)
        finally:
            wall = perf_counter() - start
            probe.uninstall()
        _reap_children()
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    result = {
        "workload": workload.name, "setup_s": setup_s, "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": outcome.ops, "op_ms": outcome.op_ms,
        "failed": outcome.failed, "mismatches": outcome.mismatches,
        "digests": outcome.digests, "extra": outcome.extra,
        "model": probe.counters.model,
        "replays": probe.counters.replays,
        "replayed_instructions": probe.counters.replayed_instructions,
        "missing_entry_points": probe.missing,
        "layers": probe.layer_report(wall),
    }
    if probe.spans is not None and spec.get("trace_path"):
        with open(spec["trace_path"], "a", encoding="utf-8") as fh:
            fh.write(probe.spans.to_jsonl())
    return result


if __name__ == "__main__":
    print(json.dumps(run_sample(json.loads(sys.argv[1]))))
