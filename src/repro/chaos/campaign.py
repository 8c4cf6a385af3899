"""Named chaos campaigns and the survival matrix.

A campaign is a fixed list of scenarios, each a :class:`ChaosPlan`
spec aimed at one class of harness fault (worker SIGKILL, torn
checkpoint writes, SIGTERM draining, and an everything-at-once
finale). :func:`run_campaign` runs every scenario against a small
reference sweep and checks the survival contract:

* the sweep **completes** (graceful-drain interrupts are resumed,
  bounded);
* merged results are **byte-identical** to a fault-free golden run;
* the finished checkpoint's **digest** (keys, statuses, payloads —
  volatile timing fields stripped) matches the fault-free digest;
* **no debris**: no orphaned ``*.tmp`` files next to the checkpoint;
* **no quarantine**: every injected fault was recoverable, so no unit
  was written off.

The scenarios only schedule faults the hardened runner is required to
absorb — that is the point: the survival matrix is the machine-checked
claim that chaos cannot move the science.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .plan import ChaosPlan

__all__ = ["CAMPAIGNS", "CampaignScenario", "checkpoint_digest",
           "render_survival_matrix", "run_campaign"]

#: The reference sweep: the golden trio over the golden app pair —
#: two per-app experiments plus one whole-experiment driver, cheap
#: enough to run once per scenario yet shaped like a real sweep.
REFERENCE_EXPERIMENTS = ("fig09", "table2", "sec3.1-leakage")
REFERENCE_APPS = ("ATA", "VEC")

#: Bound on resume-after-drain cycles per scenario; a plan delivers at
#: most ``max_signals`` signals, so this can only be hit by a bug.
MAX_RESUMES = 5


@dataclass(frozen=True)
class CampaignScenario:
    """One named fault schedule inside a campaign."""

    name: str
    description: str
    rates: Dict[str, float]
    times: int = 1
    max_signals: int = 1


CAMPAIGNS: Dict[str, Tuple[CampaignScenario, ...]] = {
    "smoke": (
        CampaignScenario(
            "worker-sigkill", "every unit's first dispatch is SIGKILLed",
            {"kill": 1.0}),
        CampaignScenario(
            "worker-exit", "workers exit nonzero mid-unit",
            {"exit": 0.7}),
        CampaignScenario(
            "corrupt-result", "workers return mangled records",
            {"corrupt": 1.0}),
        CampaignScenario(
            "torn-checkpoint", "checkpoint writes die at byte k",
            {"torn": 0.5}, times=2),
        CampaignScenario(
            "ckpt-enospc-eacces", "checkpoint saves hit full-disk and "
            "permission errors plus stale tmp debris",
            {"enospc": 0.5, "eacces": 0.4, "stale_tmp": 0.5}, times=2),
        CampaignScenario(
            "sigterm-drain", "SIGTERM lands right after a unit records",
            {"sigterm": 0.6}),
        CampaignScenario(
            "sigterm-mid-merge", "SIGTERM lands at the start of the "
            "result merge",
            {"sigterm_merge": 1.0}),
        CampaignScenario(
            "everything", "kills, corrupt results, torn writes and a "
            "drain in one sweep",
            {"kill": 0.4, "corrupt": 0.3, "torn": 0.4,
             "enospc": 0.3, "sigterm": 0.3}, times=1),
    ),
}

#: Record fields that legitimately differ between a chaotic and a
#: fault-free run (timings, retry accounting, obs measurements,
#: process identity, recomputation that depends on cache warmth and
#: job count) — everything else must match exactly.
_VOLATILE_RECORD_FIELDS = ("attempts", "wall_s", "unit_wall_s", "obs",
                           "dispatches", "pid", "timeouts",
                           "functional_passes", "replays")


def checkpoint_digest(records: Dict[str, dict]) -> str:
    """Content digest of a checkpoint's scientific payload.

    Strips the fields chaos is allowed to move (wall times, attempt
    counts, per-unit obs measurements) and hashes the rest in sorted
    key order — two sweeps agree on this digest iff they completed the
    same units with the same statuses and byte-identical payloads.
    """
    stripped = {}
    for key in sorted(records):
        rec = {k: v for k, v in records[key].items()
               if k not in _VOLATILE_RECORD_FIELDS}
        stripped[key] = rec
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _merged_bytes(results) -> str:
    from ..experiments.base import canonical_json
    return canonical_json([r.to_dict() for r in results])


def _reference_runner(experiments, apps, **kwargs):
    from ..kernels import get_app
    from ..runner import SweepRunner
    return SweepRunner(experiments=list(experiments),
                       apps=[get_app(name) for name in apps],
                       **kwargs)


def run_scenario(scenario: CampaignScenario, seed: int, jobs: int,
                 baseline: Tuple[str, str],
                 experiments: Sequence[str] = REFERENCE_EXPERIMENTS,
                 apps: Sequence[str] = REFERENCE_APPS,
                 workdir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None) -> dict:
    """Run one scenario; return its survival-matrix row."""
    from ..runner import SweepInterrupted

    base_bytes, base_digest = baseline
    plan = ChaosPlan(seed=seed, rates=dict(scenario.rates),
                     times=scenario.times,
                     max_signals=scenario.max_signals)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="chaos-")
    os.makedirs(workdir, exist_ok=True)
    ckpt = os.path.join(workdir, f"{scenario.name}.json")

    resumes = 0
    results = None
    error = None
    runner = None
    try:
        while True:
            runner = _reference_runner(
                experiments, apps, jobs=jobs, chaos=plan,
                checkpoint_path=ckpt, resume=resumes > 0)
            try:
                results = runner.run()
                break
            except SweepInterrupted:
                resumes += 1
                if log:
                    log(f"  {scenario.name}: drained, resume "
                        f"{resumes}/{MAX_RESUMES}")
                if resumes > MAX_RESUMES:
                    error = "resume budget exhausted"
                    break
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        error = f"{type(exc).__name__}: {exc}"

    completed = results is not None
    identical = completed and _merged_bytes(results) == base_bytes
    digest_ok = (completed
                 and checkpoint_digest(runner.checkpoint.records)
                 == base_digest)
    debris = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(glob.escape(workdir), "*.tmp"))
        + glob.glob(os.path.join(glob.escape(workdir), ".*.tmp")))
    quarantined = list(runner.quarantined_units) if runner else []
    row = {
        "scenario": scenario.name,
        "description": scenario.description,
        "faults": dict(scenario.rates),
        "completed": completed,
        "resumes": resumes,
        "results_identical": identical,
        "checkpoint_digest_identical": digest_ok,
        "no_tmp_debris": not debris,
        "tmp_debris": debris,
        "quarantined_units": quarantined,
        "stats": None if runner is None else {
            "run": runner.stats.run, "failed": runner.stats.failed,
            "redispatched": runner.stats.redispatched,
            "quarantined": runner.stats.quarantined,
            "checkpoint_save_failures": runner.checkpoint.save_failures,
        },
        "error": error,
    }
    row["survived"] = bool(completed and identical and digest_ok
                           and not debris and not quarantined
                           and error is None)
    return row


def run_campaign(name: str = "smoke", seed: int = 1234, jobs: int = 2,
                 experiments: Sequence[str] = REFERENCE_EXPERIMENTS,
                 apps: Sequence[str] = REFERENCE_APPS,
                 scenarios: Optional[Sequence[CampaignScenario]] = None,
                 log: Optional[Callable[[str], None]] = None) -> dict:
    """Run every scenario of a named campaign; return the report dict.

    The fault-free golden reference runs first (serially, no chaos);
    every scenario is then judged against its merged bytes and
    checkpoint digest. The report is JSON-serialisable and carries a
    top-level ``survived_all`` for the CI gate.
    """
    if scenarios is None:
        scenarios = CAMPAIGNS[name]
    if log:
        log(f"chaos campaign {name!r}: seed={seed} jobs={jobs} "
            f"sweep={list(experiments)} x {list(apps)}")
    reference = _reference_runner(experiments, apps, jobs=1)
    base_results = reference.run()
    if reference.failed_units:
        raise RuntimeError(
            f"fault-free reference sweep has failed units "
            f"{reference.failed_units}; campaign aborted")
    baseline = (_merged_bytes(base_results),
                checkpoint_digest(reference.checkpoint.records))

    rows: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="chaos-campaign-") as workdir:
        for scenario in scenarios:
            row = run_scenario(scenario, seed=seed, jobs=jobs,
                               baseline=baseline, experiments=experiments,
                               apps=apps,
                               workdir=os.path.join(workdir, scenario.name),
                               log=log)
            rows.append(row)
            if log:
                verdict = "survived" if row["survived"] else "FAILED"
                log(f"  {scenario.name}: {verdict}")
    return {
        "campaign": name,
        "seed": seed,
        "jobs": jobs,
        "experiments": list(experiments),
        "apps": list(apps),
        "scenarios": rows,
        "survived_all": all(row["survived"] for row in rows),
    }


_CHECKS = (("completed", "complete"),
           ("results_identical", "bytes=="),
           ("checkpoint_digest_identical", "ckpt=="),
           ("no_tmp_debris", "no-debris"),
           )


def render_survival_matrix(report: dict) -> str:
    """Fixed-width survival matrix for terminals and CI logs."""
    name_w = max([len("scenario")]
                 + [len(r["scenario"]) for r in report["scenarios"]])
    header = (f"{'scenario':<{name_w}}  " +
              "  ".join(f"{label:>9}" for _, label in _CHECKS) +
              f"  {'resumes':>7}  {'quar':>4}  verdict")
    lines = [f"chaos campaign {report['campaign']!r} "
             f"(seed={report['seed']}, jobs={report['jobs']})",
             header, "-" * len(header)]
    for row in report["scenarios"]:
        cells = "  ".join(
            f"{'yes' if row[key] else 'NO':>9}" for key, _ in _CHECKS)
        verdict = "survived" if row["survived"] else "FAILED"
        if row["error"]:
            verdict += f" ({row['error']})"
        lines.append(
            f"{row['scenario']:<{name_w}}  {cells}  "
            f"{row['resumes']:>7}  {len(row['quarantined_units']):>4}  "
            f"{verdict}")
    lines.append("-" * len(header))
    total = len(report["scenarios"])
    survived = sum(r["survived"] for r in report["scenarios"])
    lines.append(f"{survived}/{total} scenarios survived"
                 + ("" if report["survived_all"]
                    else " — HARNESS NOT CHAOS-SAFE"))
    return "\n".join(lines)
