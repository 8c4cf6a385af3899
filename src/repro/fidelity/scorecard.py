"""Scorecard engine: run a scale, evaluate claims, render records.

A *scale* decides how much evidence the scorecard is built from —
which experiments run and over which app subset. ``smoke`` (the CI
scale) runs every claim-backing experiment over a 7-app subset chosen
so the paper's ranking claims are exercised (three memory-intensive
apps, three compute-bound ones, plus VEC, the fault-injection
reference app); ``tiny`` is the determinism-test scale (the golden
trio of experiments over the golden app pair); ``full`` is the whole
evaluation over all 58 apps.

The scorecard itself is assembled from finished artifacts only
(:mod:`repro.fidelity.extract`), so its payload is byte-identical at
any ``--jobs`` count; records are written as canonical JSON to
schema-versioned ``FIDELITY_<utc-timestamp>.json`` files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.base import canonical_json
from .claims import CLAIMS, Claim, ClaimResult, required_experiments
from .extract import ArtifactSet

__all__ = ["FIDELITY_SCHEMA", "FIDELITY_SCHEMA_VERSION", "SCALES", "Scale",
           "FidelityRecordError", "build_record", "default_fidelity_path",
           "evaluate_claims", "load_fidelity_record", "render_markdown",
           "render_scorecard", "run_scale", "write_fidelity_record"]

FIDELITY_SCHEMA = "repro-fidelity"
FIDELITY_SCHEMA_VERSION = 1


class FidelityRecordError(Exception):
    """A FIDELITY record file is missing, malformed, or a newer schema."""


def load_fidelity_record(path: str) -> dict:
    """Load and schema-validate one FIDELITY_*.json record.

    A record is a JSON object tagged ``schema`` = :data:`FIDELITY_SCHEMA`
    with an integer ``schema_version`` no newer than
    :data:`FIDELITY_SCHEMA_VERSION` and a ``claims`` table; anything
    else raises :class:`FidelityRecordError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError as exc:
        raise FidelityRecordError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FidelityRecordError(
            f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FidelityRecordError(
            f"{path!r} is not a {FIDELITY_SCHEMA} record")
    if record.get("schema") != FIDELITY_SCHEMA:
        raise FidelityRecordError(
            f"{path!r} is not a {FIDELITY_SCHEMA} record "
            f"(schema={record.get('schema')!r})")
    version = record.get("schema_version")
    if not isinstance(version, int) or version > FIDELITY_SCHEMA_VERSION:
        raise FidelityRecordError(
            f"{path!r} has schema_version {version!r}; this build "
            f"understands <= {FIDELITY_SCHEMA_VERSION}")
    if not isinstance(record.get("claims"), dict):
        raise FidelityRecordError(f"{path!r} has no claims table")
    return record


@dataclass(frozen=True)
class Scale:
    """How much evidence one scorecard run gathers."""

    name: str
    description: str
    #: App names for app-decomposable experiments (None = all 58).
    apps: Optional[Tuple[str, ...]]
    #: Per-experiment app overrides (e.g. the fault-injection sweep
    #: replays one app 9 times — one representative app suffices).
    app_overrides: Mapping[str, Tuple[str, ...]] = \
        field(default_factory=dict)
    #: Experiment subset (None = every claim-backing experiment).
    experiments: Optional[Tuple[str, ...]] = None


#: The smoke app subset: the paper's named memory-intensive winners
#: (ATA, BIC, GES), named compute-bound laggards (BLA, CP, NQU), and
#: VEC — the golden-suite/fault-injection reference app.
SMOKE_APPS = ("ATA", "BIC", "BLA", "CP", "GES", "NQU", "VEC")

#: Experiments that re-simulate the suite under alternative GPU
#: configs (one full replay set per config); three apps keep the smoke
#: scorecard's wall clock in check without losing the shape claims.
_CONFIG_SWEEP_APPS = ("ATA", "GES", "VEC")

SCALES: Dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        description="determinism-test scale: cheap analytic experiments "
                    "+ the golden trio over the golden app pair",
        apps=("ATA", "VEC"),
        app_overrides={"sec7.1-inject": ("VEC",)},
        experiments=("fig01", "fig05", "fig06", "sec3.1-leakage", "fig09",
                     "table2", "sec6.3", "sec7.1", "sec7.1-inject",
                     "sec7.2")),
    "smoke": Scale(
        name="smoke",
        description="CI scale: every claim-backing experiment over a "
                    "7-app subset",
        apps=SMOKE_APPS,
        app_overrides={"fig21": _CONFIG_SWEEP_APPS,
                       "fig22": _CONFIG_SWEEP_APPS,
                       "sec7.1-inject": ("VEC",)}),
    "full": Scale(
        name="full",
        description="the whole evaluation over all 58 apps",
        apps=None),
}


def _scale_plan(scale: Scale) -> List[Tuple[Tuple[str, ...], List[str]]]:
    """Group the scale's experiments by effective app tuple.

    Returns ``[(apps_or_empty, [exp_ids...]), ...]`` in deterministic
    registry order (an empty apps tuple means "the scale default").
    Each group becomes one SweepRunner invocation, so experiments
    sharing an app set also share the process-local simulation caches.
    """
    experiments = (list(scale.experiments) if scale.experiments is not None
                   else required_experiments())
    groups: Dict[Tuple[str, ...], List[str]] = {}
    order: List[Tuple[str, ...]] = []
    for exp_id in experiments:
        apps = tuple(scale.app_overrides.get(exp_id, ()))
        if apps not in groups:
            groups[apps] = []
            order.append(apps)
        groups[apps].append(exp_id)
    return [(apps, groups[apps]) for apps in order]


def run_scale(scale: Scale, jobs: int = 1,
              on_unit_done: Optional[Callable[[str, dict], None]] = None
              ) -> Tuple[ArtifactSet, List[str], List[str]]:
    """Run one scale's experiments.

    Returns ``(artifacts, failed_units, quarantined_units)`` — the two
    unit lists are disjoint: quarantine is a harness outcome (a unit
    that kept killing its worker, recorded as a structured failure by
    the supervisor), so its claims grade *not-run* rather than failing
    the scorecard.

    Experiments are grouped by effective app set and each group runs
    under one observed :class:`~repro.runner.SweepRunner`; group order,
    result merge and metrics merge are all deterministic, so the
    returned artifacts — and any scorecard built from them — are
    byte-identical at any ``jobs`` count.
    """
    from ..kernels import get_app
    from ..obs.metrics import MetricsRegistry
    from ..runner import SweepRunner

    artifacts = ArtifactSet()
    metrics = MetricsRegistry()
    failed: List[str] = []
    quarantined: List[str] = []
    for apps_key, experiments in _scale_plan(scale):
        app_names = apps_key or scale.apps
        apps = ([get_app(name) for name in app_names]
                if app_names is not None else None)
        runner = SweepRunner(experiments=experiments, apps=apps,
                             jobs=jobs, observe=True,
                             on_unit_done=on_unit_done)
        artifacts.add(runner.run())
        if runner.metrics is not None:
            metrics.merge(runner.metrics)
        failed.extend(runner.failed_units)
        quarantined.extend(runner.quarantined_units)
    artifacts.metrics = metrics.to_dict()
    return artifacts, failed, quarantined


def evaluate_claims(artifacts: ArtifactSet,
                    claims: Sequence[Claim] = CLAIMS) -> List[ClaimResult]:
    """Evaluate every claim against one artifact set, registry order."""
    return [claim.evaluate(artifacts) for claim in claims]


def build_record(results: Sequence[ClaimResult], scale: str,
                 failed_units: Sequence[str] = (),
                 quarantined_units: Sequence[str] = (),
                 created_utc: Optional[str] = None) -> dict:
    """Assemble the FIDELITY record dict for a finished evaluation.

    ``created_utc`` is a parameter (not sampled here) so tests and the
    byte-identity suite can pin it; the CLI stamps real time.
    ``quarantined_units`` records harness-level quarantines (their
    claims grade not-run); the key is only present when nonempty so
    fault-free records are byte-unchanged.
    """
    if created_utc is None:
        created_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    counts = {verdict: 0 for verdict in
              ("pass", "degraded", "fail", "not-run")}
    for result in results:
        counts[result.verdict] = counts.get(result.verdict, 0) + 1
    record = {
        "schema": FIDELITY_SCHEMA,
        "schema_version": FIDELITY_SCHEMA_VERSION,
        "scale": scale,
        "created_utc": created_utc,
        "failed_units": list(failed_units),
        "claims": {r.claim_id: r.to_dict() for r in results},
        "summary": counts,
    }
    if quarantined_units:
        record["quarantined_units"] = list(quarantined_units)
    return record


def default_fidelity_path() -> str:
    """``FIDELITY_<utc-timestamp>.json`` in the current directory."""
    return time.strftime("FIDELITY_%Y%m%dT%H%M%SZ.json", time.gmtime())


def write_fidelity_record(record: dict, path: str) -> bool:
    """Write a FIDELITY record as canonical JSON (best-effort sink)."""
    from ..obs.report import write_text_sink
    return write_text_sink(path, canonical_json(record),
                           "fidelity record")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _record_results(record: dict) -> List[dict]:
    """Claim entries of a loaded record, registry order then alphabetic.

    Claims the loaded record knows but the current registry does not
    (or vice versa) still render: registry order first, leftovers in
    name order — so ``report --record`` is honest about old records.
    """
    claims = record["claims"]
    ordered = [claim.claim_id for claim in CLAIMS
               if claim.claim_id in claims]
    ordered += sorted(set(claims) - set(ordered))
    return [{"claim_id": claim_id, **claims[claim_id]}
            for claim_id in ordered]


def render_scorecard(record: dict) -> str:
    """Plain-text scorecard table for the CLI."""
    header = (f"{'claim':<32} {'anchor':<9} {'kind':<8} {'expected':>10} "
              f"{'measured':>10}  verdict")
    lines = [header, "-" * len(header)]
    for entry in _record_results(record):
        verdict = entry["verdict"]
        shown = verdict.upper() if verdict == "fail" else verdict
        if entry.get("calibrated"):
            shown += " *"
        lines.append(
            f"{entry['claim_id']:<32} {entry['anchor']:<9} "
            f"{entry['kind']:<8} {_fmt(entry.get('expected')):>10} "
            f"{_fmt(entry.get('measured')):>10}  {shown}")
    lines.append("-" * len(header))
    counts = record.get("summary", {})
    lines.append(
        f"scale={record.get('scale', '?')}: " +
        ", ".join(f"{counts.get(v, 0)} {v}"
                  for v in ("pass", "degraded", "fail", "not-run")) +
        "  (* = calibrated claim: hard CI gate)")
    return "\n".join(lines)


def render_markdown(record: dict) -> str:
    """The generated EXPERIMENTS.md claims table, grouped by section.

    Contains no timestamps or host details, so regenerating from the
    same record (or an identical re-run) is byte-stable.
    """
    sections: Dict[str, List[dict]] = {}
    order: List[str] = []
    for entry in _record_results(record):
        section = entry.get("section", "Other")
        if section not in sections:
            sections[section] = []
            order.append(section)
        sections[section].append(entry)

    counts = record.get("summary", {})
    lines = [
        f"Scale: `{record.get('scale', '?')}` — " +
        ", ".join(f"{counts.get(v, 0)} {v}"
                  for v in ("pass", "degraded", "fail", "not-run")) + ".",
        "",
    ]
    for section in order:
        lines.append(f"### {section}")
        lines.append("")
        lines.append("| Anchor | Claim | Kind | Paper | Measured | "
                     "Verdict |")
        lines.append("|---|---|---|---|---|---|")
        for entry in sections[section]:
            verdict = entry["verdict"]
            badge = {"pass": "✅ pass", "degraded": "🟡 degraded",
                     "fail": "❌ fail", "not-run": "⚪ not-run"}.get(
                         verdict, verdict)
            if entry.get("calibrated"):
                badge += " †"
            lines.append(
                f"| {entry['anchor']} | {entry['description']} "
                f"| {entry['kind']} | {_fmt(entry.get('expected'))} "
                f"| {_fmt(entry.get('measured'))} | {badge} |")
        lines.append("")
    lines.append("† calibrated claim (scale-independent, exact): CI "
                 "hard-fails if it ever reads `fail`.")
    return "\n".join(lines)
