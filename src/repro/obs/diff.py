"""`repro obs diff`: cross-run comparison of observability artifacts.

Answers "did PR N change what this sweep *does*, not just its bytes"
as a one-command question, by aligning two runs' artifacts on their
stable identities and reporting deltas with the bench-style verdict
vocabulary and exit-code contract:

* **span trees** (trace JSONL files) align by *name-path* — the
  ``/``-joined span names from the root down, enriched with the
  identifying ``key``/``app`` attrs so
  ``sweep/unit[fig18::BFS]/simulate_app`` is one row regardless of
  worker count or completion order. Wall/CPU shifts past both a
  relative threshold and an absolute floor grade ``regression`` /
  ``improved``; a path present in only one run grades ``new`` /
  ``missing`` — those are *structural* changes, the strongest signal
  that a run now does different work.
* **metrics snapshots** (``--metrics-out`` JSON) align by
  ``family{labels}`` series identity. Counters and gauges are exact
  by the determinism contract, so any value change grades ``changed``
  (volatile families — RSS, supervision counters — are skipped the
  same way the golden suite strips them).
* **run ledgers** align per unit key after
  :func:`~repro.obs.ledger.normalize_events`: a unit whose normalized
  lifecycle differs (extra retries, a new quarantine, different final
  status) grades ``changed``.

Verdicts: ``ok`` / ``regression`` / ``improved`` (timing, gated by
thresholds) and ``changed`` / ``new`` / ``missing`` (semantic).
``--gate`` turns any of the latter three plus ``regression`` into
exit code 1. Alignment, rendering and gating are the
:mod:`repro.compare` core shared with ``fidelity compare``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..compare import Delta, align, render_table, shift_verdict
from .ledger import normalize_events, read_ledger
from .metrics import VOLATILE_METRIC_FAMILIES
from .tracer import jsonl_to_trees, span_paths

__all__ = [
    "diff_traces", "diff_metrics", "diff_ledgers", "diff_paths",
    "render_diff_table", "diff_to_dict", "DEFAULT_REL_THRESHOLD",
    "DEFAULT_ABS_FLOOR_S",
]

DEFAULT_REL_THRESHOLD = 0.25
DEFAULT_ABS_FLOOR_S = 0.05

#: Verdicts that flip ``--gate`` to exit 1.
_GATING = ("regression", "changed", "new", "missing")


# ---------------------------------------------------------------------------
# Trace alignment
# ---------------------------------------------------------------------------

#: Attrs that identify a span (fold into its path) rather than
#: describe it. ``key`` is the unit key, ``app`` the kernel name.
_IDENTITY_ATTRS = ("key", "app", "name")


def _span_path_name(node: dict) -> str:
    attrs = node.get("attrs") or {}
    for attr in _IDENTITY_ATTRS:
        value = attrs.get(attr)
        if isinstance(value, str) and value:
            return f"{node.get('name', '?')}[{value}]"
    return str(node.get("name", "?"))


def _trace_rows(roots: List[dict]) -> Dict[str, dict]:
    """``{name-path: {"calls", "wall_s", "cpu_s"}}`` of one run.

    Sibling spans with the same identity (repeated attempts, retried
    units) aggregate into one row, which is what makes two runs of
    different retry counts comparable at all — the *calls* delta then
    carries the retry story.
    """
    rows: Dict[str, dict] = {}
    for path, node in span_paths(roots, _span_path_name, "/"):
        row = rows.setdefault(path, {"calls": 0, "wall_s": 0.0,
                                     "cpu_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += float(node.get("wall_s") or 0.0)
        row["cpu_s"] += float(node.get("cpu_s") or 0.0)
    return rows


def diff_traces(old_roots: List[dict], new_roots: List[dict],
                rel_threshold: float = DEFAULT_REL_THRESHOLD,
                abs_floor_s: float = DEFAULT_ABS_FLOOR_S
                ) -> List[Delta]:
    """Align two runs' span trees by name-path and grade the deltas.

    Timing verdicts need *both* bars — relative shift past
    ``rel_threshold`` and absolute shift past ``abs_floor_s`` — so
    micro-spans' scheduler jitter never pages anyone. A calls-count
    difference on a shared path grades ``changed`` (the run did a
    different number of that thing; time is then beside the point).
    """
    def _grade(old_row, new_row):
        fields = {"old": old_row["wall_s"], "new": new_row["wall_s"]}
        if old_row["calls"] != new_row["calls"]:
            fields["detail"] = (f"calls {old_row['calls']} -> "
                                f"{new_row['calls']}")
            return "changed", fields
        verdict, rel = shift_verdict(old_row["wall_s"], new_row["wall_s"],
                                     rel_threshold, abs_floor_s)
        if verdict != "ok":
            fields["detail"] = f"wall {rel:+.0%}"
        return verdict, fields

    return align(_trace_rows(old_roots), _trace_rows(new_roots), _grade,
                 _GATING, kind="trace",
                 describe=lambda row: (row["wall_s"],
                                       f"calls={row['calls']}"))


# ---------------------------------------------------------------------------
# Metrics alignment
# ---------------------------------------------------------------------------

def _series_map(snapshot: dict) -> Dict[str, object]:
    """Flatten a registry snapshot to ``{family{labels}: value}``.

    Volatile families are dropped — they measure the host, not the
    sweep — and histogram values reduce to their observation count
    (the deterministic part of a histogram).
    """
    series: Dict[str, object] = {}
    for name in sorted(snapshot.get("families", {})):
        if name in VOLATILE_METRIC_FAMILIES:
            continue
        family = snapshot["families"][name]
        for entry in family.get("series", []):
            labels = entry.get("labels") or {}
            suffix = ("{" + ",".join(f"{k}={labels[k]}"
                                     for k in sorted(labels)) + "}"
                      if labels else "")
            value = entry.get("value")
            if family.get("kind") == "histogram" and isinstance(value,
                                                                dict):
                value = value.get("count")
            series[f"{name}{suffix}"] = value
    return series


def _num(value) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _grade_series(old_value, new_value):
    fields = {"old": _num(old_value), "new": _num(new_value)}
    if old_value == new_value:
        return "ok", fields
    fields["detail"] = f"{old_value} -> {new_value}"
    return "changed", fields


def diff_metrics(old_snapshot: dict, new_snapshot: dict) -> List[Delta]:
    """Align two metrics snapshots series-by-series.

    Counter/gauge values are deterministic by construction, so any
    difference on a shared series is ``changed`` — no threshold.
    """
    return align(_series_map(old_snapshot), _series_map(new_snapshot),
                 _grade_series, _GATING, kind="metric",
                 describe=lambda value: (_num(value), ""))


# ---------------------------------------------------------------------------
# Ledger alignment
# ---------------------------------------------------------------------------

def _signatures(events: List[dict]) -> Dict[str, List[tuple]]:
    signatures: Dict[str, List[tuple]] = {}
    for event in normalize_events(events):
        key = event["key"] or "<sweep>"
        signatures.setdefault(key, []).append(
            (event["type"], tuple(sorted(event["attrs"].items()))))
    return signatures


def _grade_lifecycle(old_sig, new_sig):
    fields = {"old": float(len(old_sig)), "new": float(len(new_sig))}
    if old_sig == new_sig:
        return "ok", fields
    old_types = [t for t, _ in old_sig]
    new_types = [t for t, _ in new_sig]
    fields["detail"] = (f"lifecycle {'+'.join(old_types)} -> "
                        f"{'+'.join(new_types)}"
                        if old_types != new_types
                        else "event attrs differ")
    return "changed", fields


def diff_ledgers(old_events: List[dict], new_events: List[dict]
                 ) -> List[Delta]:
    """Align two ledgers per unit key over normalized lifecycles.

    Each unit's volatility-stripped event sequence (types + stable
    attrs, in seq order) is its lifecycle signature; a differing
    signature on a shared key grades ``changed``. Sweep-level events
    (null key) compare as one synthetic ``<sweep>`` row.
    """
    return align(_signatures(old_events), _signatures(new_events),
                 _grade_lifecycle, _GATING, kind="ledger",
                 describe=lambda sig: (None, f"{len(sig)} events"))


# ---------------------------------------------------------------------------
# Loading and rendering
# ---------------------------------------------------------------------------

def load_metrics_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict) or "families" not in snapshot:
        raise ValueError(
            f"{path!r} is not a metrics snapshot (no families table); "
            f"pass the --metrics-out JSON file of a sweep")
    return snapshot


def diff_paths(trace: Optional[Tuple[str, str]] = None,
               metrics: Optional[Tuple[str, str]] = None,
               ledger: Optional[Tuple[str, str]] = None,
               rel_threshold: float = DEFAULT_REL_THRESHOLD,
               abs_floor_s: float = DEFAULT_ABS_FLOOR_S
               ) -> List[Delta]:
    """Load and diff whichever artifact pairs were given.

    Deltas come in trace, metrics, ledger order — the dispatch behind
    ``obs diff``.
    """
    deltas: List[Delta] = []
    if trace is not None:
        old_text, new_text = (Path(p).read_text(encoding="utf-8")
                              for p in trace)
        deltas.extend(diff_traces(jsonl_to_trees(old_text),
                                  jsonl_to_trees(new_text),
                                  rel_threshold=rel_threshold,
                                  abs_floor_s=abs_floor_s))
    if metrics is not None:
        deltas.extend(diff_metrics(load_metrics_snapshot(metrics[0]),
                                   load_metrics_snapshot(metrics[1])))
    if ledger is not None:
        deltas.extend(diff_ledgers(read_ledger(ledger[0]),
                                   read_ledger(ledger[1])))
    return deltas


def render_diff_table(deltas: List[Delta], show_ok: bool = False) -> str:
    """Human summary: one line per non-ok identity (+ ok counts)."""
    shown = [d for d in deltas if show_ok or d.verdict != "ok"]
    name_w = min(max((len(d.name) for d in shown), default=0), 56)

    def _row(d: Delta) -> str:
        old = "-" if d.old is None else f"{d.old:.4g}"
        new = "-" if d.new is None else f"{d.new:.4g}"
        return (f"{d.kind:<7} {d.name[:name_w]:<{name_w}} "
                f"{old:>10} {new:>10}")

    gating = sum(1 for d in deltas if d.gates)
    return render_table(
        deltas, f"{'kind':<7} {'identity':<{name_w}} {'old':>10} "
                f"{'new':>10}", _row,
        f"{gating} gating difference(s) across {len(deltas)} aligned "
        f"identities", collapse_ok=not show_ok)


def diff_to_dict(deltas: List[Delta]) -> dict:
    """Machine-readable render of a delta list.

    The JSON counterpart of :func:`render_diff_table` — what ``obs
    diff --json`` prints, so scripted consumers never scrape the table.
    """
    return {
        "deltas": [{"kind": d.kind, "name": d.name, "verdict": d.verdict,
                    "old": d.old, "new": d.new, "detail": d.detail,
                    "gates": d.gates} for d in deltas],
        "verdicts": dict(Counter(d.verdict for d in deltas)),
        "aligned": len(deltas),
        "gating": sum(1 for d in deltas if d.gates),
    }
