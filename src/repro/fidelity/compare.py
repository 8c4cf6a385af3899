"""Drift gate over two FIDELITY_*.json records.

``repro fidelity compare old.json new.json`` lines the two records'
claims up and flags a **regression** when a claim's verdict *worsened*
— crossed a tolerance band it previously sat inside (pass -> degraded,
degraded -> fail, pass -> fail). Alignment, verdicts, the table
layout and the exit-code rule are the shared :mod:`repro.compare`
core: this gate emits ``ok`` / ``regression`` / ``improved`` /
``new`` / ``missing`` and only ``regression`` gates. Claims absent
from one side — including ``not-run`` transitions, which are absence
of evidence, not drift — map to ``new``/``missing`` and never gate.

There is no noise floor: scorecards are deterministic at fixed scale,
so *any* band crossing is signal. The exit-code contract matches
``obs diff``: 0 clean, 1 regression with ``--gate``, 2 unusable
records.
"""

from __future__ import annotations

from typing import List, Tuple

from ..compare import Delta, align, render_table
from .claims import VERDICT_RANK
from .scorecard import load_fidelity_record

__all__ = ["compare_fidelity_paths", "compare_fidelity_records",
           "render_fidelity_compare"]

_HEADER = (f"{'claim':<32} {'old':>10} {'new':>10} "
           f"{'measured':>22}")
_RULE = "-" * len(f"{_HEADER}  verdict")


def _grade(old_entry, new_entry):
    old_v, new_v = old_entry["verdict"], new_entry["verdict"]
    verdict = "ok"
    if old_v == "not-run" and new_v != "not-run":
        verdict = "new"
    elif new_v == "not-run" and old_v != "not-run":
        verdict = "missing"
    elif VERDICT_RANK.get(new_v, 0) > VERDICT_RANK.get(old_v, 0):
        verdict = "regression"
    elif VERDICT_RANK.get(new_v, 0) < VERDICT_RANK.get(old_v, 0):
        verdict = "improved"
    return verdict, {"old": old_v, "new": new_v, "columns": {
        "old_measured": old_entry.get("measured"),
        "new_measured": new_entry.get("measured")}}


def compare_fidelity_records(old: dict, new: dict) -> List[Delta]:
    """One ``claim`` :class:`~repro.compare.Delta` per claim id, in
    sorted-name order: ``old``/``new`` are the claim verdicts and
    ``columns`` the measured values of claims present on both sides."""
    return align(old["claims"], new["claims"], _grade,
                 gating=("regression",), kind="claim",
                 describe=lambda entry: (entry["verdict"], ""))


def _row(d: Delta) -> str:
    old_m = d.columns.get("old_measured")
    new_m = d.columns.get("new_measured")
    measured = "-"
    if old_m is not None or new_m is not None:
        fmt = lambda v: "-" if v is None else f"{v:.4g}"
        measured = f"{fmt(old_m)} -> {fmt(new_m)}"
    return (f"{d.name:<32} {d.old or '-':>10} {d.new or '-':>10} "
            f"{measured:>22}")


def render_fidelity_compare(deltas: List[Delta]) -> str:
    """Human summary of a fidelity comparison, one line per claim."""
    regressions = sum(1 for d in deltas if d.gates)
    return render_table(deltas, _HEADER, _row,
                        f"{_RULE}\n{regressions} claim(s) crossed a "
                        f"tolerance band for the worse")


def compare_fidelity_paths(old_path: str, new_path: str
                           ) -> Tuple[List[Delta], str]:
    """Load, compare, and render two record files in one call."""
    old = load_fidelity_record(old_path)
    new = load_fidelity_record(new_path)
    deltas = compare_fidelity_records(old, new)
    return deltas, render_fidelity_compare(deltas)
