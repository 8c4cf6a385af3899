"""The comparator core of ``fidelity compare`` and ``obs diff``.

Both gates line two keyed tables up by name, grade each name and
gate on some verdicts. This module owns that shape — the alignment
loop, the one :class:`Delta` row, the one verdict vocabulary, the
two-bar timing test, the table layout and the exit-code rule — so each
front end keeps only its loader and its grading rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Mapping, Tuple

__all__ = ["VERDICTS", "Delta", "align", "gate_exit_code", "render_table",
           "shift_verdict"]

#: Every verdict a comparator can emit. ``changed`` is a semantic
#: difference no threshold can excuse (``obs diff`` only).
VERDICTS = ("ok", "regression", "improved", "changed", "new", "missing")


@dataclass
class Delta:
    """Verdict for one aligned name (scenario, claim, span path, ...)."""

    kind: str                    # scenario | claim | trace | metric | ledger
    name: str
    verdict: str
    old: Any = None              # the compared value on each side
    new: Any = None
    detail: str = ""
    gates: bool = False          # this verdict fails the front end's gate
    columns: Dict[str, Any] = field(default_factory=dict)  # front-end extras

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown compare verdict {self.verdict!r}")


def align(old: Mapping, new: Mapping,
          grade: Callable[[Any, Any], Tuple[str, Dict[str, Any]]],
          gating: Collection[str], kind: str,
          describe: Callable[[Any], Tuple[Any, str]] = lambda item: (None, "")
          ) -> List[Delta]:
    """One :class:`Delta` per name in either table, in sorted order.

    A name on both sides is graded by ``grade(old_item, new_item) ->
    (verdict, fields)``, where ``fields`` are :class:`Delta` keyword
    arguments. A name on one side only is ``new`` / ``missing``, with
    ``describe(item) -> (value, detail)`` filling that side's value.
    ``gates`` is stamped from the front end's ``gating`` verdicts.
    """
    deltas: List[Delta] = []
    for name in sorted(set(old) | set(new)):
        if name in old and name in new:
            verdict, fields = grade(old[name], new[name])
        elif name in new:
            verdict, (value, detail) = "new", describe(new[name])
            fields = {"new": value, "detail": detail}
        else:
            verdict, (value, detail) = "missing", describe(old[name])
            fields = {"old": value, "detail": detail}
        deltas.append(Delta(kind, name, verdict,
                            gates=verdict in gating, **fields))
    return deltas


def shift_verdict(old: float, new: float, rel_bar: float,
                  abs_bar: float) -> Tuple[str, float]:
    """``(verdict, relative shift)`` of a timing move from old to new.

    ``regression`` / ``improved`` need the shift to clear *both* the
    relative and the absolute bar; a shift inside either is ``ok``.
    """
    shift = new - old
    rel = shift / old if old > 0 else 0.0
    if rel > rel_bar and shift > abs_bar:
        return "regression", rel
    if rel < -rel_bar and -shift > abs_bar:
        return "improved", rel
    return "ok", rel


def gate_exit_code(deltas: List[Delta], gate: bool) -> int:
    """0 when clean (or not gating), 1 when gating with a gating delta."""
    if gate and any(d.gates for d in deltas):
        return 1
    return 0


def render_table(deltas: List[Delta], header: str,
                 row: Callable[[Delta], str], footer: str,
                 collapse_ok: bool = False) -> str:
    """Fixed-width table: one line per delta, then the footer.

    ``header`` titles the columns ``row(delta)`` fills; the verdict
    column (upper-cased when it gates) and a parenthesised ``detail``
    follow. With ``collapse_ok``, ok rows fold into per-kind counts
    printed before the footer. The header is left out when no row is
    shown.
    """
    shown = [d for d in deltas if not (collapse_ok and d.verdict == "ok")]
    lines: List[str] = []
    if shown:
        title = f"{header}  verdict"
        lines += [title, "-" * len(title)]
    for delta in shown:
        verdict = delta.verdict.upper() if delta.gates else delta.verdict
        line = f"{row(delta)}  {verdict}"
        if delta.detail:
            line += f"  ({delta.detail})"
        lines.append(line)
    if collapse_ok:
        ok = Counter(d.kind for d in deltas if d.verdict == "ok")
        lines += [f"{ok[kind]} {kind} identities ok" for kind in sorted(ok)]
    lines.append(footer)
    return "\n".join(lines)
