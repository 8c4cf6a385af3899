"""Hotspot attribution: fold span trees into per-name time aggregates.

The tracer (:mod:`repro.obs.tracer`) answers "what happened, in what
order"; this module answers "where did the time go". It folds one or
more span trees — live :class:`~repro.obs.tracer.Span` objects or the
dict shape of ``Span.to_dict`` / ``jsonl_to_trees`` — into per-span-
*name* aggregates:

* **self time** (wall and CPU): a span's duration minus the sum of its
  children's. Self times are deliberately *not* clipped at zero: for a
  merged parallel trace, the sweep root's children ran concurrently in
  workers and their summed wall time exceeds the root's, so the root
  carries a negative self time representing the overlap. That choice
  buys the load-bearing invariant

      sum(self_wall over every span) == sum(root walls)   (exactly)

  because the child terms telescope — at ``--jobs 1`` *and* ``--jobs
  4``, which is how ``repro bench hotspots`` reconciles its totals
  against the trace.
* **cumulative time**: the summed duration of each name's *outermost*
  occurrences only — a span nested under a same-named ancestor (e.g. a
  retried ``attempt`` replaying inside a driver that recurses) never
  double-counts its ancestor's window.
* **call counts**, **unclosed counts** (spans a killed run never
  ended), and **warp-instruction volume/throughput** for spans whose
  attributes carry an ``instructions`` result (``simulate_app``,
  ``replay``), giving per-name instructions/second.

Renderings: a sorted hotspot table (:func:`render_hotspot_table`) and
a folded-stack export (:func:`folded_stacks`) in the
``a;b;c <microseconds>`` format every flamegraph tool consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..obs.tracer import span_paths

__all__ = ["Hotspot", "HotspotReport", "aggregate_hotspots",
           "folded_stacks", "render_hotspot_table"]

#: Span-attribute key whose integer values are summed into throughput.
_INSTRUCTIONS_ATTR = "instructions"


@dataclass
class Hotspot:
    """Aggregate over every span sharing one name."""

    name: str
    calls: int = 0
    unclosed: int = 0
    self_wall_s: float = 0.0
    self_cpu_s: float = 0.0
    cum_wall_s: float = 0.0
    cum_cpu_s: float = 0.0
    instructions: int = 0

    @property
    def instructions_per_s(self) -> Optional[float]:
        """Warp-instruction throughput over cumulative wall time."""
        if self.instructions <= 0 or self.cum_wall_s <= 0:
            return None
        return self.instructions / self.cum_wall_s


@dataclass
class HotspotReport:
    """All hotspots of one trace plus its reconciliation anchors."""

    hotspots: Dict[str, Hotspot] = field(default_factory=dict)
    root_wall_s: float = 0.0     # summed wall of the trace's root spans
    root_cpu_s: float = 0.0
    span_count: int = 0

    @property
    def total_self_wall_s(self) -> float:
        return sum(h.self_wall_s for h in self.hotspots.values())

    @property
    def total_self_cpu_s(self) -> float:
        return sum(h.self_cpu_s for h in self.hotspots.values())

    def sorted(self, key: str = "self") -> List[Hotspot]:
        """Hotspots ordered by ``self``/``cum``/``calls``/``name``."""
        rows = list(self.hotspots.values())
        if key == "self":
            rows.sort(key=lambda h: (-h.self_wall_s, h.name))
        elif key == "cum":
            rows.sort(key=lambda h: (-h.cum_wall_s, h.name))
        elif key == "calls":
            rows.sort(key=lambda h: (-h.calls, h.name))
        elif key == "name":
            rows.sort(key=lambda h: h.name)
        else:
            raise ValueError(
                f"sort must be self/cum/calls/name, not {key!r}")
        return rows


def _as_node(span) -> dict:
    """Normalise a Span object to the dict shape; dicts pass through."""
    if isinstance(span, dict):
        return span
    return span.to_dict()


def _as_roots(spans) -> List[dict]:
    """Root nodes of a Tracer, one span tree, or a sequence of roots."""
    if hasattr(spans, "root"):           # a Tracer
        return [_as_node(spans.root)]
    if isinstance(spans, dict) or hasattr(spans, "to_dict"):
        return [_as_node(spans)]
    return [_as_node(s) for s in spans]


def _node_children(node: dict) -> Sequence[dict]:
    return node.get("children") or ()


def aggregate_hotspots(spans: Union[dict, Sequence, object]
                       ) -> HotspotReport:
    """Fold one span tree (or a sequence of roots) into hotspots.

    Accepts a :class:`~repro.obs.tracer.Span`, a ``Span.to_dict``
    payload, the root list from
    :func:`~repro.obs.tracer.jsonl_to_trees`, or a
    :class:`~repro.obs.tracer.Tracer` (its root is used).
    """
    roots = _as_roots(spans)
    report = HotspotReport()

    def _get(name: str) -> Hotspot:
        spot = report.hotspots.get(name)
        if spot is None:
            spot = report.hotspots[name] = Hotspot(name)
        return spot

    def _visit(node: dict, ancestors: Dict[str, int]) -> None:
        report.span_count += 1
        name = node.get("name", "?")
        spot = _get(name)
        spot.calls += 1
        wall = node.get("wall_s")
        cpu = node.get("cpu_s")
        if wall is None:
            spot.unclosed += 1
        children = _node_children(node)
        child_wall = sum(c.get("wall_s") or 0.0 for c in children)
        child_cpu = sum(c.get("cpu_s") or 0.0 for c in children)
        # Unclosed spans contribute nothing to self time but their
        # children still do, so an abandoned guard thread's finished
        # inner work is attributed while the torn span stays at zero.
        if wall is not None:
            spot.self_wall_s += wall - child_wall
            if ancestors.get(name, 0) == 0:
                spot.cum_wall_s += wall
        if cpu is not None:
            spot.self_cpu_s += cpu - child_cpu
            if ancestors.get(name, 0) == 0:
                spot.cum_cpu_s += cpu
        inst = (node.get("attrs") or {}).get(_INSTRUCTIONS_ATTR)
        if isinstance(inst, int) and ancestors.get(name, 0) == 0:
            spot.instructions += inst
        ancestors[name] = ancestors.get(name, 0) + 1
        for child in children:
            _visit(child, ancestors)
        ancestors[name] -= 1

    for root in roots:
        report.root_wall_s += root.get("wall_s") or 0.0
        report.root_cpu_s += root.get("cpu_s") or 0.0
        _visit(root, {})
    return report


def folded_stacks(spans) -> str:
    """Folded-stack lines (``name;child;... <microseconds>``).

    One line per distinct call path, weighted by that path's summed
    *self* wall time in integer microseconds — the input format of
    ``flamegraph.pl``, speedscope, and inferno. Negative self times
    (parallel overlap on merge points) clamp to zero here: flamegraph
    consumers require non-negative sample counts, and the overlap is
    a property of the merge, not of any one stack.
    """
    weights: Dict[str, int] = {}
    for path, node in span_paths(
            _as_roots(spans),
            lambda node: node.get("name", "?").replace(";", ":"), ";"):
        wall = node.get("wall_s")
        if wall is None:
            continue
        self_wall = wall - sum(c.get("wall_s") or 0.0
                               for c in _node_children(node))
        micros = int(round(max(0.0, self_wall) * 1e6))
        if micros:
            weights[path] = weights.get(path, 0) + micros
    return "\n".join(f"{path} {weights[path]}"
                     for path in sorted(weights)) + ("\n" if weights else "")


def render_hotspot_table(report: HotspotReport, sort: str = "self",
                         limit: Optional[int] = None) -> str:
    """The ``repro bench hotspots`` table: one row per span name."""
    rows = report.sorted(sort)
    if limit is not None:
        rows = rows[:limit]
    total = report.root_wall_s
    header = (f"{'span':<24} {'calls':>7} {'self(s)':>10} {'self%':>7} "
              f"{'cum(s)':>10} {'cpu(s)':>10} {'kinst/s':>9}")
    lines = [header, "-" * len(header)]
    for spot in rows:
        pct = (100.0 * spot.self_wall_s / total) if total > 0 else 0.0
        rate = spot.instructions_per_s
        rate_text = "-" if rate is None else f"{rate / 1e3:.2f}"
        name = spot.name if len(spot.name) <= 24 else spot.name[:21] + "..."
        suffix = f" ({spot.unclosed} unclosed)" if spot.unclosed else ""
        lines.append(
            f"{name:<24} {spot.calls:>7} {spot.self_wall_s:>10.4f} "
            f"{pct:>6.1f}% {spot.cum_wall_s:>10.4f} "
            f"{spot.self_cpu_s:>10.4f} {rate_text:>9}{suffix}")
    # Telescoping makes total_self == root wall by construction, so the
    # worker-busy ratio needs the *clamped* self sum: overlap-negative
    # merge points drop out and what remains is time spent in spans.
    busy = sum(max(0.0, h.self_wall_s) for h in report.hotspots.values())
    parallelism = (busy / total) if total > 0 else 0.0
    lines.append("-" * len(header))
    lines.append(
        f"root wall {report.root_wall_s:.4f}s, self-time total "
        f"{report.total_self_wall_s:.4f}s "
        f"(negative self = parallel overlap), {report.span_count} spans")
    if parallelism > 1.05:
        lines.append(f"worker-time/wall ratio {parallelism:.2f}x "
                     f"(parallel trace)")
    return "\n".join(lines)
