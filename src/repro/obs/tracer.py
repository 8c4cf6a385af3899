"""Zero-dependency structured tracer: nested spans over the pipeline.

A :class:`Span` measures one phase of work — wall-clock *and* CPU time
— and nests hierarchically: ``sweep`` contains ``unit fig18::BFS``
contains ``attempt 1`` contains ``simulate_app`` contains ``replay``.
A :class:`Tracer` owns one span tree and two renderings of it:

* a JSONL event sink (:meth:`Tracer.to_jsonl`) — one pre-order line
  per span, each line independently parseable, so a killed run leaves
  a readable prefix;
* a human tree summary (:meth:`Tracer.render_tree`) with durations.

Instrumented layers never hold a tracer reference. They call the
module-level :func:`trace_span` helper, which attaches a span to the
*current* tracer — a thread-local installed with :func:`use_tracer` —
and degrades to a shared no-op context manager when none is installed,
so an untraced run pays one attribute load and a ``None`` check per
instrumentation point.

The thread-local (rather than a plain global) matters for the sweep
runner: :func:`~repro.runner.pool.call_with_wall_clock_limit` runs a
unit on a watched daemon thread, and when the guard abandons a
timed-out unit, that thread's spans must keep writing into *its own*
tracer rather than corrupting the next attempt's span stack.

Worker processes serialise their span trees (:meth:`Span.to_dict`)
into the unit's checkpoint record; the parent reattaches them with
:meth:`Tracer.attach` in sorted unit-key order, so a parallel sweep's
merged trace has a deterministic *structure* (timings, of course,
are measurements and vary run to run).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "current_tracer", "use_tracer", "trace_span",
           "trace_event", "jsonl_to_trees", "span_paths",
           "render_jsonl_tree"]


class Span:
    """One timed, attributed phase of work, with child spans."""

    __slots__ = ("name", "attrs", "wall_s", "cpu_s", "children", "events",
                 "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.wall_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.children: List["Span"] = []
        self.events: List[dict] = []
        self._wall0: Optional[float] = None
        self._cpu0: Optional[float] = None

    # -- lifecycle -------------------------------------------------------

    def begin(self) -> "Span":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def end(self) -> "Span":
        if self._wall0 is not None and self.wall_s is None:
            self.wall_s = time.perf_counter() - self._wall0
            self.cpu_s = time.process_time() - self._cpu0
        return self

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) result attributes on an open span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event inside this span."""
        offset = (time.perf_counter() - self._wall0
                  if self._wall0 is not None else 0.0)
        self.events.append({"name": name, "offset_s": round(offset, 6),
                            "attrs": attrs})

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe recursive snapshot (used to ship worker spans)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "events": list(self.events),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(payload["name"], payload.get("attrs"))
        span.wall_s = payload.get("wall_s")
        span.cpu_s = payload.get("cpu_s")
        span.events = list(payload.get("events", []))
        span.children = [cls.from_dict(c)
                         for c in payload.get("children", [])]
        return span

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Pre-order traversal as ``(depth, span)`` pairs."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall_s={self.wall_s}, "
                f"children={len(self.children)})")


class Tracer:
    """Owner of one span tree, with an always-open root span."""

    def __init__(self, name: str = "trace", **attrs):
        self.root = Span(name, attrs).begin()
        self._stack: List[Span] = [self.root]

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the innermost open span."""
        span = Span(name, attrs)
        parent = self._stack[-1]
        parent.children.append(span)
        self._stack.append(span)
        span.begin()
        try:
            yield span
        finally:
            span.end()
            # Tolerate a mismatched stack (an abandoned guard thread may
            # have exited out of order) rather than corrupting siblings.
            if self._stack and self._stack[-1] is span:
                self._stack.pop()

    def event(self, name: str, **attrs) -> None:
        self._stack[-1].event(name, **attrs)

    def attach(self, span_dict: dict) -> Span:
        """Adopt a serialised span tree (e.g. from a worker) as a child
        of the innermost open span."""
        span = Span.from_dict(span_dict)
        self._stack[-1].children.append(span)
        return span

    def finish(self) -> Span:
        """Close the root span (idempotent); returns it."""
        return self.root.end()

    # -- renderings ------------------------------------------------------

    def to_jsonl(self) -> str:
        """One pre-order JSON line per span (root first)."""
        self.finish()
        lines = []
        for depth, span in self.root.walk():
            lines.append(json.dumps({
                "type": "span",
                "depth": depth,
                "name": span.name,
                "wall_s": (None if span.wall_s is None
                           else round(span.wall_s, 6)),
                "cpu_s": (None if span.cpu_s is None
                          else round(span.cpu_s, 6)),
                "attrs": span.attrs,
                "events": span.events,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def render_tree(self, max_depth: Optional[int] = None) -> str:
        """Human-readable indented summary with durations."""
        self.finish()
        lines = []
        for depth, span in self.root.walk():
            if max_depth is not None and depth > max_depth:
                continue
            wall = "?" if span.wall_s is None else f"{span.wall_s:.3f}s"
            cpu = "" if span.cpu_s is None else f" cpu={span.cpu_s:.3f}s"
            attrs = ""
            if span.attrs:
                pairs = ", ".join(f"{k}={span.attrs[k]}"
                                  for k in sorted(span.attrs))
                attrs = f"  [{pairs}]"
            lines.append(f"{'  ' * depth}{span.name}  {wall}{cpu}{attrs}")
        return "\n".join(lines)


def jsonl_to_trees(text: str) -> List[dict]:
    """Rebuild nested span trees from a trace JSONL dump.

    Returns a list of root nodes (a merged sweep trace has one; the
    format permits several) in :meth:`Span.to_dict` shape, so the same
    consumers — the tree renderer, the hotspot profiler — work on live
    tracers and on dumps alike. Lines of other ``type`` values are
    skipped, and a truncated trailing line (a killed run) is ignored
    rather than fatal.
    """
    roots: List[dict] = []
    stack: List[Tuple[int, dict]] = []   # (depth, node) of open ancestry
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError:
            continue   # readable-prefix contract: tolerate a torn tail
        if rec.get("type") != "span":
            continue
        depth = int(rec.get("depth", 0))
        node = {"name": rec.get("name", "?"),
                "attrs": rec.get("attrs") or {},
                "wall_s": rec.get("wall_s"),
                "cpu_s": rec.get("cpu_s"),
                "events": rec.get("events") or [],
                "children": []}
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            stack[-1][1]["children"].append(node)
        else:
            roots.append(node)
        stack.append((depth, node))
    return roots


def span_paths(roots: Iterable[dict], label: Callable[[dict], str],
               sep: str) -> Iterator[Tuple[str, dict]]:
    """Pre-order ``(path, node)`` pairs over span trees in dict shape.

    ``path`` joins ``label(node)`` from the root down with ``sep`` —
    the name-paths ``obs diff`` aligns on and the stacks ``bench
    hotspots --folded`` exports.
    """
    def _walk(node: dict, prefix: str) -> Iterator[Tuple[str, dict]]:
        path = f"{prefix}{sep}{label(node)}" if prefix else label(node)
        yield path, node
        for child in node.get("children") or ():
            yield from _walk(child, path)

    for root in roots:
        yield from _walk(root, "")


def _span_line(node: dict, depth: int) -> str:
    wall = node.get("wall_s")
    wall = "?" if wall is None else f"{wall:.3f}s"
    cpu = node.get("cpu_s")
    cpu = "" if cpu is None else f" cpu={cpu:.3f}s"
    attrs = node.get("attrs") or {}
    suffix = ""
    if attrs:
        pairs = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        suffix = f"  [{pairs}]"
    return f"{'  ' * depth}{node['name']}  {wall}{cpu}{suffix}"


def _count_nodes(node: dict) -> int:
    return 1 + sum(_count_nodes(c) for c in node.get("children", []))


def _has_unfinished(node: dict) -> bool:
    return node.get("wall_s") is None or any(
        _has_unfinished(c) for c in node.get("children", []))


def render_jsonl_tree(text: str, min_ms: Optional[float] = None,
                      sort: str = "start") -> str:
    """Re-render a trace JSONL dump as the human tree summary.

    ``min_ms`` hides spans (and their subtrees) shorter than the given
    wall-clock threshold — unfinished spans (``wall_s`` null) always
    stay visible — and reports how many were hidden. ``sort`` is
    ``"start"`` (insertion order, the default) or ``"duration"``
    (children sorted longest-first at every level).
    """
    if sort not in ("start", "duration"):
        raise ValueError(f"sort must be 'start' or 'duration', not {sort!r}")
    roots = jsonl_to_trees(text)
    hidden = {"n": 0}
    lines: List[str] = []

    def _emit(node: dict, depth: int) -> None:
        wall = node.get("wall_s")
        # A subtree holding an unfinished span survives the threshold:
        # those spans are where a killed run died, the one place the
        # tree matters most, and their true duration is unknown anyway.
        if (min_ms is not None and wall is not None
                and wall * 1000.0 < min_ms and not _has_unfinished(node)):
            hidden["n"] += _count_nodes(node)
            return
        lines.append(_span_line(node, depth))
        children = node.get("children", [])
        if sort == "duration":
            children = sorted(
                children,
                key=lambda c: -1.0 if c.get("wall_s") is None
                else c["wall_s"], reverse=True)
        for child in children:
            _emit(child, depth + 1)

    for root in roots:
        _emit(root, 0)
    if hidden["n"]:
        lines.append(f"({hidden['n']} spans under {min_ms:g} ms hidden)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Current-tracer plumbing (thread-local; see module docstring)
# ---------------------------------------------------------------------------

_STATE = threading.local()


def current_tracer() -> Optional[Tracer]:
    """The tracer installed on this thread, or None."""
    return getattr(_STATE, "tracer", None)


@contextmanager
def use_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` as this thread's current tracer for the block."""
    previous = current_tracer()
    _STATE.tracer = tracer
    try:
        yield tracer
    finally:
        _STATE.tracer = previous


class _NullSpanContext:
    """Shared no-op stand-in when no tracer is installed."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpanContext()


def trace_span(name: str, **attrs):
    """Span context manager on the current tracer; no-op when untraced.

    Yields the open :class:`Span` (so callers may ``span.set(...)``
    results) or ``None`` when tracing is disabled.
    """
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def trace_event(name: str, **attrs) -> None:
    """Point event on the current tracer's innermost span; no-op when
    untraced."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)
