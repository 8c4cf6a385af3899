"""Named counters/gauges/histograms with deterministic merge semantics.

The registry is the pipeline's quantitative side channel: the hot
layers publish per-unit/per-variant bit volumes, cache hit/miss
counts, NoC flit counts, coder word volumes and fault flip sites into
whatever registry is *current* (a thread-local, mirroring the tracer),
and the sweep runner merges per-unit snapshots into one sweep-level
registry.

Determinism is a design constraint, not an accident: the golden suite
asserts that a sweep's merged metrics are byte-identical at ``--jobs
1/2/4``. Two rules make that hold:

* pipeline metrics are published from the *finished artifacts* of a
  unit (``AppStats`` tallies, timing counters), never incremented
  mid-execution — so a memoisation cache hit publishes exactly what a
  cold computation would;
* merges are value-order-free: counters and histogram buckets are
  integer sums (associative and commutative, exactly), gauges merge by
  max. Avoid float-valued counters in anything fixture-pinned.

Exports: sorted JSON (:meth:`MetricsRegistry.to_dict`) and Prometheus
text exposition format (:meth:`MetricsRegistry.to_prometheus`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "VOLATILE_METRIC_FAMILIES", "current_registry", "use_registry",
           "metric_inc", "metric_observe", "metric_set"]

#: Families whose values are honest measurements of the *host* rather
#: than of the simulated workload (memory high-water marks, timings).
#: They merge deterministically — gauges take the max — but their
#: values vary run to run, so byte-identity fixtures (the golden
#: suite) must drop them before comparing snapshots.
#: The supervision counters are volatile too: how many re-dispatches
#: or quarantines a chaotic run needed is timing-dependent,
#: while the scientific payload stays byte-identical.
VOLATILE_METRIC_FAMILIES = ("unit_peak_rss_bytes",
                            "sweep_redispatches_total",
                            "sweep_quarantined_units_total",
                            "sweep_checkpoint_save_failures_total")

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[dict]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.merge_value(other.value)

    def merge_value(self, value) -> None:
        """:meth:`merge` from a snapshot value (:meth:`to_value`)."""
        self.value += value

    def to_value(self):
        return self.value

    def load(self, value) -> None:
        self.value = value


class Gauge:
    """Last-observed level; merges by max (e.g. peak residency)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.merge_value(other.value)

    def merge_value(self, value) -> None:
        """:meth:`merge` from a snapshot value (:meth:`to_value`)."""
        self.value = max(self.value, value)

    def to_value(self):
        return self.value

    def load(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucketed distribution (Prometheus-style cumulative
    export, plain per-bucket counts internally)."""

    kind = "histogram"
    DEFAULT_BOUNDS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Optional[Sequence[float]] = None):
        self.bounds = tuple(bounds) if bounds else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf tail
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        self._add(other.bounds, other.bucket_counts, other.total,
                  other.count)

    def merge_value(self, value: dict) -> None:
        """:meth:`merge` from a snapshot value (:meth:`to_value`)."""
        self._add(tuple(value["bounds"]), value["counts"], value["sum"],
                  value["count"])

    def _add(self, bounds, bucket_counts, total, count) -> None:
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.bounds} vs {bounds})")
        for i, n in enumerate(bucket_counts):
            self.bucket_counts[i] += n
        self.total += total
        self.count += count

    def percentile(self, q: float):
        """Bucket-resolution quantile estimate (Prometheus-style).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * count``; observations in the +Inf overflow
        bucket clamp to the largest finite bound (the estimate is a
        floor there, exactly as ``histogram_quantile`` behaves). None
        when the histogram is empty. Derived purely from the bucket
        counts, so it is deterministic and survives merge/round-trip.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            if cumulative >= rank:
                return bound
        return self.bounds[-1]

    def to_value(self) -> dict:
        """JSON snapshot: raw buckets plus derived p50/p95/p99.

        The percentiles are *derived* fields — :meth:`load` ignores
        them and recomputes from the buckets — so adding them keeps
        ``from_dict(to_dict())`` an exact round-trip.
        """
        return {"bounds": list(self.bounds),
                "counts": list(self.bucket_counts),
                "sum": self.total, "count": self.count,
                "p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "p99": self.percentile(0.99)}

    def load(self, value: dict) -> None:
        self.bounds = tuple(value["bounds"])
        self.bucket_counts = list(value["counts"])
        self.total = value["sum"]
        self.count = value["count"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All label-series of one metric name."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_text: str = ""):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series: Dict[_LabelKey, object] = {}


class MetricsRegistry:
    """Mutable collection of metric families keyed by name + labels."""

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    # -- access / creation ----------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help_text)
        elif family.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested as {kind}")
        if help_text and not family.help:
            family.help = help_text
        return family

    def counter(self, name: str, labels: Optional[dict] = None,
                help_text: str = "") -> Counter:
        family = self._family(name, "counter", help_text)
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            metric = family.series[key] = Counter()
        return metric

    def gauge(self, name: str, labels: Optional[dict] = None,
              help_text: str = "") -> Gauge:
        family = self._family(name, "gauge", help_text)
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            metric = family.series[key] = Gauge()
        return metric

    def histogram(self, name: str, labels: Optional[dict] = None,
                  bounds: Optional[Sequence[float]] = None,
                  help_text: str = "") -> Histogram:
        family = self._family(name, "histogram", help_text)
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            metric = family.series[key] = Histogram(bounds)
        return metric

    def value(self, name: str, labels: Optional[dict] = None):
        """The stored value of one series (None if absent)."""
        family = self._families.get(name)
        if family is None:
            return None
        metric = family.series.get(_label_key(labels))
        return None if metric is None else metric.to_value()

    def __len__(self) -> int:
        return sum(len(f.series) for f in self._families.values())

    # -- merge -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (deterministic: counters
        and histogram buckets sum, gauges take the max). The result
        does not depend on iteration order, and every export sorts."""
        for name, theirs in other._families.items():
            mine = self._family(name, theirs.kind, theirs.help)
            for key, metric in theirs.series.items():
                _merge_target(mine, key, getattr(metric, "bounds", None)
                              ).merge(metric)
        return self

    def merge_snapshot(self, payload: dict) -> "MetricsRegistry":
        """Fold a :meth:`to_dict` snapshot into this registry.

        Equal to ``merge(MetricsRegistry.from_dict(payload))``, without
        building the intermediate registry or its metric objects.
        """
        for name, fam in payload.get("families", {}).items():
            family = self._family(name, fam["kind"], fam.get("help", ""))
            histogram = family.kind == "histogram"
            for entry in fam.get("series", []):
                value = entry["value"]
                _merge_target(family, _label_key(entry.get("labels")),
                              value["bounds"] if histogram else None
                              ).merge_value(value)
        return self

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """Sorted JSON-safe snapshot; the golden-fixture rendering."""
        families = {}
        for name in sorted(self._families):
            family = self._families[name]
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    {"labels": dict(key), "value": family.series[key].to_value()}
                    for key in sorted(family.series)
                ],
            }
        return {"families": families}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for name, fam in payload.get("families", {}).items():
            family = registry._family(name, fam["kind"], fam.get("help", ""))
            for entry in fam.get("series", []):
                key = _label_key(entry.get("labels"))
                metric = _KINDS[fam["kind"]]()
                metric.load(entry["value"])
                family.series[key] = metric
        return registry

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Conformance points the scrape parsers actually reject: ``HELP``
        text escapes backslash and newline; label values additionally
        escape the double quote; histograms emit *cumulative* buckets
        ending in the mandatory ``+Inf`` bucket (equal to ``_count``)
        plus ``_sum``/``_count`` series.
        """
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.series):
                metric = family.series[key]
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(
                            list(metric.bounds) + ["+Inf"],
                            metric.bucket_counts):
                        cumulative += n
                        labels = _render_labels(key + (("le", str(bound)),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {metric.total}")
                    lines.append(
                        f"{name}_count{_render_labels(key)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} {metric.to_value()}")
        return "\n".join(lines) + ("\n" if lines else "")


def _merge_target(family: _Family, key: _LabelKey, bounds):
    """The series of ``family`` that a merge adds into. A new series
    starts at zero; a new histogram takes the incoming ``bounds``."""
    metric = family.series.get(key)
    if metric is None:
        metric = family.series[key] = _KINDS[family.kind]()
        if family.kind == "histogram":
            metric.bounds = tuple(bounds)
            metric.bucket_counts = [0] * (len(metric.bounds) + 1)
    return metric


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format: ``\\`` and LF."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    """Label-value escaping: backslash, double quote, and LF."""
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Current-registry plumbing (thread-local, mirrors the tracer)
# ---------------------------------------------------------------------------

_STATE = threading.local()


def current_registry() -> Optional[MetricsRegistry]:
    """The registry installed on this thread, or None."""
    return getattr(_STATE, "registry", None)


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]):
    """Install ``registry`` as this thread's current registry."""
    previous = current_registry()
    _STATE.registry = registry
    try:
        yield registry
    finally:
        _STATE.registry = previous


def metric_inc(name: str, amount=1, labels: Optional[dict] = None,
               help_text: str = "") -> None:
    """Increment a counter on the current registry; no-op when none."""
    registry = current_registry()
    if registry is not None:
        registry.counter(name, labels, help_text).inc(amount)


def metric_set(name: str, value, labels: Optional[dict] = None,
               help_text: str = "") -> None:
    """Set a gauge on the current registry; no-op when none."""
    registry = current_registry()
    if registry is not None:
        registry.gauge(name, labels, help_text).set(value)


def metric_observe(name: str, value, labels: Optional[dict] = None,
                   bounds: Optional[Sequence[float]] = None,
                   help_text: str = "") -> None:
    """Observe into a histogram on the current registry; no-op when
    none."""
    registry = current_registry()
    if registry is not None:
        registry.histogram(name, labels, bounds, help_text).observe(value)
