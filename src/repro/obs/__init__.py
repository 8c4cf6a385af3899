"""``repro.obs`` — observability for the BVF reproduction pipeline.

Four first-class artifacts, threaded through the whole stack:

* **structured tracing** (:mod:`~repro.obs.tracer`): nested spans with
  wall/CPU time around ``simulate_app``/``simulate_suite``, the replay
  engine, every experiment, and every sweep-unit attempt; JSONL sink
  plus a human tree summary. Install with ``use_tracer``; instrumented
  layers no-op when untraced.
* **metrics registry** (:mod:`~repro.obs.metrics`): named counters/
  gauges/histograms — per-unit/per-variant bit volumes, cache hit/miss,
  NoC flits and toggles, coder word volumes, fault flip sites —
  exported as JSON or Prometheus text, with merge semantics chosen so
  sweep metrics are byte-identical at any ``--jobs`` count.
* **energy provenance** (:mod:`~repro.obs.provenance`): every chip-level
  pJ figure decomposed into (unit x variant x access-type) rows that
  reproduce :meth:`~repro.power.chip.ChipModel.evaluate` exactly.
* **run ledger** (:mod:`~repro.obs.ledger`): an append-only JSONL
  stream of typed, monotonically sequenced sweep lifecycle events,
  readable while the sweep runs and compared across runs by
  :mod:`~repro.obs.diff` (``repro obs diff``).

CLI: ``repro obs report`` (provenance tables, or a metrics snapshot as
Prometheus text), ``repro obs tree`` (render a trace), ``repro obs
diff`` (cross-run comparator), and ``--trace``/``--metrics-out``/
``--ledger`` on ``repro run``.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      VOLATILE_METRIC_FAMILIES, current_registry,
                      metric_inc, metric_observe, metric_set, use_registry)
from .resources import peak_rss_bytes
from .tracer import (Span, Tracer, current_tracer, jsonl_to_trees,
                     render_jsonl_tree, trace_event, trace_span, use_tracer)

# provenance/report pull in the power and analysis layers; loading them
# lazily keeps `import repro.obs` cheap enough for the arch hot layers
# to instrument themselves unconditionally (and sidesteps any import
# cycle through repro.power -> repro.analysis -> repro.arch).
_LAZY = {
    "ACCESS_KINDS": "provenance", "ProvenanceRow": "provenance",
    "EnergyProvenance": "provenance", "build_provenance": "provenance",
    "variant_dynamic_matrix": "provenance",
    "publish_app_metrics": "report", "write_text_sink": "report",
    "write_trace_jsonl": "report", "write_metrics": "report",
    "provenance_report": "report",
    "LEDGER_SCHEMA_VERSION": "ledger", "EVENT_TYPES": "ledger",
    "RunLedger": "ledger", "read_ledger": "ledger",
    "normalize_events": "ledger", "validate_ledger": "ledger",
    "diff_paths": "diff", "diff_traces": "diff",
    "diff_metrics": "diff", "diff_ledgers": "diff",
    "render_diff_table": "diff", "diff_to_dict": "diff",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "Span", "Tracer", "current_tracer", "use_tracer", "trace_span",
    "trace_event", "jsonl_to_trees", "render_jsonl_tree",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "VOLATILE_METRIC_FAMILIES", "current_registry", "use_registry",
    "metric_inc", "metric_set", "metric_observe", "peak_rss_bytes",
    "ACCESS_KINDS", "ProvenanceRow", "EnergyProvenance",
    "build_provenance", "variant_dynamic_matrix",
    "publish_app_metrics", "write_text_sink", "write_trace_jsonl",
    "write_metrics", "provenance_report",
    "LEDGER_SCHEMA_VERSION", "EVENT_TYPES", "RunLedger",
    "read_ledger", "normalize_events", "validate_ledger",
    "diff_paths", "diff_traces", "diff_metrics",
    "diff_ledgers", "render_diff_table", "diff_to_dict",
]
