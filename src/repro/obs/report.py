"""Metric publication, sink writers, and the ``repro obs`` reports.

Three concerns live here, all downstream of the tracer/metrics/
provenance primitives:

* :func:`publish_app_metrics` — the single point where one simulated
  app's *artifacts* (tallies, cache/NoC/timing counters) become
  registry metrics. It runs on every :func:`~repro.sim.simulate_app`
  return — memoisation hit or cold computation alike — which is what
  makes sweep-level metrics independent of worker count and cache
  warmth (the golden suite pins this at ``--jobs 1/2/4``).
* sink writers (:func:`write_trace_jsonl`, :func:`write_metrics`) —
  best-effort by design: an unwritable path emits a ``RuntimeWarning``
  and returns False rather than killing a sweep whose scientific
  output is fine, mirroring ``soft_time_limit``'s degradation.
* :func:`provenance_report` — the ``repro obs report`` body: per-app
  energy-provenance tables for the paper's two operating points, with
  an exactness check against :class:`~repro.power.chip.ChipModel`.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple

from .metrics import MetricsRegistry, current_registry
from .provenance import build_provenance, variant_dynamic_matrix
from .tracer import Tracer

__all__ = ["publish_app_metrics", "write_text_sink", "write_trace_jsonl",
           "write_metrics", "provenance_report", "render_metrics_summary"]

#: Histogram bounds for per-app warp-instruction volume.
_INSTRUCTION_BOUNDS = (100, 1_000, 10_000, 100_000, 1_000_000)


def publish_app_metrics(stats) -> None:
    """Publish one app simulation's metrics to the current registry.

    Derives everything from the finished :class:`AppStats` — never from
    in-flight execution — so repeated calls for the same (app, config)
    publish identical increments whether the simulation ran or was
    memoised. No-op when no registry is installed.
    """
    registry = current_registry()
    if registry is None:
        return
    from ..core.bitutils import INST_BITS
    from ..core.spaces import CODER_SPACES, INSTRUCTION_UNITS

    for key in sorted(stats.counts, key=lambda k: (k[0].name, k[1])):
        unit, variant = key
        counts = stats.counts[key]
        labels = {"unit": unit.name, "variant": variant}
        for kind, value in (("read0", counts.read0),
                            ("read1", counts.read1),
                            ("write0", counts.write0),
                            ("write1", counts.write1)):
            if value:
                registry.counter(
                    "bvf_bits_total", {**labels, "access": kind},
                    help_text="per-unit/per-variant bit-value access "
                              "volume").inc(value)

    for variant in sorted(stats.noc_toggles):
        registry.counter(
            "noc_toggles_total", {"variant": variant},
            help_text="consecutive-flit wire toggles").inc(
                stats.noc_toggles[variant])
    registry.counter("noc_flits_total",
                     help_text="data flits transmitted").inc(stats.noc_flits)
    registry.counter("noc_bit_slots_total",
                     help_text="transmitted bit-times").inc(
                         stats.noc_bit_slots)

    for cache_name in sorted(stats.cache_stats):
        counters = stats.cache_stats[cache_name]
        labels = {"cache": cache_name}
        registry.counter("cache_accesses_total", labels,
                         help_text="cache probes").inc(
                             counters.get("accesses", 0))
        registry.counter("cache_hits_total", labels).inc(
            counters.get("hits", 0))
        registry.counter("cache_misses_total", labels).inc(
            counters.get("accesses", 0) - counters.get("hits", 0))
        registry.counter("cache_evictions_total", labels).inc(
            counters.get("evictions", 0))

    registry.counter("sim_cycles_total").inc(stats.cycles)
    registry.counter("sim_instructions_total").inc(stats.instructions)
    registry.counter("sim_dram_accesses_total").inc(stats.dram_accesses)
    for op_class in sorted(stats.lane_ops_by_class):
        registry.counter("sim_lane_ops_total", {"class": op_class}).inc(
            stats.lane_ops_by_class[op_class])

    # Coder encode volumes: every word tallied under a coder's variant
    # inside that coder's BVF space passed through its encoder once.
    for coder in ("NV", "VS", "ISA"):
        space_units = CODER_SPACES[coder].units
        words = 0
        for (unit, variant), counts in stats.counts.items():
            if variant != coder or unit not in space_units:
                continue
            word_bits = INST_BITS if unit in INSTRUCTION_UNITS else 32
            words += counts.total_bits // word_bits
        if words:
            registry.counter(
                "coder_encoded_words_total", {"coder": coder},
                help_text="words passed through each coder").inc(words)

    registry.counter("app_runs_total", {"app": stats.app_name}).inc()
    registry.histogram(
        "app_instructions", bounds=_INSTRUCTION_BOUNDS,
        help_text="per-app warp-instruction volume").observe(
            stats.instructions)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

def write_text_sink(path: str, text: str, what: str) -> bool:
    """Write ``text`` to ``path``; warn (never raise) on failure.

    Observability output must not be able to kill a run whose results
    are sound — an unwritable sink degrades to a ``RuntimeWarning``,
    the same contract ``soft_time_limit`` uses for a missing SIGALRM.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return True
    except OSError as exc:
        warnings.warn(
            f"{what} sink {path!r} is unwritable ({exc}); "
            f"continuing without it", RuntimeWarning, stacklevel=2)
        return False


def write_trace_jsonl(tracer: Tracer, path: str) -> bool:
    """Serialise a tracer's span tree to a JSONL file."""
    return write_text_sink(path, tracer.to_jsonl(), "trace")


def write_metrics(registry: MetricsRegistry, path: str) -> bool:
    """Export a registry: Prometheus text for ``.prom``/``.txt`` paths,
    canonical JSON otherwise."""
    if path.endswith((".prom", ".txt")):
        return write_text_sink(path, registry.to_prometheus(), "metrics")
    from ..experiments.base import canonical_json
    return write_text_sink(path, canonical_json(registry.to_dict()),
                           "metrics")


# ---------------------------------------------------------------------------
# The `repro obs report` bodies
# ---------------------------------------------------------------------------

def render_metrics_summary(snapshot: dict) -> str:
    """Human summary of a ``--metrics-out`` JSON snapshot.

    Counters and gauges render one line per series; histogram series
    additionally show the derived latency-style summary (count, sum,
    p50/p95/p99) that :meth:`Histogram.to_value` exports.
    """
    def _labels(entry) -> str:
        labels = entry.get("labels") or {}
        if not labels:
            return ""
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return "{" + inner + "}"

    lines: List[str] = []
    families = snapshot.get("families", {})
    for name in sorted(families):
        family = families[name]
        kind = family.get("kind", "?")
        help_text = family.get("help", "")
        suffix = f"  # {help_text}" if help_text else ""
        lines.append(f"{name} ({kind}){suffix}")
        for entry in family.get("series", []):
            value = entry.get("value")
            if kind == "histogram" and isinstance(value, dict):
                lines.append(
                    f"  {name}{_labels(entry)}: count={value['count']} "
                    f"sum={value['sum']} p50={value.get('p50')} "
                    f"p95={value.get('p95')} p99={value.get('p99')}")
            else:
                lines.append(f"  {name}{_labels(entry)} = {value}")
    if not lines:
        return "(no metric families in snapshot)"
    return "\n".join(lines)

def provenance_report(apps, tech: str = "40nm",
                      json_out: Optional[list] = None) -> Tuple[str, bool]:
    """Per-app energy-provenance report text for the CLI.

    Returns ``(text, ok)``; ``ok`` is False if any provenance total
    failed to reproduce the chip model's number exactly. When
    ``json_out`` is a list, the per-evaluation provenance dicts are
    appended to it (the ``--json`` export path).
    """
    from ..experiments.base import format_table
    from ..power.chip import ChipModel
    from ..power.unit_energy import BASELINE_CELL, BVF_CELL
    from ..sim import simulate_app

    model = ChipModel(tech)
    sections: List[str] = []
    all_exact = True
    for app in apps:
        stats = simulate_app(app)
        sections.append(f"=== {app.name} @ {tech} "
                        f"(vdd={model.vdd:g} V) ===")
        for label, cell, variant, overhead, reference in (
                ("baseline (8T, uncoded)", BASELINE_CELL, "base", False,
                 model.baseline(stats)),
                ("BVF (BVF-8T, ALL coders + overhead)", BVF_CELL, "ALL",
                 True, model.bvf(stats))):
            prov = build_provenance(stats, model, cell, variant,
                                    include_overhead=overhead)
            if json_out is not None:
                json_out.append(prov.to_dict())
            exact = (prov.chip_energy().components == reference.components
                     and prov.total_j == reference.total_j)
            all_exact = all_exact and exact
            sections.append(f"-- {label} --")
            sections.append(prov.table_text())
            sections.append(
                f"provenance total {prov.total_j:.6e} J vs chip model "
                f"{reference.total_j:.6e} J: "
                f"{'exact match' if exact else 'MISMATCH'}")

        matrix = variant_dynamic_matrix(stats, model, BVF_CELL)
        variants = list(next(iter(matrix.values())))
        rows = [[unit] + [f"{matrix[unit][v] * 1e12:.3f}" for v in variants]
                for unit in matrix]
        sections.append("-- per-unit x per-variant dynamic energy "
                        "(pJ, BVF-8T cells) --")
        sections.append(format_table(["unit"] + variants, rows))
        sections.append("")
    return "\n".join(sections), all_exact
