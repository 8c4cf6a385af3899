"""``repro.bench`` — reading benchmark traces.

The end-to-end benchmark (``benchmarks/e2e``) measures the
reproduction and grades two of its reports against the bounds in
``BENCHMARK.json`` (``benchmarks/e2e/compare.py``). This package
answers the question its traces raise — *where does the time go*:

* **hotspot profiler** (:mod:`~repro.bench.hotspots`): folds span
  trees into per-name self/cumulative wall+CPU aggregates with call
  counts and warp-instruction throughput, rendered as a sorted table
  or a folded-stack export for flamegraph tools.

CLI: ``repro bench hotspots``.
"""

from .hotspots import (Hotspot, HotspotReport, aggregate_hotspots,
                       folded_stacks, render_hotspot_table)

__all__ = [
    "Hotspot", "HotspotReport", "aggregate_hotspots", "folded_stacks",
    "render_hotspot_table",
]
