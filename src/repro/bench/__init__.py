"""``repro.bench`` — reading benchmark output.

The end-to-end benchmark (``benchmarks/e2e``) measures the
reproduction; this package answers the two questions its output
raises — *where does the time go*, and *did this change regress it*:

* **hotspot profiler** (:mod:`~repro.bench.hotspots`): folds span
  trees into per-name self/cumulative wall+CPU aggregates with call
  counts and warp-instruction throughput, rendered as a sorted table
  or a folded-stack export for flamegraph tools;
* **regression gate** (:mod:`~repro.bench.compare`): reads two
  ``repro-bench`` records and flags a scenario only when the median
  shift clears both a relative threshold and a k·MAD noise floor. Its
  deltas, verdicts, table and exit codes come from the shared
  comparator core, :mod:`repro.compare`.

CLI: ``repro bench hotspots | compare``.
"""

from .compare import (SCHEMA, SCHEMA_VERSION, BenchRecordError,
                      compare_paths, compare_records, load_bench_record,
                      render_compare_table)
from .hotspots import (Hotspot, HotspotReport, aggregate_hotspots,
                       folded_stacks, render_hotspot_table)

__all__ = [
    "Hotspot", "HotspotReport", "aggregate_hotspots", "folded_stacks",
    "render_hotspot_table",
    "SCHEMA", "SCHEMA_VERSION", "BenchRecordError", "compare_paths",
    "compare_records", "load_bench_record", "render_compare_table",
]
