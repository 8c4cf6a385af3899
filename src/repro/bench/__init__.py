"""``repro.bench`` — continuous benchmarking for the reproduction.

Layered on the :mod:`repro.obs` tracer, three pieces answer the two
questions every PR should face — *where does the time go*, and *did
this change regress it*:

* **hotspot profiler** (:mod:`~repro.bench.hotspots`): folds span
  trees into per-name self/cumulative wall+CPU aggregates with call
  counts and warp-instruction throughput, rendered as a sorted table
  or a folded-stack export for flamegraph tools;
* **benchmark harness** (:mod:`~repro.bench.suite`): pinned scenario
  suites (sweeps, cold replay, ``bitutils`` microbenchmarks) run
  best-of-N with warmup, recorded as schema-versioned
  ``BENCH_<timestamp>.json`` files with median/MAD wall+CPU, peak RSS
  and tracer-sourced stage breakdowns;
* **regression gate** (:mod:`~repro.bench.compare`): flags a scenario
  only when the median shift clears both a relative threshold and a
  k·MAD noise floor. Its deltas, verdicts, table and exit codes come
  from the shared comparator core, :mod:`repro.compare`.

CLI: ``repro bench run | hotspots | compare``.
"""

from .compare import (BenchRecordError, compare_paths, compare_records,
                      load_bench_record, render_compare_table)
from .hotspots import (Hotspot, HotspotReport, aggregate_hotspots,
                       folded_stacks, render_hotspot_table)
from .suite import (SCENARIOS, SCHEMA, SCHEMA_VERSION, SUITES, Scenario,
                    default_bench_path, run_scenario, run_suite,
                    write_bench_record)

__all__ = [
    "Hotspot", "HotspotReport", "aggregate_hotspots", "folded_stacks",
    "render_hotspot_table",
    "SCENARIOS", "SCHEMA", "SCHEMA_VERSION", "SUITES", "Scenario",
    "default_bench_path", "run_scenario", "run_suite",
    "write_bench_record",
    "BenchRecordError", "compare_paths", "compare_records",
    "load_bench_record", "render_compare_table",
]
