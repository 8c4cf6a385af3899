"""Noise-aware regression gate over two ``repro-bench`` records.

A record is tagged :data:`SCHEMA` at :data:`SCHEMA_VERSION`, and its
``scenarios`` table maps each name to ``{"wall_s": {"median", "mad",
"best", "samples"}, ...}``. The end-to-end benchmark
(``benchmarks/e2e``) writes one per report, one scenario per workload.

``repro bench compare old.json new.json`` lines the two records'
scenarios up and flags a **regression** only when the median wall-time
shift clears *both* bars:

* the **relative** bar: ``(new - old) / old > threshold`` (default
  10%), so micro-jitter on fast scenarios never pages anyone; and
* the **noise** bar: ``new - old > k * max(old MAD, new MAD)``
  (default k = 3), so a shift inside the measured run-to-run spread of
  either record is treated as noise, not signal.

Scenarios faster than ``min_seconds`` on the old side are reported but
never gated — their medians sit inside scheduler quantisation.
Comparing a record against itself therefore always passes, and an
injected 2x slowdown always fails: the exit-code contract CI relies on
(0 clean, 1 regression with ``--gate``, 2 unusable records). Alignment,
verdicts, the two-bar test, the table layout and the exit-code rule
are the shared :mod:`repro.compare` core; this module owns the loader
and the grading rule (the k x MAD bar and ``too-fast``), and only
``regression`` gates.

Perf numbers are machine-relative. Gate only against a baseline
produced on the same host; cross-host comparisons are for eyeballs.
"""

from __future__ import annotations

from typing import List, Tuple

from ..compare import Delta, align, render_table, shift_verdict
from ..records import RecordError, load_schema_record

__all__ = ["SCHEMA", "SCHEMA_VERSION", "BenchRecordError", "compare_paths",
           "compare_records", "load_bench_record", "render_compare_table"]

SCHEMA = "repro-bench"
SCHEMA_VERSION = 1

DEFAULT_REL_THRESHOLD = 0.10
DEFAULT_MAD_K = 3.0
DEFAULT_MIN_SECONDS = 0.001

_HEADER = (f"{'scenario':<18} {'old(s)':>10} {'new(s)':>10} "
           f"{'shift':>8} {'noise<=':>9}")
_RULE = "-" * len(f"{_HEADER}  verdict")


class BenchRecordError(RecordError):
    """A BENCH record file is missing, malformed, or a newer schema."""


def load_bench_record(path: str) -> dict:
    """Load and schema-validate one ``repro-bench`` record."""
    return load_schema_record(path, SCHEMA, SCHEMA_VERSION, "scenarios",
                              error_cls=BenchRecordError)


def compare_records(old: dict, new: dict,
                    rel_threshold: float = DEFAULT_REL_THRESHOLD,
                    mad_k: float = DEFAULT_MAD_K,
                    min_seconds: float = DEFAULT_MIN_SECONDS
                    ) -> List[Delta]:
    """Compare two loaded BENCH records scenario by scenario.

    Returns one ``scenario`` :class:`~repro.compare.Delta` per scenario
    name seen in either record, in sorted-name order: ``old``/``new``
    are the median walls, ``columns`` carries ``rel_shift`` and
    ``noise_limit_s`` (k * max(old MAD, new MAD)).
    """
    def _grade(old_entry, new_entry):
        old_wall, new_wall = old_entry["wall_s"], new_entry["wall_s"]
        old_median = float(old_wall["median"])
        new_median = float(new_wall["median"])
        noise_limit = mad_k * max(float(old_wall.get("mad", 0.0)),
                                  float(new_wall.get("mad", 0.0)))
        verdict, rel = shift_verdict(old_median, new_median, rel_threshold,
                                     noise_limit)
        if old_median < min_seconds:
            verdict = "too-fast"
        return verdict, {"old": old_median, "new": new_median,
                         "columns": {"rel_shift": rel,
                                     "noise_limit_s": noise_limit}}

    return align(old["scenarios"], new["scenarios"], _grade,
                 gating=("regression",), kind="scenario")


def _row(d: Delta) -> str:
    if d.old is None or d.new is None:
        return f"{d.name:<18} {'-':>10} {'-':>10} {'-':>8} {'-':>9}"
    return (f"{d.name:<18} {d.old:>10.4f} {d.new:>10.4f} "
            f"{d.columns['rel_shift']:>+7.1%} "
            f"{d.columns['noise_limit_s']:>8.4f}s")


def render_compare_table(deltas: List[Delta],
                         rel_threshold: float = DEFAULT_REL_THRESHOLD,
                         mad_k: float = DEFAULT_MAD_K) -> str:
    """Human summary of a comparison, one line per scenario."""
    regressions = sum(1 for d in deltas if d.gates)
    footer = (f"{_RULE}\n{regressions} regression(s) at "
              f">{rel_threshold:.0%} median shift AND >{mad_k:g}x MAD "
              f"noise floor")
    return render_table(deltas, _HEADER, _row, footer)


def compare_paths(old_path: str, new_path: str, *,
                  rel_threshold: float = DEFAULT_REL_THRESHOLD,
                  mad_k: float = DEFAULT_MAD_K,
                  min_seconds: float = DEFAULT_MIN_SECONDS
                  ) -> Tuple[List[Delta], str]:
    """Load, compare, and render two record files in one call."""
    old = load_bench_record(old_path)
    new = load_bench_record(new_path)
    deltas = compare_records(old, new, rel_threshold=rel_threshold,
                             mad_k=mad_k, min_seconds=min_seconds)
    return deltas, render_compare_table(deltas, rel_threshold, mad_k)
