"""Compare two end-to-end benchmark reports written by ``run.py --out``.

    python benchmarks/e2e/compare.py OLD.json NEW.json

For every (workload, end-to-end metric) pair it prints the two medians,
the shift (positive = worse) and each report's quartile spread as a
share of its median, with a verdict against the metric's bound from
``BENCHMARK.json``:

* ``ok``         -- the medians differ by no more than the bound;
* ``regression`` / ``improved`` -- they differ by more;
* ``unresolved`` -- either report's spread exceeds the bound, so the
  shift cannot be told from noise (not "unchanged"), unless every NEW
  sample is better than every OLD sample, which reads ``improved``.

Per-layer metrics that must not move for a speed-only change (the
``model.*`` sums, claims, paper error, failed fraction) and the output
digests are compared exactly and read ``changed`` when they differ.
Exit code: 0 clean, 1 on any regression or change, 2 on unusable input.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

EXACT_PREFIXES = ("model.", "fidelity.claims_pass",
                  "fidelity.paper_rel_error", "failed_frac")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("schema") != "repro-bench" or record.get("suite") != "e2e":
        raise ValueError(f"{path} is not an e2e benchmark report")
    return record


def verdict(old: dict, new: dict, better: str, bound: float):
    """(verdict, shift) for one metric's two spreads."""
    sign = 1.0 if better == "lower" else -1.0
    shift = sign * (new["median"] - old["median"]) / old["median"]
    spreads = [(row["q3"] - row["q1"]) / row["median"] for row in (old, new)]
    if max(spreads) > bound:
        if better == "lower":
            all_better = max(new["samples"]) < min(old["samples"])
        else:
            all_better = min(new["samples"]) > max(old["samples"])
        return ("improved" if all_better else "unresolved"), shift, spreads
    if shift > bound:
        return "regression", shift, spreads
    if shift < -bound:
        return "improved", shift, spreads
    return "ok", shift, spreads


def compare(old: dict, new: dict, spec: dict) -> list:
    """Rows of (workload, metric, old, new, shift, spreads, verdict)."""
    rows = []
    for name in sorted(set(old["scenarios"]) | set(new["scenarios"])):
        a, b = old["scenarios"].get(name), new["scenarios"].get(name)
        if a is None or b is None:
            rows.append((name, "*", None, None, None, None,
                         "new" if a is None else "missing"))
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            kind, shift, spreads = verdict(a["metrics"][m], b["metrics"][m],
                                           metric["better"], metric["bound"])
            rows.append((name, m, a["metrics"][m]["median"],
                         b["metrics"][m]["median"], shift, spreads, kind))
        for m, value in sorted(a.get("per_layer", {}).items()):
            if m.startswith(EXACT_PREFIXES):
                other = b.get("per_layer", {}).get(m)
                rows.append((name, m, value, other, None, None,
                             "ok" if other == value else "changed"))
        rows.append((name, "digests", None, None, None, None,
                     "ok" if a["digests"] == b["digests"] else "changed"))
    return rows


def render(rows: list) -> str:
    lines = [f"{'workload':14s} {'metric':26s} {'old':>12s} {'new':>12s} "
             f"{'shift':>8s} {'spread':>15s}  verdict"]
    for name, metric, old, new, shift, spreads, kind in rows:
        def num(v):
            return f"{v:12.6g}" if isinstance(v, (int, float)) else \
                f"{'-':>12s}"
        shown = "-" if shift is None else f"{shift:+.1%}"
        spread = ("-" if spreads is None
                  else f"{spreads[0]:.1%}/{spreads[1]:.1%}")
        lines.append(f"{name:14s} {metric:26s} {num(old)} {num(new)} "
                     f"{shown:>8s} {spread:>15s}  {kind}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        old, new = _load(argv[0]), _load(argv[1])
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(old, new, spec)
    print(render(rows))
    bad = [r for r in rows if r[-1] in ("regression", "changed")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
