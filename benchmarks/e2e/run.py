"""End-to-end benchmark of the BVF reproduction.

Two ways to run it, from the repository root:

    # one workload at the timed scale, measured for --seconds; the
    # last stdout line is one JSON object with the run's metrics
    python benchmarks/e2e/run.py --workload suite-replay --seed 1 \\
        --seconds 20 --trace 0

    # the paper-scale report: every workload, interleaved samples, one
    # traced sample each; writes a repro-bench v1 record
    python benchmarks/e2e/run.py --out benchmarks/e2e/.out/e2e.json \\
        [--workloads W,..] [--samples N] [--seed S]

Every sample runs in a fresh child process (``workloads.py``), one at a
time: a closed loop with one client. Samples of different workloads
are interleaved in rounds, so a slow spell on a shared host hits every
workload alike. End-to-end metrics come from untraced samples; the
traced sample gives the per-layer metrics, and its wall time over the
untraced median gives the tracing overhead. Any correctness failure
(failed units, differing output digests, traced ``model.*`` differing
from untraced) makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LAYER_NAMES, MODEL_FIELDS
from workloads import HERE, REPO, SRC, WORKLOADS

#: End-to-end metrics: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("units_per_s", "units/s"))

#: The statistic over its samples that a timed run prints for each
#: end-to-end metric. Interference on a shared host only ever slows a
#: sample, and it changes within seconds, so a run's fastest sample is
#: the steadiest estimate of the program's own speed. Set-up and memory
#: print the median.
TIMED_STAT = {"wall_s": "min", "setup_s": "median", "peak_rss_mb": "median",
              "units_per_s": "max"}

#: Per-layer metrics: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{layer}.{what}", unit) for layer in LAYER_NAMES
     for what, unit in (("self_frac", "fraction"), ("calls", "count"))]
    + [("untimed.self_frac", "fraction"),
       ("sim.replays", "count"), ("sim.reuse_frac", "fraction"),
       ("sim.kips", "kinst/s"),
       ("runner.checkpoint.max_mb", "MB"),
       ("runner.pool.busy_frac", "fraction"),
       ("runner.pool.dispatches", "count"),
       ("runner.pool.requeues", "count"),
       ("fidelity.claims_pass", "count"),
       ("fidelity.paper_rel_error", "fraction"),
       ("unit_tail_ms", "ms")]
    + [(f"model.{field}", "count") for field in MODEL_FIELDS]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "fraction"),
       ("failed_frac", "fraction")])

#: Scorecard scale of the sweeps in a report: the paper's evaluation,
#: all 58 apps (suite-replay always simulates all 58).
REPORT_SCALE = "full"

#: Scorecard scale of the sweeps in a timed run: the CI scale, which
#: grades every claim over 7 apps. A full-scale sample takes 80-90 s;
#: a smoke-scale one under 10 s, so 22 timed runs of each workload fit
#: in an hour.
TIMED_SCALE = "smoke"

#: Samples per workload in a paper-scale report.
PAPER_SAMPLES = {"paper-serial": 3, "paper-durable": 3,
                 "suite-replay": 5, "figures-warm": 5}

#: Self times plus the untimed remainder must sum to the traced wall.
TELESCOPE_TOLERANCE = 0.02

OUT_DIR = os.path.join(HERE, ".out")
WORKLOADS_PY = os.path.join(HERE, "workloads.py")


class SampleError(RuntimeError):
    """A sample process failed, timed out or printed no result."""


def spawn(spec: dict, timeout_s: float) -> dict:
    """Run one sample in a fresh process and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    spec = dict(spec, spawned_at=time.time())
    proc = subprocess.Popen([sys.executable, WORKLOADS_PY, json.dumps(spec)],
                            stdout=subprocess.PIPE, cwd=REPO, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"{spec['workload']}: sample exceeded "
                          f"{timeout_s:g}s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{spec['workload']}: sample exited "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def spread(values: Sequence[float]) -> dict:
    """Median, quartiles, min/max and n of one metric's samples."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    q1, q3 = ((statistics.quantiles(values, n=4)[0],
               statistics.quantiles(values, n=4)[2])
              if len(values) > 1 else (median, median))
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def tail_pct(n: int) -> int:
    """Highest of p99/p95/p90/p80 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 80):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer_metrics(traced: dict, metrics: dict, kips: float,
                      failed_frac: float) -> Dict[str, float]:
    """The per-layer metric values of one traced sample, plus the
    untraced samples' unit tail and replay speed."""
    wall = traced["wall_s"]
    report = traced["layers"]
    extra = traced["extra"]
    values: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        row = report["layers"][layer]
        values[f"{layer}.self_frac"] = row["self_s"] / wall
        values[f"{layer}.calls"] = row["calls"]
    sim_calls = report["layers"]["sim"]["calls"]
    values.update({
        "untimed.self_frac": report["untimed_s"] / wall,
        "sim.replays": traced["replays"],
        "sim.reuse_frac": (1.0 - traced["replays"] / sim_calls
                           if sim_calls else 0.0),
        "sim.kips": kips,
        "runner.checkpoint.max_mb": extra.get("checkpoint_mb", 0.0),
        "runner.pool.busy_frac": extra.get("pool_busy_frac", 0.0),
        "runner.pool.dispatches": extra.get("pool_dispatches", 0),
        "runner.pool.requeues": extra.get("pool_requeues", 0),
        "fidelity.claims_pass": extra.get("claims_pass", 0),
        "fidelity.paper_rel_error": extra.get("paper_rel_error", 0.0),
        "unit_tail_ms": metrics["unit_tail_ms"]["median"],
    })
    for field in MODEL_FIELDS:
        values[f"model.{field}"] = traced["model"][field]
    values.update({"trace.wall_s": wall,
                   "trace.overhead_frac":
                       wall / metrics["wall_s"]["median"] - 1.0,
                   "failed_frac": failed_frac})
    return values


def summarize(name: str, samples: List[dict],
              traced: Optional[dict]) -> dict:
    """End-to-end spreads, per-layer values and correctness of one
    workload's samples (``traced`` may be None)."""
    everything = samples + ([traced] if traced else [])
    problems: List[str] = []
    attempted = sum(max(1, s["ops"]) for s in everything)
    failed = sum(s["failed"] + s["mismatches"] for s in everything)
    if failed:
        problems.append(f"{name}: {failed} failed units or bad outputs")
    digests = {json.dumps(s["digests"], sort_keys=True) for s in everything}
    if len(digests) != 1:
        failed += len(digests) - 1
        problems.append(f"{name}: output digests differ across samples "
                        f"({len(digests)} variants)")
    models = {json.dumps(s["model"], sort_keys=True) for s in everything}
    if len(models) != 1:
        failed += 1
        problems.append(f"{name}: model.* differs between samples")
    pct = tail_pct(samples[0]["ops"])
    metrics = {
        "wall_s": spread([s["wall_s"] for s in samples]),
        "setup_s": spread([s["setup_s"] for s in samples]),
        "peak_rss_mb": spread([s["peak_rss_mb"] for s in samples]),
        "units_per_s": spread([s["ops"] / s["wall_s"] for s in samples]),
        "unit_tail_ms": spread([percentile(s["op_ms"], pct)
                                for s in samples]),
    }
    summary = {"metrics": metrics, "unit_tail_pct": pct,
               "attempted": attempted, "failed": failed,
               "problems": problems, "digests": samples[0]["digests"]}
    if traced is not None:
        report = traced["layers"]
        gap = abs(report["self_sum_s"] + report["untimed_s"]
                  - traced["wall_s"]) / traced["wall_s"]
        if gap > TELESCOPE_TOLERANCE:
            problems.append(f"{name}: layer self times + remainder miss "
                            f"the traced wall by {gap:.1%}")
            failed += 1
            summary["failed"] = failed
        kips = statistics.median(s["replayed_instructions"] / s["wall_s"]
                                 / 1e3 for s in samples)
        summary["per_layer"] = per_layer_metrics(traced, metrics, kips,
                                                 failed / attempted)
        summary["stages"] = {
            layer: {"calls": row["calls"], "self_wall_s": row["self_s"],
                    "cum_wall_s": row["cum_s"]}
            for layer, row in report["layers"].items()}
        summary["stages"]["untimed"] = {"calls": 1,
                                        "self_wall_s": report["untimed_s"],
                                        "cum_wall_s": report["untimed_s"]}
        summary["stages_wall_s"] = traced["wall_s"]
        summary["missing_entry_points"] = traced["missing_entry_points"]
    return summary


def cross_check(summaries: Dict[str, dict]) -> List[str]:
    """The sweeps, which run every experiment over the same apps, must
    agree on the experiments they share."""
    problems = []
    names = [w for w in ("paper-serial", "paper-durable", "figures-warm")
             if w in summaries]
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            a, b = summaries[first]["digests"], summaries[second]["digests"]
            differ = sorted(e for e in set(a) & set(b) if a[e] != b[e])
            if differ:
                problems.append(f"{first} vs {second}: results differ on "
                                f"{', '.join(differ)}")
    return problems


def print_summary(name: str, summary: dict) -> None:
    units = dict(END_TO_END + PER_LAYER)
    for metric, row in summary["metrics"].items():
        print(f"{name:14s} {metric:28s} {row['median']:14.8g} "
              f"{units[metric]:9s} [q1 {row['q1']:.6g}, q3 {row['q3']:.6g},"
              f" n={row['n']}]")
    for metric, value in summary.get("per_layer", {}).items():
        print(f"{name:14s} {metric:28s} {value:14.8g} {units[metric]}")
    for problem in summary["problems"]:
        print(f"{name:14s} FAILED: {problem}")
    missing = summary.get("missing_entry_points")
    if missing:
        print(f"{name:14s} missing entry points: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Front ends
# ---------------------------------------------------------------------------

def _spec(workload: str, scale: str, seed: int, sample: int, trace: bool,
          trace_path: Optional[str] = None) -> dict:
    return {"workload": workload, "scale": scale,
            "order_seed": f"{seed}/{sample}", "trace": trace,
            "trace_path": trace_path, "workdir": OUT_DIR}


def run_timed(args) -> int:
    """One workload at the timed scale, sampled for ``--seconds``."""
    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{args.workload}.trace.jsonl")
        open(trace_path, "w").close()
    samples: List[dict] = []
    start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < args.seconds:
        samples.append(spawn(_spec(args.workload, TIMED_SCALE, args.seed,
                                   len(samples), False), 170))
    traced = (spawn(_spec(args.workload, TIMED_SCALE, args.seed,
                          len(samples), True, trace_path), 170)
              if args.trace else None)
    summary = summarize(args.workload, samples, traced)
    print_summary(args.workload, summary)
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in summary["per_layer"].items()}
    else:
        metrics = {name: {"value": summary["metrics"][name][TIMED_STAT[name]],
                          "unit": unit}
                   for name, unit in END_TO_END}
    correct = not summary["problems"]
    print(json.dumps({"correct": correct,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _host() -> dict:
    import numpy
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__}


def bench_record(summaries: Dict[str, dict], seed: int,
                 problems: List[str]) -> dict:
    """The report as a repro-bench v1 record (plus e2e-only keys)."""
    scenarios = {}
    for name, summary in summaries.items():
        walls = summary["metrics"]["wall_s"]["samples"]
        median = statistics.median(walls)
        entry = {
            "description": WORKLOADS[name].why,
            "wall_s": {"median": median,
                       "mad": statistics.median(abs(w - median)
                                                for w in walls),
                       "best": min(walls), "samples": walls},
            "peak_rss_bytes": int(
                summary["metrics"]["peak_rss_mb"]["median"] * 1e6),
            "metrics": summary["metrics"],
            "unit_tail_pct": summary["unit_tail_pct"],
            "digests": summary["digests"],
            "attempted": summary["attempted"], "failed": summary["failed"],
        }
        for key in ("per_layer", "stages", "stages_wall_s",
                    "missing_entry_points"):
            if key in summary:
                entry[key] = summary[key]
        scenarios[name] = entry
    return {
        "schema": "repro-bench", "schema_version": 1, "suite": "e2e",
        "scale": REPORT_SCALE, "seed": seed,
        "repeats": max(len(s["metrics"]["wall_s"]["samples"])
                       for s in summaries.values()),
        "warmup": 0,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": _host(),
        "correct": not problems, "problems": problems,
        "scenarios": scenarios,
    }


def run_report(args) -> int:
    """Interleaved samples of every workload, then one traced each."""
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    counts = {n: args.samples or PAPER_SAMPLES[n] for n in names}
    stem = os.path.splitext(args.out)[0]
    trace_path = os.path.abspath(stem + ".trace.jsonl")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    open(trace_path, "w").close()
    samples: Dict[str, List[dict]] = {n: [] for n in names}
    for round_ in range(max(counts.values())):
        for name in names:
            if round_ < counts[name]:
                print(f"[e2e] {name} sample {round_ + 1}/{counts[name]}",
                      file=sys.stderr, flush=True)
                samples[name].append(spawn(_spec(
                    name, REPORT_SCALE, args.seed, round_, False), 1800))
    summaries = {}
    for name in names:
        print(f"[e2e] {name} traced sample", file=sys.stderr, flush=True)
        traced = spawn(_spec(name, REPORT_SCALE, args.seed, counts[name],
                             True, trace_path), 1800)
        summaries[name] = summarize(name, samples[name], traced)
        print_summary(name, summaries[name])
    cross = cross_check(summaries)
    for problem in cross:
        print(f"FAILED: {problem}")
    problems = [p for s in summaries.values() for p in s["problems"]] + cross
    record = bench_record(summaries, args.seed, problems)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} and {trace_path}")
    return 0 if not problems else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload at the timed scale")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: how long to keep sampling")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: add a traced sample and "
                             "print per-layer metrics instead")
    parser.add_argument("--seed", type=int, default=2017,
                        help="seeds the app order handed to the program")
    parser.add_argument("--out", help="write a report over --workloads")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--samples", type=int,
                        help="untraced samples per workload (default: "
                             + ", ".join(f"{k} {v}" for k, v
                                         in PAPER_SAMPLES.items()) + ")")
    args = parser.parse_args(argv)
    if not args.workload and not args.out:
        parser.error("give --workload (one timed run) or --out (report)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        return run_timed(args) if args.workload else run_report(args)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
