"""Command-line interface: reproduce the paper's tables and figures.

Usage::

    python -m repro list                    # available experiments/apps
    python -m repro run fig18               # one experiment, full suite
    python -m repro run fig18 --apps ATA,BLA,VEC
    python -m repro run all                 # the whole evaluation section
    python -m repro run all --jobs 4        # parallel sweep, 4 workers
    python -m repro run all --checkpoint ck.json   # resumable sweep
    python -m repro run all --resume ck.json       # pick up where it died
    python -m repro run all --resume ck.json --jobs 4  # parallel resume
    python -m repro run all --trace t.jsonl --metrics-out m.json
    python -m repro run all --ledger run.jsonl --jobs 4  # tail -f run.jsonl
    python -m repro app ATA                 # quick single-app study
    python -m repro obs report --apps ATA,VEC      # energy provenance
    python -m repro obs tree t.jsonl --min-ms 5 --sort duration
    python -m repro obs report --metrics m.json     # histogram summary
    python -m repro obs diff --trace old.jsonl new.jsonl --gate
    python -m repro obs diff --ledger old.jsonl new.jsonl
    python -m repro bench hotspots t.jsonl --folded out.folded
    python -m repro fidelity run --scale smoke     # FIDELITY_<ts>.json
    python -m repro fidelity report --markdown     # EXPERIMENTS.md table
    python -m repro fidelity compare old.json new.json --gate
    python -m repro run all --chaos kill=0.5,torn=0.3 --chaos-seed 7
    python -m repro chaos --campaign smoke --jobs 2  # survival matrix

Parallel sweeps are deterministic: every unit is seeded from its
(experiment, app) key and the merge is order-independent, so ``--jobs
N`` produces byte-identical tables to a serial run; the merged trace
structure, metrics snapshot and fidelity scorecard are deterministic
the same way.

Exit codes: 0 success, 1 regression flagged by a ``--gate``
(``fidelity compare``, ``obs diff``, a calibrated-claim failure under
``fidelity run --gate``, or a chaos campaign scenario that did not
survive), 2 usage error (unknown experiment/app/scale/campaign, bad
--chaos spec or comparator bar, missing resume/trace/ledger/record
file), 3 sweep completed but some units failed (or a provenance total
failed to reproduce the chip model exactly, or an output sink was
unwritable), 130 sweep drained after SIGTERM/SIGINT — completed units
are checkpointed and ``--resume`` picks up from the frontier. A reader
that closes stdout early (``repro list | head``) ends any command
with exit 0 and no traceback.

The benchmark report (``benchmarks/e2e/run.py``) is graded by
``benchmarks/e2e/compare.py`` against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import sys

# Shared did-you-mean helpers: every subcommand that takes a name from
# a closed set resolves it here (repro/cli_util.py), so the suggestion
# behaviour and exit-2 contract can never drift between subcommands.
from .cli_util import (lookup_app as _lookup_app,
                       nonneg_float as _nonneg_float,
                       positive_float as _positive_float,
                       resolve_apps as _resolve_apps,
                       unknown_name as _unknown_name)
from .compare import gate_exit_code


def cmd_list(_args) -> int:
    from .experiments import EXPERIMENTS
    from .kernels import all_apps
    print("experiments:")
    for exp_id in EXPERIMENTS:
        print(f"  {exp_id}")
    print("\napplications (58):")
    for app in all_apps():
        print(f"  {app.name:4s} [{app.suite}] {app.description}")
    return 0


def _chaos_plan(args):
    """Build the ChaosPlan from --chaos/--chaos-seed, or None/2.

    Returns ``(plan, 0)`` — plan may be None — or ``(None, 2)`` after
    printing the spec error.
    """
    spec = getattr(args, "chaos", None)
    if not spec:
        return None, 0
    from .chaos import ChaosError, parse_chaos_spec
    try:
        return parse_chaos_spec(spec, seed=args.chaos_seed), 0
    except ChaosError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return None, 2


def _run_resilient(args, experiments, apps) -> int:
    from .runner import CheckpointError, SweepInterrupted, SweepRunner
    chaos, code = _chaos_plan(args)
    if code:
        return code
    try:
        runner = SweepRunner(
            experiments=experiments,
            apps=apps,
            checkpoint_path=args.resume or args.checkpoint,
            resume=bool(args.resume),
            max_attempts=args.max_attempts,
            backoff_s=args.retry_backoff,
            timeout_s=args.timeout,
            jobs=args.jobs,
            trace_path=args.trace,
            metrics_path=args.metrics_out,
            chaos=chaos,
            max_dispatches=args.max_dispatches,
            ledger_path=args.ledger,
        )
    except FileNotFoundError:
        print(f"resume checkpoint not found: {args.resume!r}",
              file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2

    # Progress streams to stderr (tables go to stdout) as worker
    # futures complete; with --jobs the completion order is whatever
    # the pool delivers, which is exactly why it is worth watching.
    total = len(runner.plan())
    done = {"n": 0}

    def _progress(key, record):
        done["n"] += 1
        print(f"  [{done['n'] + runner.stats.skipped}/{total}] "
              f"{record['status']} {key} ({record['wall_s']}s, "
              f"attempts={record['attempts']})", file=sys.stderr)

    runner.on_unit_done = _progress
    try:
        results = runner.run()
    except SweepInterrupted as exc:
        # Completed units (including drained worker futures) are
        # already checkpointed; 130 is the conventional fatal-signal
        # code and tells wrappers a --resume will finish the sweep.
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        print(runner.report_line(), file=sys.stderr)
        if runner.checkpoint.path:
            print(f"resume with: --resume {runner.checkpoint.path}",
                  file=sys.stderr)
        return 130
    for result in results:
        print(result.to_text())
        print()
    print(runner.report_line())
    for key in runner.quarantined_units:
        print(f"  quarantined unit (recorded as structured failure): "
              f"{key}", file=sys.stderr)
    if runner.failed_units:
        for key in runner.failed_units:
            print(f"  failed unit: {key}", file=sys.stderr)
        return 3
    return 0


def cmd_run(args) -> int:
    from .experiments import EXPERIMENTS, accepts_apps, run_experiment
    apps = _resolve_apps(args.apps)
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        # Same did-you-mean hint as every other name lookup, but this
        # path returns rather than raises: `run` predates the shared
        # helper and callers rely on the plain return code.
        return _unknown_name("experiment", args.experiment,
                             EXPERIMENTS).code

    for flag, value in (("--jobs", args.jobs),
                        ("--max-attempts", args.max_attempts),
                        ("--max-dispatches", args.max_dispatches)):
        if value < 1:
            print(f"{flag} must be >= 1", file=sys.stderr)
            return 2
    # Observability sinks and the per-attempt time guard need the
    # unit-record machinery, so they force the resilient path. Its
    # results agree serially and at --jobs N, but can differ from the
    # plain path's: `fig23` with --jobs 2 and `sec7.1-inject` with
    # --trace both print other numbers (ROADMAP item 1).
    resilient = bool(args.checkpoint or args.resume or args.jobs > 1
                     or args.trace or args.metrics_out or args.chaos
                     or args.ledger or args.timeout is not None)
    if args.experiment == "all" or resilient:
        experiments = None if args.experiment == "all" else [args.experiment]
        return _run_resilient(args, experiments, apps)

    driver = EXPERIMENTS[args.experiment]
    if accepts_apps(driver):
        result = run_experiment(args.experiment, apps=apps)
    else:
        result = run_experiment(args.experiment)
    print(result.to_text())
    return 0


def cmd_app(args) -> int:
    from .kernels import all_apps
    from .power import ChipModel
    from .sim import simulate_app
    app = _lookup_app(args.name, [a.name for a in all_apps()])
    stats = simulate_app(app)
    print(f"{args.name}: {stats.instructions} warp-instructions, "
          f"{stats.cycles} cycles, L1D hit {stats.l1d_hit_rate:.0%}")
    for tech in ("28nm", "40nm"):
        model = ChipModel(tech)
        base, bvf = model.baseline(stats), model.bvf(stats)
        print(f"  {tech}: {base.total_j:.3e} J -> {bvf.total_j:.3e} J "
              f"({bvf.reduction_vs(base):.1%} saved)")
    return 0


#: Default app subset for ``obs report`` — the golden-smoke pair, so
#: the command answers in seconds instead of sweeping all 58 apps.
OBS_REPORT_DEFAULT_APPS = "ATA,VEC"


def _read_trace_file(path: str):
    """Trace JSONL text, or None after printing a usage error (the
    shared reader of ``obs tree`` and ``bench hotspots``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
        return None


def _cmd_obs_tree(args) -> int:
    text = _read_trace_file(args.trace)
    if text is None:
        return 2
    from .obs.tracer import render_jsonl_tree
    print(render_jsonl_tree(text, min_ms=args.min_ms, sort=args.sort))
    return 0


def _cmd_obs_diff(args) -> int:
    from .obs.diff import diff_paths, render_diff_table
    pairs = {"trace": args.trace, "metrics": args.metrics,
             "ledger": args.ledger}
    if not any(pairs.values()):
        print("obs diff: pass at least one artifact pair "
              "(--trace OLD NEW, --metrics OLD NEW, --ledger OLD NEW)",
              file=sys.stderr)
        return 2
    try:
        deltas = diff_paths(trace=args.trace, metrics=args.metrics,
                            ledger=args.ledger,
                            rel_threshold=args.threshold,
                            abs_floor_s=args.abs_floor_s)
    except (OSError, ValueError) as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        from .obs.diff import diff_to_dict
        print(json.dumps(diff_to_dict(deltas), sort_keys=True, indent=1))
    else:
        print(render_diff_table(deltas, show_ok=args.show_ok))
    code = gate_exit_code(deltas, args.gate)
    if code:
        print("obs diff gate FAILED", file=sys.stderr)
    return code


def _cmd_obs_report(args) -> int:
    if args.metrics:
        import json
        from .obs.report import render_metrics_summary
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                snapshot = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read metrics snapshot {args.metrics!r}: {exc}",
                  file=sys.stderr)
            return 2
        if args.prometheus:
            from .obs.metrics import MetricsRegistry
            # write(), not print(): to_prometheus() already ends with
            # a newline, and the output must be exactly the exposition
            # text, with no second trailing newline.
            sys.stdout.write(
                MetricsRegistry.from_dict(snapshot).to_prometheus())
            return 0
        print(render_metrics_summary(snapshot))
        return 0
    if args.prometheus:
        print("--prometheus needs --metrics PATH", file=sys.stderr)
        return 2

    from .obs.report import provenance_report
    apps = _resolve_apps(args.apps or OBS_REPORT_DEFAULT_APPS)
    json_out = [] if args.json else None
    text, all_exact = provenance_report(apps, tech=args.tech,
                                        json_out=json_out)
    print(text)
    if args.json:
        from .experiments.base import canonical_json
        from .obs.report import write_text_sink
        write_text_sink(args.json, canonical_json(json_out),
                        "provenance json")
    if not all_exact:
        print("provenance totals do not reproduce the chip model "
              "exactly", file=sys.stderr)
        return 3
    return 0


def cmd_obs(args) -> int:
    handler = {"tree": _cmd_obs_tree, "diff": _cmd_obs_diff,
               "report": _cmd_obs_report}
    return handler[args.obs_command](args)


def _cmd_bench_hotspots(args) -> int:
    from .bench import (aggregate_hotspots, folded_stacks,
                        render_hotspot_table)
    from .obs.report import write_text_sink
    from .obs.tracer import jsonl_to_trees
    if args.limit is not None and args.limit < 0:
        print("--limit must be >= 0", file=sys.stderr)
        return 2
    text = _read_trace_file(args.trace)
    if text is None:
        return 2
    roots = jsonl_to_trees(text)
    if not roots:
        print(f"no spans in {args.trace!r}", file=sys.stderr)
        return 2
    try:
        print(render_hotspot_table(aggregate_hotspots(roots),
                                   sort=args.sort, limit=args.limit))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.folded:
        if not write_text_sink(args.folded, folded_stacks(roots),
                               "folded stacks"):
            return 3
        print(f"wrote folded stacks to {args.folded}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    handler = {"hotspots": _cmd_bench_hotspots}
    return handler[args.bench_command](args)


def _fidelity_scale(name: str):
    from .fidelity import SCALES
    if name not in SCALES:
        raise _unknown_name("fidelity scale", name, SCALES)
    return SCALES[name]


def _run_fidelity_record(scale_name: str, jobs: int):
    """Run one scale and build its record; None after a usage error."""
    from .fidelity import build_record, evaluate_claims, run_scale
    scale = _fidelity_scale(scale_name)
    if jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return None

    done = {"n": 0}

    def _progress(key, record):
        done["n"] += 1
        print(f"  [{done['n']}] {record['status']} {key} "
              f"({record['wall_s']}s)", file=sys.stderr)

    artifacts, failed, quarantined = run_scale(scale, jobs=jobs,
                                               on_unit_done=_progress)
    return build_record(evaluate_claims(artifacts), scale.name,
                        failed_units=failed,
                        quarantined_units=quarantined)


def _cmd_fidelity_run(args) -> int:
    from .fidelity import (default_fidelity_path, render_scorecard,
                           write_fidelity_record)
    record = _run_fidelity_record(args.scale, args.jobs)
    if record is None:
        return 2
    print(render_scorecard(record))
    out = args.out or default_fidelity_path()
    if not write_fidelity_record(record, out):
        return 3
    print(f"wrote {out} ({len(record['claims'])} claims, "
          f"scale={record['scale']})")
    if args.baseline:
        if not write_fidelity_record(record, args.baseline):
            return 3
        print(f"wrote baseline copy {args.baseline}")
    for key in record.get("quarantined_units", []):
        # Quarantine is a harness outcome, not a science failure: the
        # affected claims are graded not-run, and the sweep exit stays
        # clean so one poisoned worker can't fail the whole scorecard.
        print(f"  quarantined unit (claims graded not-run): {key}",
              file=sys.stderr)
    if record["failed_units"]:
        for key in record["failed_units"]:
            print(f"  failed unit: {key}", file=sys.stderr)
        return 3
    if args.gate:
        broken = [claim_id
                  for claim_id, entry in record["claims"].items()
                  if entry["calibrated"] and entry["verdict"] == "fail"]
        if broken:
            print(f"calibrated claim(s) FAILED: {', '.join(sorted(broken))}",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_fidelity_report(args) -> int:
    from .fidelity import (FidelityRecordError, load_fidelity_record,
                           render_markdown, render_scorecard)
    if args.record:
        try:
            record = load_fidelity_record(args.record)
        except FidelityRecordError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        record = _run_fidelity_record(args.scale, args.jobs)
        if record is None:
            return 2
    print(render_markdown(record) if args.markdown
          else render_scorecard(record))
    return 0


def _cmd_fidelity_compare(args) -> int:
    from .fidelity import FidelityRecordError, compare_fidelity_paths
    try:
        deltas, table = compare_fidelity_paths(args.old, args.new)
    except FidelityRecordError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(table)
    code = gate_exit_code(deltas, args.gate)
    if code:
        print("fidelity drift gate FAILED", file=sys.stderr)
    return code


def cmd_fidelity(args) -> int:
    handler = {"run": _cmd_fidelity_run, "report": _cmd_fidelity_report,
               "compare": _cmd_fidelity_compare}
    return handler[args.fidelity_command](args)


def cmd_chaos(args) -> int:
    from .chaos import CAMPAIGNS, render_survival_matrix, run_campaign
    if args.campaign not in CAMPAIGNS:
        raise _unknown_name("chaos campaign", args.campaign, CAMPAIGNS)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    apps = _resolve_apps(args.apps) if args.apps else None
    kwargs = {}
    if apps is not None:
        kwargs["apps"] = [app.name for app in apps]
    report = run_campaign(args.campaign, seed=args.seed, jobs=args.jobs,
                          log=lambda msg: print(msg, file=sys.stderr),
                          **kwargs)
    print(render_survival_matrix(report))
    if args.matrix_out:
        from .experiments.base import canonical_json
        from .obs.report import write_text_sink
        if not write_text_sink(args.matrix_out, canonical_json(report),
                               "survival matrix"):
            return 3
        print(f"wrote survival matrix to {args.matrix_out}",
              file=sys.stderr)
    return 0 if report["survived_all"] else 1


def main(argv=None) -> int:
    # The comparator's module owns its threshold defaults.
    from .obs import diff as obs_diff
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BVF (MICRO 2017) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and applications")

    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument("experiment")
    run_p.add_argument("--apps", default="",
                       help="comma-separated app subset (default: all 58)")
    run_p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="append per-unit progress to this JSON Lines "
                            "journal")
    run_p.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from an existing checkpoint, skipping "
                            "completed units")
    run_p.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per unit before recording a failure "
                            "(default: 3)")
    run_p.add_argument("--retry-backoff", type=_nonneg_float, default=0.5,
                       help="base retry backoff in seconds, doubled per "
                            "retry (default: 0.5)")
    run_p.add_argument("--timeout", type=_positive_float, default=None,
                       help="soft per-attempt time limit in seconds, the "
                            "one bound on a slow or hung unit (default: "
                            "none)")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default: 1 = "
                            "serial; results are identical either way)")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write the sweep's merged span tree to this "
                            "JSONL file")
    run_p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the sweep's merged metrics here (JSON; "
                            "Prometheus text for .prom/.txt)")
    run_p.add_argument("--ledger", default=None, metavar="PATH",
                       help="stream live lifecycle events to this "
                            "append-only JSONL run ledger (follow it with "
                            "'tail -f PATH')")
    run_p.add_argument("--chaos", default=None, metavar="SPEC",
                       help="inject deterministic harness faults, e.g. "
                            "'kill=0.5,torn=0.3,times=2' (kinds: kill, "
                            "exit, corrupt, torn, enospc, eacces, "
                            "stale_tmp, sigterm, sigint, sigterm_merge; "
                            "params: times, max_signals)")
    run_p.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                       help="seed for the chaos plan (default: 0); the "
                            "fault schedule is a pure function of "
                            "(seed, spec)")
    run_p.add_argument("--max-dispatches", type=int, default=3, metavar="N",
                       help="worker hand-outs per unit before the "
                            "supervisor quarantines it as poison "
                            "(default: 3; --jobs > 1 only)")

    app_p = sub.add_parser("app", help="single-app energy study")
    app_p.add_argument("name")

    obs_p = sub.add_parser("obs", help="observability reports")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    report_p = obs_sub.add_parser(
        "report", help="energy-provenance audit: final pJ figures "
                       "decomposed to (unit, variant, access) rows")
    report_p.add_argument("--apps", default="",
                          help=f"comma-separated app subset (default: "
                               f"{OBS_REPORT_DEFAULT_APPS})")
    report_p.add_argument("--tech", default="40nm",
                          choices=("28nm", "40nm"),
                          help="technology node (default: 40nm)")
    report_p.add_argument("--json", default=None, metavar="PATH",
                          help="also export the provenance rows as JSON")
    report_p.add_argument("--metrics", default=None, metavar="PATH",
                          help="instead summarise a --metrics-out JSON "
                               "snapshot (histograms show count/sum/"
                               "p50/p95/p99)")
    report_p.add_argument("--prometheus", action="store_true",
                          help="with --metrics: emit the snapshot in "
                               "Prometheus text exposition format")
    tree_p = obs_sub.add_parser(
        "tree", help="render a --trace JSONL dump as an indented tree")
    tree_p.add_argument("trace", metavar="TRACE.jsonl")
    tree_p.add_argument("--min-ms", type=float, default=None, metavar="T",
                        help="hide spans shorter than T milliseconds "
                             "(unfinished spans always show)")
    tree_p.add_argument("--sort", default="start",
                        choices=("start", "duration"),
                        help="child order: insertion (start) or "
                             "longest-first (duration)")
    diff_p = obs_sub.add_parser(
        "diff", help="cross-run comparator: align two runs' traces, "
                     "metrics snapshots, and/or ledgers and grade the "
                     "deltas (ok/regression/improved/changed/new/"
                     "missing)")
    diff_p.add_argument("--trace", nargs=2, default=None,
                        metavar=("OLD.jsonl", "NEW.jsonl"),
                        help="align two merged span trees by name-path")
    diff_p.add_argument("--metrics", nargs=2, default=None,
                        metavar=("OLD.json", "NEW.json"),
                        help="align two --metrics-out JSON snapshots "
                             "series-by-series")
    diff_p.add_argument("--ledger", nargs=2, default=None,
                        metavar=("OLD.jsonl", "NEW.jsonl"),
                        help="align two run ledgers per unit over "
                             "normalized lifecycles")
    diff_p.add_argument("--gate", action="store_true",
                        help="exit 1 on any regression/changed/new/"
                             "missing identity")
    diff_p.add_argument("--threshold", type=_nonneg_float, metavar="REL",
                        default=obs_diff.DEFAULT_REL_THRESHOLD,
                        help="relative wall-shift bar for trace timing "
                             "verdicts (default: %(default)g)")
    diff_p.add_argument("--abs-floor-s", type=_nonneg_float, metavar="S",
                        default=obs_diff.DEFAULT_ABS_FLOOR_S,
                        help="absolute wall-shift floor in seconds "
                             "(default: %(default)g)")
    diff_p.add_argument("--show-ok", action="store_true",
                        help="list ok identities too, not just counts")
    diff_p.add_argument("--json", action="store_true",
                        help="emit the deltas as machine-readable JSON "
                             "instead of the table")

    bench_p = sub.add_parser(
        "bench", help="benchmark traces: attribute hotspots")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    hot_p = bench_sub.add_parser(
        "hotspots", help="fold a trace JSONL dump into a per-span-name "
                         "self/cumulative-time table")
    hot_p.add_argument("trace", metavar="TRACE.jsonl")
    hot_p.add_argument("--sort", default="self",
                       choices=("self", "cum", "calls", "name"),
                       help="row order (default: self time, descending)")
    hot_p.add_argument("--limit", type=int, default=None, metavar="N",
                       help="show only the top N rows")
    hot_p.add_argument("--folded", default=None, metavar="PATH",
                       help="also export folded stacks for flamegraph "
                            "tools")

    fid_p = sub.add_parser(
        "fidelity", help="paper-fidelity scorecard: machine-checked "
                         "claims registry with drift tracking")
    fid_sub = fid_p.add_subparsers(dest="fidelity_command", required=True)
    fid_run_p = fid_sub.add_parser(
        "run", help="evaluate the claims registry and write "
                    "FIDELITY_*.json")
    fid_run_p.add_argument("--scale", default="smoke",
                           help="evidence scale (tiny | smoke | full; "
                                "default: smoke)")
    fid_run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for the underlying "
                                "sweeps (default: 1; the scorecard is "
                                "byte-identical either way)")
    fid_run_p.add_argument("--out", default=None, metavar="PATH",
                           help="record path (default: "
                                "FIDELITY_<utc-timestamp>.json)")
    fid_run_p.add_argument("--baseline", default=None, metavar="PATH",
                           help="also write the record here (e.g. "
                                "benchmarks/baselines/"
                                "fidelity_smoke.json)")
    fid_run_p.add_argument("--gate", action="store_true",
                           help="exit 1 when any calibrated claim fails")
    fid_rep_p = fid_sub.add_parser(
        "report", help="render a scorecard (from a record, or a fresh "
                       "run)")
    fid_rep_p.add_argument("--record", default=None, metavar="PATH",
                           help="render this FIDELITY_*.json instead of "
                                "running")
    fid_rep_p.add_argument("--scale", default="smoke",
                           help="evidence scale when running fresh "
                                "(default: smoke)")
    fid_rep_p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes when running fresh")
    fid_rep_p.add_argument("--markdown", action="store_true",
                           help="emit the EXPERIMENTS.md claims table "
                                "instead of the text scorecard")
    fid_cmp_p = fid_sub.add_parser(
        "compare", help="diff two FIDELITY records; flag claims that "
                        "crossed a tolerance band")
    fid_cmp_p.add_argument("old", metavar="OLD.json")
    fid_cmp_p.add_argument("new", metavar="NEW.json")
    fid_cmp_p.add_argument("--gate", action="store_true",
                           help="exit 1 when any claim's verdict "
                                "worsened")

    chaos_p = sub.add_parser(
        "chaos", help="run a named harness-fault campaign and report "
                      "the survival matrix")
    chaos_p.add_argument("--campaign", default="smoke",
                         help="campaign name (default: smoke)")
    chaos_p.add_argument("--seed", type=int, default=1234, metavar="N",
                         help="chaos-plan seed shared by every scenario "
                              "(default: 1234)")
    chaos_p.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="worker processes per scenario sweep "
                              "(default: 2)")
    chaos_p.add_argument("--apps", default="",
                         help="comma-separated app subset for the "
                              "reference sweep (default: ATA,VEC)")
    chaos_p.add_argument("--matrix-out", default=None, metavar="PATH",
                         help="also write the full report as JSON")

    args = parser.parse_args(argv)
    handler = {"list": cmd_list, "run": cmd_run, "app": cmd_app,
               "obs": cmd_obs, "bench": cmd_bench,
               "fidelity": cmd_fidelity, "chaos": cmd_chaos}
    return handler[args.command](args)


def _entry() -> int:
    """``main`` for a real process, whose stdout may be a closed pipe.

    When the reader goes away (``repro list | head``), the next write
    or the interpreter's final flush raises ``BrokenPipeError``. Point
    stdout at ``os.devnull`` so that final flush cannot raise again,
    and exit 0: the reader has everything it asked for.
    """
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    raise SystemExit(_entry())
