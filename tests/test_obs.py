"""Tests for the observability layer (tracer, metrics, provenance,
sweep/CLI integration).

The heavier determinism pins (merged metrics byte-identical at
``--jobs 1/2/4`` against a committed fixture) live in
``test_golden.py``; this file covers the primitives and their
contracts: span nesting and serialisation round-trips, merge
semantics, artifact-derived metric publication, provenance exactness
against the chip model, and the degrade-to-warning sink behaviour.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs.ledger import RunLedger
from repro.obs.metrics import (MetricsRegistry, current_registry,
                               metric_inc, use_registry)
from repro.obs.tracer import (Span, Tracer, current_tracer,
                              render_jsonl_tree, trace_span, use_tracer)


def _vec_stats():
    from repro.kernels import get_app
    from repro.sim import simulate_app
    return simulate_app(get_app("VEC"))


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_spans_nest_hierarchically(self):
        tracer = Tracer("root")
        with use_tracer(tracer):
            with trace_span("outer", app="VEC") as outer:
                with trace_span("inner") as inner:
                    inner.set(cycles=7)
                outer.event("checkpoint", n=1)
        tracer.finish()
        assert [s.name for __, s in tracer.root.walk()] == \
            ["root", "outer", "inner"]
        assert [d for d, __ in tracer.root.walk()] == [0, 1, 2]
        outer = tracer.root.children[0]
        assert outer.attrs == {"app": "VEC"}
        assert outer.children[0].attrs == {"cycles": 7}
        assert outer.events[0]["name"] == "checkpoint"
        assert all(s.wall_s is not None and s.wall_s >= 0
                   for __, s in tracer.root.walk())
        assert tracer.root.wall_s >= outer.wall_s >= \
            outer.children[0].wall_s

    def test_span_serialisation_round_trip(self):
        tracer = Tracer("root", jobs=2)
        with tracer.span("a", x=1):
            with tracer.span("b"):
                tracer.event("tick", k="v")
        tracer.finish()
        payload = tracer.root.to_dict()
        assert Span.from_dict(payload).to_dict() == payload
        # and the ship-to-parent path: attach() under a new root
        parent = Tracer("sweep")
        parent.attach(payload)
        assert parent.root.children[0].to_dict() == payload

    def test_jsonl_lines_parse_and_re_render(self):
        tracer = Tracer("root")
        with tracer.span("child", app="ATA"):
            pass
        text = tracer.to_jsonl()
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["name"] for r in records] == ["root", "child"]
        assert all(r["type"] == "span" for r in records)
        assert render_jsonl_tree(text) == tracer.render_tree()

    def test_trace_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with trace_span("anything", app="X") as span:
            assert span is None

    def test_out_of_order_exit_does_not_corrupt_stack(self):
        """An abandoned wall-clock-guard thread exits its span after the
        next attempt opened new ones; the stack must tolerate it."""
        tracer = Tracer("root")
        cm_a = tracer.span("a")
        cm_a.__enter__()
        cm_b = tracer.span("b")
        cm_b.__enter__()
        cm_a.__exit__(None, None, None)   # out of order
        cm_b.__exit__(None, None, None)
        with tracer.span("c"):
            pass
        # "c" still lands under the innermost *consistent* parent, and
        # every span closed.
        names = [s.name for __, s in tracer.root.walk()]
        assert "c" in names
        assert all(s.wall_s is not None for __, s in tracer.root.walk()
                   if s.name != "root")

    def test_thread_local_installation(self):
        import threading
        tracer = Tracer("root")
        seen = []

        def other_thread():
            seen.append(current_tracer())

        with use_tracer(tracer):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            assert current_tracer() is tracer
        assert seen == [None]
        assert current_tracer() is None


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

#: One registry's worth of random series: (kind, name, label, value).
_registry_parts = st.lists(st.tuples(
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.sampled_from(["a", "b"]), st.sampled_from(["", "x", "y"]),
    st.integers(-50, 5000)), max_size=12)

_BOUNDS = {"a": (10, 100), "b": (1, 10, 1000)}


def _build_registry(part) -> MetricsRegistry:
    reg = MetricsRegistry()
    for kind, name, label, value in part:
        labels = {"k": label} if label else None
        name = f"{kind}_{name}"
        if kind == "counter":
            reg.counter(name, labels, help_text="c").inc(abs(value))
        elif kind == "gauge":
            reg.gauge(name, labels).set(value)
        else:
            reg.histogram(name, labels, bounds=_BOUNDS[name[-1]],
                          help_text="h").observe(value)
    return reg


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("c", {"k": "a"}).inc(3)
        reg.counter("c", {"k": "a"}).inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", bounds=(10, 100)).observe(5)
        reg.histogram("h", bounds=(10, 100)).observe(500)
        assert reg.value("c", {"k": "a"}) == 5
        assert reg.value("g") == 7
        assert reg.value("h") == {"bounds": [10, 100],
                                  "counts": [1, 0, 1],
                                  "sum": 505, "count": 2,
                                  "p50": 10, "p95": 100, "p99": 100}
        with pytest.raises(ValueError):
            reg.counter("c", {"k": "a"}).inc(-1)
        with pytest.raises(TypeError):
            reg.gauge("c")   # kind conflict on an existing name

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(1, 10, 100))
        assert hist.percentile(0.5) is None          # empty
        for value in (1, 2, 3, 50, 5000):
            hist.observe(value)
        # buckets: [1, 2, 1, 1]; overflow clamps to the largest bound
        assert hist.percentile(0.0) == 1
        assert hist.percentile(0.5) == 10
        assert hist.percentile(0.95) == 100
        assert hist.percentile(1.0) == 100
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        # derived fields are recomputed after a round-trip, not stored
        payload = reg.to_dict()
        entry = payload["families"]["lat"]["series"][0]["value"]
        assert (entry["p50"], entry["p95"], entry["p99"]) == (10, 100, 100)
        assert MetricsRegistry.from_dict(payload).to_dict() == payload

    def test_merge_is_order_independent(self):
        def make(seed):
            reg = MetricsRegistry()
            reg.counter("bits", {"unit": "REG"}).inc(seed * 10)
            reg.counter("bits", {"unit": "L1D"}).inc(seed)
            reg.gauge("peak").set(seed * 3)
            reg.histogram("sizes").observe(seed * 100)
            return reg

        parts = [make(s) for s in (1, 2, 3)]
        ab = MetricsRegistry()
        for part in parts:
            ab.merge(MetricsRegistry.from_dict(part.to_dict()))
        ba = MetricsRegistry()
        for part in reversed(parts):
            ba.merge(MetricsRegistry.from_dict(part.to_dict()))
        assert ab.to_dict() == ba.to_dict()
        assert ab.value("bits", {"unit": "REG"}) == 60
        assert ab.value("peak") == 9           # gauges merge by max

    def test_dict_round_trip_and_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("noc_flits_total", help_text="data flits").inc(12)
        reg.histogram("app_instructions", bounds=(100, 1000)).observe(264)
        payload = reg.to_dict()
        assert MetricsRegistry.from_dict(payload).to_dict() == payload
        prom = reg.to_prometheus()
        assert "# HELP noc_flits_total data flits" in prom
        assert "noc_flits_total 12" in prom
        assert 'app_instructions_bucket{le="1000"} 1' in prom
        assert 'app_instructions_bucket{le="+Inf"} 1' in prom
        assert "app_instructions_count 1" in prom

    def test_helpers_are_noops_without_registry(self):
        assert current_registry() is None
        metric_inc("orphan", 5)   # must not raise

    @given(st.lists(_registry_parts, min_size=1, max_size=4))
    def test_snapshot_fold_equals_from_dict_merge(self, parts):
        """``merge_snapshot`` is ``merge(from_dict(...))`` without the
        intermediate registry: counters and buckets sum, gauges take
        the max (a new gauge starts at 0, so a negative level folds to
        0 both ways)."""
        folded, merged = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            snapshot = _build_registry(part).to_dict()
            folded.merge_snapshot(snapshot)
            merged.merge(MetricsRegistry.from_dict(snapshot))
            assert folded.to_dict() == merged.to_dict()

    def test_snapshot_fold_rejects_other_histogram_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 10)).observe(3)
        other = MetricsRegistry()
        other.histogram("h", bounds=(1, 100)).observe(3)
        with pytest.raises(ValueError):
            reg.merge_snapshot(other.to_dict())
        with pytest.raises(ValueError):
            reg.merge(other)



# ---------------------------------------------------------------------------
# Artifact-derived metric publication
# ---------------------------------------------------------------------------

class TestPublishAppMetrics:
    def test_metrics_match_app_stats_artifacts(self):
        from repro.core.spaces import Unit
        stats = _vec_stats()
        reg = MetricsRegistry()
        with use_registry(reg):
            from repro.obs.report import publish_app_metrics
            publish_app_metrics(stats)

        reg_counts = stats.unit_counts(Unit.REG, "base")
        assert reg.value("bvf_bits_total",
                         {"unit": "REG", "variant": "base",
                          "access": "read1"}) == reg_counts.read1
        assert reg.value("noc_toggles_total", {"variant": "base"}) == \
            stats.noc_toggles["base"]
        assert reg.value("noc_flits_total") == stats.noc_flits
        assert reg.value("sim_instructions_total") == stats.instructions
        assert reg.value("app_runs_total", {"app": "VEC"}) == 1
        l1d = stats.cache_stats["l1d"]
        assert reg.value("cache_accesses_total", {"cache": "l1d"}) == \
            l1d["accesses"]
        assert reg.value("cache_misses_total", {"cache": "l1d"}) == \
            l1d["accesses"] - l1d["hits"]
        assert reg.value("coder_encoded_words_total", {"coder": "NV"}) > 0

    def test_memoised_and_cold_publications_are_identical(self):
        """The determinism cornerstone: a cache-hit simulate_app must
        publish exactly what the cold computation published."""
        from repro.kernels import get_app
        from repro.sim import simulate_app
        app = get_app("VEC")

        def snapshot():
            reg = MetricsRegistry()
            with use_registry(reg):
                simulate_app(app)
            return reg.to_dict()

        first = snapshot()     # may or may not be memoised already
        second = snapshot()    # certainly memoised
        assert first == second

    def test_memo_hit_publish_equals_cold_publish(self):
        from repro import sim
        from repro.kernels import get_app
        app = get_app("VEC")
        sim.clear_caches()
        cold, hit = MetricsRegistry(), MetricsRegistry()
        with use_registry(cold):
            stats = sim.simulate_app(app)
        # The cold publish derived the increments and kept them.
        assert stats.metric_increments is not None
        with use_registry(hit):
            assert sim.simulate_app(app) is stats
        assert hit.to_dict() == cold.to_dict()
        # A fresh derivation from an equal, never-published copy agrees.
        fresh = dataclasses.replace(stats)
        assert fresh.metric_increments is None
        again = MetricsRegistry()
        with use_registry(again):
            from repro.obs.report import publish_app_metrics
            publish_app_metrics(fresh)
        assert again.to_dict() == cold.to_dict()

    def test_publishing_twice_doubles_every_series(self):
        from repro.obs.report import publish_app_metrics
        stats = _vec_stats()
        once, twice = MetricsRegistry(), MetricsRegistry()
        with use_registry(once):
            publish_app_metrics(stats)
        with use_registry(twice):
            publish_app_metrics(stats)
            publish_app_metrics(stats)
        single = once.to_dict()["families"]
        double = twice.to_dict()["families"]
        assert single.keys() == double.keys()
        for name, family in single.items():
            pairs = zip(family["series"], double[name]["series"])
            for one, two in pairs:
                assert one["labels"] == two["labels"]
                if family["kind"] == "counter":
                    assert two["value"] == 2 * one["value"], name
        hist_once = once.value("app_instructions")
        hist_twice = twice.value("app_instructions")
        assert (hist_once["count"], hist_twice["count"]) == (1, 2)
        assert hist_twice["sum"] == 2 * hist_once["sum"]
        assert hist_twice["counts"] == [2 * n for n in hist_once["counts"]]

    def test_faulted_replay_publishes_its_own_increments(self):
        from repro.faults import FaultModel
        from repro.kernels import get_app
        from repro.sim import simulate_app
        app = get_app("VEC")
        clean = simulate_app(app)
        reg = MetricsRegistry()
        with use_registry(reg):
            faulted = simulate_app(app, fault_model=FaultModel(
                p_flip=0.05, seed=3))
        assert faulted is not clean
        assert faulted.metric_increments is not clean.metric_increments
        assert faulted.noc_toggles != clean.noc_toggles
        for variant, toggles in faulted.noc_toggles.items():
            assert reg.value("noc_toggles_total",
                             {"variant": variant}) == toggles


# ---------------------------------------------------------------------------
# Energy provenance
# ---------------------------------------------------------------------------

class TestEnergyProvenance:
    @pytest.mark.parametrize("tech", ["28nm", "40nm"])
    def test_components_reproduce_chip_model_exactly(self, tech):
        from repro.obs.provenance import build_provenance
        from repro.power import ChipModel
        from repro.power.unit_energy import BASELINE_CELL, BVF_CELL
        stats = _vec_stats()
        model = ChipModel(tech)
        for cell, variant, overhead, reference in (
                (BASELINE_CELL, "base", False, model.baseline(stats)),
                (BVF_CELL, "ALL", True, model.bvf(stats))):
            prov = build_provenance(stats, model, cell, variant,
                                    include_overhead=overhead)
            assert prov.chip_energy().components == reference.components
            assert prov.total_j == reference.total_j

    def test_access_rows_decompose_dynamic_energy(self):
        """quantity x price rows must sum back to each unit's dynamic
        energy within 1e-9 relative (they are exact up to float
        round-off)."""
        from repro.obs.provenance import ACCESS_KINDS, build_provenance
        from repro.power import ChipModel
        from repro.power.unit_energy import (BVF_CELL, sram_unit_energy)
        stats = _vec_stats()
        model = ChipModel("40nm")
        prov = build_provenance(stats, model, BVF_CELL, "ALL",
                                include_overhead=True)
        from repro.power.chip import BVF_UNITS
        for unit in BVF_UNITS:
            ue = sram_unit_energy(stats, unit, "ALL", BVF_CELL,
                                  model.tech.name, model.vdd, model.config)
            rows = [r for r in prov.component_rows(unit.name)
                    if r.kind in ACCESS_KINDS]
            assert len(rows) == len(ACCESS_KINDS)
            for row in rows:
                assert row.energy_j == row.quantity * row.price_j
            assert np.isclose(sum(r.energy_j for r in rows),
                              ue.dynamic_j, rtol=1e-9, atol=0.0)

    def test_report_text_flags_exactness(self):
        from repro.kernels import get_app
        from repro.obs.report import provenance_report
        out = []
        text, all_exact = provenance_report([get_app("VEC")], tech="40nm",
                                            json_out=out)
        assert all_exact
        assert "exact match" in text and "MISMATCH" not in text
        assert len(out) == 2    # baseline + BVF evaluations
        assert {entry["variant"] for entry in out} == {"base", "ALL"}


# ---------------------------------------------------------------------------
# Sinks degrade to warnings
# ---------------------------------------------------------------------------

class TestSinkDegradation:
    def test_unwritable_sink_warns_instead_of_raising(self, tmp_path):
        from repro.obs.report import write_metrics, write_trace_jsonl
        missing_dir = tmp_path / "no-such-dir" / "m.json"
        with pytest.warns(RuntimeWarning, match="unwritable"):
            assert write_metrics(MetricsRegistry(), str(missing_dir)) \
                is False
        with pytest.warns(RuntimeWarning, match="unwritable"):
            assert write_trace_jsonl(Tracer(), str(missing_dir)) is False

    def test_sweep_survives_unwritable_metrics_sink(self, tmp_path):
        from repro.runner import SweepRunner
        runner = SweepRunner(
            experiments=["sec3.1-leakage"],
            metrics_path=str(tmp_path / "absent" / "m.json"))
        with pytest.warns(RuntimeWarning, match="unwritable"):
            results = runner.run()
        assert runner.stats.failed == 0
        assert len(results) == 1

    def test_writable_sinks_land_on_disk(self, tmp_path):
        from repro.runner import SweepRunner
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        runner = SweepRunner(experiments=["sec3.1-leakage"],
                             trace_path=str(trace),
                             metrics_path=str(metrics))
        runner.run()
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records[0]["name"] == "sweep"
        assert any(r["name"] == "unit" for r in records)
        payload = json.loads(metrics.read_text())
        assert payload["families"]["sweep_units_total"]["kind"] == "counter"


# ---------------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------------

class TestRunnerObservability:
    def test_observed_record_carries_span_and_metrics(self):
        from repro.runner import SweepRunner, unit_key
        from repro.kernels import get_app
        runner = SweepRunner(experiments=["fig09"],
                             apps=[get_app("VEC")], observe=True)
        runner.run()
        record = runner.checkpoint.get(unit_key("fig09", "VEC"))
        assert record["status"] == "ok"
        assert record["unit_wall_s"] >= 0
        obs = record["obs"]
        assert obs["span"]["name"] == "unit"
        assert obs["span"]["attrs"]["key"] == "fig09::VEC"
        assert obs["metrics"]["families"]["app_runs_total"]
        assert runner.tracer is not None
        assert [c.name for c in runner.tracer.root.children] == ["unit"]
        assert runner.metrics.value("app_runs_total", {"app": "VEC"}) == 1
        assert runner.metrics.value("sweep_units_total",
                                    {"status": "ok"}) == 1

    def test_unobserved_records_stay_lean(self):
        from repro.runner import SweepRunner, unit_key
        runner = SweepRunner(experiments=["sec3.1-leakage"])
        runner.run()
        record = runner.checkpoint.get(unit_key("sec3.1-leakage"))
        assert "obs" not in record
        assert runner.tracer is None and runner.metrics is None

    def test_failed_unit_ships_span_but_no_metrics(self):
        """A unit that exhausts its attempts still lands in the trace —
        that's when the span matters most — but its half-published
        metrics never reach the merged registry (they would depend on
        where the timeout hit, breaking snapshot determinism)."""
        from repro.runner import SweepRunner, unit_key
        from repro.kernels import get_app
        runner = SweepRunner(experiments=["fig09"], apps=[get_app("ATA")],
                             observe=True, timeout_s=1e-6, max_attempts=1,
                             backoff_s=0.0)
        runner.run()
        record = runner.checkpoint.get(unit_key("fig09", "ATA"))
        assert record["status"] == "failed"
        obs = record["obs"]
        assert obs["span"]["name"] == "unit"
        assert obs["span"]["attrs"]["key"] == "fig09::ATA"
        assert obs["metrics"] is None
        assert [c.name for c in runner.tracer.root.children] == ["unit"]
        assert runner.metrics.value("sweep_units_total",
                                    {"status": "failed"}) == 1
        assert runner.metrics.value("app_runs_total",
                                    {"app": "ATA"}) is None

    def test_worker_is_silent_and_ships_progress_facts(self, capfd):
        """Workers no longer print progress to stderr; the facts the old
        line carried (duration, worker pid) now ride home inside the
        record so the parent can put them on the run ledger."""
        import os
        from repro.runner.pool import UnitTask, execute_unit_task
        task = UnitTask(exp_id="sec3.1-leakage", app=None,
                        key="sec3.1-leakage::*")
        key, record = execute_unit_task(task)
        assert key == "sec3.1-leakage::*"
        assert capfd.readouterr().err == ""
        assert record["unit_wall_s"] >= 0
        assert record["pid"] == os.getpid()
        assert record["timeouts"] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestObsCli:
    def test_obs_report_unknown_app_suggests(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", "--apps", "VEX"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown app 'VEX'" in err and "did you mean VEC" in err

    def test_run_and_obs_share_the_suggestion_helper(self, capsys):
        from repro.__main__ import main
        for argv in (["run", "fig09", "--apps", "VEX"],
                     ["app", "VEX"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "did you mean VEC" in capsys.readouterr().err

    def test_obs_tree_renders_a_trace_file(self, tmp_path, capsys):
        from repro.__main__ import main
        tracer = Tracer("sweep", jobs=2)
        with tracer.span("unit", key="fig09::VEC"):
            pass
        path = tmp_path / "t.jsonl"
        path.write_text(tracer.to_jsonl(), encoding="utf-8")
        assert main(["obs", "tree", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "unit" in out and "fig09::VEC" in out

    def test_obs_tree_missing_file_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["obs", "tree", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Trace-tree filtering and sorting (obs tree --min-ms / --sort)
# ---------------------------------------------------------------------------

def _span_jsonl(rows):
    """Hand-built trace JSONL from (depth, name, wall_s) rows, so tests
    control durations exactly."""
    return "\n".join(
        json.dumps({"type": "span", "depth": depth, "name": name,
                    "wall_s": wall, "cpu_s": wall, "attrs": {},
                    "events": []})
        for depth, name, wall in rows) + "\n"


class TestRenderJsonlTreeFilters:
    _TEXT = _span_jsonl([
        (0, "sweep", 0.100),
        (1, "slow_unit", 0.080),
        (2, "blink", 0.001),
        (1, "fast_unit", 0.002),
        (1, "torn", None),
    ])

    def test_min_ms_hides_subtrees_and_reports_count(self):
        out = render_jsonl_tree(self._TEXT, min_ms=5)
        assert "slow_unit" in out
        assert "blink" not in out and "fast_unit" not in out
        assert "(2 spans under 5 ms hidden)" in out

    def test_unfinished_spans_always_stay_visible(self):
        """Even above-threshold pruning keeps torn spans (that's where
        a killed run died) and their ancestors for context."""
        out = render_jsonl_tree(self._TEXT, min_ms=1000)
        assert "torn" in out and "?" in out
        assert "sweep" in out          # ancestor of the torn span
        assert "slow_unit" not in out  # finished and under threshold
        assert "(3 spans under 1000 ms hidden)" in out

    def test_sort_duration_orders_children_longest_first(self):
        text = _span_jsonl([
            (0, "root", 1.0),
            (1, "short", 0.01),
            (1, "long", 0.50),
            (1, "open", None),
        ])
        lines = render_jsonl_tree(text, sort="duration").splitlines()
        assert [l.split()[0] for l in lines] == \
            ["root", "long", "short", "open"]
        # default keeps insertion (start) order
        lines = render_jsonl_tree(text).splitlines()
        assert [l.split()[0] for l in lines] == \
            ["root", "short", "long", "open"]

    def test_unknown_sort_key_raises(self):
        with pytest.raises(ValueError, match="sort"):
            render_jsonl_tree(self._TEXT, sort="wall")

    def test_cli_flags_reach_the_renderer(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "t.jsonl"
        path.write_text(self._TEXT, encoding="utf-8")
        assert main(["obs", "tree", str(path), "--min-ms", "5",
                     "--sort", "duration"]) == 0
        out = capsys.readouterr().out
        assert "slow_unit" in out and "blink" not in out
        assert "hidden" in out


# ---------------------------------------------------------------------------
# Prometheus exposition conformance
# ---------------------------------------------------------------------------

def _parse_prometheus(text):
    """Minimal 0.0.4 exposition parser: {(name, labelkey): float}.

    Deliberately strict about the grammar (quoted label values, escape
    sequences) so the test fails if the renderer emits anything a real
    scraper would reject.
    """
    samples = {}
    unescape = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.fullmatch(r"([a-zA-Z_:][a-zA-Z0-9_:]*)"
                             r"(?:\{(.*)\})? (\S+)", line)
        assert match, f"unparseable exposition line: {line!r}"
        name, raw_labels, value = match.groups()
        labels = []
        if raw_labels:
            for part in re.findall(
                    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"',
                    raw_labels):
                key, escaped = part
                unescaped = re.sub(r'\\[\\"n]',
                                   lambda m: unescape[m.group(0)], escaped)
                labels.append((key, unescaped))
        samples[(name, tuple(sorted(labels)))] = float(value)
    return samples


class TestPrometheusConformance:
    def test_help_type_and_histogram_shape(self):
        reg = MetricsRegistry()
        reg.counter("flits_total", help_text="data flits").inc(3)
        reg.histogram("sizes", bounds=(10, 100)).observe(5)
        reg.histogram("sizes", bounds=(10, 100)).observe(5000)
        prom = reg.to_prometheus()
        assert "# HELP flits_total data flits" in prom
        assert "# TYPE flits_total counter" in prom
        assert "# TYPE sizes histogram" in prom
        samples = _parse_prometheus(prom)
        # buckets are cumulative and the mandatory +Inf equals _count
        assert samples[("sizes_bucket", (("le", "10"),))] == 1
        assert samples[("sizes_bucket", (("le", "100"),))] == 1
        assert samples[("sizes_bucket", (("le", "+Inf"),))] == 2
        assert samples[("sizes_count", ())] == 2
        assert samples[("sizes_sum", ())] == 5005

    def test_label_values_escape_and_roundtrip(self):
        """Quote, backslash, and newline in a label value must survive
        render -> strict parse unchanged."""
        hostile = 'quo"te\\back\nline'
        reg = MetricsRegistry()
        reg.counter("c", {"app": hostile}).inc(7)
        reg.gauge("g", help_text="multi\nline \\help").set(2)
        prom = reg.to_prometheus()
        assert "\n# TYPE g gauge" in prom
        assert r"# HELP g multi\nline \\help" in prom
        samples = _parse_prometheus(prom)
        assert samples[("c", (("app", hostile),))] == 7
        # every physical line is still one sample or comment: the raw
        # newline never leaked into the body
        assert len(prom.splitlines()) == 5
        assert all(l.startswith("#") or _parse_prometheus(l + "\n")
                   for l in prom.splitlines())

    def test_merged_sweep_registry_is_scrapable(self):
        from repro.runner import SweepRunner
        runner = SweepRunner(experiments=["sec3.1-leakage"], observe=True)
        runner.run()
        samples = _parse_prometheus(runner.metrics.to_prometheus())
        assert samples[("sweep_units_total", (("status", "ok"),))] == 1

    def test_cli_report_writes_exactly_the_exposition(self, tmp_path,
                                                      capsys):
        """``obs report --metrics SNAP --prometheus`` prints the
        registry's exposition text byte for byte: no second trailing
        newline."""
        from repro.__main__ import main
        reg = MetricsRegistry()
        reg.counter("flits_total", {"app": "VEC"},
                    help_text="data flits").inc(3)
        reg.histogram("sizes", bounds=(10, 100)).observe(50)
        snap = reg.to_dict()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(snap), encoding="utf-8")
        assert main(["obs", "report", "--metrics", str(path),
                     "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert out == MetricsRegistry.from_dict(snap).to_prometheus()
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert _parse_prometheus(out)[("flits_total",
                                       (("app", "VEC"),))] == 3


# ---------------------------------------------------------------------------
# obs watch --wait and the JSON/Prometheus CLI modes
# ---------------------------------------------------------------------------

class TestWatchWait:
    def test_wait_polls_until_ledger_appears(self, tmp_path):
        from repro.obs.live import watch
        path = str(tmp_path / "late.jsonl")
        frames, naps = [], []

        def arrive_during_nap(seconds):
            naps.append(seconds)
            ledger = RunLedger(path=path)
            ledger.emit("sweep_begin", jobs=1)
            ledger.emit("sweep_plan", units=1, skipped=0)
            ledger.emit("sweep_end", status="ok")
            ledger.close()

        code = watch(path, once=True, wait=True, interval_s=0.01,
                     write=frames.append, sleep=arrive_during_nap)
        assert code == 0
        assert naps == [0.01]                  # exactly one wait nap
        assert "ENDED (ok)" in "\n".join(frames)

    def test_wait_timeout_expires_to_exit_2(self, tmp_path):
        from repro.obs.live import watch
        ticks = iter([0.0, 10.0, 20.0])
        frames = []
        code = watch(str(tmp_path / "never.jsonl"), wait=True,
                     timeout_s=5.0, interval_s=0.01,
                     write=frames.append, sleep=lambda s: None,
                     clock=lambda: next(ticks))
        assert code == 2
        assert "after waiting 5s" in frames[0]

    def test_no_wait_no_ledger_exits_nonzero_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["obs", "watch", str(tmp_path / "none.jsonl"),
                     "--once"]) == 2
        assert "no ledger" in capsys.readouterr().out

    def test_cli_rejects_nonpositive_timeout(self, tmp_path):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:   # argparse type error
            main(["obs", "watch", str(tmp_path / "x.jsonl"),
                  "--wait", "--timeout", "0"])
        assert exc.value.code == 2


class TestJsonCLIModes:
    def test_diff_json_round_trips(self, tmp_path, capsys):
        from repro.__main__ import main
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path=path)
        ledger.emit("sweep_begin", jobs=1)
        ledger.emit("unit_started", "fig09::ATA")
        ledger.emit("unit_completed", "fig09::ATA", status="ok",
                    attempts=1, unit_wall_s=1.0)
        ledger.emit("sweep_end", status="ok")
        ledger.close()
        assert main(["obs", "diff", "--ledger", path, path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gating"] == 0
        assert payload["verdicts"] == {"ok": payload["aligned"]}
        assert {d["kind"] for d in payload["deltas"]} == {"ledger"}

    def test_report_prometheus_requires_metrics(self, capsys):
        from repro.__main__ import main
        assert main(["obs", "report", "--prometheus"]) == 2
        assert "--metrics" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Peak-RSS gauge
# ---------------------------------------------------------------------------

class TestPeakRssGauge:
    def test_peak_rss_probe_returns_plausible_bytes(self):
        from repro.obs.resources import peak_rss_bytes
        rss = peak_rss_bytes()
        if rss is None:
            pytest.skip("resource module unavailable on this platform")
        # a CPython process with numpy loaded sits well above 10 MB and
        # (sanely) below 1 TB; catches unit mix-ups (KB vs bytes)
        assert 10 * 1024 * 1024 < rss < 1 << 40

    def test_sweep_publishes_unit_peak_rss_gauge(self):
        from repro.obs.resources import peak_rss_bytes
        from repro.runner import SweepRunner
        if peak_rss_bytes() is None:
            pytest.skip("resource module unavailable on this platform")
        runner = SweepRunner(experiments=["sec3.1-leakage"], observe=True)
        runner.run()
        value = runner.metrics.value("unit_peak_rss_bytes")
        assert value is not None and value > 10 * 1024 * 1024

    def test_rss_family_is_declared_volatile(self):
        """The golden byte-identity suite strips exactly this family;
        keep the declaration and the publisher in sync."""
        from repro.obs.metrics import VOLATILE_METRIC_FAMILIES
        assert "unit_peak_rss_bytes" in VOLATILE_METRIC_FAMILIES
