"""Tests for the benchmark-trace reader (:mod:`repro.bench`).

* **hotspots** — folding span trees into per-name self/cumulative
  aggregates, with the telescoping invariant (sum of self times ==
  root wall, exactly, even with negative parallel-overlap entries) and
  the nested-same-name no-double-count rule;
* **CLI** — ``repro bench hotspots`` and its exit-code contract (0
  clean / 2 unusable trace or usage / 3 unwritable sink).
"""

import pytest

from repro.bench import (Hotspot, aggregate_hotspots, folded_stacks,
                         render_hotspot_table)
from repro.obs.tracer import Tracer, jsonl_to_trees


def _node(name, wall, cpu=None, children=(), attrs=None):
    """A span node in Span.to_dict shape with explicit timings."""
    return {"name": name, "wall_s": wall,
            "cpu_s": wall if cpu is None else cpu,
            "attrs": attrs or {}, "events": [], "children": list(children)}


# ---------------------------------------------------------------------------
# Hotspot aggregation
# ---------------------------------------------------------------------------

class TestAggregateHotspots:
    def test_self_times_telescope_to_root_wall(self):
        tree = _node("root", 2.0, children=[
            _node("a", 1.2, children=[_node("b", 0.5)]),
            _node("c", 0.3),
        ])
        report = aggregate_hotspots(tree)
        assert report.root_wall_s == 2.0
        assert report.hotspots["root"].self_wall_s == pytest.approx(0.5)
        assert report.hotspots["a"].self_wall_s == pytest.approx(0.7)
        assert report.total_self_wall_s == pytest.approx(2.0, abs=1e-12)
        assert report.span_count == 4

    def test_nested_same_name_spans_do_not_double_count(self):
        """a(1.0) > a(0.6) > b(0.2): self(a) totals 0.8 across both
        occurrences, but cum(a) counts only the outermost window."""
        tree = _node("a", 1.0, children=[
            _node("a", 0.6, children=[_node("b", 0.2)]),
        ])
        report = aggregate_hotspots(tree)
        a = report.hotspots["a"]
        assert a.calls == 2
        assert a.self_wall_s == pytest.approx(0.8)
        assert a.cum_wall_s == pytest.approx(1.0)      # not 1.6
        assert report.hotspots["b"].cum_wall_s == pytest.approx(0.2)
        assert report.total_self_wall_s == pytest.approx(1.0)

    def test_parallel_overlap_yields_negative_self_but_exact_total(self):
        """A merged 2-worker trace: children's summed wall exceeds the
        root's, so the root's self time goes negative by the overlap —
        and the telescoped total still equals the root wall exactly."""
        tree = _node("sweep", 1.0, children=[
            _node("unit", 0.8), _node("unit", 0.8),
        ])
        report = aggregate_hotspots(tree)
        assert report.hotspots["sweep"].self_wall_s == pytest.approx(-0.6)
        assert report.total_self_wall_s == pytest.approx(1.0, abs=1e-12)

    def test_unclosed_span_contributes_zero_self_but_children_count(self):
        """A killed run's torn span (wall_s null) must not crash the
        fold: it counts as unclosed, adds nothing itself, and its
        finished children are still attributed."""
        tree = _node("root", 1.0, children=[
            {"name": "attempt", "wall_s": None, "cpu_s": None,
             "attrs": {}, "events": [],
             "children": [_node("replay", 0.4)]},
        ])
        report = aggregate_hotspots(tree)
        attempt = report.hotspots["attempt"]
        assert attempt.unclosed == 1 and attempt.calls == 1
        assert attempt.self_wall_s == 0.0
        assert report.hotspots["replay"].self_wall_s == pytest.approx(0.4)
        # the torn span breaks exact telescoping by its children's wall
        assert report.total_self_wall_s == pytest.approx(1.4)

    def test_instructions_summed_at_outermost_occurrence_only(self):
        tree = _node("root", 1.0, children=[
            _node("replay", 0.5, attrs={"instructions": 100}, children=[
                _node("replay", 0.2, attrs={"instructions": 100}),
            ]),
            _node("replay", 0.25, attrs={"instructions": 60}),
        ])
        report = aggregate_hotspots(tree)
        replay = report.hotspots["replay"]
        assert replay.instructions == 160            # inner 100 ignored
        assert replay.instructions_per_s == pytest.approx(160 / 0.75)
        assert Hotspot("idle").instructions_per_s is None

    def test_accepts_tracer_span_dict_and_root_list(self):
        tracer = Tracer("root")
        with tracer.span("work"):
            pass
        tracer.finish()
        by_tracer = aggregate_hotspots(tracer)
        by_span = aggregate_hotspots(tracer.root)
        by_dict = aggregate_hotspots(tracer.root.to_dict())
        by_list = aggregate_hotspots([tracer.root.to_dict()])
        for report in (by_tracer, by_span, by_dict, by_list):
            assert set(report.hotspots) == {"root", "work"}
            assert report.root_wall_s == by_tracer.root_wall_s

    def test_jsonl_roundtrip_matches_live_aggregation(self):
        tracer = Tracer("root")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.finish()
        live = aggregate_hotspots(tracer)
        replayed = aggregate_hotspots(jsonl_to_trees(tracer.to_jsonl()))
        assert set(replayed.hotspots) == set(live.hotspots)
        # JSONL rounds timings to 6 decimals
        assert replayed.total_self_wall_s == \
            pytest.approx(live.total_self_wall_s, abs=1e-5)
        assert replayed.total_self_wall_s == \
            pytest.approx(replayed.root_wall_s, abs=1e-5)

    def test_sorted_orders_and_rejects_unknown_key(self):
        tree = _node("root", 1.0, children=[
            _node("slow", 0.7), _node("fast", 0.1), _node("fast", 0.1),
        ])
        report = aggregate_hotspots(tree)
        assert [h.name for h in report.sorted("self")][0] == "slow"
        assert [h.name for h in report.sorted("calls")][0] == "fast"
        assert [h.name for h in report.sorted("name")] == \
            ["fast", "root", "slow"]
        with pytest.raises(ValueError, match="sort"):
            report.sorted("walltime")


class TestFoldedStacks:
    def test_paths_weighted_by_self_microseconds(self):
        tree = _node("root", 1.0, children=[
            _node("a", 0.4, children=[_node("b", 0.1)]),
        ])
        lines = dict(line.rsplit(" ", 1)
                     for line in folded_stacks(tree).splitlines())
        assert lines == {"root": "600000", "root;a": "300000",
                         "root;a;b": "100000"}

    def test_negative_self_clamps_and_semicolons_escape(self):
        tree = _node("merge;point", 1.0, children=[
            _node("u", 0.8), _node("u", 0.8),
        ])
        text = folded_stacks(tree)
        assert "merge:point;u 1600000" in text
        assert "merge:point " not in text       # clamped to 0 -> dropped
        assert folded_stacks(_node("x", None)) == ""


class TestRenderHotspotTable:
    def _report(self):
        return aggregate_hotspots(_node("root", 2.0, children=[
            _node("replay", 1.5, attrs={"instructions": 3_000_000}),
        ]))

    def test_table_rows_footer_and_throughput(self):
        text = render_hotspot_table(self._report())
        assert "span" in text and "kinst/s" in text
        assert "2000.00" in text        # 3M inst / 1.5s = 2000 kinst/s
        assert "root wall 2.0000s" in text
        assert "self-time total 2.0000s" in text

    def test_limit_and_unclosed_annotation(self):
        report = aggregate_hotspots(_node("root", 1.0, children=[
            {"name": "torn", "wall_s": None, "cpu_s": None,
             "attrs": {}, "events": [], "children": []},
        ]))
        text = render_hotspot_table(report)
        assert "(1 unclosed)" in text
        full = render_hotspot_table(self._report())
        limited = render_hotspot_table(self._report(), limit=1)
        assert len(limited.splitlines()) == len(full.splitlines()) - 1

    def test_parallel_ratio_line_only_on_parallel_traces(self):
        serial = render_hotspot_table(self._report())
        assert "worker-time/wall" not in serial
        merged = aggregate_hotspots(_node("sweep", 1.0, children=[
            _node("unit", 0.9), _node("unit", 0.9),
        ]))
        assert "worker-time/wall ratio 1.80x" in \
            render_hotspot_table(merged)


# ---------------------------------------------------------------------------
# CLI (exit-code contract)
# ---------------------------------------------------------------------------

class TestBenchCli:
    def test_only_hotspots_remains(self, capsys):
        """The benchmark report has one grader,
        ``benchmarks/e2e/compare.py``; ``bench`` only reads traces."""
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        assert "{hotspots}" in capsys.readouterr().out
        for gone in ("run", "compare"):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", gone])
            assert excinfo.value.code == 2

    def test_hotspots_renders_and_exports_folded(self, tmp_path, capsys):
        from repro.__main__ import main
        tracer = Tracer("sweep")
        with tracer.span("unit", key="fig09::VEC"):
            with tracer.span("simulate_app") as span:
                span.set(instructions=1000)
        trace = tmp_path / "t.jsonl"
        trace.write_text(tracer.to_jsonl(), encoding="utf-8")
        folded = tmp_path / "t.folded"
        assert main(["bench", "hotspots", str(trace),
                     "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "root wall" in out and "unit" in out
        assert "sweep;unit;simulate_app" in \
            folded.read_text(encoding="utf-8")

    def test_hotspots_missing_or_empty_trace_is_usage_error(
            self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["bench", "hotspots",
                     str(tmp_path / "absent.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["bench", "hotspots", str(empty)]) == 2
        assert "no spans" in capsys.readouterr().err

    def test_hotspots_negative_limit_is_usage_error(self, tmp_path,
                                                    capsys):
        from repro.__main__ import main
        tracer = Tracer("sweep")
        with tracer.span("unit"):
            pass
        trace = tmp_path / "t.jsonl"
        trace.write_text(tracer.to_jsonl(), encoding="utf-8")
        assert main(["bench", "hotspots", str(trace), "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--limit must be >= 0" in captured.err
        assert captured.out == ""
        assert main(["bench", "hotspots", str(trace), "--limit", "0"]) == 0
