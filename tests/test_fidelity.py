"""The paper-fidelity scorecard: registry, verdicts, determinism, gate.

Four layers under test:

* registry sanity — claim ids are unique, every ``requires`` names a
  real experiment, anchors/sections are present;
* verdict logic — each claim type's pass/degraded/fail bands and the
  ``NotAvailable`` -> ``not-run`` mapping, on synthetic artifacts;
* determinism — a tiny-scale scorecard is byte-identical at ``--jobs
  1/2/4`` and under any artifact insertion order (hypothesis-shuffled);
* the drift gate — a seeded tolerance-band violation makes ``fidelity
  compare --gate`` exit 1 while a self-compare exits 0, and ``not-run``
  transitions map to the non-gating new/missing verdicts.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.compare import gate_exit_code
from repro.experiments import EXPERIMENTS, ExperimentResult, canonical_json
from repro.fidelity import (CLAIMS, SCALES, ArtifactSet, OrderingClaim,
                            ShapeClaim, ValueClaim, build_record,
                            claims_by_id, compare_fidelity_records,
                            evaluate_claims, load_fidelity_record,
                            render_markdown, render_scorecard,
                            required_experiments, run_scale)
from repro.fidelity.extract import (NotAvailable, lane_curve, parse_cell,
                                    summary_series, summary_value)

PINNED_UTC = "2026-01-01T00:00:00Z"


# ---------------------------------------------------------------------------
# Registry sanity
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_claim_ids_unique(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_requires_is_a_real_experiment(self):
        for claim in CLAIMS:
            for exp_id in claim.requires:
                assert exp_id in EXPERIMENTS, \
                    f"{claim.claim_id} requires unknown {exp_id!r}"

    def test_anchors_and_sections_present(self):
        for claim in CLAIMS:
            assert claim.anchor, claim.claim_id
            assert claim.section, claim.claim_id
            assert claim.description, claim.claim_id

    def test_required_experiments_in_registry_order(self):
        needed = required_experiments()
        order = {exp_id: i for i, exp_id in enumerate(EXPERIMENTS)}
        assert needed == sorted(needed, key=order.__getitem__)

    def test_scales_reference_real_experiments(self):
        for scale in SCALES.values():
            for exp_id in (scale.experiments or ()):
                assert exp_id in EXPERIMENTS
            for exp_id in scale.app_overrides:
                assert exp_id in EXPERIMENTS

    def test_calibrated_claims_are_scale_independent(self):
        # Every calibrated claim must be runnable at the tiny scale —
        # that is what lets CI hard-fail on them cheaply.
        tiny = set(SCALES["tiny"].experiments)
        for claim in CLAIMS:
            if claim.calibrated:
                missing = set(claim.requires) - tiny
                assert not missing, \
                    f"calibrated {claim.claim_id} needs {missing}"


# ---------------------------------------------------------------------------
# Verdict logic on synthetic artifacts
# ---------------------------------------------------------------------------

def _artifacts(summary=None, rows=None, exp_id="fake"):
    result = ExperimentResult(exp_id=exp_id, title="t", headers=["a"],
                              rows=rows or [], summary=summary or {})
    return ArtifactSet.from_results([result])


def _value_claim(**kw):
    defaults = dict(claim_id="c", anchor="Fig 0", section="S",
                    description="d", requires=("fake",),
                    extract=summary_value("fake", "x"))
    defaults.update(kw)
    return ValueClaim(**defaults)


class TestValueClaim:
    @pytest.mark.parametrize("measured,verdict", [
        (10.0, "pass"), (10.9, "pass"), (11.5, "degraded"),
        (8.5, "degraded"), (13.0, "fail"), (7.0, "fail")])
    def test_two_sided_bands(self, measured, verdict):
        claim = _value_claim(expected=10.0, pass_tol=1.0, degrade_tol=2.0)
        result = claim.evaluate(_artifacts({"x": measured}))
        assert result.verdict == verdict
        assert result.measured == measured
        assert result.delta == pytest.approx(measured - 10.0)

    def test_at_least_never_penalises_overshoot(self):
        claim = _value_claim(expected=10.0, pass_tol=1.0,
                             direction="at-least")
        assert claim.evaluate(_artifacts({"x": 99.0})).verdict == "pass"
        assert claim.evaluate(_artifacts({"x": 8.0})).verdict == "degraded"
        assert claim.evaluate(_artifacts({"x": 0.0})).verdict == "fail"

    def test_at_most_never_penalises_undershoot(self):
        claim = _value_claim(expected=10.0, pass_tol=1.0,
                             direction="at-most")
        assert claim.evaluate(_artifacts({"x": 0.0})).verdict == "pass"
        assert claim.evaluate(_artifacts({"x": 12.0})).verdict == "degraded"
        assert claim.evaluate(_artifacts({"x": 13.0})).verdict == "fail"

    def test_degrade_tol_defaults_to_twice_pass_tol(self):
        claim = _value_claim(expected=10.0, pass_tol=1.0)
        assert claim.evaluate(_artifacts({"x": 11.9})).verdict == "degraded"
        assert claim.evaluate(_artifacts({"x": 12.1})).verdict == "fail"

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_verdict_monotonic_in_deviation(self, measured):
        rank = {"pass": 0, "degraded": 1, "fail": 2}
        claim = _value_claim(expected=50.0, pass_tol=5.0, degrade_tol=15.0)
        nearer = _artifacts({"x": (measured + 50.0) / 2.0})
        farther = _artifacts({"x": measured})
        assert (rank[claim.evaluate(nearer).verdict]
                <= rank[claim.evaluate(farther).verdict])

    def test_missing_summary_key_is_not_run(self):
        claim = _value_claim()
        result = claim.evaluate(_artifacts({"y": 1.0}))
        assert result.verdict == "not-run"
        assert "x" in result.detail

    def test_missing_experiment_is_not_run(self):
        claim = _value_claim(requires=("fake",))
        result = claim.evaluate(ArtifactSet())
        assert result.verdict == "not-run"
        assert "fake" in result.detail


class TestOrderingClaim:
    def _claim(self, pairs, degrade_floor=0.7):
        from repro.fidelity.extract import summary_values
        labels = sorted({name for pair in pairs for name in pair})
        return OrderingClaim(
            claim_id="o", anchor="Fig 0", section="S", description="d",
            requires=("fake",),
            extract=summary_values({n: ("fake", n) for n in labels}),
            pairs=pairs, degrade_floor=degrade_floor)

    def test_all_pairs_hold(self):
        claim = self._claim((("a", "b"), ("a", "c")))
        result = claim.evaluate(_artifacts({"a": 3, "b": 2, "c": 1}))
        assert result.verdict == "pass"
        assert result.measured == 1.0

    def test_partial_hold_degrades_and_names_violations(self):
        claim = self._claim((("a", "b"), ("a", "c"), ("b", "c"),
                             ("a", "d")), degrade_floor=0.7)
        result = claim.evaluate(
            _artifacts({"a": 3, "b": 2, "c": 1, "d": 9}))
        assert result.verdict == "degraded"
        assert result.measured == 0.75
        assert "a<=d" in result.detail

    def test_majority_violated_fails(self):
        claim = self._claim((("a", "b"), ("a", "c")))
        result = claim.evaluate(_artifacts({"a": 0, "b": 2, "c": 1}))
        assert result.verdict == "fail"

    def test_ties_do_not_hold(self):
        claim = self._claim((("a", "b"),), degrade_floor=1.0)
        assert claim.evaluate(_artifacts({"a": 2, "b": 2})).verdict == "fail"

    def test_missing_label_is_not_run(self):
        claim = self._claim((("a", "b"),))
        assert claim.evaluate(_artifacts({"a": 1.0})).verdict == "not-run"


class TestShapeClaim:
    def _claim(self, shape, params, extract):
        return ShapeClaim(claim_id="s", anchor="Fig 0", section="S",
                          description="d", requires=("fake",),
                          extract=extract, shape=shape, params=params)

    def test_u_shape(self):
        rows = [[lane, 1.0 if not 8 <= lane < 24 else 0.5]
                for lane in range(32)]
        claim = self._claim("u_shape",
                            {"middle": (8, 24), "edge_n": 4,
                             "pass_below": 0.97}, lane_curve("fake"))
        assert claim.evaluate(_artifacts(rows=rows)).verdict == "pass"
        flat = [[lane, 1.0] for lane in range(32)]
        assert claim.evaluate(_artifacts(rows=flat)).verdict == "fail"

    def test_cliff(self):
        summary = {f"flip_rate_c{c}": (0.0 if c <= 16 else 0.2)
                   for c in (4, 8, 12, 16, 20, 24)}
        claim = self._claim("cliff", {"at": 16, "safe_max": 1e-12},
                            summary_series("fake", "flip_rate_c"))
        result = claim.evaluate(_artifacts(summary))
        assert result.verdict == "pass"
        assert result.measured == 16.0
        # cliff one sweep step early: degraded, not fail
        early = {f"flip_rate_c{c}": (0.0 if c <= 12 else 0.2)
                 for c in (4, 8, 12, 16, 20, 24)}
        assert claim.evaluate(_artifacts(early)).verdict == "degraded"
        # no cliff at all: the whole sweep is "safe", measured = max x
        flat = {f"flip_rate_c{c}": 0.0 for c in (4, 8, 12, 16, 20, 24)}
        assert claim.evaluate(_artifacts(flat)).verdict == "fail"

    def test_all_at_least_and_at_most(self):
        from repro.fidelity.extract import summary_values
        extract = summary_values({k: ("fake", k) for k in ("a", "b")})
        low = self._claim("all_at_least",
                          {"floor": 0.1, "degrade_floor": 0.05}, extract)
        assert low.evaluate(_artifacts({"a": 0.2, "b": 0.15})).verdict \
            == "pass"
        assert low.evaluate(_artifacts({"a": 0.2, "b": 0.07})).verdict \
            == "degraded"
        assert low.evaluate(_artifacts({"a": 0.2, "b": 0.01})).verdict \
            == "fail"
        high = self._claim("all_at_most",
                           {"ceiling": 0.5, "degrade_ceiling": 0.8},
                           extract)
        result = high.evaluate(_artifacts({"a": 0.4, "b": 0.6}))
        assert result.verdict == "degraded"
        assert "b" in result.detail          # names the worst offender

    def test_spread_at_most(self):
        from repro.fidelity.extract import summary_values
        extract = summary_values({k: ("fake", k) for k in ("a", "b", "c")})
        claim = self._claim("spread_at_most",
                            {"tol": 0.02, "degrade_tol": 0.05}, extract)
        assert claim.evaluate(
            _artifacts({"a": 0.30, "b": 0.31, "c": 0.30})).verdict == "pass"
        assert claim.evaluate(
            _artifacts({"a": 0.30, "b": 0.34, "c": 0.30})).verdict \
            == "degraded"
        assert claim.evaluate(
            _artifacts({"a": 0.30, "b": 0.40, "c": 0.30})).verdict == "fail"


#: Summaries on which every claim below passes; each case breaks one
#: value and names the verdict it must then read.
_NODES = ("40nm", "28nm")
_PASSING = {
    "fig06": {"write1_over_write0": 0.10},
    "fig16": {f"{unit}_reduction": 0.12 for unit in
              ("REG", "SME", "L1D", "L1I", "L1C", "L1T", "L2", "NOC")},
    "fig17": {f"{unit}_reduction": 0.2 for unit in ("REG", "SME", "L1D",
                                                    "L2")},
    "fig20": {f"reduction_{tech}_{pstate}": 0.3 for tech in _NODES
              for pstate in ("P0", "P1", "P2")},
    "fig21": {f"reduction_{tech}_{sched}": 0.2 for tech in _NODES
              for sched in ("gto", "lrr", "two_level")},
    "fig23": {"8T_40nm_1.2": 0.97, "BVF-8T_40nm_1.2": 0.71,
              "BVF-8T_40nm_0.6": 0.11, "8T_28nm_1.2": 0.71,
              "BVF-8T_28nm_1.2": 0.55, "BVF-8T_28nm_0.6": 0.07},
    "sec6.3": {"dyn_mw_40nm": 89.5},
    "sec7.2": {f"{access}1_over_{access}0_{tech}": 0.19 for tech in _NODES
               for access in ("read", "write", "refresh")},
    "ablation-isa": {"static_one_fraction": 0.92, "base_one_fraction": 0.08},
    "ablation-businvert": {"bvf_one_fraction": 0.77,
                           "businvert_one_fraction": 0.29},
}


def _summaries(by_exp):
    return ArtifactSet.from_results([
        ExperimentResult(exp_id=exp_id, title="t", headers=[], rows=[],
                         summary=summary)
        for exp_id, summary in by_exp.items()])


class TestRegistryBands:
    @pytest.mark.parametrize("claim_id,exp_id,key,value,verdict", [
        ("fig06-write-asymmetry", "fig06", "write1_over_write0", 0.4, "fail"),
        # above the 0.5 ceiling, inside the degraded band
        ("sec7.2-all-accesses-favour", "sec7.2", "write1_over_write0_40nm",
         0.55, "degraded"),
        ("sec7.2-all-accesses-favour", "sec7.2", "read1_over_read0_28nm",
         1.2, "fail"),
        ("fig16-sram-unit-floors", "fig16", "L1C_reduction", 0.01, "fail"),
        ("fig16-sme-noc-floor", "fig17", "SME_reduction", 0.01, "fail"),
        ("fig17-unit-floors", "fig17", "L2_reduction", 0.01, "fail"),
        ("fig20-dvfs-consistent", "fig20", "reduction_28nm_P2", 0.6, "fail"),
        ("fig21-scheduler-flat-28nm", "fig21", "reduction_28nm_lrr", 0.3,
         "fail"),
        ("fig21-every-scheduler-saves", "fig21", "reduction_40nm_lrr", 0.01,
         "fail"),
        ("fig23-bvf-below-8t", "fig23", "BVF-8T_28nm_1.2", 0.8, "fail"),
        ("fig23-deep-dvfs-ratio", "fig23", "BVF-8T_28nm_0.6", 0.5, "fail"),
        ("sec6.3-dynamic-power-40nm", "sec6.3", "dyn_mw_40nm", 250.0, "fail"),
        ("ablation-isa-static-lift", "ablation-isa", "base_one_fraction",
         0.8, "fail"),
        ("ablation-bvf-ones", "ablation-businvert", "bvf_one_fraction", 0.4,
         "fail"),
        ("ablation-businvert-ones", "ablation-businvert",
         "businvert_one_fraction", 0.8, "fail")])
    def test_claim_passes_then_grades_one_broken_value(
            self, claim_id, exp_id, key, value, verdict):
        claim = claims_by_id()[claim_id]
        assert claim.evaluate(_summaries(_PASSING)).verdict == "pass"
        broken = {exp: dict(summary) for exp, summary in _PASSING.items()}
        broken[exp_id][key] = value
        assert claim.evaluate(_summaries(broken)).verdict == verdict

    @pytest.mark.parametrize("merged", [False, True])
    @pytest.mark.parametrize("worst,verdict", [("5.8%", "pass"),
                                               ("30.0%", "fail")])
    def test_fig18_app_spread_reads_either_table_shape(self, merged, worst,
                                                       verdict):
        rows = [["GES", "1e-06", "4e-07", "56.9%"],
                ["BFL", "1e-06", "9e-07", worst]]
        if merged:     # the sweep prepends each unit's app, adds its AVG
            rows = [row for app, *cells in rows
                    for row in ([app, app, *cells],
                                [app, "AVG", "-", "-", cells[-1]])]
        else:
            rows.append(["AVG", "-", "-", "31.4%"])
        claim = claims_by_id()["fig18-app-spread"]
        assert claim.evaluate(_artifacts(rows=rows, exp_id="fig18")
                              ).verdict == verdict


class TestExtractors:
    def test_parse_cell_percent_and_float(self):
        assert parse_cell("40.8%") == pytest.approx(0.408)
        assert parse_cell("0.934") == pytest.approx(0.934)
        assert parse_cell(3) == 3.0

    def test_metric_value_not_available_without_snapshot(self):
        with pytest.raises(NotAvailable):
            ArtifactSet().metric_value("noc_toggles_total",
                                       {"variant": "base"})


# ---------------------------------------------------------------------------
# Determinism: the tiny scale, end to end
# ---------------------------------------------------------------------------

#: jobs -> canonical record bytes; determinism makes re-running a
#: given jobs count pointless, so each count runs once per session.
_RECORD_CACHE = {}


def _tiny_record_bytes(jobs):
    if jobs not in _RECORD_CACHE:
        artifacts, failed, quarantined = run_scale(SCALES["tiny"],
                                                   jobs=jobs)
        record = build_record(evaluate_claims(artifacts), "tiny",
                              failed_units=failed,
                              quarantined_units=quarantined,
                              created_utc=PINNED_UTC)
        _RECORD_CACHE[jobs] = canonical_json(record)
    return _RECORD_CACHE[jobs]


class TestDeterminism:
    def test_tiny_scale_has_no_failed_units_and_verdicts(self):
        record = json.loads(_tiny_record_bytes(1))
        assert record["failed_units"] == []
        assert record["schema"] == "repro-fidelity"
        # every tiny-scale-backed claim actually ran and none failed
        assert record["summary"]["fail"] == 0
        assert record["summary"]["pass"] >= 15
        # the calibrated claims are exact, so each must read pass
        calibrated = {claim_id: entry["verdict"]
                      for claim_id, entry in record["claims"].items()
                      if entry["calibrated"]}
        assert len(calibrated) == sum(c.calibrated for c in CLAIMS)
        assert set(calibrated.values()) == {"pass"}, calibrated

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_byte_identical_across_jobs(self, jobs):
        assert _tiny_record_bytes(jobs) == _tiny_record_bytes(1)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_artifact_insertion_order_is_irrelevant(self, rng):
        baseline = json.loads(_tiny_record_bytes(1))
        if "artifacts" not in _RECORD_CACHE:
            _RECORD_CACHE["artifacts"] = run_scale(SCALES["tiny"],
                                                   jobs=1)[0]
        artifacts = _RECORD_CACHE["artifacts"]
        shuffled = list(artifacts.results.values())
        rng.shuffle(shuffled)
        reordered = ArtifactSet.from_results(shuffled,
                                             metrics=artifacts.metrics)
        record = build_record(evaluate_claims(reordered), "tiny",
                              created_utc=PINNED_UTC)
        assert canonical_json(record) == canonical_json(baseline)

    def test_markdown_and_scorecard_are_stable(self):
        record = json.loads(_tiny_record_bytes(1))
        assert render_markdown(record) == render_markdown(record)
        text = render_scorecard(record)
        assert "scale=tiny" in text
        markdown = render_markdown(record)
        for claim in CLAIMS:
            assert claim.anchor in markdown


# ---------------------------------------------------------------------------
# The drift gate
# ---------------------------------------------------------------------------

def _write_record(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(canonical_json(record), encoding="utf-8")
    return str(path)


class TestDriftGate:
    def _record(self):
        return json.loads(_tiny_record_bytes(1))

    def test_self_compare_is_clean_and_exits_zero(self, tmp_path, capsys):
        path = _write_record(tmp_path, "a.json", self._record())
        assert main(["fidelity", "compare", path, path, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "0 claim(s) crossed a tolerance band" in out

    def test_seeded_deviation_trips_the_gate(self, tmp_path, capsys):
        old = self._record()
        new = json.loads(_tiny_record_bytes(1))
        # Seed a tolerance-band violation: the §3.1 leakage trio is
        # calibrated-exact, so degrading one is unambiguous drift.
        new["claims"]["sec3.1-leak-delta0"]["verdict"] = "fail"
        old_path = _write_record(tmp_path, "old.json", old)
        new_path = _write_record(tmp_path, "new.json", new)
        assert main(["fidelity", "compare", old_path, new_path]) == 0
        assert main(["fidelity", "compare", old_path, new_path,
                     "--gate"]) == 1
        err = capsys.readouterr().err
        assert "fidelity drift gate FAILED" in err

    def test_improvement_does_not_gate(self):
        old, new = self._record(), self._record()
        old["claims"]["fig09-zero-bits"]["verdict"] = "degraded"
        deltas = compare_fidelity_records(old, new)
        by_name = {d.name: d for d in deltas}
        assert by_name["fig09-zero-bits"].verdict == "improved"
        assert gate_exit_code(deltas, gate=True) == 0

    def test_not_run_transitions_map_to_new_and_missing(self):
        old, new = self._record(), self._record()
        old["claims"]["fig09-zero-bits"]["verdict"] = "not-run"
        new["claims"]["table2-encoded-ones"]["verdict"] = "not-run"
        del old["claims"]["fig01-crossover"]
        by_name = {d.name: d
                   for d in compare_fidelity_records(old, new)}
        assert by_name["fig09-zero-bits"].verdict == "new"
        assert by_name["table2-encoded-ones"].verdict == "missing"
        assert by_name["fig01-crossover"].verdict == "new"
        assert gate_exit_code(compare_fidelity_records(old, new),
                              gate=True) == 0

    def test_unusable_record_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        good = _write_record(tmp_path, "good.json", self._record())
        assert main(["fidelity", "compare", str(bad), good]) == 2
        wrong = dict(self._record(), schema="repro-bench")
        wrong_path = _write_record(tmp_path, "wrong.json", wrong)
        assert main(["fidelity", "compare", wrong_path, good]) == 2


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "FIDELITY_test.json"
        assert main(["fidelity", "run", "--scale", "tiny",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        record = load_fidelity_record(str(out))
        assert record["scale"] == "tiny"
        assert main(["fidelity", "report", "--record", str(out),
                     "--markdown"]) == 0
        markdown = capsys.readouterr().out
        assert "| Anchor | Claim | Kind |" in markdown
        assert "Fig 1" in markdown

    def test_unknown_scale_suggests(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "run", "--scale", "smke"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown fidelity scale" in err
        assert "smoke" in err

    def test_gate_passes_on_clean_tiny_run(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["fidelity", "run", "--scale", "tiny",
                     "--out", str(out), "--gate"]) == 0


# ---------------------------------------------------------------------------
# The committed artifacts stay in sync
# ---------------------------------------------------------------------------

REPO = Path(__file__).parent.parent
BASELINE = REPO / "benchmarks" / "baselines" / "fidelity_smoke.json"
EXPERIMENTS_MD = REPO / "EXPERIMENTS.md"


class TestCommittedArtifacts:
    def test_baseline_record_loads_and_is_clean(self):
        record = load_fidelity_record(str(BASELINE))
        assert record["scale"] == "smoke"
        assert record["failed_units"] == []
        assert record["summary"]["fail"] == 0
        assert record["summary"]["not-run"] == 0
        assert set(record["claims"]) == set(claims_by_id())

    def test_experiments_md_block_matches_baseline(self):
        """The EXPERIMENTS.md claims block IS the generated markdown.

        If this fails, someone edited the block by hand or moved the
        numbers without regenerating: re-run ``fidelity run --scale
        smoke --baseline ...`` and ``fidelity report --markdown``, and
        commit both (the instructions sit right above the block).
        """
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        begin = text.index("fidelity:begin")
        begin = text.index("\n", begin) + 1
        end = text.index("<!-- fidelity:end -->")
        committed = text[begin:end].rstrip("\n")
        record = load_fidelity_record(str(BASELINE))
        assert committed == render_markdown(record)
