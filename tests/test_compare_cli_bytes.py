"""Byte pins for the comparator commands and the benchmark grader.

``fidelity compare``, ``obs diff`` and the end-to-end benchmark's
grader (``benchmarks/e2e/compare.py``, which grades a change against
the bounds in ``BENCHMARK.json``) each print a table, an error or gate
line on stderr and an exit code that CI scripts and humans read.
Every case below runs one of them in-process and must reproduce the
exact stdout, stderr and exit code recorded in
``tests/golden/compare_cli.json``. The inputs are committed records
(or edited copies of them) and the hand-written fixtures under
``tests/golden/diff/`` (fixed timings, no live sweep), so the bytes
are deterministic. Regenerate after an intentional output change
with::

    PYTHONPATH=src python -m pytest tests/test_compare_cli_bytes.py \
        --update-golden

The plain tests at the end pin the argument contract the golden cases
run under: a comparator bar that is not a finite number >= 0 is a
usage error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.__main__ import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden" / "compare_cli.json"
DIFF_DIR = REPO / "tests" / "golden" / "diff"
E2E = REPO / "benchmarks" / "e2e" / "baseline.json"
E2E_GRADER = REPO / "benchmarks" / "e2e" / "compare.py"
FIDELITY = REPO / "benchmarks" / "baselines" / "fidelity_smoke.json"

#: The claim the drifted fidelity copy fails: the §7.1 16-cell cliff.
DRIFT_CLAIM = "sec7.1-analytic-cliff"


def _diff_pairs(old="old", new="new"):
    argv = ["obs", "diff"]
    for flag, suffix in (("--trace", "trace.jsonl"),
                         ("--metrics", "metrics.json"),
                         ("--ledger", "ledger.jsonl")):
        argv += [flag, str(DIFF_DIR / f"{old}.{suffix}"),
                 str(DIFF_DIR / f"{new}.{suffix}")]
    return argv


#: case name -> argv; ``{drift}`` is the drifted fidelity copy and
#: ``{mixed}`` a copy that, compared against the baseline, yields every
#: other fidelity verdict (new, missing, improved, not-run transitions).
CASES = {
    "fidelity-self": ["fidelity", "compare", str(FIDELITY),
                      str(FIDELITY)],
    "fidelity-self-gate": ["fidelity", "compare", str(FIDELITY),
                           str(FIDELITY), "--gate"],
    "fidelity-drift": ["fidelity", "compare", str(FIDELITY), "{drift}"],
    "fidelity-drift-gate": ["fidelity", "compare", str(FIDELITY),
                            "{drift}", "--gate"],
    "fidelity-mixed-gate": ["fidelity", "compare", "{mixed}",
                            str(FIDELITY), "--gate"],
    "obs-diff-table": _diff_pairs(),
    "obs-diff-show-ok": _diff_pairs() + ["--show-ok"],
    "obs-diff-json": _diff_pairs() + ["--json"],
    "obs-diff-gate": _diff_pairs() + ["--gate"],
    "obs-diff-self-gate": _diff_pairs("old", "old") + ["--gate"],
}


def _edited_copy(tmp_path, source, table, name, edit):
    """Path of a copy of ``source`` whose ``table`` went through
    ``edit``."""
    record = json.loads(source.read_text(encoding="utf-8"))
    edit(record[table])
    path = tmp_path / name
    path.write_text(json.dumps(record), encoding="utf-8")
    return str(path)


def _drift(claims):
    claims[DRIFT_CLAIM]["verdict"] = "fail"


def _mix(claims):
    claims["fig09-zero-bits"]["verdict"] = "not-run"
    claims["fig18-mean-reduction"]["verdict"] = "degraded"
    claims["zz-retired-claim"] = dict(claims.pop("fig01-crossover"))


#: The benchmark grader's cases: argv of ``benchmarks/e2e/compare.py``
#: with paths relative to the repository root (error lines print
#: them). ``{rss}`` is a baseline copy whose ``paper-serial`` peak RSS,
#: a metric with under 1% spread, is 20% worse, past its 10% bound;
#: ``{digest}`` one with a changed ``suite-replay`` output digest.
E2E_CASES = {
    "e2e-grader-self": ["benchmarks/e2e/baseline.json",
                        "benchmarks/e2e/baseline.json"],
    "e2e-grader-rss-regression": ["benchmarks/e2e/baseline.json",
                                  "{rss}"],
    "e2e-grader-changed-digest": ["benchmarks/e2e/baseline.json",
                                  "{digest}"],
    "e2e-grader-not-e2e": ["benchmarks/e2e/baseline.json",
                           "benchmarks/baselines/fidelity_smoke.json"],
}


def _worse_rss(scenarios):
    row = scenarios["paper-serial"]["metrics"]["peak_rss_mb"]
    for stat in ("min", "q1", "median", "q3", "max"):
        row[stat] *= 1.2
    row["samples"] = [value * 1.2 for value in row["samples"]]


def _changed_digest(scenarios):
    digests = scenarios["suite-replay"]["digests"]
    digests[min(digests)] = "0" * 64


@pytest.fixture
def copies(tmp_path):
    edits = {"{drift}": (FIDELITY, "claims", _drift),
             "{mixed}": (FIDELITY, "claims", _mix),
             "{rss}": (E2E, "scenarios", _worse_rss),
             "{digest}": (E2E, "scenarios", _changed_digest)}
    return {name: _edited_copy(tmp_path, source, table,
                               name.strip("{}") + ".json", edit)
            for name, (source, table, edit) in edits.items()}


@pytest.fixture(scope="module")
def e2e_grader():
    spec = importlib.util.spec_from_file_location("e2e_compare",
                                                  E2E_GRADER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, copies, capsys, update_golden):
    argv = [copies.get(arg, arg) for arg in CASES[case]]
    _check_golden(case, main, argv, capsys, update_golden)


@pytest.mark.parametrize("case", sorted(E2E_CASES))
def test_e2e_grader_bytes_match_golden(case, copies, e2e_grader, capsys,
                                       monkeypatch, update_golden):
    monkeypatch.chdir(REPO)
    argv = [copies.get(arg, arg) for arg in E2E_CASES[case]]
    _check_golden(case, e2e_grader.main, argv, capsys, update_golden)


def _check_golden(case, command, argv, capsys, update_golden):
    e2e_before = E2E.read_bytes()
    code = command(argv)
    captured = capsys.readouterr()
    observed = {"exit": code, "stdout": captured.out,
                "stderr": captured.err}
    assert E2E.read_bytes() == e2e_before     # the baseline is read-only
    golden = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
              if GOLDEN_PATH.exists() else {})
    if update_golden:
        golden[case] = observed
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
        pytest.skip("golden fixture regenerated; commit the diff")
    assert case in golden, (
        "missing golden case — generate it with `python -m pytest "
        "tests/test_compare_cli_bytes.py --update-golden`")
    assert observed == golden[case]


#: Every numeric bar of the timing comparator, with a pair of inputs
#: the command would otherwise grade.
BARS = {
    "obs diff": (_diff_pairs(), ("--threshold", "--abs-floor-s")),
}
BAR_FLAGS = [(command, flag) for command, (_, flags) in sorted(BARS.items())
             for flag in flags]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
@pytest.mark.parametrize("command,flag", BAR_FLAGS)
def test_comparator_bars_must_be_finite_and_non_negative(
        command, flag, value, capsys):
    """NaN or infinity would grade every delta ok, hiding the
    regression the bar exists to catch: a usage error instead."""
    argv = BARS[command][0] + ["--gate", flag, value]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "finite number >= 0" in err


@pytest.mark.parametrize("command,flag", BAR_FLAGS)
def test_comparator_bars_accept_zero(command, flag, capsys):
    assert main(BARS[command][0] + ["--gate", flag, "0"]) in (0, 1)
