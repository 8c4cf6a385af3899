"""Byte pins for the three comparator commands.

``bench compare``, ``fidelity compare`` and ``obs diff`` each print a
table, a gate line on stderr and an exit code that CI scripts and
humans read. Every case below runs one command in-process and must
reproduce the exact stdout, stderr and exit code recorded in
``tests/golden/compare_cli.json``. The inputs are committed records
and the hand-written fixtures under ``tests/golden/diff/`` (fixed
timings, no live sweep), so the bytes are deterministic. Regenerate
after an intentional output change with::

    PYTHONPATH=src python -m pytest tests/test_compare_cli_bytes.py \
        --update-golden

The plain tests at the end pin the argument contract the golden cases
run under: a comparator bar that is not a finite number >= 0 is a
usage error.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden" / "compare_cli.json"
DIFF_DIR = REPO / "tests" / "golden" / "diff"
PRE = REPO / "benchmarks" / "records" / "BENCH_20260808T000000Z_pre.json"
POST = REPO / "benchmarks" / "records" / "BENCH_20260808T120000Z_post.json"
E2E = REPO / "benchmarks" / "e2e" / "baseline.json"
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
    "bench-pre-post": ["bench", "compare", str(PRE), str(POST)],
    "bench-post-pre-gate": ["bench", "compare", str(POST), str(PRE),
                            "--gate"],
    "bench-e2e-self-gate": ["bench", "compare", str(E2E), str(E2E),
                            "--gate"],
    "bench-disjoint": ["bench", "compare", str(PRE), str(E2E)],
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


def _fidelity_copy(tmp_path, name, edit):
    record = json.loads(FIDELITY.read_text(encoding="utf-8"))
    edit(record["claims"])
    path = tmp_path / name
    path.write_text(json.dumps(record), encoding="utf-8")
    return str(path)


def _drift(claims):
    claims[DRIFT_CLAIM]["verdict"] = "fail"


def _mix(claims):
    claims["fig09-zero-bits"]["verdict"] = "not-run"
    claims["fig18-mean-reduction"]["verdict"] = "degraded"
    claims["zz-retired-claim"] = dict(claims.pop("fig01-crossover"))


@pytest.fixture
def copies(tmp_path):
    return {"{drift}": _fidelity_copy(tmp_path, "drift.json", _drift),
            "{mixed}": _fidelity_copy(tmp_path, "mixed.json", _mix)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, copies, capsys, update_golden):
    e2e_before = E2E.read_bytes()
    argv = [copies.get(arg, arg) for arg in CASES[case]]
    code = main(argv)
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


#: Every numeric bar of the two timing comparators, with a pair of
#: inputs the command would otherwise grade.
BARS = {
    "obs diff": (_diff_pairs(), ("--threshold", "--abs-floor-s")),
    "bench compare": (["bench", "compare", str(PRE), str(POST)],
                      ("--threshold", "--mad-k", "--min-seconds")),
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
