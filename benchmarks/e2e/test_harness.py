"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.fidelity.scorecard import SCALES  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _benchmark_json() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _patched_targets(probe_entries):
    """Identity snapshot of every attribute an install may replace."""
    import importlib
    snapshot = {}
    for entry in probe_entries:
        module_name, _, qualname = entry.partition(":")
        module = importlib.import_module(module_name)
        if qualname.endswith("[*]"):
            registry = getattr(module, qualname[:-3])
            for key, value in registry.items():
                snapshot[(entry, key)] = value
            continue
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            snapshot[(entry, None)] = vars(owner)[attr]
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") \
                    and hasattr(other, attr):
                snapshot[(entry, other.__name__)] = getattr(other, attr)
    return snapshot


def test_uninstall_restores_every_patched_attribute():
    probe = layers.Probe(traced=True)
    for entry in layers.ALL_ENTRIES:   # import everything first
        __import__(entry.partition(":")[0])
    before = _patched_targets(layers.ALL_ENTRIES)
    probe.install()
    assert not probe.missing
    during = _patched_targets(layers.ALL_ENTRIES)
    changed = [key for key in before if during[key] is not before[key]]
    # Every counted, timed or spanned entry point got a wrapper.
    assert {key[0] for key in changed} == set(layers.ALL_ENTRIES)
    from repro.experiments.registry import EXPERIMENTS, accepts_apps
    assert accepts_apps(EXPERIMENTS["fig09"])
    assert not accepts_apps(EXPERIMENTS["fig01"])
    probe.uninstall()
    after = _patched_targets(layers.ALL_ENTRIES)
    assert all(after[key] is before[key] for key in before)


def test_missing_entry_points_are_skipped_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "COUNTED",
                        layers.COUNTED + ("repro.sim:no_such_function",
                                          "repro.no_such_module:f"))
    probe = layers.Probe(traced=False).install()
    probe.uninstall()
    assert probe.missing == ["repro.sim:no_such_function",
                             "repro.no_such_module:f"]


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_stack_telescopes_on_a_synthetic_tree():
    clock = layers.LayerClock(("a", "b", "c"))
    c = clock.timed(lambda: _spin(0.002), 2)

    def _b():
        _spin(0.001)
        c()

    b = clock.timed(_b, 1)

    def _a(depth):
        _spin(0.001)
        b()
        b()
        if depth:
            a(depth - 1)      # same-layer recursion

    a = clock.timed(_a, 0)
    start = time.perf_counter()
    a(1)
    c()
    _spin(0.003)              # untimed remainder
    wall = time.perf_counter() - start

    table = clock.table()
    assert [table[n]["calls"] for n in "abc"] == [2, 4, 5]
    assert all(table[n]["self_s"] > 0 for n in "abc")
    self_sum = sum(row["self_s"] for row in table.values())
    assert self_sum == pytest.approx(clock.top_s, rel=1e-9)
    # Recursion counts the outermost call once in cum, so a's cum is
    # its single top-level call, never double-counted.
    assert table["a"]["cum_s"] <= clock.top_s
    assert table["c"]["self_s"] == pytest.approx(table["c"]["cum_s"])
    assert wall - clock.top_s >= 0.003


def test_emitted_names_are_declared_in_benchmark_json():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = dict(run.END_TO_END + run.PER_LAYER)
    assert all(NAME.match(name) for name in emitted)
    assert emitted == declared
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert spec["paths"] == ["benchmarks/e2e"]


def test_forked_children_run_unwrapped():
    import repro.sim
    original = repro.sim.simulate_app
    probe = layers.Probe(traced=True).install()
    try:
        assert repro.sim.simulate_app is not original
        pid = os.fork()
        if pid == 0:
            os._exit(0 if repro.sim.simulate_app is original else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert repro.sim.simulate_app is not original
    finally:
        probe.uninstall()
    assert repro.sim.simulate_app is original


@pytest.fixture(scope="module")
def tiny_samples():
    """Every workload at the scorecard's ``tiny`` scale (ATA+VEC) at two
    seeds, the second traced, each in a fresh process as in a report."""
    samples = {}
    for name in workloads.WORKLOADS:
        samples[name] = [
            run.spawn(dict(run._spec(name, "tiny", seed, 0, traced),
                           suite_apps=["ATA", "VEC"]), 120)
            for seed, traced in ((2017, False), (7, True))]
    return samples


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_body_at_tiny_scale(tiny_samples, name):
    untraced, traced = tiny_samples[name]
    summary = run.summarize(name, [untraced], traced)
    assert summary["problems"] == []
    assert summary["per_layer"]["failed_frac"] == 0
    assert untraced["digests"] == traced["digests"] != {}
    assert untraced["model"] == traced["model"]
    # Each sample starts cold, so every body replays in the measuring
    # process except the warm sweeps. (paper-durable's one-unit
    # sec7.1-inject sweep runs in the parent, not the pool.)
    assert (traced["replays"] == 0) == (name == "figures-warm")
    assert untraced["replays"] == traced["replays"]
    assert not traced["missing_entry_points"]
    for metric, unit in run.PER_LAYER:
        assert metric in summary["per_layer"], metric


def test_sweeps_agree_on_shared_experiments(tiny_samples):
    summaries = {name: run.summarize(name, [runs[0]], None)
                 for name, runs in tiny_samples.items()}
    assert run.cross_check(summaries) == []
    shared = (set(summaries["paper-serial"]["digests"])
              & set(summaries["figures-warm"]["digests"]))
    tiny = set(SCALES["tiny"].experiments)
    assert shared == tiny - set(workloads.COLD_ONLY_EXPERIMENTS)
    assert set(summaries["paper-durable"]["digests"]) == tiny


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "suite-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
