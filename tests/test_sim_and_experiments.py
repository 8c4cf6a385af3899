"""Integration tests for the orchestrator and experiment drivers.

Suite-level experiments run on a small app subset here so the test
suite stays fast; the benchmark harness runs the full 58 apps.
"""

import numpy as np
import pytest

from repro.experiments import (EXPERIMENTS, ExperimentResult, format_table,
                               run_experiment)
from repro.kernels import all_apps, get_app
from repro.power import ChipModel
from repro.sim import simulate_app, simulate_suite

SUBSET = [get_app(n) for n in ("ATA", "BLA", "BFS", "VEC", "MD", "HIS",
                               "PAT", "SCN")]


class TestSimulateApp:
    def test_memoised(self):
        a = simulate_app(get_app("VEC"))
        b = simulate_app(get_app("VEC"))
        assert a is b

    def test_scheduler_rename_is_a_cache_hit(self, monkeypatch):
        """``with_scheduler("gto")`` on the GTO baseline changes only
        the cosmetic name, so it must reuse the baseline's stats
        rather than replay the app a second time."""
        from repro.arch.config import BASELINE_CONFIG
        from repro.arch.gpu import GPUReplay
        from repro.sim import clear_caches
        replays = []
        real_run = GPUReplay.run

        def counting_run(self, trace):
            replays.append(self.config.name)
            return real_run(self, trace)

        monkeypatch.setattr(GPUReplay, "run", counting_run)
        clear_caches()
        renamed = BASELINE_CONFIG.with_scheduler("gto")
        assert renamed.name != BASELINE_CONFIG.name
        base = simulate_app(get_app("VEC"), BASELINE_CONFIG)
        assert simulate_app(get_app("VEC"), renamed) is base
        assert replays == [BASELINE_CONFIG.name]

    def test_static_binary_attached(self):
        stats = simulate_app(get_app("VEC"))
        assert stats.static_binary is not None
        assert stats.static_binary.size > 0


def _arrays(obj):
    """Every NumPy array reachable from ``obj`` through attributes and
    containers."""
    seen, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())


class TestMemoryExtent:
    """Phase 1 keeps only the allocated extent of device memory."""

    @pytest.mark.parametrize("name", ["ATA", "VEC"])
    def test_initial_image_is_the_allocated_extent(self, name):
        from repro.arch import Encoders, GlobalMemory, run_functional
        app = get_app(name)
        mem = GlobalMemory(size_bytes=app.memory_bytes)
        launches = app.build(mem, np.random.default_rng(app.seed))
        result = run_functional(app.name, mem, launches,
                                Encoders(isa_mask=0, pivot_lane=21))
        image = result.trace.initial_image
        assert image.nbytes == mem.image.size < app.memory_bytes
        code = mem.buffers[f"{name}.code"]
        assert 0 < code.base and code.end <= image.nbytes
        for launch in result.trace.launches:
            end = launch.code_base + len(launch.static_words) * 8
            assert code.base <= launch.code_base and end <= code.end
            assert np.array_equal(
                image[launch.code_base:end].view(np.uint64),
                np.asarray(launch.static_words, dtype=np.uint64))

    def test_functional_cache_holds_no_device_sized_array(self):
        from repro import sim
        from repro.obs.tracer import Tracer, use_tracer
        apps = [get_app("ATA"), get_app("VEC")]
        sim.clear_caches()
        tracer = Tracer("root")
        with use_tracer(tracer):
            for app in apps:
                sim._functional_pass(app, 21)
        spans = [s for _, s in tracer.root.walk() if s.name == "functional"]
        for app, span in zip(apps, spans):
            entry = sim._FUNCTIONAL_CACHE[(app.name, 21)]
            nbytes = entry[0].trace.initial_image.nbytes
            assert span.attrs["image_bytes"] == nbytes
            blocks = [b for l in entry[0].trace.launches for b in l.blocks]
            assert span.attrs["blocks"] == len(blocks)
            assert span.attrs["warps"] == sum(len(b.warps) for b in blocks)
            biggest = max(a.nbytes for a in _arrays(entry))
            assert biggest == nbytes < app.memory_bytes


class TestSimulateSuite:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simulate_suite([])

    def test_suite_runs_subset(self):
        suite = simulate_suite(SUBSET)
        assert set(suite.apps) == {a.name for a in SUBSET}
        assert suite.isa_profile.instruction_count > 0

    def test_shared_isa_mask(self):
        """The paper's static method: one mask for the whole corpus."""
        suite = simulate_suite(SUBSET)
        assert isinstance(suite.isa_profile.mask, int)

    def test_mean_over_apps(self):
        suite = simulate_suite(SUBSET)
        mean = suite.mean_over_apps(lambda s: s.instructions)
        assert mean > 0


class TestExperimentInfrastructure:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_registry_covers_evaluation_section(self):
        expected = {"fig01", "fig05", "fig06", "sec3.1-leakage", "fig08",
                    "fig09", "fig11", "fig12", "fig14", "table2", "fig16",
                    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
                    "fig23", "sec6.3", "sec7.1", "sec7.2"}
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_to_text_renders(self):
        result = run_experiment("fig01")
        text = result.to_text()
        assert "fig01" in text and "Gflops/W" in text


class TestCircuitExperiments:
    def test_fig05_asymmetries(self):
        result = run_experiment("fig05")
        assert result.summary["read1_over_read0"] < 0.35
        assert result.summary["write1_over_write0"] < 0.35
        assert result.summary["bvf_write0_over_8t_write0"] > 1.5

    def test_leakage_matches_paper_exactly(self):
        result = run_experiment("sec3.1-leakage")
        assert result.summary["delta0"] == pytest.approx(0.0043, abs=1e-4)
        assert result.summary["delta1"] == pytest.approx(0.0301, abs=1e-4)
        assert result.summary["bit1_vs_bit0"] == pytest.approx(0.0961,
                                                               abs=1e-4)

    def test_reliability_limit(self):
        result = run_experiment("sec7.1")
        assert result.summary["max_safe_cells"] == 16

    def test_edram_favours_one(self):
        result = run_experiment("sec7.2")
        for key, ratio in result.summary.items():
            assert ratio < 0.5

    def test_overhead_near_paper(self):
        result = run_experiment("sec6.3")
        assert 0.8 < result.summary["gate_ratio_vs_paper"] < 1.2


class TestProfilingExperiments:
    def test_fig08_leading_zeros(self):
        result = run_experiment("fig08", apps=SUBSET)
        assert 2.0 < result.summary["mean_leading_zeros"] < 20.0

    def test_fig09_zero_bits(self):
        result = run_experiment("fig09", apps=SUBSET)
        assert 16.0 < result.summary["mean_zero_bits"] < 30.0

    def test_fig11_lane0_not_optimal(self):
        result = run_experiment("fig11")   # full suite (cached by others)
        assert result.summary["best_lane"] != 0
        assert result.summary["middle_vs_edges"] < 1.0

    def test_fig12_pivot_close_to_optimal(self):
        result = run_experiment("fig12", apps=SUBSET)
        assert 1.0 <= result.summary["mean_excess"] < 2.0

    def test_fig14_mostly_zero_positions(self):
        result = run_experiment("fig14", apps=SUBSET)
        assert result.summary["positions_preferring_zero"] > 40

    def test_table2_mask_improves_ones(self):
        result = run_experiment("table2", apps=SUBSET)
        assert result.summary["encoded_one_fraction"] > \
            result.summary["baseline_one_fraction"]


class TestEnergyExperiments:
    def test_fig16_unit_reductions(self):
        result = run_experiment("fig16", apps=SUBSET)
        # Every SRAM unit must come out cheaper under the full design.
        for unit in ("REG", "SME", "L1D", "L2"):
            assert result.summary[f"{unit}_reduction"] > 0.1

    def test_fig18_mean_reduction_positive(self):
        result = run_experiment("fig18", apps=SUBSET)
        assert 0.03 < result.summary["mean_reduction"] < 0.6

    def test_fig19_beats_fig18(self):
        r28 = run_experiment("fig18", apps=SUBSET)
        r40 = run_experiment("fig19", apps=SUBSET)
        assert r40.summary["mean_reduction"] > r28.summary["mean_reduction"]

    def test_fig20_consistent_across_pstates(self):
        result = run_experiment("fig20", apps=SUBSET)
        reds = [v for k, v in result.summary.items()
                if k.startswith("reduction_40nm")]
        assert max(reds) - min(reds) < 0.2
        assert min(reds) > 0

    def test_fig21_consistent_across_schedulers(self):
        result = run_experiment("fig21", apps=SUBSET)
        reds = [v for k, v in result.summary.items()
                if k.startswith("reduction_40nm")]
        assert len(reds) == 3
        assert max(reds) - min(reds) < 0.15
        assert min(reds) > 0

    def test_fig22_consistent_across_capacities(self):
        result = run_experiment("fig22", apps=SUBSET)
        reds = [v for k, v in result.summary.items()
                if k.endswith("_40nm")]
        assert len(reds) == 3
        assert min(reds) > 0.2

    def test_fig23_ordering(self):
        result = run_experiment("fig23", apps=SUBSET)
        s = result.summary
        # BVF-8T < conventional 8T < ... and beats 6T substantially.
        assert s["BVF-8T_40nm_1.2"] < s["8T_40nm_1.2"]
        assert s["bvf_vs_6t_40nm"] > 0.1
        # Deep DVFS on the 8T family saves further energy.
        assert s["BVF-8T_40nm_0.6"] < s["BVF-8T_40nm_1.2"]
