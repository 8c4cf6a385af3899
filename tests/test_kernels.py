"""Tests for the 58-application workload suite and data generators."""

import numpy as np
import pytest

from repro.arch import GlobalMemory
from repro.kernels import (all_apps, apps_by_suite, get_app, SUITES,
                           csr_graph, image_ints, narrow_ints, prices_f32,
                           smooth_f32, sparse_f32, coordinates_f32)


class TestRegistry:
    def test_exactly_58_apps(self):
        assert len(all_apps()) == 58

    def test_suite_sizes_match_paper_sources(self):
        sizes = {suite: len(apps_by_suite(suite)) for suite in SUITES}
        assert sizes == {"rodinia": 12, "parboil": 8, "sdk": 10,
                         "shoc": 8, "lonestar": 5, "polybench": 10,
                         "gpgpusim": 5}

    def test_names_unique(self):
        names = [a.name for a in all_apps()]
        assert len(names) == len(set(names))

    def test_get_app_unknown(self):
        with pytest.raises(KeyError):
            get_app("NOPE")

    def test_seeds_deterministic(self):
        assert get_app("ATA").seed == get_app("ATA").seed
        assert get_app("ATA").seed != get_app("BIC").seed

    def test_descriptions_present(self):
        for app in all_apps():
            assert app.description


@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
class TestEveryApp:
    """Each app's stats come from the session's one baseline suite."""

    def test_builds_and_simulates(self, app, baseline_suite):
        stats = baseline_suite[0].apps[app.name]
        assert stats.instructions > 50
        assert stats.cycles > 0
        assert stats.narrow.values > 0

    def test_produces_memory_traffic(self, app, baseline_suite):
        stats = baseline_suite[0].apps[app.name]
        from repro.core.spaces import Unit
        reg = stats.unit_counts(Unit.REG, "base")
        assert reg.total_bits > 0

    def test_coders_increase_ones_on_registers(self, app, baseline_suite):
        stats = baseline_suite[0].apps[app.name]
        from repro.core.spaces import Unit
        base = stats.one_fraction(Unit.REG, "base")
        enc = stats.one_fraction(Unit.REG, "ALL")
        assert enc > base


class TestDataGenerators:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_smooth_neighbours_often_equal(self):
        field = smooth_f32(2048, self.rng).view(np.uint32)
        equal = (field[1:] == field[:-1]).mean()
        assert equal > 0.5

    def test_smooth_positive_base_never_negative(self):
        field = smooth_f32(4096, self.rng, base=0.5, step=0.05)
        assert (field >= 0).all()

    def test_smooth_has_zero_mantissa_tails(self):
        bits = smooth_f32(1024, self.rng).view(np.uint32)
        nonzero = bits[bits != 0]
        assert (nonzero & np.uint32(0x3FF) == 0).mean() > 0.9

    def test_narrow_ints_bounded(self):
        vals = narrow_ints(1024, self.rng, hi=256).view(np.int32)
        assert (np.abs(vals.astype(np.int64)) < 256).all()

    def test_narrow_ints_sign_fraction(self):
        vals = narrow_ints(4096, self.rng, hi=64,
                           signed_fraction=0.5).view(np.int32)
        neg = (vals < 0).mean()
        assert 0.3 < neg < 0.6

    def test_sparse_density(self):
        field = sparse_f32(4096, self.rng, density=0.25)
        assert 0.1 < (field != 0).mean() < 0.45

    def test_image_ints_in_byte_range(self):
        img = image_ints(1024, self.rng)
        assert img.max() <= 255

    def test_csr_graph_well_formed(self):
        offsets, cols = csr_graph(256, 4, self.rng)
        assert offsets[0] == 0
        assert (np.diff(offsets.astype(np.int64)) >= 0).all()
        assert cols.size == offsets[-1]
        assert cols.max() < 256

    def test_prices_positive_and_quantised(self):
        p = prices_f32(1024, self.rng)
        assert (p > 0).all()
        ticks = p / (30.0 / 512.0)
        # quantised to a power-of-two tick near mean/512
        bits = p.view(np.uint32)
        assert (bits & np.uint32(0xFF) == 0).mean() > 0.9

    def test_coordinates_monotone_cells(self):
        c = coordinates_f32(512, self.rng)
        assert c[-1] > c[0]


class TestWorkloadStatistics:
    """The aggregate properties Figures 8/9 rely on."""

    def test_mean_clz_near_paper(self, baseline_suite):
        values = [stats.narrow.mean_leading_zeros
                  for stats in baseline_suite[0].apps.values()]
        mean = float(np.mean(values))
        assert 6.0 < mean < 14.0      # paper: ~9

    def test_mean_zero_bits_near_paper(self, baseline_suite):
        values = [stats.narrow.mean_zero_bits_per_word
                  for stats in baseline_suite[0].apps.values()]
        mean = float(np.mean(values))
        assert 19.0 < mean < 28.0     # paper: ~22

    def test_mix_of_memory_and_compute_bound(self, baseline_suite):
        intensities = [stats.memory_intensity()
                       for stats in baseline_suite[0].apps.values()]
        assert max(intensities) > 4 * (min(intensities) + 0.1)
