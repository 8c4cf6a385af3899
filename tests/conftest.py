"""Shared pytest configuration for the reproduction test suite."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the JSON fixtures under tests/golden/ from the "
             "current code instead of asserting against them")


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite golden fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def baseline_suite():
    """One ``simulate_suite`` over all 58 apps at ``BASELINE_CONFIG``
    with the corpus ISA mask, shared by the session: returns the
    :class:`~repro.sim.SuiteResult` and each app's
    :class:`~repro.arch.gpu.ReplayResult`, by app name.

    The simulation caches are cleared first, so every app replays and
    is captured."""
    from repro.arch.gpu import GPUReplay
    from repro.kernels import all_apps
    from repro.sim import clear_caches, simulate_suite

    replays = {}
    real_run = GPUReplay.run

    def capturing_run(self, trace):
        result = replays[trace.app_name] = real_run(self, trace)
        return result

    clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GPUReplay, "run", capturing_run)
        suite = simulate_suite(all_apps())
    return suite, replays
