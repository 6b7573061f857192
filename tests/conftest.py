"""Shared fixtures: the two eccentric screened orbits used across modules, and the one
hypothesis profile, under which every property draws the same examples on every run and a
failing one reports its first failing example without shrinking it."""

import pytest
from hypothesis import Phase, settings

from screened_sphere.dynamics import PhaseState, SystemKind, SystemParams, integrate

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def coulomb_params():
    return SystemParams(SystemKind.COULOMB, lam=0.1, k=0.05)


@pytest.fixture(scope="session")
def oscillator_params():
    return SystemParams(SystemKind.OSCILLATOR, lam=0.1, k=0.05)


@pytest.fixture(scope="session")
def coulomb_orbit(coulomb_params):
    """Eccentric screened-coulomb orbit covering >10 radial periods."""
    return integrate(
        PhaseState(1.6, 0.0, 0.0, 0.55),
        coulomb_params,
        t_end=70.0,
        rel_tol=1e-10,
        n_samples=6001,
    )


@pytest.fixture(scope="session")
def oscillator_orbit(oscillator_params):
    """Eccentric screened-oscillator orbit covering >10 radial periods."""
    return integrate(
        PhaseState(1.5, 0.0, 0.0, 0.6),
        oscillator_params,
        t_end=40.0,
        rel_tol=1e-10,
        n_samples=6001,
    )
