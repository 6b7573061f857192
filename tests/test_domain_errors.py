"""Every input check in the library raises a coded ``DomainError``."""

import math

import pytest

from screened_sphere.conserved import (
    HAMILTONIAN,
    LZ,
    poisson_bracket,
    runge_lenz,
    verify_coulomb_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    integrate,
    orbit_alpha,
    state_at_theta,
)
from screened_sphere.errors import DomainError
from screened_sphere.spectra import (
    RadialGrid,
    coulomb_energy,
    hypergeometric_terminating,
    oscillator_operator_residual,
    oscillator_wavefunction,
    radial_solve_numeric,
)
from test_cli import run_cli

COULOMB = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
OSCILLATOR = SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05)
STATE = PhaseState(1.6, 0.0, 0.0, 0.55)


def _theta_outside_the_orbit():
    traj = integrate(STATE, COULOMB, 1.0, n_samples=5)
    state_at_theta(traj, float(traj.theta[-1]) + math.pi)


@pytest.mark.parametrize("call", [
    lambda: coulomb_energy(0.1, 0.0, 1, -1),
    lambda: hypergeometric_terminating(-1, 1.0, 1.0, 0.5),
    lambda: hypergeometric_terminating(2, 1.0, -1.0, 0.5),
    lambda: oscillator_wavefunction(1.0, 0.0, 0.0, 1, 0),
    lambda: RadialGrid(10, 1.0),
    lambda: RadialGrid(500, 0.0),
    lambda: radial_solve_numeric(SystemKind.COULOMB, 0.1, 0.0, 1, 11),
    lambda: oscillator_operator_residual(0.0, 0.0, 1, 0),
    lambda: runge_lenz(STATE, OSCILLATOR),
    lambda: poisson_bracket(HAMILTONIAN, LZ, STATE, COULOMB, method="newton"),
    lambda: verify_coulomb_algebra(OSCILLATOR, n_samples=10),
    lambda: verify_coulomb_algebra(COULOMB, n_samples=10, method="newton"),
    lambda: integrate(STATE, COULOMB, 1.0, rel_tol=1e-3),
    lambda: integrate(STATE, COULOMB, 1.0, n_samples=1),
    _theta_outside_the_orbit,
], ids=[
    "spectra-N", "spectra-series-order", "spectra-series-pole", "spectra-wavefunction-lam",
    "spectra-grid-points", "spectra-grid-extent", "spectra-n-levels",
    "spectra-residual-lam", "conserved-pair-kind", "conserved-bracket-method", "conserved-verify-kind",
    "conserved-verify-method", "dynamics-rel-tol", "dynamics-n-samples", "dynamics-theta-target",
])
def test_library_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == "ERR_DOMAIN"


@pytest.mark.parametrize("lz", ["nan", "inf", "-inf"])
def test_non_finite_lz_is_a_domain_error(lz):
    # an infinite Lz used to pass as alpha = 1 (a closed orbit), a NaN as a bare ValueError
    message = f"angular momentum Lz must be finite, got {float(lz)}"
    with pytest.raises(DomainError, match=message) as exc:
        orbit_alpha(COULOMB, float(lz))
    assert exc.value.code == "ERR_DOMAIN"
    proc = run_cli("closure", "--system", "coulomb", "--Lz", lz)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"ERR_DOMAIN: {message}\n")
