"""Every input check in the library raises a coded ``DomainError``."""

import math
import re

import pytest

from screened_sphere import conserved
from screened_sphere.closed_forms import coulomb_energy, orbit_alpha
from screened_sphere.conserved import (
    FRADKIN_XY,
    HAMILTONIAN,
    LZ,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    fradkin_quantities,
    poisson_bracket,
    runge_lenz,
    verify_coulomb_algebra,
    verify_oscillator_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    equations_of_motion,
    integrate,
)
from screened_sphere.errors import DomainError, ImaginaryAlphaError, RadiusError
from screened_sphere.phase_space import hamiltonian
from screened_sphere.spectra import radial_solve_numeric
from orbit_reference import state_at_theta
from oscillator_reference import (
    hypergeometric_terminating,
    oscillator_operator_residual,
    oscillator_wavefunction,
)

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
    "spectra-n-levels", "spectra-residual-lam", "conserved-pair-kind", "conserved-bracket-method",
    "conserved-verify-kind", "conserved-verify-method", "dynamics-rel-tol", "dynamics-n-samples",
    "dynamics-theta-target",
])
def test_library_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == "ERR_DOMAIN"


@pytest.mark.parametrize("lz", ["nan", "inf", "-inf"])
def test_non_finite_lz_is_a_domain_error(lz):
    # an infinite Lz used to pass as alpha = 1 (a closed orbit), a NaN as a bare ValueError;
    # tests/test_cli.py's refusal rows closure-lz-* run the same values through the CLI
    with pytest.raises(DomainError, match=f"angular momentum Lz must be finite, got {lz}") as exc:
        orbit_alpha(COULOMB, float(lz))
    assert exc.value.code == "ERR_DOMAIN"


@pytest.mark.parametrize("lz", [1e-200, -1e-200, 5e-324, -5e-324])
def test_unscreened_alpha_is_one_where_lz_squared_underflows(lz):
    # Lz**2 underflows to 0 below ~1.6e-162, but at k = 0 alpha = 1 for every Lz != 0
    unscreened = SystemParams(SystemKind.COULOMB, 0.1, 0.0)
    assert orbit_alpha(unscreened, lz) == 1.0
    with pytest.raises(ImaginaryAlphaError):
        orbit_alpha(unscreened, 0.0)


@pytest.mark.parametrize("x1", [0.0, 1e-200], ids=["r=0", "r2-underflows"])
@pytest.mark.parametrize("call", [
    lambda st: runge_lenz(st, COULOMB),
    lambda st: fradkin_quantities(st, OSCILLATOR),
    lambda st: hamiltonian(st, COULOMB),
    lambda st: equations_of_motion(st, OSCILLATOR),
    lambda st: poisson_bracket(HAMILTONIAN, LZ, st, COULOMB),
    lambda st: poisson_bracket(RUNGE_LENZ_X, LZ, st, COULOMB),
    lambda st: poisson_bracket(RUNGE_LENZ_X, LZ, st, COULOMB, method="fd"),
    lambda st: poisson_bracket(FRADKIN_XY, HAMILTONIAN, st, OSCILLATOR, method="fd"),
], ids=["runge_lenz", "fradkin_quantities", "hamiltonian", "equations_of_motion",
        "bracket-H", "bracket-R'x", "bracket-R'x-fd", "bracket-Q'xy-fd"])
def test_scalar_entry_points_refuse_a_vanishing_radius(call, x1):
    # at x1 = 1e-200, r > 0 but r**2 underflows to 0 in every kernel
    with pytest.raises(RadiusError) as exc:
        call(PhaseState(x1, 0.0, 0.3, 0.5))
    assert exc.value.code == "ERR_NONPOSITIVE_RADIUS"


def test_finite_difference_stencil_through_the_origin_is_a_radius_error():
    # r = 6e-6 is valid, but the x1 + h stencil point of the fd gradient lands on r = 0
    st = PhaseState(-6e-6, 0.0, 0.3, 0.5)
    assert math.isfinite(poisson_bracket(RUNGE_LENZ_X, LZ, st, COULOMB))
    with pytest.raises(RadiusError):
        poisson_bracket(RUNGE_LENZ_X, LZ, st, COULOMB, method="fd")


@pytest.mark.parametrize("method", ["analytic", "fd"])
def test_both_bracket_methods_refuse_the_wrong_system(method):
    with pytest.raises(DomainError) as exc:
        poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, STATE, OSCILLATOR, method=method)
    assert exc.value.code == "ERR_DOMAIN"


@pytest.mark.parametrize("n_samples", [10, 10**6])  # the float path and the batch path
@pytest.mark.parametrize("verify,params,method,message", [
    (verify_coulomb_algebra, COULOMB, "bogus", "unknown bracket method 'bogus'"),
    (verify_coulomb_algebra, OSCILLATOR, "analytic", "R' is defined for the coulomb system"),
    (verify_oscillator_algebra, COULOMB, "fd", "Q' is defined for the oscillator system"),
], ids=["method", "coulomb-kind", "oscillator-kind"])
def test_algebra_checks_refuse_a_bad_request_before_drawing_a_state(
        monkeypatch, verify, params, method, message, n_samples):
    def draw(*args):
        raise AssertionError("a state was drawn for a request that is refused")

    monkeypatch.setattr(conserved, "_sample_floats", draw)
    monkeypatch.setattr(conserved, "_sample_batch", draw)
    with pytest.raises(DomainError, match=re.escape(message)) as exc:
        verify(params, n_samples, method=method)
    assert exc.value.code == "ERR_DOMAIN"
