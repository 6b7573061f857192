"""Every input check in the library raises a coded ``DomainError``."""

import math
import re

import pytest

from screened_sphere import conserved, dynamics, spectra
from screened_sphere.closed_forms import coulomb_energy, orbit_alpha, oscillator_energy
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
from screened_sphere.phase_space import MAX_SAMPLES, hamiltonian
from screened_sphere.spectra import GRID_MAX_LEVELS, radial_solve_numeric, spectrum_entries
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


# id: (call, message); "…" stands for a computed number, as in tests/test_cli.py's _REFUSALS
_LIBRARY_REFUSALS = {
    "spectra-N": (lambda: coulomb_energy(0.1, 0.0, 1, -1),
                  "radial index N must be a non-negative integer, got -1"),
    "spectra-N-nan": (lambda: coulomb_energy(0.1, 0.0, 1, float("nan")),  # once a bare ValueError
                      "radial index N must be a non-negative integer, got nan"),
    "spectra-N-inf": (lambda: oscillator_energy(0.1, 0.0, 1, float("inf")),  # once OverflowError
                      "radial index N must be a non-negative integer, got inf"),
    # an m that is no integer: a level of a state that does not exist, which the grid oracle
    # matched, or for a nan or inf m an overflow that did not happen
    "spectra-m-fraction": (lambda: coulomb_energy(0.1, 0.05, 1.5, 0),
                           "angular number m must be an integer, got 1.5"),
    "spectra-m-fraction-oscillator": (lambda: oscillator_energy(0.1, 0.05, 1.5, 0),
                                      "angular number m must be an integer, got 1.5"),
    "spectra-m-fraction-grid": (lambda: spectrum_entries(COULOMB, [1.5], [0], numeric=True),
                                "angular number m must be an integer, got 1.5"),
    "spectra-m-nan": (lambda: coulomb_energy(0.1, 0.05, math.nan, 0),
                      "angular number m must be an integer, got nan"),
    "spectra-m-inf": (lambda: oscillator_energy(0.1, 0.05, math.inf, 0),
                      "angular number m must be an integer, got inf"),
    "spectra-m-nan-grid": (lambda: radial_solve_numeric(COULOMB, math.nan, 1),  # once ERR_ACCURACY
                           "angular number m must be an integer, got nan"),
    "spectra-series-order": (lambda: hypergeometric_terminating(-1, 1.0, 1.0, 0.5),
                             "series order N must be a non-negative integer, got -1"),
    "spectra-series-pole": (lambda: hypergeometric_terminating(2, 1.0, -1.0, 0.5),
                            "pole in (c)_j at j = 1 before termination"),
    "spectra-wavefunction-lam": (lambda: oscillator_wavefunction(1.0, 0.0, 0.0, 1, 0),
                                 "oscillator_wavefunction requires lam > 0"),
    "spectra-n-levels": (lambda: radial_solve_numeric(COULOMB, 1, 11),
                         "n_levels must lie in 1..10, got 11"),
    # a count or a seed that is no integer: a bare TypeError or ValueError, or (a seed) one
    # that random.Random took by its hash, which for a NaN follows the object's id
    "spectra-n-levels-fraction": (lambda: radial_solve_numeric(COULOMB, 1, 2.5),
                                  "n_levels must be an integer, got 2.5"),
    "spectra-residual-lam": (lambda: oscillator_operator_residual(0.0, 0.0, 1, 0),
                             "operator residual is defined for lam > 0"),
    "conserved-pair-kind": (lambda: runge_lenz(STATE, OSCILLATOR),
                            "R' is defined for the coulomb system"),
    "conserved-bracket-method": (
        lambda: poisson_bracket(HAMILTONIAN, LZ, STATE, COULOMB, method="newton"),
        "unknown bracket method 'newton'"),
    "conserved-verify-kind": (lambda: verify_coulomb_algebra(OSCILLATOR, n_samples=10),
                              "R' is defined for the coulomb system"),
    "conserved-verify-method": (
        lambda: verify_coulomb_algebra(COULOMB, n_samples=10, method="newton"),
        "unknown bracket method 'newton'"),
    "conserved-n-samples-fraction": (lambda: verify_coulomb_algebra(COULOMB, n_samples=2.5),
                                     "n_samples must be an integer, got 2.5"),
    "conserved-n-samples-nan": (lambda: verify_oscillator_algebra(OSCILLATOR, n_samples=math.nan),
                                "n_samples must be an integer, got nan"),
    "conserved-seed-fraction": (lambda: verify_coulomb_algebra(COULOMB, 10, seed=2.5),
                                "seed must be an integer, got 2.5"),
    "conserved-seed-nan": (lambda: verify_oscillator_algebra(OSCILLATOR, 10, seed=math.nan),
                           "seed must be an integer, got nan"),
    "dynamics-rel-tol": (lambda: integrate(STATE, COULOMB, 1.0, rel_tol=1e-3),
                         "rel_tol must lie in [1e-13, 1e-6], got 0.001"),
    "dynamics-n-samples": (lambda: integrate(STATE, COULOMB, 1.0, n_samples=1),
                           "n_samples must lie in 2..1000000, got 1"),
    "dynamics-n-samples-fraction": (lambda: integrate(STATE, COULOMB, 1.0, n_samples=2.5),
                                    "n_samples must be an integer, got 2.5"),
    "dynamics-n-samples-nan": (lambda: integrate(STATE, COULOMB, 1.0, n_samples=math.nan),
                               "n_samples must be an integer, got nan"),
    "dynamics-theta-target": (_theta_outside_the_orbit,
                              "theta_target … outside trajectory range [0, …]"),
}


@pytest.mark.parametrize("name", list(_LIBRARY_REFUSALS))
def test_library_input_checks_raise_domain_error(name):
    call, message = _LIBRARY_REFUSALS[name]
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == "ERR_DOMAIN"
    assert re.fullmatch(r"\S+".join(map(re.escape, message.split("…"))), str(exc.value)), exc.value


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


# name: (a call with one count, the count's name, its range lo..hi, the functions that would
# allocate, draw or solve).  Every count goes through ``closed_forms.check_count``
_COUNTS = {
    "integrate-n-samples": (lambda n: integrate(STATE, COULOMB, 1.0, n_samples=n), "n_samples",
                            2, MAX_SAMPLES, [(dynamics, "_dop853")]),
    "algebra-n-samples": (lambda n: verify_coulomb_algebra(COULOMB, n_samples=n), "n_samples",
                          1, MAX_SAMPLES, [(conserved, "_sample_floats"),
                                           (conserved, "_sample_batch")]),
    "algebra-seed": (lambda n: verify_oscillator_algebra(OSCILLATOR, 10, seed=n), "seed",
                     0, math.inf, [(conserved, "_sample_floats"), (conserved, "_sample_batch")]),
    "grid-n-levels": (lambda n: radial_solve_numeric(COULOMB, 1, n), "n_levels",
                      1, GRID_MAX_LEVELS, [(spectra, "default_grid")]),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_a_count_out_of_range_is_refused_in_one_template_before_any_work(monkeypatch, name):
    call, label, lo, hi, work = _COUNTS[name]
    call(lo)  # the least count is taken

    def begun(*args, **kwargs):
        raise AssertionError(f"work began for a {label} that is refused")

    for module, function in work:
        monkeypatch.setattr(module, function, begun)
    for n in (lo - 1, hi + 1) if hi < math.inf else (lo - 1,):
        with pytest.raises(DomainError) as exc:
            call(n)
        assert (exc.value.code, str(exc.value)) == (
            "ERR_DOMAIN", f"{label} must lie in {lo}..{hi}, got {n}")
