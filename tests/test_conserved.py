"""Observables, bracket engine, Higgs-algebra identities, turning-point conservation."""

import math
import re

import numpy as np
import pytest

from screened_sphere.closed_forms import orbit_alpha
from screened_sphere.conserved import (
    FRADKIN_1,
    FRADKIN_XY,
    HAMILTONIAN,
    LZ,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    Observable,
    finite_difference_gradient,
    fradkin_quantities,
    poisson_bracket,
    runge_lenz,
    turning_point_conservation,
    verify_coulomb_algebra,
    verify_oscillator_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    TurningKind,
    find_turning_points,
    integrate,
    lz_value,
)
from screened_sphere.errors import ImaginaryAlphaError, NoTurningPointError
from screened_sphere.phase_space import hamiltonian
from state_sampler import sample_states

X1 = Observable("x1", lambda x1, x2, p1, p2, pr: x1, lambda *z: (1.0, 0.0, 0.0, 0.0))
P1 = Observable("p1", lambda x1, x2, p1, p2, pr: p1, lambda *z: (0.0, 0.0, 1.0, 0.0))


def coords(state: PhaseState) -> tuple[float, float, float, float]:
    """The four floats that an observable's kernels take before params."""
    return state.x1, state.x2, state.p1, state.p2


def rotate(state: PhaseState, beta: float) -> PhaseState:
    c, s = math.cos(beta), math.sin(beta)
    return PhaseState(
        state.x1 * c - state.x2 * s,
        state.x1 * s + state.x2 * c,
        state.p1 * c - state.p2 * s,
        state.p1 * s + state.p2 * c,
    )


# --- observables -------------------------------------------------------------

def test_angular_momentum_values():
    assert lz_value(1.0, 0.0, 0.0, 1.0) == 1.0
    assert lz_value(2.0, 1.0, 0.6, 0.3) == 0.0  # p parallel to x


def test_angular_momentum_rotation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = PhaseState(*rng.uniform(-2.0, 2.0, size=4))
        beta = rng.uniform(0.0, 2.0 * math.pi)
        assert lz_value(*coords(rotate(st, beta))) == pytest.approx(
            lz_value(*coords(st)), abs=1e-12
        )


def test_runge_lenz_flat_circle_vanishes():
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.0)
    rx, ry = runge_lenz(PhaseState(1.0, 0.0, 0.0, 1.0), params)
    assert rx == pytest.approx(0.0, abs=1e-15)
    assert ry == pytest.approx(0.0, abs=1e-15)


def test_runge_lenz_magnitude_is_flat_eccentricity():
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.0)
    traj = integrate(PhaseState(0.4, 0.0, 0.0, 2.0), params, t_end=25.0,
                     rel_tol=1e-11, n_samples=2001)
    ecc = math.sqrt(1.0 + 2.0 * traj.H[0] * traj.Lz[0] ** 2)
    for row in traj.states[::20]:
        rx, ry = runge_lenz(PhaseState(*map(float, row)), params)
        assert math.hypot(rx, ry) == pytest.approx(ecc, abs=1e-9)


def test_fradkin_flat_circle():
    params = SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0)
    qxy, q1 = fradkin_quantities(PhaseState(1.0, 0.0, 0.0, 1.0), params)
    assert qxy == pytest.approx(0.0, abs=1e-15)
    assert q1 == pytest.approx(0.0, abs=1e-15)


def test_fradkin_flat_limit_reduces_to_plain_tensor():
    params = SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        st = PhaseState(*rng.uniform(-2.0, 2.0, size=4))
        if st.r < 0.1:
            continue
        qxy, q1 = fradkin_quantities(st, params)
        assert qxy == pytest.approx(st.x1 * st.x2 + st.p1 * st.p2, rel=1e-14, abs=1e-14)
        assert q1 == pytest.approx(
            0.5 * (st.x1**2 - st.x2**2 + st.p1**2 - st.p2**2), rel=1e-14, abs=1e-14
        )


# --- bracket engine -----------------------------------------------------------

def test_bracket_antisymmetry_and_canonical_pairs(coulomb_params):
    st = PhaseState(1.2, -0.5, 0.3, 0.8)
    assert poisson_bracket(LZ, LZ, st, coulomb_params) == 0.0
    assert poisson_bracket(X1, P1, st, coulomb_params) == 1.0
    a = poisson_bracket(RUNGE_LENZ_X, HAMILTONIAN, st, coulomb_params)
    b = poisson_bracket(HAMILTONIAN, RUNGE_LENZ_X, st, coulomb_params)
    assert a == pytest.approx(-b, rel=1e-12)


def test_analytic_gradients_match_finite_differences(coulomb_params, oscillator_params):
    checks = [
        (coulomb_params, (LZ, HAMILTONIAN, RUNGE_LENZ_X, RUNGE_LENZ_Y)),
        (oscillator_params, (LZ, HAMILTONIAN, FRADKIN_XY, FRADKIN_1)),
    ]
    for params, observables in checks:
        for st in sample_states(params, 500, seed=1):
            for obs in observables:
                ga = np.array(obs.gradient(*coords(st), params))
                gf = finite_difference_gradient(obs.value, st, params)
                assert np.max(np.abs(ga - gf) / np.maximum(1.0, np.abs(ga))) < 1e-6


def test_bracket_analytic_vs_finite_difference(coulomb_params):
    for st in sample_states(coulomb_params, 1000, seed=2):
        a = poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, st, coulomb_params, "analytic")
        f = poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, st, coulomb_params, "fd")
        assert abs(a - f) <= 1e-5 * max(1.0, abs(a))


def product_observable(f: Observable, g: Observable) -> Observable:
    """f*g, with the product-rule gradient."""
    return Observable(
        f"{f.name}*{g.name}",
        lambda *z: f.value(*z) * g.value(*z),
        lambda *z: np.array(f.gradient(*z)) * g.value(*z) + np.array(g.gradient(*z)) * f.value(*z),
    )


def test_leibniz_rule(coulomb_params):
    triples = [
        (LZ, RUNGE_LENZ_X, HAMILTONIAN),
        (RUNGE_LENZ_Y, LZ, RUNGE_LENZ_X),
        (HAMILTONIAN, RUNGE_LENZ_Y, LZ),
    ]
    for st in sample_states(coulomb_params, 100, seed=9):
        for f, g, h in triples:
            lhs = poisson_bracket(product_observable(f, g), h, st, coulomb_params)
            z = coords(st)
            rhs = f.value(*z, coulomb_params) * poisson_bracket(g, h, st, coulomb_params) + \
                g.value(*z, coulomb_params) * poisson_bracket(f, h, st, coulomb_params)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_jacobi_identity(coulomb_params):
    def bracket_as_observable(f, g):
        def value(x1, x2, p1, p2, pr):
            return poisson_bracket(f, g, PhaseState(x1, x2, p1, p2), pr)

        return Observable(
            f"{{{f.name},{g.name}}}",
            value,
            lambda x1, x2, p1, p2, pr: finite_difference_gradient(
                value, PhaseState(x1, x2, p1, p2), pr
            ),
        )

    rx_ry = bracket_as_observable(RUNGE_LENZ_X, RUNGE_LENZ_Y)
    ry_lz = bracket_as_observable(RUNGE_LENZ_Y, LZ)
    lz_rx = bracket_as_observable(LZ, RUNGE_LENZ_X)
    for st in sample_states(coulomb_params, 100, seed=11):
        total = (
            poisson_bracket(LZ, rx_ry, st, coulomb_params)
            + poisson_bracket(RUNGE_LENZ_X, ry_lz, st, coulomb_params)
            + poisson_bracket(RUNGE_LENZ_Y, lz_rx, st, coulomb_params)
        )
        assert abs(total) < 1e-6


# --- algebra identities --------------------------------------------------------

@pytest.mark.parametrize("lam,k", [(0.0, 0.0), (0.1, 0.05)])
def test_coulomb_algebra(lam, k):
    params = SystemParams(SystemKind.COULOMB, lam, k)
    linear_x, linear_y, quadratic = verify_coulomb_algebra(params, 1000, seed=0)
    assert linear_x.max_abs_residual < 1e-9
    assert linear_y.max_abs_residual < 1e-9
    assert quadratic.max_abs_residual < (1e-9 if k == 0.0 and lam == 0.0 else 1e-7)


@pytest.mark.parametrize("lam,k", [(0.0, 0.0), (0.1, 0.05)])
def test_oscillator_algebra(lam, k):
    params = SystemParams(SystemKind.OSCILLATOR, lam, k)
    linear_xy, linear_1, quadratic = verify_oscillator_algebra(params, 1000, seed=0)
    assert linear_xy.max_abs_residual < 1e-9
    assert linear_1.max_abs_residual < 1e-9
    assert quadratic.max_abs_residual < (1e-9 if k == 0.0 and lam == 0.0 else 1e-7)


def test_quadratic_constant_pinned_by_fd_oracle(coulomb_params, oscillator_params):
    """High-precision FD brackets fix the classical constants of the
    quadratic identities: the quantum +lam/4 ordering term must NOT appear."""
    lam = coulomb_params.lam
    for st in sample_states(coulomb_params, 10, seed=13):
        lz = lz_value(*coords(st))
        bracket = poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, st, coulomb_params, "fd")
        classical = (-2.0 * hamiltonian(st, coulomb_params) + 2.0 * lam * lz**2
                     - 2.0 * coulomb_params.k * lam) * lz
        with_quantum_term = classical + 0.25 * lam * lz
        assert abs(bracket - classical) < 1e-6
        assert abs(bracket - with_quantum_term) > 1e-3

    for st in sample_states(oscillator_params, 10, seed=13):
        lz = lz_value(*coords(st))
        bracket = poisson_bracket(FRADKIN_XY, FRADKIN_1, st, oscillator_params, "fd")
        classical = -(2.0 + lam * (2.0 * hamiltonian(st, oscillator_params)
                                   - lam * lz**2)) * lz
        assert abs(bracket - classical) < 1e-6


def test_bracket_report_serialization(coulomb_params):
    rep = verify_coulomb_algebra(coulomb_params, 50, seed=1)[0]
    d = rep._asdict()
    assert set(d) == {"identity", "n_samples", "max_abs_residual", "mean_abs_residual"}
    assert d["n_samples"] == 50
    assert d["max_abs_residual"] >= d["mean_abs_residual"] >= 0.0


def test_bracket_sampling_is_seeded(coulomb_params):
    a = verify_coulomb_algebra(coulomb_params, 100, seed=42)
    b = verify_coulomb_algebra(coulomb_params, 100, seed=42)
    assert a == b


def test_a_refused_sampling_draws_no_more_than_its_cap():
    # a block of up to 2**16 candidates used to run past the cap, 1000 per state plus 2**20:
    # this refusal drew 1081231
    with pytest.raises(ImaginaryAlphaError) as refusal:
        verify_coulomb_algebra(SystemParams(SystemKind.COULOMB, 0.0, 35.99), 5)
    drawn, cap = map(int, re.search(r"in (\d+) candidate draws, too few to reach 5 in (\d+)$",
                                    str(refusal.value)).groups())
    assert drawn <= cap == 1000 * 5 + 2**20


# --- turning-point conservation ---------------------------------------------

def test_turning_conservation_screened(coulomb_orbit):
    rep = turning_point_conservation(coulomb_orbit)
    assert rep.max_abs_bracket_at_turning < 1e-7
    assert rep.generic_max_abs_bracket > 1e-3


def test_turning_conservation_oscillator(oscillator_orbit):
    rep = turning_point_conservation(oscillator_orbit)
    assert rep.max_abs_bracket_at_turning < 1e-7
    assert rep.generic_max_abs_bracket > 1e-3


@pytest.mark.parametrize(
    "kind,state",
    [
        (SystemKind.COULOMB, PhaseState(1.6, 0.0, 0.0, 0.55)),
        (SystemKind.OSCILLATOR, PhaseState(1.5, 0.0, 0.0, 0.6)),
    ],
)
def test_unscreened_quantities_conserved_everywhere(kind, state):
    params = SystemParams(kind, 0.1, 0.0)
    traj = integrate(state, params, t_end=40.0, rel_tol=1e-10, n_samples=3001)
    rep = turning_point_conservation(traj)
    assert rep.generic_max_abs_bracket < 1e-9


def test_turning_magnitude_matches_orbit_discriminant(
    coulomb_orbit, coulomb_params, oscillator_orbit, oscillator_params
):
    """|R'| (and the oscillator analog) at every turning point equals the
    closed-form orbit discriminant; components rotate with the apsidal
    precession but the magnitude is the piecewise-conserved invariant."""
    rep = turning_point_conservation(coulomb_orbit)
    e, lz = float(coulomb_orbit.H[0]), float(coulomb_orbit.Lz[0])
    alpha = orbit_alpha(coulomb_params, lz)
    et = e - 0.5 * coulomb_params.lam * lz**2
    ecc = math.sqrt(1.0 + 2.0 * et * lz**2 * alpha**2)
    mags = np.hypot(rep.values_at_turning[:, 0], rep.values_at_turning[:, 1])
    assert np.max(np.abs(mags - ecc)) < 1e-7

    rep = turning_point_conservation(oscillator_orbit)
    e, lz = float(oscillator_orbit.H[0]), float(oscillator_orbit.Lz[0])
    alpha = orbit_alpha(oscillator_params, lz)
    et = e - 0.5 * oscillator_params.lam * lz**2
    disc = math.sqrt(et**2 - lz**2 * alpha**2)
    mags = np.hypot(rep.values_at_turning[:, 0], rep.values_at_turning[:, 1])
    assert np.max(np.abs(mags - disc)) < 1e-7


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
@pytest.mark.parametrize(
    "kind,state,t_end",
    [
        (SystemKind.COULOMB, PhaseState(1.6, 0.0, 0.0, 0.55), 30.0),
        (SystemKind.OSCILLATOR, PhaseState(1.5, 0.0, 0.0, 0.6), 20.0),
    ],
)
def test_apsidal_radii_follow_from_the_algebra(kind, state, t_end, lam):
    """At every turning point the extended pair's length fixes the radius:
    1/r = (1 +- |R'|)/(Lz**2 - 2k) (coulomb) and 1/r**2 = (Et +- |Q'|)/(Lz**2 - 2k)
    (oscillator), with Et = H - lam*Lz**2/2 and + at perihelion."""
    for k in (0.0, 0.05, 0.1):
        params = SystemParams(kind, lam, k)
        traj = integrate(state, params, t_end=t_end, rel_tol=1e-10, n_samples=2001)
        rep = turning_point_conservation(traj)
        lz, h = float(traj.Lz[0]), float(traj.H[0])
        base = 1.0 if kind is SystemKind.COULOMB else h - 0.5 * lam * lz**2
        length = np.hypot(rep.values_at_turning[:, 0], rep.values_at_turning[:, 1])
        sign = np.where(np.array(rep.turning_kinds) == TurningKind.PERIHELION.value, 1.0, -1.0)
        want = (base + sign * length) / (lz**2 - 2.0 * k)
        r = np.array([p.r for p in find_turning_points(traj)])
        got = 1.0 / r if kind is SystemKind.COULOMB else 1.0 / r**2
        assert rep.n_turning_points >= 4
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9  # 10x the solver tolerance


def test_rational_alpha_components_recur():
    # alpha = 1/2: the apsidal axis rotates by 4*pi per radial period,
    # so the R' components repeat at every perihelion
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.375)
    traj = integrate(PhaseState(2.0, 0.0, 0.0, 0.5), params, t_end=80.0,
                     rel_tol=1e-11, n_samples=12001)
    rep = turning_point_conservation(traj)
    kinds = np.array(rep.turning_kinds)
    per = rep.values_at_turning[kinds == TurningKind.PERIHELION.value]
    assert len(per) >= 3
    assert np.max(np.abs(per - per[0])) < 1e-7


def test_turning_conservation_requires_turning_points():
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.0)
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), params, t_end=10.0, rel_tol=1e-10)
    with pytest.raises(NoTurningPointError):
        turning_point_conservation(traj)
