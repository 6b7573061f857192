"""Orbit integration, closed forms, turning points, closure."""

import math
import re
import tracemalloc
from array import array
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq

from screened_sphere import dynamics
from screened_sphere.closed_forms import orbit_alpha
from screened_sphere.conserved import HAMILTONIAN, finite_difference_gradient
from screened_sphere.dynamics import (
    MAX_SAMPLES,
    R_MIN_GUARD,
    PhaseState,
    SystemKind,
    SystemParams,
    TurningKind,
    closure_analysis,
    equations_of_motion,
    find_turning_points,
    integrate,
)
from screened_sphere.errors import (
    ChartEdgeError,
    CurvatureError,
    DomainError,
    ImaginaryAlphaError,
    RadiusError,
    SingularOrbitError,
    StepBudgetError,
    StiffnessError,
)
from screened_sphere.phase_space import hamiltonian, pi_components, potential
from orbit_reference import (
    OrbitDomainError,
    OrbitShape,
    closed_form_radius,
    bound_orbit_start,
    coulomb_apsis_times,
    orbit_points,
    orbit_residual,
    oscillator_apsis_times,
    state_at_theta,
)
from golden_digests import ROOT, run_process
from state_sampler import sample_states

FLAT_KEPLER = SystemParams(SystemKind.COULOMB, 0.0, 0.0)
TWO_PI = 2.0 * math.pi


# perihelion launch on the +x axis of the flat Kepler ellipse with E = -1/2 and Lz = 0.8
FLAT_ELLIPSE = bound_orbit_start(SystemKind.COULOMB, 0.0, 0.0, 0.8 * 0.8,
                                 math.sqrt(1.0 - 0.8 * 0.8), 0.0, 0.0)


# --- potentials, pi, Hamiltonian -----------------------------------------

def test_potential_values():
    assert potential(1.0, FLAT_KEPLER) == -1.0
    assert potential(2.0, SystemParams(SystemKind.COULOMB, 0.0, 0.375)) == pytest.approx(-0.59375)
    assert potential(1.0, SystemParams(SystemKind.OSCILLATOR, 0.0, 0.1)) == pytest.approx(0.4)
    with pytest.raises(RadiusError):
        potential(0.0, FLAT_KEPLER)
    with pytest.raises(RadiusError):
        potential(-1.0, FLAT_KEPLER)


@pytest.mark.parametrize("r", [1e-170, np.array([1e-170]), np.array([1.0, 1e-170])],
                         ids=["float", "array", "array-mixed"])
def test_potential_refuses_a_radius_whose_square_underflows(r):
    # r > 0 but r*r rounds to 0, where k/r**2 would divide by zero
    with pytest.raises(RadiusError):
        potential(r, SystemParams(SystemKind.COULOMB, 0.0, 0.05))


def test_pi_vector():
    assert pi_components(0.0, 0.0, 0.7, -0.2, 1.5) == (0.7, -0.2)
    assert pi_components(1.3, -0.4, 0.7, -0.2, 0.0) == (0.7, -0.2)
    assert pi_components(1.0, 0.0, 2.0, 3.0, 1.0) == (4.0, 3.0)


def test_hamiltonian_values():
    assert hamiltonian(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER) == pytest.approx(-0.5)
    osc = SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0)
    assert hamiltonian(PhaseState(1.0, 0.0, 0.0, 1.0), osc) == pytest.approx(1.0)
    screened = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
    assert hamiltonian(PhaseState(1.0, 0.0, 0.0, 1.0), screened) == pytest.approx(-0.5)


# --- equations of motion ---------------------------------------------------

def test_eom_flat_circle():
    d = equations_of_motion(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER)
    assert d == pytest.approx((0.0, 1.0, -1.0, 0.0), abs=1e-15)


@pytest.mark.parametrize("kind", [SystemKind.COULOMB, SystemKind.OSCILLATOR])
def test_eom_matches_finite_difference_gradient(kind):
    params = SystemParams(kind, 0.1, 0.05)
    for st in sample_states(params, 300, seed=5):
        d = equations_of_motion(st, params)
        g = finite_difference_gradient(HAMILTONIAN.value, st, params)
        expected = (g[2], g[3], -g[0], -g[1])
        for a, b in zip(d, expected):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


def test_eom_conserves_angular_momentum_pointwise():
    params = SystemParams(SystemKind.COULOMB, 0.1, 0.02)
    for st in sample_states(params, 200, seed=6):
        dx1, dx2, dp1, dp2 = equations_of_motion(st, params)
        dlz = dx1 * st.p2 + st.x1 * dp2 - dx2 * st.p1 - st.x2 * dp1
        assert abs(dlz) < 1e-12


# --- integration -----------------------------------------------------------

def test_flat_circle_period():
    st0 = PhaseState(1.0, 0.0, 0.0, 1.0)
    traj = integrate(st0, FLAT_KEPLER, t_end=2.0 * math.pi, rel_tol=1e-10)
    assert np.allclose(traj.states[-1], np.array(st0), atol=1e-8)


def test_conservation_drift_bound(coulomb_params):
    st0 = PhaseState(1.6, 0.0, 0.0, 0.55)
    traj = integrate(st0, coulomb_params, t_end=100.0, rel_tol=1e-10)
    assert np.max(np.abs(traj.H - traj.H[0])) < 10.0 * 1e-10 * max(1.0, abs(traj.H[0]))
    assert np.max(np.abs(traj.Lz - traj.Lz[0])) < 10.0 * 1e-10


def test_lz_drift_bound_is_relative_to_large_lz():
    # |Lz0| = 600: the absolute Lz drift (~2e-9) passes 10*tol only relative to |Lz0|
    params = SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0)
    traj = integrate(PhaseState(30.0, 0.0, 0.0, 20.0), params, t_end=10.0, rel_tol=1e-10)
    assert traj.Lz[0] == 600.0
    assert np.max(np.abs(traj.Lz - traj.Lz[0])) <= 10.0 * 1e-10 * abs(traj.Lz[0])


@pytest.mark.parametrize("lam,k,error", [
    (bad, 0.0, CurvatureError) for bad in (-0.1, math.nan, math.inf, -math.inf)
] + [(0.1, bad, DomainError) for bad in (-0.1, math.nan, math.inf, -math.inf)])
def test_system_params_reject_bad_lam_k(lam, k, error):
    with pytest.raises(error) as exc:
        SystemParams(SystemKind.COULOMB, lam, k)
    assert exc.value.code == error.code


def test_integrate_caps_samples():
    with pytest.raises(DomainError) as exc:
        integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, 1.0, n_samples=MAX_SAMPLES + 1)
    assert exc.value.code == "ERR_DOMAIN"


def test_integrate_holds_the_steps_one_stage_buffer_and_the_samples(monkeypatch, coulomb_params):
    # tracemalloc traces every Python float of the driver's loop (over 10x slower), so tracing
    # starts as the driver returns, and the arrays it returns are counted by their length
    driver, returned = dynamics._dop853, []

    def trace_from_here(*args):
        steps = driver(*args)
        returned.append(sum(8 * len(a) for a in steps))
        tracemalloc.start()
        return steps

    monkeypatch.setattr(dynamics, "_dop853", trace_from_here)
    try:
        traj = integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, 2240.0, n_samples=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(traj.dense.bounds) - 1
    assert n > 29000
    assert returned == [8 * 5 * (n + 1)]  # step times and states only
    # per step: t and y, the interpolant's 7 rows of 4, its step size and unwrapped theta (35
    # floats, 280 B), and a margin of 8 floats (64 B) for the temporaries of theta's unwrap and
    # the turning-point scan; one block of 16 stages of 4; about 50 floats per sample.  This
    # orbit takes 292 B a step beyond the block and the samples, 87% of the bound; one that
    # also kept its 52 stage derivatives a step (416 B) would exceed it
    bound = 8 * (5 + 7 * 4 + 2 + 8) * n + 8 * 16 * 4 * dynamics._BLOCK + 8 * 50 * 2001
    assert returned[0] + peak < bound


def test_dense_output_builds_its_stages_a_block_of_steps_at_a_time(coulomb_params):
    # the orbit of the test above: its interpolant holds 7 rows of 4 floats a step (224 B); all
    # steps' (n, 4, 16) stages and their (n, 4, 4) product with D at once took 874 B a step
    ts, ys = dynamics._dop853((1.6, 0.0, 0.0, 0.55), coulomb_params, 2240.0, 1e-12)
    t, y = np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4).T
    n = t.size - 1
    tracemalloc.start()
    try:
        dynamics.DenseOutput(t, y, coulomb_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 29000
    assert peak <= 400 * n


@pytest.mark.parametrize("t_end", [70.0, -70.0])
def test_dense_output_rows_keep_the_bits_of_their_stacked_form(coulomb_params, t_end):
    # the interpolant's rows are built a block of steps at a time; here they are stacked
    # from whole rows over all steps, with the same written-out sums
    ts, ys = dynamics._dop853((1.6, 0.0, 0.0, 0.55), coulomb_params, t_end, 1e-12)
    t, y = np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4).T
    h = np.diff(t)

    def row_sum(row, k):  # left to right over the nonzero entries, from the first
        return reduce(add, (a * k[j] for j, a in enumerate(row) if a))

    k = dynamics._stages(y[:, :-1], h, coulomb_params)
    for s in (13, 14, 15):
        k[s] = dynamics.hamilton_field(*(y[:, :-1] + row_sum(dynamics._A[s], k) * h),
                                       coulomb_params)
    dy = y[:, 1:] - y[:, :-1]
    f_old, f_new = k[0], k[12]
    stacked = np.stack([dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old),
                        *(row_sum(row, k) * h for row in dynamics._D)])
    order = slice(None, None, 1 if t_end > 0.0 else -1)
    F = dynamics.DenseOutput(t, y, coulomb_params).F
    assert F.shape == (7, 4, h.size) and h.size > 500
    assert F.tobytes() == stacked[:, :, order].tobytes()


def test_orbit_bytes_do_not_depend_on_the_block_sizes(monkeypatch, coulomb_params):
    # the blocks of stages, samples and CSV rows only split the work, yet a matrix product
    # there would be free to take another BLAS kernel at another shape; at each size here this
    # orbit spans more than two blocks (9328 steps, 9000 samples)
    y0, t_end = (1.6, 0.0, 0.0, 0.55), 700.0
    ts, ys = dynamics._dop853(y0, coulomb_params, t_end, 1e-12)  # the steps depend on no block
    monkeypatch.setattr(dynamics, "_dop853", lambda *args: (array("d", ts), array("d", ys)))

    def outputs():
        traj = integrate(PhaseState(*y0), coulomb_params, t_end, n_samples=9000)
        return (traj.dense.F.tobytes(), traj.states.tobytes(), traj.to_csv(),
                [p.t.hex() for p in traj.turning_points])

    want = outputs()
    assert len(ts) - 1 > 2 * 4096
    for size in [333, 1000, 4096]:
        monkeypatch.setattr(dynamics, "_BLOCK", size)
        assert outputs() == want, size


def _interpolant_one_at_a_time(dense, t):
    """The interpolant at each time of ``t`` alone, row by row over F as every time was
    evaluated before the blocks: the reference for the block evaluation."""
    cols = []
    for ti in t.tolist():
        i = min(max(int(np.searchsorted(dense.bounds, ti, dense.side)) - 1, 0), dense.h.size - 1)
        x = (ti - dense.t_old[i]) / dense.h[i]
        y = dense.F[6][:, i] * x  # from F[6], its first term, as every sum in dynamics
        for row in range(5, -1, -1):
            y = (y + dense.F[row][:, i]) * (x if row % 2 == 0 else 1.0 - x)
        cols.append(y + dense.y_old[:, i])
    return np.array(cols).T


@pytest.mark.parametrize("t_end", [70.0, -70.0])
def test_dense_output_blocks_equal_each_time_alone(coulomb_params, t_end):
    # times are evaluated a block at a time on the block's gathered coefficients; here more
    # than two blocks, with step ends among them
    dense = integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, t_end, n_samples=3).dense
    t = np.sort(np.concatenate([dense.bounds[::7], np.linspace(
        dense.bounds[0], dense.bounds[-1], 2 * dynamics._BLOCK + 17)]))
    y = dense(t)
    assert y.shape == (4, t.size) and t.size > 2 * dynamics._BLOCK
    assert y.tobytes() == _interpolant_one_at_a_time(dense, t).tobytes()
    assert y.tobytes() == np.stack([dense(v) for v in t.tolist()], axis=1).tobytes()
    assert y[:, ::-1].tobytes() == dense(t[::-1]).tobytes()


def _assert_apsides_are_the_bisection_of_rdot(kind, state, lam, k, t_end):
    """The turning points equal, bit for bit, the bisection of rdot(dense(t)) on the brackets
    that ``integrate`` bisects (there on x.p, each bracket on its own step's coefficients)."""
    brackets, bisect = [], dynamics._bracketed_root

    def spy(g, a, b):
        brackets.append((a, b))
        return bisect(g, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_bracketed_root", spy)
        traj = integrate(PhaseState(*state), SystemParams(kind, lam, k), t_end, n_samples=3)
    [(a, b)] = brackets
    t = bisect(lambda t: dynamics._rdot(traj.dense(t), lam), a, b)
    y = traj.dense(t)
    points = traj.turning_points
    assert len(points) == t.size
    assert [p.t.hex() for p in points] == [v.hex() for v in t.tolist()]
    assert [[v.hex() for v in p.state] for p in points] == [[v.hex() for v in c] for c in y.T.tolist()]
    assert [p.r.hex() for p in points] == [PhaseState(*c).r.hex() for c in y.T.tolist()]
    return points


@pytest.mark.parametrize("kind, state", [(SystemKind.COULOMB, (1.6, 0.0, 0.0, 0.55)),
                                         (SystemKind.OSCILLATOR, (1.5, 0.0, 0.0, 0.6))])
@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("t_end", [30.0, -30.0])
def test_apsis_refinement_is_the_bisection_of_the_dense_output(kind, state, lam, t_end):
    assert len(_assert_apsides_are_the_bisection_of_rdot(kind, state, lam, 0.05, t_end)) >= 4


EDGE_T = 1e-6  # an apsis this close to an end of the span may be found or not


@settings(max_examples=50)
@given(kind=strategies.sampled_from([SystemKind.COULOMB, SystemKind.OSCILLATOR]),
       lam=strategies.floats(0.0, 1.0), k=strategies.floats(0.0, 0.1),
       ecc=strategies.floats(0.05, 0.95), psi=strategies.floats(0.0, TWO_PI),
       phi=strategies.floats(0.0, TWO_PI), backward=strategies.booleans())
def test_apsis_refinement_is_the_bisection_of_the_dense_output_on_bound_orbits(
        kind, lam, k, ecc, psi, phi, backward):
    # the shape puts the flat-equivalent orbit between r = 1 - ecc and 1 + ecc (coulomb; its
    # radial period is 2*pi) or between r**2 = 1 - ecc and 1 + ecc (oscillator, period pi),
    # and curvature only shortens the radial period, so 8 time units hold at least two apsides
    shape = 1.0 - ecc * ecc if kind == SystemKind.COULOMB else math.sqrt(1.0 - ecc * ecc)
    state = bound_orbit_start(kind, lam, k, shape, ecc, psi, phi)
    t_end = -8.0 if backward else 8.0
    points = _assert_apsides_are_the_bisection_of_rdot(kind, state, lam, k, t_end)
    assert len(points) >= 2
    exact = orbit_points(state, SystemParams(kind, lam, k), t_end)
    found, want = ([p for p in ps if min(abs(p.t), abs(p.t - t_end)) >= EDGE_T]
                   for ps in (points, exact))
    assert [p.kind.value for p in found] == [e.kind for e in want]
    # at integrate's default rel_tol, 1e-10: these examples measured within 0.57 x rel_tol in
    # t and 0.08 x in r; other draws reached 3.2 x in t near a circle (ecc = 0.05, lam = 1),
    # where an apsis time is worst conditioned
    assert max((abs(p.t - e.t) for p, e in zip(found, want)), default=0.0) <= 10.0 * 1e-10
    assert max((abs(p.r - e.r) for p, e in zip(found, want)), default=0.0) <= 1.0 * 1e-10


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_a_midpoint_on_a_step_end_is_evaluated_through_the_dense_output(coulomb_params,
                                                                         direction):
    # two steps whose x2 goes 0.3, -0.1, -0.2: the first step's polynomial ends at
    # 0.3 + (-0.1 - 0.3) != -0.1, where the second starts, so at the time they share the
    # step that dense() picks matters in the last bit; that time has an even last bit, which
    # the midpoint of a one-float bracket rounds to
    t = direction * np.array([0.0, 0.0625, 0.125])
    y = np.array([[1.0, 1.0, 1.0], [0.3, -0.1, -0.2], [0.0, 0.0, 0.0], [0.55, 0.55, 0.55]])
    dense = dynamics.DenseOutput(t, y, coulomb_params)
    shared = dense.bounds[1]
    # bisection halves every bracket until the widest has converged, so a bracket one float
    # wide keeps being halved and its midpoint falls on its ends: here one on each side of the
    # shared time, beside a whole step
    j = np.array([0, 1, 0])
    a = np.array([np.nextafter(shared, -np.inf), shared, dense.bounds[0]])
    b = np.array([shared, np.nextafter(shared, np.inf), shared])
    on_end = []

    def g(t):
        # inside its bracket's step a time is on that step's polynomial, and at either end
        # on the step the boundary rule picks, as in the one-at-a-time reference
        y = dense(t)
        own = dynamics._interpolate(dense.F[:, :, j], dense.y_old[:, j], dense.t_old[j],
                                    dense.h[j], t, np.empty((4, t.size)))
        inside = (t != dense.bounds[j]) & (t != dense.bounds[j + 1])
        assert y[:, inside].tobytes() == own[:, inside].tobytes()
        assert y.tobytes() == _interpolant_one_at_a_time(dense, t).tobytes()
        on_end.append(np.count_nonzero(t == shared))
        return dynamics._rdot(y, coulomb_params.lam)

    dynamics._bracketed_root(g, a, b)
    assert sum(on_end[2:]) > 0  # g(a) and g(b) come first, then the midpoints
    own = dynamics._interpolate(dense.F[:, :, :2], dense.y_old[:, :2], dense.t_old[:2],
                                dense.h[:2], np.array([shared, shared]), np.empty((4, 2)))
    assert not np.array_equal(own[:, 0], own[:, 1])  # the two steps disagree there


def test_integrate_caps_steps(monkeypatch, coulomb_params):
    # the fixture orbit takes ~2e4 steps to t_end = 2000; a cap of 1000 stops it on the way
    monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
    with pytest.raises(StepBudgetError) as exc:
        integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, 2000.0, rel_tol=1e-10)
    assert exc.value.code == "ERR_STEP_BUDGET"
    match = re.fullmatch(r"more than 1000 solver steps; stopped at t = (\S+)", str(exc.value))
    assert 0.0 < float(match[1]) < 2000.0


def test_orbit_past_the_equator_stops_at_the_chart_edge(monkeypatch):
    # r -> infinity near t = 0.84 is the sphere's equator; the orbit used to run the whole
    # step budget there, and a cap of 1000 steps shows that it now ends well before it
    monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
    params = SystemParams(SystemKind.COULOMB, 1.0, 0.0)
    with pytest.raises(ChartEdgeError) as exc:
        integrate(PhaseState(1.0, 1.0, 0.0, 0.55), params, 3.0)
    assert exc.value.code == "ERR_CHART_EDGE"
    match = re.fullmatch(r"orbit reached the edge of the chart, lam\*r\*\*2 > 1e\+12, "
                         r"at t = (\S+)", str(exc.value))
    assert float(match[1]) == pytest.approx(0.842, abs=1e-3)
    # a start near r = 0 is a real near-collision and still runs into the step cap
    with pytest.raises(StepBudgetError):
        integrate(PhaseState(1e-3, 0.0, 0.0, 0.55), params, 3.0)


def test_integrate_runs_backward():
    st0 = PhaseState(1.0, 0.0, 0.0, 1.0)
    backward = integrate(st0, FLAT_KEPLER, t_end=-math.pi / 2.0, n_samples=5)
    assert backward.t[-1] == -math.pi / 2.0
    assert np.allclose(backward.states[-1], [0.0, -1.0, 1.0, 0.0], atol=1e-8)


def test_screened_radial_infall_underflows_the_step():
    # -k/r**2 makes the fall reach r = 0 in finite time with unbounded
    # speed: the step size underflows before r reaches the guard
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.05)
    with pytest.raises(SingularOrbitError) as exc:
        integrate(PhaseState(1.0, 0.0, -0.5, 0.0), params, t_end=50.0, rel_tol=1e-10)
    match = re.fullmatch(r"orbit collapsed to r = (\S+) at t = (\S+)", str(exc.value))
    assert match, str(exc.value)
    assert R_MIN_GUARD < float(match[1]) <= 1e-5
    assert float(match[2]) == pytest.approx(0.719575, abs=1e-6)


@pytest.mark.parametrize("state,lam,k", [
    ((1.0, 0.0, 1.0, 1e200), 0.0, 0.0),  # p**2 overflows and the step size turns NaN
    ((1.0, 0.0, 1e308, 1.0), 0.0, 0.0),  # an infinite derivative leaves a zero first step
    ((1.0, 0.0, 0.0, 1.0), 1e308, 0.0),  # likewise
    ((1.0, 0.0, 0.0, 1.0), 0.0, 1e200),  # the error norm overflows at every step size
])
def test_huge_starts_end_as_a_step_underflow(state, lam, k):
    with pytest.raises(StiffnessError) as exc:
        integrate(PhaseState(*state), SystemParams(SystemKind.COULOMB, lam, k), 1.0)
    assert exc.value.code == "ERR_STIFF"
    assert str(exc.value) == (
        "integrator failed: Required step size is less than spacing between numbers.")


def test_radial_infall_hits_guard():
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.0)
    with pytest.raises(SingularOrbitError) as exc:
        integrate(PhaseState(1.0, 0.0, -0.5, 0.0), params, t_end=50.0, rel_tol=1e-10)
    match = re.fullmatch(r"orbit collapsed to r <= 1e-08 at t = (\S+)", str(exc.value))
    assert match, str(exc.value)
    assert float(match[1]) == pytest.approx(0.759134, abs=1e-6)


def test_trajectory_csv_header_and_precision(monkeypatch):
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, 1.0, n_samples=5)
    traj.states[0, 1] = -0.0
    csv = traj.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "t,x1,x2,p1,p2,r,theta,H,Lz"
    assert len(lines) == 6
    # 17 significant digits round-trip exactly
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] == 1.0 and row[4] == 1.0
    assert lines[1].split(",")[2] == "-0"
    # same bytes as formatting each field on its own
    rows = [lines[0]]
    for i in range(len(traj.t)):
        fields = (traj.t[i], *traj.states[i], traj.r[i], traj.theta[i], traj.H[i], traj.Lz[i])
        rows.append(",".join(f"{v:.17g}" for v in fields))
    assert csv == "\n".join(rows) + "\n"
    # rows are formatted a block at a time; 2-row blocks split the 5 rows 2 + 2 + 1
    monkeypatch.setattr(dynamics, "_BLOCK", 2)
    assert traj.to_csv() == csv


def _csv_matches_percent(values):
    """``to_csv`` of a trajectory whose rows are ``values`` (padded to 9 columns by
    repeating them) equals formatting each field with ``{:.17g}``."""
    v = np.resize(np.asarray(values, dtype=float), (-(-len(values) // 9), 9))
    traj = dynamics.Trajectory(t=v[:, 0], states=v[:, 1:5].copy(), r=v[:, 5], theta=v[:, 6],
                               H=v[:, 7], Lz=v[:, 8], params=None, dense=None, turning_points=[],
                               circular=False)
    want = ["t,x1,x2,p1,p2,r,theta,H,Lz"] + [",".join(f"{x:.17g}" for x in row) for row in v.tolist()]
    csv = traj.to_csv()
    same = csv == "\n".join(want) + "\n"
    assert same, next(((g, w) for g, w in zip(csv.split("\n"), want) if g != w),
                      "the row count or the last newline differs")


def _fast_path_only(monkeypatch):
    """Make the % fallback raise, so that every field must take the fast path."""
    monkeypatch.setattr(dynamics, "_CSV_FIELD", b"")


def test_trajectory_csv_fast_path_random_magnitudes(monkeypatch):
    # random signs, log-uniform in [1e-6, 3e17], kept where the fast path applies
    rng = np.random.default_rng(19)
    v = 10.0 ** rng.uniform(-6.0, math.log10(3e17), 4 * 10**5) * rng.choice([-1.0, 1.0], 4 * 10**5)
    _fast_path_only(monkeypatch)
    _csv_matches_percent(v[(np.abs(v) >= 1e-4) & (np.abs(v) < 1e16)])


def test_trajectory_csv_fast_path_near_powers_of_ten(monkeypatch):
    # the 817 doubles from 39 ulps below to 3 above each power of ten 1e-3 ... 1e15,
    # where the decimal exponent and the digit count turn over
    values = []
    for e in range(-3, 16):
        x = 10.0**e
        for _ in range(39):
            x = math.nextafter(x, 0.0)
        for _ in range(43):
            values.append(x)
            x = math.nextafter(x, math.inf)
    assert len(set(values)) == 817
    _fast_path_only(monkeypatch)
    _csv_matches_percent(values)


def test_trajectory_csv_fast_path_ties_integers_and_trailing_zeros(monkeypatch):
    rng = np.random.default_rng(20)
    ties = [1234567890123456.75, 1234567890123456.25, 0.5, 1.5, 2.5, 0.125, 1e-4, 0.0001234,
            9999999999999998.0, 1e15, 123456.0, 100.0, 10.0, 1.0, 7.0, 1234.5, 0.1, 0.3,
            1.23406789, 0.0012340678, 120000.5, 1000000.0001]
    integers = rng.integers(1, 1000, 9000) * 10.0 ** rng.integers(0, 13, 9000)
    places = 10.0 ** rng.integers(0, 8, 9000)
    decimals = np.round(rng.uniform(-1000.0, 1000.0, 9000) * places) / places
    values = np.concatenate([ties, -np.array(ties), integers, decimals,
                             np.linspace(0.1, 70.0, 9000), np.arange(1, 9001) / 1000.0])
    _fast_path_only(monkeypatch)
    _csv_matches_percent(values[np.abs(values) >= 1e-4])


def test_trajectory_csv_slow_rows_on_block_boundaries(monkeypatch):
    # fields the fast path does not take: zero, -0, non-finite, too small, too large
    slow = [0.0, -0.0, math.nan, math.inf, -math.inf, 9.99e-5, -1e-300, 1e16, 3e17, 1e300]
    rows = np.resize([1.5, -0.25, 3e-3, 42.0, 7e14, -1e-4, 0.999, 12.5, -8.0], (20, 9))
    for i, value in zip((0, 3, 4, 7, 8, 12, 13, 14, 15, 19), slow):
        rows[i, i % 9] = value  # slow fields in rows at the ends of 4-row blocks, and a slow block
    monkeypatch.setattr(dynamics, "_BLOCK", 4)
    _csv_matches_percent(rows.ravel())
    monkeypatch.setattr(dynamics, "_BLOCK", 8)
    _csv_matches_percent(rows.ravel())
    _csv_matches_percent(slow * 9)  # no field takes the fast path


# --- closed forms -----------------------------------------------------------

def test_closed_form_flat_circle():
    shape = OrbitShape(E=-0.5, lz=1.0, alpha=1.0, theta0=0.0)
    th = np.linspace(0.0, 4.0 * math.pi, 50)
    assert np.allclose(closed_form_radius(th, shape, FLAT_KEPLER), 1.0, atol=1e-12)


def test_closed_form_curvature_enters_through_shifted_energy():
    # with E - lam*Lz**2/2 = -1/2, the projected curve is the unit circle
    # for any curvature
    lam = 0.5
    params = SystemParams(SystemKind.COULOMB, lam, 0.0)
    shape = OrbitShape(E=-0.5 + 0.5 * lam, lz=1.0, alpha=1.0, theta0=0.0)
    th = np.linspace(0.0, 2.0 * math.pi, 20)
    assert np.allclose(closed_form_radius(th, shape, params), 1.0, atol=1e-12)


def test_closed_form_flat_oscillator_circle():
    params = SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0)
    shape = OrbitShape(E=1.0, lz=1.0, alpha=1.0, theta0=0.0)
    th = np.linspace(0.0, 2.0 * math.pi, 20)
    assert np.allclose(closed_form_radius(th, shape, params), 1.0, atol=1e-12)


def test_closed_form_rejects_unbound_angle():
    # ecc > 1 (Et >= 0): the bracket goes negative at some angles
    shape = OrbitShape(E=0.5, lz=1.0, alpha=1.0, theta0=0.0)
    with pytest.raises(OrbitDomainError):
        closed_form_radius(math.pi, shape, FLAT_KEPLER)


def test_integrated_orbit_matches_closed_form_flat_screened():
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.375)
    traj = integrate(PhaseState(2.0, 0.0, 0.0, 0.5), params, t_end=60.0,
                     rel_tol=1e-10, n_samples=6001)
    dev_cf, dev_ode = orbit_residual(traj, params)
    assert dev_cf < 1e-6
    assert dev_ode < 1e-6


# --- theta0 from the start state ---------------------------------------------

def _theta0(traj, params) -> float:
    return OrbitShape.from_state(traj.state_at(0.0), params).theta0


def test_theta0_circular_returns_zero():
    # x.p = 0 and w*la2 = c0 at every point: u0 = atan2(0, 0) = 0 by convention
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, 20.0, rel_tol=1e-10)
    assert _theta0(traj, FLAT_KEPLER) == 0.0


def test_theta0_perihelion_launch():
    traj = integrate(FLAT_ELLIPSE, FLAT_KEPLER, 30.0, rel_tol=1e-11, n_samples=6001)
    assert _theta0(traj, FLAT_KEPLER) == 0.0


def test_theta0_rotational_covariance():
    beta = 0.7
    st = FLAT_ELLIPSE
    c, s = math.cos(beta), math.sin(beta)
    rotated = PhaseState(
        st.x1 * c - st.x2 * s,
        st.x1 * s + st.x2 * c,
        st.p1 * c - st.p2 * s,
        st.p1 * s + st.p2 * c,
    )
    traj = integrate(rotated, FLAT_KEPLER, 30.0, rel_tol=1e-11, n_samples=6001)
    assert _theta0(traj, FLAT_KEPLER) == pytest.approx(beta, abs=1e-14)


def test_theta0_rotated_screened_oscillator(oscillator_params):
    # a perihelion launch turned by beta: the closed form's theta0 is beta itself
    beta = 1.1
    c, s = math.cos(beta), math.sin(beta)
    rotated = PhaseState(0.8 * c, 0.8 * s, -1.2 * s, 1.2 * c)
    traj = integrate(rotated, oscillator_params, 40.0, rel_tol=1e-10, n_samples=6001)
    assert traj.turning_points[0].kind is TurningKind.PERIHELION
    assert _theta0(traj, oscillator_params) == pytest.approx(beta, abs=1e-14)


def test_theta0_without_turning_point(coulomb_params):
    # inbound arcs that end before their perihelion: the start's phase needs no apsis, and
    # sign(Lz) turns it for the clockwise one
    for py in (0.55, -0.55):
        traj = integrate(PhaseState(1.6, 0.0, -0.1, py), coulomb_params, 1.0,
                         rel_tol=1e-10, n_samples=201)
        assert traj.turning_points == [] and not traj.circular
        assert math.isfinite(_theta0(traj, coulomb_params))
        dev_cf, dev_ode = orbit_residual(traj, coulomb_params)
        assert dev_cf < 1e-6
        assert dev_ode < 1e-6


_RESIDUAL_PROBE = """
import sys
from screened_sphere.dynamics import PhaseState, SystemKind, SystemParams, integrate
from orbit_reference import orbit_residual
params = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
orbit_residual(integrate(PhaseState(1.6, 0.0, 0.0, 0.55), params, 20.0), params)
print(",".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_orbit_residual_loads_no_scipy(tmp_path):
    # a fresh interpreter, so that no earlier test has loaded scipy already
    rc, out = run_process([], tmp_path, entry=["-c", _RESIDUAL_PROBE],
                          paths=[ROOT / "tests"])  # which holds orbit_reference
    assert rc == 0, out["stderr"]
    assert out["stdout"] == b"\n"


# --- orbit residual -----------------------------------------------------------

def test_orbit_residual_spherical(coulomb_orbit, coulomb_params):
    dev_cf, dev_ode = orbit_residual(coulomb_orbit, coulomb_params)
    assert dev_cf < 1e-6
    assert dev_ode < 1e-6


def test_orbit_residual_circular():
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, 20.0,
                     rel_tol=1e-10, n_samples=2001)
    shape = OrbitShape.from_state(traj.state_at(0.0), FLAT_KEPLER)
    _, dev_ode = orbit_residual(traj, FLAT_KEPLER, shape=shape)
    assert dev_ode < 1e-10


def test_orbit_residual_wrong_screening_detected(coulomb_orbit, coulomb_params):
    wrong = SystemParams(SystemKind.COULOMB, coulomb_params.lam, coulomb_params.k + 0.2)
    st0 = coulomb_orbit.state_at(0.0)
    shape = OrbitShape(
        E=hamiltonian(st0, coulomb_params),
        lz=float(coulomb_orbit.Lz[0]),
        alpha=orbit_alpha(wrong, float(coulomb_orbit.Lz[0])),
        theta0=_theta0(coulomb_orbit, coulomb_params),
    )
    dev_cf, _ = orbit_residual(coulomb_orbit, wrong, shape=shape)
    assert dev_cf > 1e-2


# --- turning points ------------------------------------------------------------

def test_flat_kepler_turning_points():
    traj = integrate(FLAT_ELLIPSE, FLAT_KEPLER, 25.0, rel_tol=1e-10, n_samples=6001)
    points = find_turning_points(traj)
    kinds = [p.kind for p in points]
    assert kinds[0] is TurningKind.PERIHELION
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))
    # flat Kepler radial period 2*pi*(-2E)**-1.5 with E = -1/2
    per_times = [p.t for p in points if p.kind is TurningKind.PERIHELION]
    for gap in np.diff(per_times):
        assert gap == pytest.approx(2.0 * math.pi, abs=1e-8)


def test_circular_orbit_flagged():
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, 20.0, rel_tol=1e-10)
    assert find_turning_points(traj) == []
    assert traj.circular


@pytest.mark.parametrize("t_end", [1e-9, 2e-8, -2e-8])
def test_a_short_span_that_starts_at_an_apsis_is_not_a_circle(coulomb_params, t_end):
    # x.p = 0 at the start stays at rounding level over so short a span, but only on a
    # circle does its rate stay there too: here the aphelion at t = 0 is found
    traj = integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, t_end)
    assert not traj.circular
    assert [(p.t, p.kind) for p in traj.turning_points] == [(0.0, TurningKind.APHELION)]
    circle = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), FLAT_KEPLER, t_end)
    assert (circle.turning_points, circle.circular) == ([], True)


@pytest.mark.parametrize("t", [20.0, 10.5, -1e-9, float("nan"), [0.0, 10.0 + 1e-9]])
def test_the_orbit_between_its_samples_refuses_a_time_outside_its_span(coulomb_params, t):
    # past an end the end step's polynomial is extrapolated: at t = 20, H = 1.2e27
    traj = integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, 10.0, n_samples=3)
    for at in (traj.state_at, traj.theta_at, traj.rdot):
        with pytest.raises(DomainError, match=r"outside the integrated span \[0, 10\]"):
            at(t)
    ends = traj.theta_at(np.array([0.0, 10.0]))  # both ends are in the span
    assert ends.tolist() == [traj.theta[0], traj.theta[-1]]
    assert traj.state_at(10.0) == PhaseState(*traj.states[-1])


def test_perihelion_radius_constant_and_matches_effective_potential(
    coulomb_orbit, coulomb_params
):
    points = find_turning_points(coulomb_orbit)
    r_per = [p.r for p in points if p.kind is TurningKind.PERIHELION]
    assert max(r_per) - min(r_per) < 1e-8
    r_aph = [p.r for p in points if p.kind is TurningKind.APHELION]
    assert max(r_aph) - min(r_aph) < 1e-8

    # independent oracle: rdot = 0 roots of E = Lz^2/(2 r^2) + lam Lz^2/2 + V(r)
    energy, lz = float(coulomb_orbit.H[0]), float(coulomb_orbit.Lz[0])

    def radial_equation(r):
        return (
            0.5 * lz**2 / r**2
            + 0.5 * coulomb_params.lam * lz**2
            + potential(r, coulomb_params)
            - energy
        )

    r_lo = brentq(radial_equation, 0.05, 1.0, xtol=1e-14)
    r_hi = brentq(radial_equation, 1.0, 10.0, xtol=1e-14)
    assert r_per[0] == pytest.approx(r_lo, abs=1e-10)
    assert r_aph[0] == pytest.approx(r_hi, abs=1e-10)


def test_turning_point_rdot_tolerance(oscillator_orbit):
    for p in find_turning_points(oscillator_orbit):
        assert abs(float(oscillator_orbit.rdot(p.t))) < 1e-10


@pytest.mark.parametrize("params, state, t_end", [
    (SystemParams(SystemKind.COULOMB, 0.1, 0.05), (1.6, 0.0, 0.0, 0.55), 70.0),
    (SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05), (1.5, 0.0, 0.0, 0.6), 40.0),
    (SystemParams(SystemKind.COULOMB, 0.1, 0.05), (1.6, 0.0, 0.1, 0.55), -20.0),
    (FLAT_KEPLER, (1.0, 0.0, 0.0, 1.0), 20.0),
], ids=["coulomb-fixture", "oscillator-fixture", "backward", "circular"])
def test_turning_points_do_not_depend_on_the_samples(params, state, t_end):
    # the solver's steps alone decide the turning points and the circular verdict
    runs = [integrate(PhaseState(*state), params, t_end, n_samples=n) for n in (2, 11, 4001)]
    for traj in runs[1:]:
        assert repr(traj.turning_points) == repr(runs[0].turning_points)  # repr keeps every bit
        assert traj.circular == runs[0].circular
        assert traj.dense.theta.tobytes() == runs[0].dense.theta.tobytes()
        assert traj.dense.bounds.tobytes() == runs[0].dense.bounds.tobytes()
    assert runs[0].circular == (params is FLAT_KEPLER)


def test_backward_span_turning_points_and_theta():
    # kinds, times and theta on a span integrated toward negative time
    from scipy.interpolate import CubicSpline

    params = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
    traj = integrate(PhaseState(1.6, 0.0, 0.1, 0.55), params, t_end=-20.0, n_samples=2001)
    points = find_turning_points(traj)
    r_per = [p.r for p in points if p.kind is TurningKind.PERIHELION]
    r_aph = [p.r for p in points if p.kind is TurningKind.APHELION]
    assert r_per and r_aph and max(r_per) < min(r_aph)
    assert all(a.t < b.t for a, b in zip(points, points[1:]))
    sampled = CubicSpline(traj.t[::-1], traj.theta[::-1])
    for p in points:
        assert abs(p.theta - float(sampled(p.t))) < 1e-6
        assert abs(traj.theta_at(p.t) - p.theta) < 1e-12

    target = 0.5 * (traj.theta[0] + traj.theta[-1])
    st = state_at_theta(traj, target)
    wrapped = (math.atan2(st.x2, st.x1) - target + math.pi) % TWO_PI - math.pi
    assert abs(wrapped) < 1e-9


def test_theta_does_not_alias_between_sparse_samples(coulomb_params):
    # t_end = 2000 puts several radians of theta between 401 samples
    sparse, dense = (integrate(PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, t_end=2000.0,
                               rel_tol=1e-9, n_samples=n) for n in (401, 2001))
    assert sparse.theta[-1] == dense.theta[-1]
    assert sparse.theta[-1] == pytest.approx(2410.96, abs=0.01)
    x1, x2 = sparse.states[:, 0], sparse.states[:, 1]
    wrapped = (sparse.theta - np.arctan2(x2, x1) + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(wrapped)) < 1e-12
    assert np.all(np.diff(sparse.theta) > 0.0)
    dev_cf, dev_ode = orbit_residual(sparse, coulomb_params)
    assert dev_cf < 1e-6
    assert dev_ode < 1e-6


# --- closure ----------------------------------------------------------------

def test_closure_analysis_values():
    res = closure_analysis(SystemParams(SystemKind.COULOMB, 0.0, 0.375), 1.0)
    assert res.alpha == pytest.approx(0.5, abs=1e-15)
    assert res.closed and (res.p, res.q) == (1, 2)
    assert res.closure_angle == pytest.approx(4.0 * math.pi)

    res = closure_analysis(FLAT_KEPLER, 0.73)
    assert res.alpha == 1.0 and res.closed and (res.p, res.q) == (1, 1)
    assert res.closure_angle == pytest.approx(2.0 * math.pi)

    res = closure_analysis(SystemParams(SystemKind.COULOMB, 0.0, 0.05), 1.0)
    assert not res.closed and res.closure_angle is None

    with pytest.raises(ImaginaryAlphaError):
        closure_analysis(SystemParams(SystemKind.COULOMB, 0.0, 0.5), 1.0)


def test_closure_fraction_is_limit_denominator():
    # every p/q with q <= 64 at offsets within and beyond RATIONAL_TOL, and random alpha;
    # Lz = 1 and k = (1 - alpha**2)/2 give alpha back to within rounding
    from fractions import Fraction

    targets = [p / q + off for q in range(1, 65) for p in range(1, q + 1)
               for off in (0.0, 1e-10, -1e-10, 2e-9, -2e-9)]
    targets += (1.0 - np.random.default_rng(7).random(10**4)).tolist()
    checked = 0
    for target in targets:
        if not 0.0 < target <= 1.0:
            continue
        for kind in SystemKind:
            res = closure_analysis(SystemParams(kind, 0.0, 0.5 * (1.0 - target * target)), 1.0)
            frac = Fraction(res.alpha).limit_denominator(64)
            closed = abs(res.alpha - float(frac)) <= 1e-9
            assert res.closed is closed, (target, res)
            if closed:
                q = frac.denominator
                angle = math.pi * q if kind is SystemKind.OSCILLATOR and q % 2 == 0 else 2 * math.pi * q
                assert (res.p, res.q, res.closure_angle) == (frac.numerator, q, angle)
            checked += 1
    assert checked > 2 * 10**4


def test_oscillator_closure_angle_uses_doubled_angle():
    # alpha = 1/2: radial period pi/alpha = 2*pi; q even halves 2*pi*q
    res = closure_analysis(SystemParams(SystemKind.OSCILLATOR, 0.0, 0.375), 1.0)
    assert res.closure_angle == pytest.approx(2.0 * math.pi)
    # alpha = 1: flat ellipse closes after one turn
    res = closure_analysis(SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0), 1.0)
    assert res.closure_angle == pytest.approx(2.0 * math.pi)


@pytest.mark.parametrize(
    "params, state",
    [
        # alpha = 1/2 (q = 2) and alpha = 3/4 (q = 4), flat and curved
        (SystemParams(SystemKind.COULOMB, 0.0, 0.375), PhaseState(2.0, 0.0, 0.0, 0.5)),
        (SystemParams(SystemKind.COULOMB, 0.0, 0.21875), PhaseState(2.0, 0.0, 0.0, 0.5)),
        (SystemParams(SystemKind.COULOMB, 0.1, 0.375), PhaseState(2.0, 0.0, 0.0, 0.5)),
        (SystemParams(SystemKind.OSCILLATOR, 0.1, 0.375), PhaseState(1.3, 0.0, 0.0, 1.0 / 1.3)),
    ],
)
def test_rational_orbit_returns_after_closure_angle(params, state):
    res = closure_analysis(params, 1.0)
    assert res.closed
    traj = integrate(state, params, t_end=80.0, rel_tol=1e-10, n_samples=12001)
    back = state_at_theta(traj, traj.theta[0] + res.closure_angle)
    assert np.max(np.abs(np.array(back) - np.array(state))) < 1e-6


def test_curvature_shift_traces_same_projected_orbit():
    # unit-test-sized version of the central geometric claim
    from scipy.interpolate import CubicSpline

    st0 = PhaseState(1.4, 0.0, 0.0, 0.65)
    lam = 0.2
    sphere = integrate(st0, SystemParams(SystemKind.COULOMB, lam, 0.05),
                       t_end=25.0, rel_tol=1e-11, n_samples=6001)
    flat = integrate(st0, SystemParams(SystemKind.COULOMB, 0.0, 0.05),
                     t_end=25.0, rel_tol=1e-11, n_samples=6001)
    th_hi = min(sphere.theta[-1], flat.theta[-1]) - 0.05
    th = np.linspace(sphere.theta[0] + 0.01, th_hi, 2000)
    r1 = CubicSpline(sphere.theta, sphere.r)(th)
    r2 = CubicSpline(flat.theta, flat.r)(th)
    assert np.max(np.abs(r1 - r2) / r1) < 1e-6


@pytest.mark.parametrize("kind,start,t_end,reference", [
    (SystemKind.COULOMB, (1.0, 0.0, 0.0, 0.55), 70.0, coulomb_apsis_times),
    (SystemKind.COULOMB, (1.2, 0.3, 0.2, -0.6), 40.0, coulomb_apsis_times),
    (SystemKind.COULOMB, (-0.8, 1.1, -0.5, -0.2), 40.0, coulomb_apsis_times),
    (SystemKind.OSCILLATOR, (1.0, 0.0, 0.3, 0.8), 60.0, oscillator_apsis_times),
    (SystemKind.OSCILLATOR, (1.2, 0.3, -0.4, -0.9), 30.0, oscillator_apsis_times),
    (SystemKind.OSCILLATOR, (-0.5, -1.0, 0.7, 0.1), 30.0, oscillator_apsis_times),
], ids=["coulomb-fixture", "coulomb-clockwise", "coulomb-rising", "oscillator-fixture",
        "oscillator-clockwise", "oscillator-falling"])
def test_sphere_apsis_times_reduce_to_the_flat_laws_at_zero_curvature(kind, start, t_end,
                                                                     reference):
    # the quadrature of the time law against Kepler's equation and r**2 = E + B*cos(2t + phi);
    # measured within 1-2 ulp of t_end
    state, params = PhaseState(*start), SystemParams(kind, 0.0, 0.05)
    exact, flat = orbit_points(state, params, t_end), reference(state, params, t_end)
    assert [p.kind for p in exact] == [k for _, k in flat]
    assert max(abs(p.t - t) for p, (t, _) in zip(exact, flat)) <= 4 * math.ulp(t_end)


_REL_TOLS = (1e-8, 1e-10, 1e-12)
_APSIS_FIXTURES = {SystemKind.COULOMB: ((1.0, 0.0, 0.0, 0.55), 70.0),
                   SystemKind.OSCILLATOR: ((1.0, 0.0, 0.3, 0.8), 60.0)}


@pytest.mark.parametrize("kind,lam,rel_tol,count,bound", [
    # 26.8 radial periods at lam = 0, starting at an aphelion; measured 129-216 x rel_tol
    *((SystemKind.COULOMB, 0.0, rel_tol, 54, 500.0) for rel_tol in _REL_TOLS),
    (SystemKind.COULOMB, 0.1, 1e-10, 57, 500.0),  # measured 127 x rel_tol
    (SystemKind.COULOMB, 1.0, 1e-10, 83, 500.0),  # measured 112 x rel_tol
    # measured 0.012-0.028 x rel_tol at lam = 0
    *((SystemKind.OSCILLATOR, 0.0, rel_tol, 38, 0.1) for rel_tol in _REL_TOLS),
    (SystemKind.OSCILLATOR, 0.1, 1e-10, 41, 0.2),  # measured 0.038 x rel_tol
    (SystemKind.OSCILLATOR, 1.0, 1e-10, 71, 2.0),  # measured 0.63 x rel_tol
], ids=["coulomb-0-1e-08", "coulomb-0-1e-10", "coulomb-0-1e-12", "coulomb-0.1", "coulomb-1",
        "oscillator-0-1e-08", "oscillator-0-1e-10", "oscillator-0-1e-12", "oscillator-0.1",
        "oscillator-1"])
def test_turning_times_match_the_exact_apsis_times_on_the_sphere(kind, lam, rel_tol, count, bound):
    (start, t_end), params = _APSIS_FIXTURES[kind], SystemParams(kind, lam, 0.05)
    state = PhaseState(*start)
    exact = orbit_points(state, params, t_end)
    points = integrate(state, params, t_end, rel_tol=rel_tol, n_samples=2).turning_points
    assert len(exact) == count
    assert [p.kind.value for p in points] == [e.kind for e in exact]
    assert max(abs(p.t - e.t) for p, e in zip(points, exact)) <= bound * rel_tol


def _assert_samples_follow_the_law(kind, lam, rel_tol, r_bound, theta_bound):
    """The exact orbit every pi/3 of phase, against the integrated orbit evaluated there as
    ``integrate`` evaluates its samples: ``dense(t)``, ``np.hypot`` and ``dense.on_branch``."""
    (start, t_end), params = _APSIS_FIXTURES[kind], SystemParams(kind, lam, 0.05)
    state = PhaseState(*start)
    exact = orbit_points(state, params, t_end, offsets=(0.0, math.pi / 3.0, 2.0 * math.pi / 3.0))
    dense = integrate(state, params, t_end, rel_tol=rel_tol, n_samples=2).dense
    t = np.array([p.t for p in exact])
    y = dense(t)
    assert np.max(np.abs(np.hypot(y[0], y[1]) - [p.r for p in exact])) <= r_bound * rel_tol
    assert np.max(np.abs(dense.on_branch(t, y) - [p.theta for p in exact])) <= theta_bound * rel_tol


@pytest.mark.parametrize("rel_tol", _REL_TOLS)
@pytest.mark.parametrize("kind,r_bound,theta_bound", [
    # measured 198-331 x rel_tol in r and 5580-9360 x rel_tol in theta: the drift gate
    # passes while the phase runs ahead, as a non-symplectic stepper may
    (SystemKind.COULOMB, 500.0, 16000.0),
    (SystemKind.OSCILLATOR, 0.2, 0.2),  # measured 0.022-0.054 x rel_tol in r, 0.030-0.071 in theta
], ids=["coulomb", "oscillator"])
def test_sampled_states_match_the_exact_orbit_at_zero_curvature(rel_tol, kind, r_bound,
                                                                theta_bound):
    _assert_samples_follow_the_law(kind, 0.0, rel_tol, r_bound, theta_bound)


@pytest.mark.parametrize("rel_tol", _REL_TOLS)
@pytest.mark.parametrize("kind,lam,r_bound,theta_bound", [
    (SystemKind.COULOMB, 0.1, 500.0, 16000.0),  # measured 204-326 and 5290-8460 x rel_tol
    (SystemKind.COULOMB, 1.0, 500.0, 16000.0),  # measured 187-286 and 4810-7370
    (SystemKind.OSCILLATOR, 0.1, 0.2, 0.4),     # measured 0.023-0.061 and 0.066-0.156
    (SystemKind.OSCILLATOR, 1.0, 3.0, 7.0),     # measured 0.62-1.47 and 1.51-3.44
], ids=["coulomb-0.1", "coulomb-1", "oscillator-0.1", "oscillator-1"])
def test_sampled_states_match_the_exact_orbit_on_the_sphere(rel_tol, kind, lam, r_bound,
                                                            theta_bound):
    _assert_samples_follow_the_law(kind, lam, rel_tol, r_bound, theta_bound)
