"""The in-module DOP853 stepper against scipy's ``solve_ivp``, the test-only oracle.

``integrate`` steps Hairer's table on Python floats with scipy's step-size
controller, so on the same problem it takes the same accepted steps as
``solve_ivp(method="DOP853")``, its samples agree to rounding, and the x.p
roots of its interpolant are the oracle's event times.
"""

import linecache
import math
import traceback
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as reference

from screened_sphere import dynamics
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    TurningKind,
    equations_of_motion,
    integrate,
)


def test_table_equals_scipy_coefficients():
    for s in range(1, reference.N_STAGES_EXTENDED):
        assert dynamics._A[s] == tuple(reference.A[s, :s]), s
    assert dynamics._A[reference.N_STAGES] == tuple(reference.B)
    assert dynamics._E3 == tuple(reference.E3)
    assert dynamics._E5 == tuple(reference.E5)
    assert np.array_equal(np.array(dynamics._D, dtype=float), reference.D)


def _dot(row, k):
    """The products of the nonzero entries of ``row`` with ``k``, added left to right from the
    first, as every sum in the driver is."""
    return reduce(add, (a * v for a, v in zip(row, k) if a))


def _reference_step(y, f, h, params, atol, rtol):
    """One step as the loop over the table: one weighted sum per row of A, E5 and E3."""
    k = [[v] for v in f]
    for row in dynamics._A[1:13]:
        y_new = [v + _dot(row, kv) * h for v, kv in zip(y, k)]
        for kv, d in zip(k, equations_of_motion(PhaseState(*y_new), params)):
            kv.append(d)
    err5 = err3 = 0.0
    for v, w, kv in zip(y, y_new, k):
        sc = atol + max(abs(v), abs(w)) * rtol
        err5 += (_dot(dynamics._E5, kv) / sc) ** 2
        err3 += (_dot(dynamics._E3, kv) / sc) ** 2
    return tuple(y_new), tuple(d for kv in k for d in kv), err5, err3


# (kind, lam, k); the screened curved case keeps the bare kind as its id
STEP_CASES = [
    pytest.param(kind, lam, k, id=kind.value if (lam, k) == (0.3, 0.05) else f"{kind.value}-{lam}-{k}")
    for kind in SystemKind for lam in (0.0, 0.3) for k in (0.0, 0.05)
]


def _generated_step():
    """The driver's own stage and error-norm lines, between its ``try:`` and ``err = ``, as
    ``step(y, f, h, params, atol, rtol)`` -> (new state, stage derivatives, err5, err3)."""
    lines = [line.strip() for line in linecache.getlines(dynamics._dop853.__code__.co_filename)]
    body = lines[lines.index("try:") + 1:next(i for i, line in enumerate(lines)
                                              if line.startswith("err = "))]
    ks = ", ".join(f"k{c}_{j}" for c in range(1, 5) for j in range(13))
    namespace = {"math": math, "SystemKind": SystemKind}
    exec("\n    ".join(["def step(y, f, h, params, atol, rtol):", dynamics._H_PARAMS,
                        "sqrt = math.sqrt", "(y1, y2, y3, y4), (k1_0, k2_0, k3_0, k4_0) = y, f",
                        *body, f"return (x1, x2, p1, p2), ({ks}), err5, err3"]), namespace)
    return namespace["step"]


@pytest.mark.parametrize("kind, lam, k", STEP_CASES)
def test_generated_step_is_the_table_loop_bit_for_bit(kind, lam, k):
    # the driver's step and the dense output's _stages against the table loop, which calls
    # equations_of_motion: this also pins each stage to h_gradient, flat and unscreened
    # included (products with 0)
    params = SystemParams(kind, lam=lam, k=k)
    rng = np.random.default_rng(853)
    # radial starts with -0.0 and +0.0 y-components: a sum's sign of zero is its first term's
    cases = [((1.2, z, 0.4, z), h, 1e-12) for z in (-0.0, 0.0) for h in (0.05, -0.05)]
    for _ in range(50):
        r, a = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)
        p1, p2 = rng.uniform(-1.0, 1.0, 2)
        h = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -1.0)
        y = tuple(map(float, (r * np.cos(a), r * np.sin(a), p1, p2)))
        cases.append((y, float(h), 10.0 ** rng.uniform(-14.0, -8.0)))
    step = _generated_step()
    for y, h, rtol in cases:
        f = equations_of_motion(PhaseState(*map(float, y)), params)
        ref = _reference_step(y, f, h, params, rtol * 1e-2, rtol)
        assert _step_bits(step(y, f, h, params, rtol * 1e-2, rtol)) == _step_bits(ref), (y, h)
        stages = dynamics._stages(np.array(y)[:, None], np.array([h]), params)[:13, :, 0]
        assert _bits(stages.T.ravel()) == _bits(ref[1]), (y, h)


def _bits(values):
    return [float(v).hex() for v in values]


def _step_bits(step):
    y_new, k, err5, err3 = step
    return _bits((*y_new, *k, err5, err3))


def _stage_12_sum(y, h, k):
    """States y (4, n) stepped by h (n,) with the weights B over stage derivatives k (13, 4, n),
    each sum left to right from its first term as the driver adds it."""
    return y + reduce(add, (b * k[j] for j, b in enumerate(dynamics._A[12]) if b)) * h


def test_stored_states_are_the_stage_12_sums_of_the_rebuilt_stages(orbit):
    # the driver keeps only its steps; the dense output rebuilds their stages with _stages
    _, state0, params, t_end, rel_tol = orbit
    ts, ys = dynamics._dop853(tuple(state0), params, t_end, max(rel_tol * 1e-2, 2.5e-14))
    y = np.frombuffer(ys).reshape(-1, 4).T
    h = np.diff(np.frombuffer(ts))
    k = dynamics._stages(y[:, :-1], h, params)[:13]
    assert np.array_equal(_stage_12_sum(y[:, :-1], h, k).view(np.int64), y[:, 1:].view(np.int64))


def test_driver_source_reads_back_for_tracebacks():
    code = dynamics._dop853.__code__
    assert linecache.getline(code.co_filename, 1) == "def _dop853(y, params, t_end, rtol):\n"
    with pytest.raises(AttributeError) as exc:
        dynamics._dop853((1.0, 0.0, 0.0, 1.0), None, 1.0, 1e-10)
    assert "r_max = math.sqrt(CHART_EDGE_GUARD / params.lam)" in "".join(
        traceback.format_exception(exc.value))


def _oracle(state0, params, t_end, rel_tol):
    """solve_ivp with integrate's tolerances and its x.p event."""
    rtol = max(rel_tol * 1e-2, 2.5e-14)

    def radial_turn(t, y):
        return y[0] * y[2] + y[1] * y[3]

    return solve_ivp(
        lambda t, y: equations_of_motion(PhaseState(*map(float, y)), params),
        (0.0, t_end), np.array(state0), method="DOP853", rtol=rtol, atol=rtol * 1e-2,
        dense_output=True, events=radial_turn,
    )


BACKWARD = (PhaseState(1.6, 0.0, 0.1, 0.55), SystemParams(SystemKind.COULOMB, 0.1, 0.05), -20.0)


@pytest.fixture(params=["coulomb", "oscillator", "backward"])
def orbit(request, coulomb_orbit, coulomb_params, oscillator_orbit, oscillator_params):
    """(trajectory, initial state, params, t_end, rel_tol) of each checked orbit."""
    if request.param == "coulomb":
        return coulomb_orbit, PhaseState(1.6, 0.0, 0.0, 0.55), coulomb_params, 70.0, 1e-10
    if request.param == "oscillator":
        return oscillator_orbit, PhaseState(1.5, 0.0, 0.0, 0.6), oscillator_params, 40.0, 1e-10
    state0, params, t_end = BACKWARD
    return integrate(state0, params, t_end, 1e-10), state0, params, t_end, 1e-10


def test_steps_samples_and_turning_points_match_solve_ivp(orbit):
    traj, state0, params, t_end, rel_tol = orbit
    sol = _oracle(state0, params, t_end, rel_tol)
    assert sol.status == 0
    assert len(traj.dense.bounds) == len(sol.t)
    assert np.max(np.abs(traj.states.T - sol.sol(traj.t))) < 10.0 * rel_tol

    roots = np.sort(sol.t_events[0])
    points = traj.turning_points
    assert len(points) == len(roots) > 0
    assert np.max(np.abs(np.array([p.t for p in points]) - roots)) < 1e-11
    # the oracle's kind: x.p rising through its root in increasing time is a perihelion
    for p, t_root in zip(points, roots):
        y_before, y_after = sol.sol(t_root - 1e-6), sol.sol(t_root + 1e-6)
        rising = y_after[0] * y_after[2] + y_after[1] * y_after[3] > (
            y_before[0] * y_before[2] + y_before[1] * y_before[3])
        assert p.kind is (TurningKind.PERIHELION if rising else TurningKind.APHELION)

