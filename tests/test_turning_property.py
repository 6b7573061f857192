"""Property tests: turning points of eccentric orbits over several radial periods, read
through the public ``integrate`` / ``find_turning_points`` at a caller's tolerance and
sample count, against the one exact bound-orbit law of ``orbit_reference``; and the extended
vectors R' and Q' at those apsides, which turn by the closed-form apsidal advance.

The orbit has Lz**2*alpha**2 = 1 (coulomb) or Lz*alpha = 1 (oscillator), so its flat radial
period is 2*pi*(1/(1 - ecc**2))**1.5 or pi; curvature only shortens it, so the span holds at
least ``RADIAL_PERIODS`` of them.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from screened_sphere.closed_forms import orbit_alpha
from screened_sphere.conserved import turning_point_conservation
from screened_sphere.dynamics import SystemKind, SystemParams, find_turning_points, integrate
from orbit_reference import bound_orbit_start, orbit_points

RADIAL_PERIODS = 2.5
EDGE_T = 1e-6  # an apsis this close to an end of the span may be found or not


def _span(system: SystemKind, ecc: float) -> float:
    """``RADIAL_PERIODS`` flat radial periods of the orbit of ``bound_orbit_start(..., 1.0,
    ecc, ...)``."""
    if system is SystemKind.COULOMB:
        return RADIAL_PERIODS * 2.0 * math.pi * (1.0 - ecc * ecc) ** -1.5
    return RADIAL_PERIODS * math.pi


@settings(max_examples=25)
@given(
    system=st.sampled_from([SystemKind.COULOMB, SystemKind.OSCILLATOR]),
    lam=st.floats(0.0, 0.5),
    k=st.floats(0.01, 0.1),
    ecc=st.floats(0.1, 0.7),
    psi=st.floats(0.0, 2.0 * math.pi),
    backward=st.booleans(),
)
def test_turning_points_match_closed_form_apsides(system, lam, k, ecc, psi, backward):
    t_end = (-1.0 if backward else 1.0) * _span(system, ecc)
    params = SystemParams(system, lam, k)
    state = bound_orbit_start(system, lam, k, 1.0, ecc, psi, 0.0)
    points = find_turning_points(integrate(state, params, t_end=t_end, rel_tol=1e-10,
                                           n_samples=501))
    exact = orbit_points(state, params, t_end)

    kinds = [p.kind for p in points]
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))
    near_edge = any(min(abs(e.t), abs(e.t - t_end)) < EDGE_T for e in exact)
    assert len(points) == len(exact) or (near_edge and abs(len(points) - len(exact)) == 1)
    found, want = ([p for p in ps if min(abs(p.t), abs(p.t - t_end)) >= EDGE_T]
                   for ps in (points, exact))
    assert [p.kind.value for p in found] == [e.kind for e in want]
    for p, e in zip(found, want):
        assert abs(p.r - e.r) < 1e-6
        assert abs(p.t - e.t) < 1e-6


def _off(angle: float, period: float) -> float:
    """The distance of ``angle`` from the nearest multiple of ``period``."""
    return abs(math.remainder(angle, period))


@settings(max_examples=25)
@given(
    system=st.sampled_from([SystemKind.COULOMB, SystemKind.OSCILLATOR]),
    lam=st.floats(0.0, 0.5),
    k=st.floats(0.01, 0.1),
    ecc=st.floats(0.1, 0.7),
    psi=st.floats(0.0, 2.0 * math.pi),
)
def test_extended_vectors_turn_by_the_apsidal_advance(system, lam, k, ecc, psi):
    # the apsis theta advances by pi/nu per half radial period, nu = alpha (coulomb) or
    # 2*alpha (oscillator); R' points along the perihelion and away from the aphelion, so its
    # angle steps by pi/alpha - pi (mod 2*pi) and lies along theta (mod pi); Q''s axis
    # 1/2*atan2(Q'xy, Q'1) is the apsis line, which the next apsis turns by a quarter
    t_end = _span(system, ecc)
    params = SystemParams(system, lam, k)
    traj = integrate(bound_orbit_start(system, lam, k, 1.0, ecc, psi, 0.0), params,
                     t_end=t_end, rel_tol=1e-10, n_samples=501)
    alpha = orbit_alpha(params, float(traj.Lz[0]))
    first, second = turning_point_conservation(traj).values_at_turning.T
    if system is SystemKind.COULOMB:
        angles = [math.atan2(y, x) for x, y in zip(first, second)]
        step, step_mod, along_mod = math.pi / alpha - math.pi, 2.0 * math.pi, math.pi
    else:
        angles = [0.5 * math.atan2(xy, q1) for xy, q1 in zip(first, second)]
        step, step_mod, along_mod = math.pi / (2.0 * alpha), 0.5 * math.pi, 0.5 * math.pi
    inner = [(angle, p.theta) for angle, p in zip(angles, traj.turning_points)
             if min(p.t, t_end - p.t) >= EDGE_T]
    assert len(inner) >= 3
    assert max(_off(angle - theta, along_mod) for angle, theta in inner) < 1e-6
    assert max(_off(b - a - step, step_mod) for (a, _), (b, _) in zip(inner, inner[1:])) < 1e-6
