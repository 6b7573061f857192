"""Property tests: turning points of eccentric orbits over several radial periods, read
through the public ``integrate`` / ``find_turning_points`` at a caller's tolerance and
sample count, against the one exact bound-orbit law of ``orbit_reference``; and the extended
vectors R' and Q' at those apsides, which turn by the closed-form apsidal advance and keep
their closed-form length.

An orbit of shape Lz**2*alpha**2 = l (coulomb) or Lz*alpha = l (oscillator) has the flat
radial period 2*pi*(l/(1 - ecc**2))**1.5 or pi; curvature only shortens it.
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


def _span(system: SystemKind, ecc: float, shape: float = 1.0) -> float:
    """``RADIAL_PERIODS`` flat radial periods of the orbit of ``bound_orbit_start(..., shape,
    ecc, ...)``, at least as many periods of the curved orbit."""
    if system is SystemKind.COULOMB:
        return RADIAL_PERIODS * 2.0 * math.pi * (shape / (1.0 - ecc * ecc)) ** 1.5
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
    lam=st.floats(0.0, 1.0),
    k=st.floats(0.01, 0.1),
    shape=st.floats(0.5, 1.5),
    ecc=st.floats(0.1, 0.7),
    psi=st.floats(0.0, 2.0 * math.pi),
)
def test_extended_vectors_turn_by_the_apsidal_advance(system, lam, k, shape, ecc, psi):
    # the apsis theta advances by pi/nu per half radial period, nu = alpha (coulomb) or
    # 2*alpha (oscillator); R' points along the perihelion and away from the aphelion, so its
    # angle steps by pi/alpha - pi (mod 2*pi) and lies along theta (mod pi); Q''s axis
    # 1/2*atan2(Q'xy, Q'1) is the apsis line, which the next apsis turns by a quarter.  Their
    # lengths are the orbit's discriminants, with Lz**2*alpha**2 = Lz**2 - 2k:
    # |R'|**2 = 1 + 2*Et*(Lz**2 - 2k) and |Q'|**2 = Et**2 - (Lz**2 - 2k)
    params = SystemParams(system, lam, k)
    state = bound_orbit_start(system, lam, k, shape, ecc, psi, 0.0)
    apsides = orbit_points(state, params, _span(system, ecc, shape))
    t_end = RADIAL_PERIODS * (apsides[2].t - apsides[0].t)
    traj = integrate(state, params, t_end=t_end, rel_tol=1e-10, n_samples=501)
    lz = float(traj.Lz[0])
    alpha, et = orbit_alpha(params, lz), float(traj.H[0]) - 0.5 * lam * lz * lz
    first, second = turning_point_conservation(traj).values_at_turning.T
    if system is SystemKind.COULOMB:
        angles = [math.atan2(y, x) for x, y in zip(first, second)]
        step, step_mod, along_mod = math.pi / alpha - math.pi, 2.0 * math.pi, math.pi
        length2 = 1.0 + 2.0 * et * (lz * lz - 2.0 * k)
    else:
        angles = [0.5 * math.atan2(xy, q1) for xy, q1 in zip(first, second)]
        step, step_mod, along_mod = math.pi / (2.0 * alpha), 0.5 * math.pi, 0.5 * math.pi
        length2 = et * et - (lz * lz - 2.0 * k)
    inner = [(angle, p.theta, a * a + b * b)
             for angle, p, a, b in zip(angles, traj.turning_points, first, second)
             if min(p.t, t_end - p.t) >= EDGE_T]
    assert len(inner) >= 3
    assert max(_off(angle - theta, along_mod) for angle, theta, _ in inner) < 1e-6
    assert max(_off(b[0] - a[0] - step, step_mod) for a, b in zip(inner, inner[1:])) < 1e-6
    assert max(abs(v2 - length2) for _, _, v2 in inner) <= 1e-6 * length2
