"""Property test: turning points of eccentric orbits over several radial periods, read
through the public ``integrate`` / ``find_turning_points`` at a caller's tolerance and
sample count, against the one exact bound-orbit law of ``orbit_reference``.

The orbit has Lz**2*alpha**2 = 1 (coulomb) or Lz*alpha = 1 (oscillator), so its flat radial
period is 2*pi*(1/(1 - ecc**2))**1.5 or pi; curvature only shortens it, so the span holds at
least ``RADIAL_PERIODS`` of them.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from screened_sphere.dynamics import SystemKind, SystemParams, find_turning_points, integrate
from orbit_reference import bound_orbit_start, orbit_points

RADIAL_PERIODS = 2.5
EDGE_T = 1e-6  # an apsis this close to an end of the span may be found or not


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
    if system is SystemKind.COULOMB:
        period = 2.0 * math.pi * (1.0 - ecc * ecc) ** -1.5
    else:
        period = math.pi
    t_end = (-1.0 if backward else 1.0) * RADIAL_PERIODS * period
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
