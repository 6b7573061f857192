"""Property test: turning points of eccentric orbits against closed-form apsides.

The references here (launch state, apsidal radii, apsis times) are built
from the closed-form orbit alone and import nothing from the package; the
package supplies only the integrated orbit under test.

With L2 = Lz**2 - 2k fixed to 1 and phase psi = alpha*(theta - theta0)
(coulomb) or 2*alpha*(theta - theta0) (oscillator), the orbit is

    coulomb:     1/r    = (1 + e*cos(psi)) / L2,          Et = (e**2 - 1) / (2*L2)
    oscillator:  1/r**2 = Et*(1 + e*cos(psi)) / L2,       Et = sqrt(L2 / (1 - e**2))

with apsides at psi = j*pi (perihelion for even j).  theta advances as
dtheta/dt = (1 + lam*r**2)*Lz/r**2, which gives the apsis times.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    TurningKind,
    find_turning_points,
    integrate,
)

L2 = 1.0
RADIAL_PERIODS = 2.5
EDGE_T = 1e-6


def reference_orbit(system: str, lam: float, k: float, ecc: float):
    """(Lz, Et, r(psi), dt/dpsi) of the closed-form orbit."""
    lz = math.sqrt(L2 + 2.0 * k)
    alpha = math.sqrt(L2) / lz
    if system == "coulomb":
        et = (ecc * ecc - 1.0) / (2.0 * L2)

        def radius(psi):
            return L2 / (1.0 + ecc * math.cos(psi))

        rate = alpha
    else:
        et = math.sqrt(L2 / (1.0 - ecc * ecc))

        def radius(psi):
            return math.sqrt(L2 / (et * (1.0 + ecc * math.cos(psi))))

        rate = 2.0 * alpha

    def dt_dpsi(psi):
        r = radius(psi)
        return r * r / (rate * lz * (1.0 + lam * r * r))

    return lz, et, radius, dt_dpsi


def launch_state(system, lam, k, lz, et, radius, psi):
    """State on the +x axis at phase psi; rdot has the sign of sin(psi)."""
    r0 = radius(psi)
    v = (-1.0 / r0 if system == "coulomb" else 0.5 * r0 * r0) - k / r0**2
    # Et = (1 + lam*r**2)**2 * p_r**2 / 2 + Lz**2 / (2 r**2) + V(r)
    pr2 = 2.0 * (et - lz * lz / (2.0 * r0 * r0) - v) / (1.0 + lam * r0 * r0) ** 2
    return r0, 0.0, math.copysign(math.sqrt(max(pr2, 0.0)), math.sin(psi)), lz / r0


@settings(max_examples=25, deadline=10000, derandomize=True, database=None)
@given(
    system=st.sampled_from(["coulomb", "oscillator"]),
    lam=st.floats(0.0, 0.5),
    k=st.floats(0.01, 0.1),
    ecc=st.floats(0.1, 0.7),
    psi=st.floats(0.0, 2.0 * math.pi),
    backward=st.booleans(),
)
def test_turning_points_match_closed_form_apsides(system, lam, k, ecc, psi, backward):
    lz, et, radius, dt_dpsi = reference_orbit(system, lam, k, ecc)
    half_period = quad(dt_dpsi, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    t_end = (-1.0 if backward else 1.0) * RADIAL_PERIODS * 2.0 * half_period
    params = SystemParams(SystemKind(system), lam, k)
    traj = integrate(PhaseState(*launch_state(system, lam, k, lz, et, radius, psi)),
                     params, t_end=t_end, rel_tol=1e-10, n_samples=501)
    points = find_turning_points(traj)

    # apsis j sits at t_j = j*half_period - t(psi); count those in the span
    t_psi = quad(dt_dpsi, 0.0, psi, epsabs=1e-13, epsrel=1e-13)[0]
    lo, hi = sorted((0.0, t_end))
    j_range = range(math.floor((lo + t_psi) / half_period) - 1,
                    math.ceil((hi + t_psi) / half_period) + 2)
    times = [j * half_period - t_psi for j in j_range]
    expected = sum(lo <= t <= hi for t in times)
    near_edge = any(min(abs(t - lo), abs(t - hi)) < EDGE_T for t in times)
    assert len(points) == expected or (near_edge and abs(len(points) - expected) == 1)

    kinds = [p.kind for p in points]
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))
    r_peri, r_aph = radius(0.0), radius(math.pi)
    for p in points:
        want = r_peri if p.kind is TurningKind.PERIHELION else r_aph
        assert abs(p.r - want) < 1e-6
