"""Closed-form screened orbits r(theta), the oracle the integrator is checked against.

Bound orbits obey closed forms controlled by alpha = sqrt(1 - 2k/Lz**2)
and the shifted energy Et = E - (lam/2)*Lz**2 (Wu & Zeng's flat-space
orbits, with curvature entering only through Et):

    coulomb:     1/r    = [1  + sqrt(1 + 2*Et*Lz**2*alpha**2)  * cos(alpha*(theta - theta0))]   / (Lz**2 * alpha**2)
    oscillator:  1/r**2 = [Et + sqrt(Et**2 - Lz**2*alpha**2)   * cos(2*alpha*(theta - theta0))] / (Lz**2 * alpha**2)

``orbit_residual`` compares an integrated ``Trajectory`` with them, with
theta0 read exactly from the start state (``OrbitShape.start_phase``), so
nothing is fitted, and ``state_at_theta`` finds the state where the
unwrapped azimuth reaches a given angle, for the closure checks.  The exact
apsis times at any lam come from ``sphere_apsis_times``, which integrates
dt = r(theta)**2/(Lz*(1 + lam*r(theta)**2)) dtheta along the closed form
from the same start phase; Kepler's and the oscillator's time laws give the
apsis times and polar coordinates at lam = 0, the independent anchor of
that quadrature.  No command runs these.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import mpmath
import numpy as np

from screened_sphere.closed_forms import orbit_alpha
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    Trajectory,
    _bracketed_root,
    lz_value,
)
from screened_sphere.errors import DomainError
from screened_sphere.phase_space import hamiltonian, potential


class OrbitDomainError(DomainError):
    """Closed-form orbit evaluated outside its allowed angular range."""

    code = "ERR_ORBIT_DOMAIN"


class OrbitShape(namedtuple("OrbitShape", "E lz alpha theta0", defaults=(0.0,))):
    """Constants of a closed-form orbit: energy, Lz, alpha, phase offset."""

    __slots__ = ()

    @classmethod
    def from_state(cls, state: PhaseState, params: SystemParams) -> "OrbitShape":
        """The closed-form orbit through ``state``, with theta0 = theta - sign(Lz)*u0/nu at the
        state's azimuth theta and phase u0 (:meth:`start_phase`)."""
        lz = float(lz_value(state.x1, state.x2, state.p1, state.p2))
        shape = cls(E=hamiltonian(state, params), lz=lz, alpha=orbit_alpha(params, lz))
        nu = shape.coefficients(params)[2]
        turn = math.copysign(1.0, lz) * shape.start_phase(state, params) / nu
        return shape._replace(theta0=math.atan2(state.x2, state.x1) - turn)

    def shifted_energy(self, params: SystemParams) -> float:
        """Et = E - (lam/2)*Lz**2, the only combination curvature enters."""
        return self.E - 0.5 * params.lam * self.lz**2

    def coefficients(self, params: SystemParams) -> tuple[float, float, float, float, int]:
        """(c0, c1**2, nu, la2, n) of the closed form w*la2 = c0 + c1*cos(nu*(theta - theta0)).

        w = 1/r**n: 1/r with c0 = 1, nu = alpha for coulomb; 1/r**2 with
        c0 = Et, nu = 2*alpha for the oscillator; la2 = Lz**2*alpha**2.
        """
        et = self.shifted_energy(params)
        la2 = self.lz**2 * self.alpha**2
        if params.kind is SystemKind.COULOMB:
            return 1.0, 1.0 + 2.0 * et * la2, self.alpha, la2, 1
        return et, et * et - la2, 2.0 * self.alpha, la2, 2

    def start_phase(self, state: PhaseState, params: SystemParams) -> float:
        """The phase u0 of ``state`` on this orbit, in w*la2 = c0 + c1*cos(u) with
        u = sign(Lz)*nu*(theta - theta0), which grows with t (:meth:`coefficients`).

        It is read from the state, not fitted: c1*cos(u0) = w*la2 - c0, and through
        rdot = (x.p)*(1 + lam*r**2)**2/r, c1*sin(u0) = n*la2*(x.p)*(1 + lam*r**2)/(nu*|Lz|*r**n),
        so no acos loses digits near an apsis.  Perihelia lie at even multiples of pi, aphelia
        at odd ones; a circular orbit, where both vanish, gets u0 = atan2(0, 0) = 0.
        """
        c0, _, nu, la2, n = self.coefficients(params)
        s, lz = state.x1 * state.p1 + state.x2 * state.p2, abs(self.lz)
        w = 1.0 / state.r ** n
        return math.atan2(n * la2 * s * (1.0 + params.lam * state.r ** 2) * w / (nu * lz),
                          w * la2 - c0)


def closed_form_radius(theta, shape: OrbitShape, params: SystemParams):
    """r(theta) from the closed-form orbit equation for the given system.

    Raises :class:`OrbitDomainError` where the
    bracket is nonpositive (angles outside the bound range).
    """
    theta = np.asarray(theta, dtype=float)
    c0, disc, nu, la2, n = shape.coefficients(params)
    if disc < 0.0:
        raise OrbitDomainError(f"{params.kind.value} orbit discriminant negative: {disc:g}")
    w = (c0 + math.sqrt(disc) * np.cos(nu * (theta - shape.theta0))) / la2
    if np.any(w <= 0.0):
        raise OrbitDomainError(("1/r" if n == 1 else "1/r**2")
                               + " nonpositive: angle outside the bound range")
    r = 1.0 / w if n == 1 else 1.0 / np.sqrt(w)
    return float(r) if r.ndim == 0 else r


def orbit_residual(
    traj: Trajectory,
    params: SystemParams,
    shape: Optional[OrbitShape] = None,
) -> tuple[float, float]:
    """(max closed-form deviation, max orbit-relation residual) over samples.

    The first is max |r - r_closed(theta)| / r against the closed form through the
    trajectory's start (:meth:`OrbitShape.from_state`) unless a shape is supplied, so a
    constant phase error of the integrator shows in it.  The second is the pointwise
    residual of

        (Lz**2/2) * [(dr/dtheta)**2 / r**4 + 1/r**2] + V(r) - (E - lam*Lz**2/2),

    with dr/dtheta evaluated analytically along the dense output as
    (x.p) * r * (1 + lam*r**2) / Lz.
    """
    if shape is None:
        shape = OrbitShape.from_state(traj.state_at(0.0), params)

    r_cf = closed_form_radius(traj.theta, shape, params)
    dev_cf = float(np.max(np.abs(traj.r - r_cf) / traj.r))

    x1, x2, p1, p2 = traj.states.T
    s = x1 * p1 + x2 * p2
    lz = traj.Lz
    r = traj.r
    dr_dtheta = s * r * (1.0 + params.lam * r**2) / lz
    lhs = 0.5 * lz**2 * (dr_dtheta**2 / r**4 + 1.0 / r**2) + potential(r, params)
    rhs = traj.H - 0.5 * params.lam * lz**2
    dev_ode = float(np.max(np.abs(lhs - rhs)))
    return dev_cf, dev_ode


def state_at_theta(traj: Trajectory, theta_target: float) -> PhaseState:
    """Dense-output state where the unwrapped azimuth crosses theta_target."""
    sign = 1.0 if traj.theta[-1] >= traj.theta[0] else -1.0  # Lz < 0 runs clockwise
    th = sign * traj.theta
    target = sign * theta_target
    if not th[0] <= target <= th[-1]:
        raise DomainError(
            f"theta_target {theta_target:g} outside trajectory range "
            f"[{traj.theta[0]:g}, {traj.theta[-1]:g}]"
        )
    idx = int(np.searchsorted(th, target))
    if idx == 0:
        return traj.state_at(traj.t[0])
    t_star = _bracketed_root(lambda t: sign * traj.theta_at(t) - target,
                             traj.t[idx - 1], traj.t[idx])
    return traj.state_at(float(t_star))


def _kepler_elements(state: PhaseState, params: SystemParams) -> tuple:
    """(a, e, mean motion, start's mean anomaly M0, start's eccentric anomaly E0) of a flat
    (lam = 0) bound coulomb orbit, whose radial motion is Kepler's with L_eff**2 = Lz**2 - 2k."""
    e_tot = hamiltonian(state, params)
    l_eff2 = lz_value(state.x1, state.x2, state.p1, state.p2) ** 2 - 2.0 * params.k
    a, ecc = -0.5 / e_tot, math.sqrt(max(0.0, 1.0 + 2.0 * e_tot * l_eff2))
    s = state.x1 * state.p1 + state.x2 * state.p2  # has the sign of rdot, and of sin(E0)
    ecc0 = math.copysign(math.acos(max(-1.0, min(1.0, (1.0 - state.r / a) / ecc))), s)
    return a, ecc, a ** -1.5, ecc0 - ecc * math.sin(ecc0), ecc0


def coulomb_apsis_times(state: PhaseState, params: SystemParams, t_end: float) -> list:
    """Exact (t, kind) of each apsis in [0, t_end] of a flat (lam = 0) bound coulomb orbit.

    The radial motion is Kepler's with L_eff**2 = Lz**2 - 2k: semi-major axis
    a = -1/(2E), eccentricity e = sqrt(1 + 2E*L_eff**2), mean motion a**-1.5.
    Apsides fall at mean anomaly j*pi (perihelia at even j), counted from the
    start's mean anomaly M0.
    """
    _, _, motion, m0, _ = _kepler_elements(state, params)
    j = math.ceil(m0 / math.pi - 1e-12)
    times = []
    while (t := (j * math.pi - m0) / motion) <= t_end:
        times.append((max(t, 0.0), "perihelion" if j % 2 == 0 else "aphelion"))
        j += 1
    return times


def _true_anomaly(ecc_anomaly, ecc: float):
    """Unwrapped true anomaly f = E + 2*atan(beta*sin(E)/(1 - beta*cos(E))),
    beta = e/(1 + sqrt(1 - e**2)), continuous in the eccentric anomaly E."""
    beta = ecc / (1.0 + math.sqrt(1.0 - ecc * ecc))
    return ecc_anomaly + 2.0 * np.arctan(beta * np.sin(ecc_anomaly)
                                         / (1.0 - beta * np.cos(ecc_anomaly)))


def coulomb_polar_at(state: PhaseState, params: SystemParams, t) -> tuple:
    """Exact (r, unwrapped theta) at times ``t`` of a flat (lam = 0) bound coulomb orbit.

    Kepler's equation E - e*sin(E) = M0 + n*t, solved by Newton's method,
    gives r = a*(1 - e*cos(E)).  Since dtheta/dt = Lz/r**2 and the Kepler
    true anomaly f has df/dt = L_eff/r**2 with L_eff = alpha*|Lz|,
    theta = theta0 + sign(Lz)*(f - f0)/alpha.
    """
    a, ecc, motion, m0, ecc0 = _kepler_elements(state, params)
    mean = m0 + motion * np.asarray(t, dtype=float)
    ecc_anomaly = mean + ecc * np.sin(mean)
    for _ in range(50):
        step = (ecc_anomaly - ecc * np.sin(ecc_anomaly) - mean) / (1.0 - ecc * np.cos(ecc_anomaly))
        ecc_anomaly = ecc_anomaly - step
        if np.all(np.abs(step) <= 4e-16 * np.maximum(1.0, np.abs(mean))):
            break
    lz = lz_value(state.x1, state.x2, state.p1, state.p2)
    turn = (_true_anomaly(ecc_anomaly, ecc) - _true_anomaly(ecc0, ecc)) / orbit_alpha(params, lz)
    theta = math.atan2(state.x2, state.x1) + math.copysign(1.0, lz) * turn
    return a * (1.0 - ecc * np.cos(ecc_anomaly)), theta


def _oscillator_phase(state: PhaseState, params: SystemParams) -> tuple:
    """(E, B, phi) of r**2(t) = E + B*cos(2t + phi) for a flat (lam = 0) oscillator orbit:
    d(x.p)/dt = 2E - 2r**2 and d(r**2)/dt = 2*x.p."""
    e_tot = hamiltonian(state, params)
    s = state.x1 * state.p1 + state.x2 * state.p2
    return e_tot, math.hypot(s, state.r ** 2 - e_tot), math.atan2(-s, state.r ** 2 - e_tot)


def oscillator_apsis_times(state: PhaseState, params: SystemParams, t_end: float) -> list:
    """Exact (t, kind) of each apsis in [0, t_end] of a flat (lam = 0) oscillator orbit.

    d(x.p)/dt = 2E - 2r**2, so r**2(t) = E + B*cos(2t + phi) with
    phi = atan2(-x.p, r0**2 - E), and the apsides fall at 2t + phi = j*pi
    (aphelia at even j).
    """
    _, _, phi = _oscillator_phase(state, params)
    j = math.ceil(phi / math.pi - 1e-12)
    times = []
    while (t := (j * math.pi - phi) / 2.0) <= t_end:
        times.append((max(t, 0.0), "aphelion" if j % 2 == 0 else "perihelion"))
        j += 1
    return times


def oscillator_polar_at(state: PhaseState, params: SystemParams, t) -> tuple:
    """Exact (r, unwrapped theta) at times ``t`` of a flat (lam = 0) oscillator orbit, Lz != 0.

    r**2 = E + B*cos(2x) with x = t + phi/2, and dtheta/dt = Lz/r**2 integrates to
    theta = theta0 + (Lz/w)*(F(x) - F(x0)), w = sqrt(E**2 - B**2), where
    F(x) = atan(c*tan(x)) with c = sqrt((E - B)/(E + B)), unwrapped as
    x + atan((c - 1)*sin(x)*cos(x)/(cos(x)**2 + c*sin(x)**2)).
    """
    e_tot, b, phi = _oscillator_phase(state, params)
    c, w = math.sqrt((e_tot - b) / (e_tot + b)), math.sqrt((e_tot - b) * (e_tot + b))

    def unwrapped(x):
        sin, cos = np.sin(x), np.cos(x)
        return x + np.arctan((c - 1.0) * sin * cos / (cos * cos + c * sin * sin))

    x = np.asarray(t, dtype=float) + 0.5 * phi
    lz = lz_value(state.x1, state.x2, state.p1, state.p2)
    theta = math.atan2(state.x2, state.x1) + lz / w * (unwrapped(x) - unwrapped(0.5 * phi))
    return np.sqrt(e_tot + b * np.cos(2.0 * x)), theta


def sphere_apsis_times(state: PhaseState, params: SystemParams, t_end: float) -> list:
    """Exact (t, kind) of each apsis in [0, t_end] of a bound orbit at any lam >= 0, Lz != 0.

    The projected orbit is the flat closed form with Et, w*la2 = c0 + c1*cos(u) with
    w = 1/r**n, in the phase u, which grows with t from the start's u0
    (:meth:`OrbitShape.start_phase`): perihelia at even multiples of pi, aphelia at odd
    ones.  Since r**2*thetadot = Lz*(1 + lam*r**2), dt = r**2/(|Lz|*nu*(1 + lam*r**2)) du.
    Every half radial period takes the same time, so two quadratures give every apsis: one
    to the first, one over a half period.
    """
    shape = OrbitShape.from_state(state, params)
    c0, disc, nu, la2, n = shape.coefficients(params)
    lz, u0, c1 = abs(shape.lz), shape.start_phase(state, params), math.sqrt(disc)

    def dt_du(u):
        r2 = (la2 / (c0 + c1 * mpmath.cos(u))) ** (2 // n)
        return r2 / (lz * nu * (1 + params.lam * r2))

    j0 = math.ceil(u0 / math.pi - 1e-12)
    with mpmath.workdps(30):
        first = float(mpmath.quad(dt_du, [u0, j0 * mpmath.pi]))
        half = float(mpmath.quad(dt_du, [0, mpmath.pi]))
    times, j = [], j0
    while (t := first + (j - j0) * half) <= t_end:
        times.append((max(t, 0.0), "perihelion" if j % 2 == 0 else "aphelion"))
        j += 1
    return times
