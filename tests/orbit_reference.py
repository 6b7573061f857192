"""Closed-form screened orbits r(theta), the oracle the integrator is checked against.

Bound orbits obey closed forms controlled by alpha = sqrt(1 - 2k/Lz**2)
and the shifted energy Et = E - (lam/2)*Lz**2 (Wu & Zeng's flat-space
orbits, with curvature entering only through Et):

    coulomb:     1/r    = [1  + sqrt(1 + 2*Et*Lz**2*alpha**2)  * cos(alpha*(theta - theta0))]   / (Lz**2 * alpha**2)
    oscillator:  1/r**2 = [Et + sqrt(Et**2 - Lz**2*alpha**2)   * cos(2*alpha*(theta - theta0))] / (Lz**2 * alpha**2)

``orbit_residual`` compares an integrated ``Trajectory`` with them, with
theta0 read exactly from the start state (``OrbitShape.start_phase``), so
nothing is fitted, and ``state_at_theta`` finds the state where the
unwrapped azimuth reaches a given angle, for the closure checks.

``orbit_points`` states the bound orbit once, at any lam, by its phase u in
the closed form: r(u) from it, theta(u) = theta0 + sign(Lz)*u/nu, and t(u)
from the quadrature of dt = r**2/(|Lz|*nu*(1 + lam*r**2)) du from the start's
phase.  Its points at phases j*pi are the apsides, which every turning-time
check reads, and its points between them are what the sampled states are
checked against.  ``bound_orbit_start`` builds the starts of the property
tests.  Kepler's and the oscillator's apsis laws at lam = 0 are the
independent anchor of the quadrature.  No command runs these.
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
    nu = shape.coefficients(params)[2]
    return _radius_at_phase(nu * (np.asarray(theta, dtype=float) - shape.theta0), shape, params)


def _radius_at_phase(u, shape: OrbitShape, params: SystemParams):
    """r at phase ``u`` of the closed form w*la2 = c0 + c1*cos(u), w = 1/r**n
    (:meth:`OrbitShape.coefficients`); :class:`OrbitDomainError` where w <= 0."""
    c0, disc, _, la2, n = shape.coefficients(params)
    if disc < 0.0:
        raise OrbitDomainError(f"{params.kind.value} orbit discriminant negative: {disc:g}")
    w = (c0 + math.sqrt(disc) * np.cos(u)) / la2
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
    # bisect the samples' bracket (a after b on a backward span), over which sign*theta rises
    # through target, down to adjacent floats: apart from the root finder of the apsides
    a, b = float(traj.t[idx - 1]), float(traj.t[idx])
    while (mid := a + 0.5 * (b - a)) not in (a, b):
        a, b = (mid, b) if sign * traj.theta_at(mid) < target else (a, mid)
    return traj.state_at(b)


def bound_orbit_start(kind: SystemKind, lam: float, k: float, shape: float, ecc: float,
                      psi: float, phi: float) -> PhaseState:
    """Start on the bound orbit of eccentricity ``ecc`` (in 1/r for coulomb, 1/r**2 for the
    oscillator) at radial phase ``psi``, rotated by ``phi``; ``shape`` is Lz**2*alpha**2
    (coulomb) or Lz*alpha (oscillator).  The radial momentum comes from the shifted energy
    Et = E - lam*Lz**2/2 and has the sign of sin(psi)."""
    if kind is SystemKind.COULOMB:
        lz = math.sqrt(shape + 2.0 * k)
        et = (ecc * ecc - 1.0) / (2.0 * shape)
        r0 = shape / (1.0 + ecc * math.cos(psi))
        v = -1.0 / r0 - k / r0**2
    else:
        lz = math.sqrt(shape * shape + 2.0 * k)
        et = shape / math.sqrt(1.0 - ecc * ecc)
        r0 = shape / math.sqrt(et * (1.0 + ecc * math.cos(psi)))
        v = 0.5 * r0 * r0 - k / r0**2
    a2 = 2.0 * (et - lz * lz / (2.0 * r0 * r0) - v) / (1.0 + lam * r0 * r0) ** 2
    a = math.copysign(math.sqrt(max(a2, 0.0)), math.sin(psi))
    c, s = math.cos(phi), math.sin(phi)
    return PhaseState(r0 * c, r0 * s, a * c - lz / r0 * s, a * s + lz / r0 * c)


class OrbitPoint(namedtuple("OrbitPoint", "t u r theta")):
    """An exact point of a bound orbit: time, phase u, radius and unwrapped azimuth."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        """The apsis at u = j*pi: a perihelion for even j, an aphelion for odd j."""
        return "perihelion" if round(self.u / math.pi) % 2 == 0 else "aphelion"


def orbit_points(state: PhaseState, params: SystemParams, t_end: float,
                 offsets=(0.0,)) -> list:
    """Exact :class:`OrbitPoint` at every phase j*pi + delta, delta in ``offsets`` (each in
    [0, pi)), whose time lies in the span from 0 to ``t_end``, in increasing time: the bound
    orbit through ``state`` at any lam >= 0, Lz != 0.  The default offset gives the apsides.

    The projected orbit is the flat closed form with Et, w*la2 = c0 + c1*cos(u) with
    w = 1/r**n, in the phase u, which grows with t from the start's u0
    (:meth:`OrbitShape.start_phase`).  So r(u) is the closed form, theta(u) = theta0 +
    sign(Lz)*u/nu, and since r**2*thetadot = Lz*(1 + lam*r**2),
    dt = r**2/(|Lz|*nu*(1 + lam*r**2)) du gives t(u).  Every half radial period, from one
    apsis to the next, takes the same time, so two quadratures give every apsis: one to the
    first, one over a half period; and two more per offset give every point: delta past a
    perihelion and delta past an aphelion.  A negative ``t_end`` is the law of the reversed
    start (x, -p), negated.
    """
    if t_end < 0.0:
        back = PhaseState(state.x1, state.x2, -state.p1, -state.p2)
        return [p._replace(t=-p.t, u=-p.u)
                for p in reversed(orbit_points(back, params, -t_end, offsets))]
    shape = OrbitShape.from_state(state, params)
    c0, disc, nu, la2, n = shape.coefficients(params)
    lz, u0, c1 = abs(shape.lz), shape.start_phase(state, params), math.sqrt(disc)
    turn = math.copysign(1.0, shape.lz) / nu

    def dt_du(u):
        r2 = (la2 / (c0 + c1 * mpmath.cos(u))) ** (2 // n)
        return r2 / (lz * nu * (1 + params.lam * r2))

    j0 = math.ceil(u0 / math.pi - 1e-12)  # the first apsis; a start 1e-12*pi past one has it
    with mpmath.workdps(30):
        first = float(mpmath.quad(dt_du, [u0, j0 * mpmath.pi]))
        half = float(mpmath.quad(dt_du, [0, mpmath.pi]))
        lag = {(j, delta): float(mpmath.quad(dt_du, [j * mpmath.pi, j * mpmath.pi + delta]))
               for j in (0, 1) for delta in offsets}
    points, j = [], j0 - 1
    while (apsis := first + (j - j0) * half) <= t_end:
        for delta in offsets:
            u, t = j * math.pi + delta, apsis + lag[j % 2, delta]
            if u >= u0 - 1e-12 * math.pi and t <= t_end:
                points.append(OrbitPoint(max(t, 0.0), u, _radius_at_phase(u, shape, params),
                                         shape.theta0 + turn * u))
        j += 1
    return sorted(points)


def coulomb_apsis_times(state: PhaseState, params: SystemParams, t_end: float) -> list:
    """Exact (t, kind) of each apsis in [0, t_end] of a flat (lam = 0) bound coulomb orbit,
    the independent anchor of :func:`orbit_points`.

    The radial motion is Kepler's with L_eff**2 = Lz**2 - 2k: semi-major axis
    a = -1/(2E), eccentricity e = sqrt(1 + 2E*L_eff**2), mean motion a**-1.5.
    Apsides fall at mean anomaly j*pi (perihelia at even j), counted from the
    start's mean anomaly M0.
    """
    e_tot = hamiltonian(state, params)
    l_eff2 = lz_value(state.x1, state.x2, state.p1, state.p2) ** 2 - 2.0 * params.k
    a, ecc = -0.5 / e_tot, math.sqrt(max(0.0, 1.0 + 2.0 * e_tot * l_eff2))
    s = state.x1 * state.p1 + state.x2 * state.p2  # has the sign of rdot, and of sin(E0)
    ecc0 = math.copysign(math.acos(max(-1.0, min(1.0, (1.0 - state.r / a) / ecc))), s)
    m0, motion = ecc0 - ecc * math.sin(ecc0), a ** -1.5
    j = math.ceil(m0 / math.pi - 1e-12)
    times = []
    while (t := (j * math.pi - m0) / motion) <= t_end:
        times.append((max(t, 0.0), "perihelion" if j % 2 == 0 else "aphelion"))
        j += 1
    return times


def oscillator_apsis_times(state: PhaseState, params: SystemParams, t_end: float) -> list:
    """Exact (t, kind) of each apsis in [0, t_end] of a flat (lam = 0) oscillator orbit, the
    independent anchor of :func:`orbit_points`.

    d(x.p)/dt = 2E - 2r**2 and d(r**2)/dt = 2*x.p, so r**2(t) = E + B*cos(2t + phi) with
    phi = atan2(-x.p, r0**2 - E), and the apsides fall at 2t + phi = j*pi
    (aphelia at even j).
    """
    s = state.x1 * state.p1 + state.x2 * state.p2
    phi = math.atan2(-s, state.r ** 2 - hamiltonian(state, params))
    j = math.ceil(phi / math.pi - 1e-12)
    times = []
    while (t := (j * math.pi - phi) / 2.0) <= t_end:
        times.append((max(t, 0.0), "aphelion" if j % 2 == 0 else "perihelion"))
        j += 1
    return times
