"""Classical dynamics of screened central-force systems in gnomonic coordinates.

The Hamiltonian on a sphere of curvature lam, written in the gnomonic
chart with canonical coordinates (x1, x2, p1, p2), is

    H = pi**2/2 + (lam/2)*Lz**2 + V(r)
      = (1 + lam*r**2) * (p**2 + lam*(x.p)**2) / 2 + V(r),

where pi_i = p_i + lam*x_i*(x.p) is the curvature-corrected momentum and
Lz = x1*p2 - x2*p1.  The two screened potentials are

    coulomb:     V(r) = -1/r    - k/r**2
    oscillator:  V(r) = r**2/2  - k/r**2

Bound orbits obey closed forms controlled by alpha = sqrt(1 - 2k/Lz**2)
and the shifted energy Et = E - (lam/2)*Lz**2:

    coulomb:     1/r    = [1  + sqrt(1 + 2*Et*Lz**2*alpha**2)  * cos(alpha*(theta - theta0))]   / (Lz**2 * alpha**2)
    oscillator:  1/r**2 = [Et + sqrt(Et**2 - Lz**2*alpha**2)   * cos(2*alpha*(theta - theta0))] / (Lz**2 * alpha**2)

Curvature enters the projected orbit only through Et, so a spherical
trajectory traces the same (r, theta) curve as the flat trajectory with
energy Et.  For rational alpha = p/q the orbit closes; the radial period
in theta is 2*pi/alpha (coulomb) or pi/alpha (oscillator, doubled angle).

scipy is imported on first use, inside the functions that call it
(``integrate``, ``fit_theta0``, ``state_at_theta``),
so importing this module, or running the closure analysis, loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    AccuracyError,
    CurvatureError,
    DomainError,
    ImaginaryAlphaError,
    NoTurningPointError,
    OrbitDomainError,
    RadiusError,
    SingularOrbitError,
    StiffnessError,
)

TWO_PI = 2.0 * math.pi

R_MIN_GUARD = 1e-8          # terminate near-collision orbits
MAX_SAMPLES = 10**6         # cap on recorded trajectory samples, checked before allocating
RATIONAL_TOL = 1e-9         # |alpha - p/q| below this counts as rational
MAX_DENOMINATOR = 64        # continued-fraction denominator cap
TURNING_RDOT_TOL = 1e-10    # refined |rdot| bound at a turning point


class SystemKind(str, Enum):
    COULOMB = "coulomb"
    OSCILLATOR = "oscillator"


def check_lam_k(lam: float, k: float = 0.0) -> None:
    """Reject a curvature or a screening strength that is non-finite or negative."""
    if not math.isfinite(lam) or lam < 0.0:
        raise CurvatureError(f"curvature must be finite and >= 0, got {lam}")
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"screening strength must be finite and >= 0, got {k}")


@dataclass(frozen=True)
class SystemParams:
    """System selector: potential kind, curvature lam >= 0, screening k >= 0."""

    kind: SystemKind
    lam: float = 0.0
    k: float = 0.0

    def __post_init__(self) -> None:
        check_lam_k(self.lam, self.k)


@dataclass(frozen=True)
class PhaseState:
    """Gnomonic phase-space point (x1, x2, p1, p2)."""

    x1: float
    x2: float
    p1: float
    p2: float

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.p1, self.p2])

    @classmethod
    def from_array(cls, y) -> "PhaseState":
        return cls(float(y[0]), float(y[1]), float(y[2]), float(y[3]))


class TurningKind(str, Enum):
    APHELION = "aphelion"
    PERIHELION = "perihelion"


@dataclass(frozen=True)
class TurningPoint:
    """Point with rdot = 0: local maximum (aphelion) or minimum (perihelion) of r."""

    t: float
    state: PhaseState
    kind: TurningKind
    r: float
    theta: float


# --- potentials and Hamiltonian -----------------------------------------

def potential(r, params: SystemParams):
    """V(r) for the given system; r must be positive (singular at r = 0)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise RadiusError("potential requires r > 0")
    if params.kind is SystemKind.COULOMB:
        v = -1.0 / r - params.k / r**2
    else:
        v = 0.5 * r**2 - params.k / r**2
    return float(v) if v.ndim == 0 else v


def pi_components(x1, x2, p1, p2, lam: float):
    """Curvature-corrected momentum components (pi_1, pi_2) on floats or arrays."""
    s = x1 * p1 + x2 * p2
    return p1 + lam * s * x1, p2 + lam * s * x2


def pi_vector(state: PhaseState, lam: float) -> tuple[float, float]:
    """Curvature-corrected momentum pi_i = p_i + lam*x_i*(x.p).

    Reduces to the canonical momentum at the origin or in the flat limit.
    """
    return pi_components(state.x1, state.x2, state.p1, state.p2, lam)


# Phase-space kernels: functions of (x1, x2, p1, p2, params) that work the
# same on floats and on equal-shape arrays; gradients are 4-tuples
# (d/dx1, d/dx2, d/dp1, d/dp2).

def kernel_sqrt(v):
    """sqrt that keeps a Python float a float, whose arithmetic is cheaper than numpy's."""
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def lz_value(x1, x2, p1, p2, params: Optional[SystemParams] = None):
    """Lz = x1*p2 - x2*p1."""
    return x1 * p2 - x2 * p1


def lz_gradient(x1, x2, p1, p2, params: Optional[SystemParams] = None):
    """Phase-space gradient of Lz."""
    return p2, -p1, -x2, x1


def h_value(x1, x2, p1, p2, params: SystemParams):
    """H = (1 + lam*r**2) * (p**2 + lam*(x.p)**2) / 2 + V(r)."""
    r2 = x1 * x1 + x2 * x2
    s = x1 * p1 + x2 * p2
    psq = p1 * p1 + p2 * p2
    return 0.5 * (1.0 + params.lam * r2) * (psq + params.lam * s * s) + potential(
        np.sqrt(r2), params
    )


def h_gradient(x1, x2, p1, p2, params: SystemParams):
    """Phase-space gradient of H; Hamilton's equations are J times it."""
    lam = params.lam
    r2 = x1 * x1 + x2 * x2
    r = kernel_sqrt(r2)
    s = x1 * p1 + x2 * p2
    a = 1.0 + lam * r2
    psq = p1 * p1 + p2 * p2
    dvdr = (1.0 / r2 if params.kind is SystemKind.COULOMB else r) + 2.0 * params.k / (r2 * r)
    # dH/dx_i = lam*x_i*(p**2 + lam*s**2) + a*lam*s*p_i + V'(r)*x_i/r
    common = lam * (psq + lam * s * s)
    radial = dvdr / r
    pi1, pi2 = pi_components(x1, x2, p1, p2, lam)
    return (
        x1 * common + a * lam * s * p1 + radial * x1,
        x2 * common + a * lam * s * p2 + radial * x2,
        a * pi1,
        a * pi2,
    )


def hamiltonian(state: PhaseState, params: SystemParams) -> float:
    """Total energy H = pi**2/2 + (lam/2)*Lz**2 + V(r)."""
    if state.r <= 0.0:
        raise RadiusError("hamiltonian requires r > 0")
    return float(h_value(state.x1, state.x2, state.p1, state.p2, params))


def equations_of_motion(
    state: PhaseState, params: SystemParams
) -> tuple[float, float, float, float]:
    """Hamilton's equations (x1dot, x2dot, p1dot, p2dot) from analytic gradients."""
    if state.r <= 0.0:
        raise RadiusError("equations of motion require r > 0")
    return tuple(_rhs(0.0, state.as_array(), params).tolist())


def _rhs(t, y, params: SystemParams):
    # Python floats take the kernel's scalar path, cheaper than numpy scalars
    hx1, hx2, hp1, hp2 = h_gradient(*y.tolist(), params)
    return np.array([hp1, hp2, -hx1, -hx2])


# --- trajectories --------------------------------------------------------

@dataclass
class Trajectory:
    """Time-ordered samples of an integrated orbit plus derived scalars.

    theta is unwrapped (cumulative) so closure angles beyond 2*pi stay
    measurable; normalize at presentation boundaries only.  Its branch is
    the azimuth unwrapped over the solver's accepted steps, so sparse
    samples cannot alias it.  The dense interpolant and the turning points
    found during the solve are kept with the samples.
    """

    t: np.ndarray
    states: np.ndarray            # (n, 4) rows (x1, x2, p1, p2)
    r: np.ndarray
    theta: np.ndarray             # unwrapped
    H: np.ndarray
    Lz: np.ndarray
    params: SystemParams
    rel_tol: float
    dense: Callable[[float], np.ndarray]
    step_t: np.ndarray            # accepted solver steps, ascending
    step_theta: np.ndarray        # unwrapped azimuth at those steps
    turning_points: list[TurningPoint] = field(default_factory=list)
    circular: bool = False

    def state_at(self, t: float) -> PhaseState:
        return PhaseState.from_array(self.dense(t))

    def theta_at(self, t: float) -> float:
        """Unwrapped theta at an arbitrary time, on the branch of the solver's steps."""
        y = self.dense(t)
        return float(_on_branch(math.atan2(y[1], y[0]), t, self.step_t, self.step_theta))

    def rdot(self, t) -> np.ndarray:
        """Radial velocity rdot = (x.p) * (1 + lam*r**2)**2 / r along the orbit."""
        y = self.dense(np.asarray(t, dtype=float))
        x1, x2, p1, p2 = y
        r2 = x1 * x1 + x2 * x2
        s = x1 * p1 + x2 * p2
        return s * (1.0 + self.params.lam * r2) ** 2 / np.sqrt(r2)

    def to_csv(self) -> str:
        """CSV export, header ``t,x1,x2,p1,p2,r,theta,H,Lz``, 17 significant digits."""
        table = np.column_stack((self.t, self.states, self.r, self.theta, self.H, self.Lz))
        row = ",".join(["{:.17g}"] * table.shape[1]) + "\n"
        return "t,x1,x2,p1,p2,r,theta,H,Lz\n" + "".join(row.format(*v) for v in table.tolist())


def _on_branch(raw, t, step_t: np.ndarray, step_theta: np.ndarray):
    """atan2 angles ``raw`` at times ``t``, moved by whole turns onto the step branch."""
    return raw + TWO_PI * np.round((np.interp(t, step_t, step_theta) - raw) / TWO_PI)


def turning_points_json(points: list[TurningPoint]) -> list[dict]:
    """JSON-ready rows ``{t, r, theta, kind}`` for detected turning points."""
    return [
        {"t": p.t, "r": p.r, "theta": p.theta, "kind": p.kind.value} for p in points
    ]


def integrate(
    state0: PhaseState,
    params: SystemParams,
    t_end: float,
    rel_tol: float = 1e-10,
    n_samples: int = 2001,
    r_min_guard: float = R_MIN_GUARD,
) -> Trajectory:
    """Integrate Hamilton's equations with an adaptive Dormand-Prince scheme.

    Uses DOP853 with dense output.  The same solve finds the turning points
    (see :func:`find_turning_points`), and theta is unwrapped over its
    accepted steps, so it does not depend on ``n_samples``.  Raises
    :class:`~screened_sphere.errors.SingularOrbitError` if the orbit falls
    below ``r_min_guard`` (both potentials are singular at r = 0) and
    :class:`~screened_sphere.errors.AccuracyError` if energy or angular
    momentum drift beyond 10x the requested tolerance, or if a turning
    point is left with |rdot| above ``TURNING_RDOT_TOL``.  More than
    ``MAX_SAMPLES`` samples is a domain error, raised before any allocation.
    """
    from scipy.integrate import solve_ivp

    if state0.r <= 0.0:
        raise RadiusError("initial state must have r > 0")
    if not math.isfinite(t_end) or t_end == 0.0:
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    if not 1e-13 <= rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-6], got {rel_tol}")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"n_samples must be at most {MAX_SAMPLES}, got {n_samples}")

    def hit_guard(t, y, _params):
        return math.hypot(y[0], y[1]) - r_min_guard

    hit_guard.terminal = True
    hit_guard.direction = -1

    def radial_turn(t, y, _params):
        return y[0] * y[2] + y[1] * y[3]  # x.p, same zeros as rdot

    # Local truncation errors accumulate to a few tens of the solver
    # tolerance over long spans; integrating two decades tighter keeps the
    # 10x drift contract on the returned trajectory with margin.
    rtol_eff = max(rel_tol * 1e-2, 2.5e-14)
    sol = solve_ivp(
        _rhs,
        (0.0, t_end),
        state0.as_array(),
        method="DOP853",
        rtol=rtol_eff,
        atol=rtol_eff * 1e-2,
        dense_output=True,
        events=(hit_guard, radial_turn),
        args=(params,),
    )
    if sol.status == 1:
        raise SingularOrbitError(
            f"orbit collapsed to r <= {r_min_guard:g} at t = {sol.t_events[0][0]:.6g}"
        )
    if not sol.success:
        # step-size underflow at vanishing radius is the collapse itself:
        # the time to the singularity drops below float spacing before the
        # radius event can fire
        r_final = math.hypot(sol.y[0, -1], sol.y[1, -1])
        if r_final <= max(1e-5, 1e3 * r_min_guard):
            raise SingularOrbitError(
                f"orbit collapsed to r = {r_final:.3g} at t = {sol.t[-1]:.6g}"
            )
        raise StiffnessError(f"integrator failed: {sol.message}")

    # The accepted steps in increasing time.  theta is unwrapped in
    # integration order, so theta(0) is atan2 of the initial state.
    order = slice(None, None, 1 if t_end > 0.0 else -1)
    step_t, step_y = sol.t[order], sol.y[:, order]
    step_theta = np.unwrap(np.arctan2(sol.y[1], sol.y[0]))[order]

    t = np.linspace(0.0, t_end, n_samples)
    y = sol.sol(t)
    x1, x2, p1, p2 = y
    r = np.hypot(x1, x2)
    theta = _on_branch(np.arctan2(x2, x1), t, step_t, step_theta)
    h = h_value(x1, x2, p1, p2, params)
    lz = lz_value(x1, x2, p1, p2)

    bound = 10.0 * rel_tol
    h_drift = float(np.max(np.abs(h - h[0]))) / max(1.0, abs(float(h[0])))
    lz_drift = float(np.max(np.abs(lz - lz[0])))
    if h_drift > bound or lz_drift > bound:
        raise AccuracyError(
            f"conservation drift exceeds 10x tolerance: "
            f"dH = {h_drift:.3e}, dLz = {lz_drift:.3e}, bound = {bound:.3e}"
        )

    traj = Trajectory(
        t=t,
        states=y.T.copy(),
        r=r,
        theta=theta,
        H=h,
        Lz=lz,
        params=params,
        rel_tol=rel_tol,
        dense=sol.sol,
        step_t=step_t,
        step_theta=step_theta,
    )
    traj.turning_points, traj.circular = _turning_points(traj, step_y, sol.t_events[1][order])
    return traj


# --- turning points -------------------------------------------------------

def _turning_points(traj: Trajectory, step_y: np.ndarray, roots: np.ndarray):
    """(points, circular) from the solver's ascending x.p roots and its steps."""
    s = step_y[0] * step_y[2] + step_y[1] * step_y[3]
    speed = float(np.max(np.hypot(step_y[2], step_y[3])))
    if float(np.max(np.abs(s))) <= 1e-8 * max(1.0, speed * float(np.max(traj.r))):
        return [], True
    # x.p on the steps either side of each root, in increasing time: rising
    # through zero is a minimum of r, a perihelion
    i = np.clip(np.searchsorted(traj.step_t, roots, side="right"), 1, len(s) - 1)
    points = []
    for t_star, rising in zip(roots.tolist(), (s[i] > s[i - 1]).tolist()):
        rdot = float(traj.rdot(t_star))
        if abs(rdot) > TURNING_RDOT_TOL:
            raise AccuracyError(f"turning-point refinement left |rdot| = {rdot:.3e}")
        st = traj.state_at(t_star)
        kind = TurningKind.PERIHELION if rising else TurningKind.APHELION
        points.append(TurningPoint(t=t_star, state=st, kind=kind, r=st.r,
                                   theta=traj.theta_at(t_star)))
    return points, False


def find_turning_points(traj: Trajectory) -> list[TurningPoint]:
    """The rdot = 0 points of the trajectory, in increasing time.

    :func:`integrate` finds them as roots of x.p on the solver's own steps,
    to |rdot| < ``TURNING_RDOT_TOL``.  A perihelion is where x.p rises
    through zero in increasing time, an aphelion where it falls.  A
    trajectory whose x.p stays at rounding level sets ``circular`` instead.
    """
    return traj.turning_points


# --- closed-form orbits ---------------------------------------------------

@dataclass(frozen=True)
class OrbitShape:
    """Constants of a closed-form orbit: energy, Lz, alpha, phase offset."""

    E: float
    lz: float
    alpha: float
    theta0: float = 0.0

    @classmethod
    def from_state(
        cls, state: PhaseState, params: SystemParams, theta0: float = 0.0
    ) -> "OrbitShape":
        lz = lz_value(state.x1, state.x2, state.p1, state.p2)
        return cls(
            E=hamiltonian(state, params),
            lz=float(lz),
            alpha=orbit_alpha(params, float(lz)),
            theta0=theta0,
        )

    def shifted_energy(self, params: SystemParams) -> float:
        """Et = E - (lam/2)*Lz**2, the only combination curvature enters."""
        return self.E - 0.5 * params.lam * self.lz**2


def orbit_alpha(params: SystemParams, lz: float) -> float:
    """Frequency ratio alpha = sqrt(1 - 2k/Lz**2); requires 2k < Lz**2."""
    lz2 = lz * lz
    if 2.0 * params.k >= lz2:
        raise ImaginaryAlphaError(
            f"2k = {2 * params.k:g} >= Lz**2 = {lz2:g}: alpha is imaginary"
        )
    return math.sqrt(1.0 - 2.0 * params.k / lz2)


def closed_form_radius(theta, shape: OrbitShape, params: SystemParams):
    """r(theta) from the closed-form orbit equation for the given system.

    Raises :class:`~screened_sphere.errors.OrbitDomainError` where the
    bracket is nonpositive (angles outside the bound range).
    """
    theta = np.asarray(theta, dtype=float)
    et = shape.shifted_energy(params)
    la2 = shape.lz**2 * shape.alpha**2
    if params.kind is SystemKind.COULOMB:
        disc = 1.0 + 2.0 * et * la2
        if disc < 0.0:
            raise OrbitDomainError(f"coulomb orbit discriminant negative: {disc:g}")
        u = (1.0 + math.sqrt(disc) * np.cos(shape.alpha * (theta - shape.theta0))) / la2
        if np.any(u <= 0.0):
            raise OrbitDomainError("1/r nonpositive: angle outside the bound range")
        r = 1.0 / u
    else:
        disc = et * et - la2
        if disc < 0.0:
            raise OrbitDomainError(f"oscillator orbit discriminant negative: {disc:g}")
        w = (et + math.sqrt(disc) * np.cos(2.0 * shape.alpha * (theta - shape.theta0))) / la2
        if np.any(w <= 0.0):
            raise OrbitDomainError("1/r**2 nonpositive: angle outside the bound range")
        r = 1.0 / np.sqrt(w)
    return float(r) if r.ndim == 0 else r


def radial_theta_period(params: SystemParams, alpha: float) -> float:
    """Period of the radial oscillation in theta: 2*pi/alpha, halved for the oscillator."""
    return (TWO_PI if params.kind is SystemKind.COULOMB else math.pi) / alpha


def fit_theta0(traj: Trajectory, params: SystemParams) -> float:
    """Phase offset theta0 aligning the closed form with the trajectory.

    Anchors a closed-form perihelion on the first detected perihelion,
    then refines by least squares over one radial period.  A circular
    orbit accepts any phase; returns 0 by convention.
    """
    from scipy.optimize import least_squares

    points = find_turning_points(traj)
    if traj.circular:
        return 0.0
    if not points:
        raise NoTurningPointError("trajectory has no detected turning point")

    perihelia = [p for p in points if p.kind is TurningKind.PERIHELION]
    anchor = perihelia[0] if perihelia else points[0]
    shape0 = OrbitShape.from_state(traj.state_at(0.0), params)
    period = radial_theta_period(params, shape0.alpha)
    theta_p = anchor.theta
    if anchor.kind is TurningKind.APHELION:
        # aphelion sits half a radial period from the nearest perihelion
        theta_p -= 0.5 * period

    window = (traj.theta >= theta_p - 0.5 * period) & (
        traj.theta <= theta_p + 0.5 * period
    )
    if int(np.count_nonzero(window)) < 10:
        window = np.ones_like(traj.theta, dtype=bool)
    th = traj.theta[window]
    rr = traj.r[window]

    def resid(v):
        shape = OrbitShape(shape0.E, shape0.lz, shape0.alpha, theta0=float(v[0]))
        return closed_form_radius(th, shape, params) - rr

    fit = least_squares(resid, x0=[theta_p], method="lm")
    return float(fit.x[0])


def orbit_residual(
    traj: Trajectory,
    params: SystemParams,
    shape: Optional[OrbitShape] = None,
) -> tuple[float, float]:
    """(max closed-form deviation, max orbit-relation residual) over samples.

    The first is max |r - r_closed(theta)| / r with theta0 fitted unless a
    shape is supplied.  The second is the pointwise residual of

        (Lz**2/2) * [(dr/dtheta)**2 / r**4 + 1/r**2] + V(r) - (E - lam*Lz**2/2),

    with dr/dtheta evaluated analytically along the dense output as
    (x.p) * r * (1 + lam*r**2) / Lz.
    """
    if shape is None:
        theta0 = fit_theta0(traj, params)
        shape = OrbitShape.from_state(traj.state_at(0.0), params, theta0=theta0)

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


# --- closure --------------------------------------------------------------

@dataclass(frozen=True)
class ClosureResult:
    """Rational-alpha closure analysis for given system and angular momentum."""

    alpha: float
    closed: bool
    p: Optional[int] = None
    q: Optional[int] = None
    closure_angle: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "closed": self.closed,
            "p": self.p,
            "q": self.q,
            "closure_angle": self.closure_angle,
        }


def closure_analysis(params: SystemParams, lz: float) -> ClosureResult:
    """Detect rational alpha = p/q (q <= 64) and the phase-closure angle.

    The orbit returns to its initial phase point once the unwrapped
    azimuth advances by a common multiple of 2*pi and the radial period
    in theta.  For alpha = p/q in lowest terms that is 2*pi*q for the
    coulomb system; the oscillator's doubled angle halves it to pi*q
    when q is even.
    """
    alpha = orbit_alpha(params, lz)
    frac = Fraction(alpha).limit_denominator(MAX_DENOMINATOR)
    if abs(alpha - float(frac)) > RATIONAL_TOL:
        return ClosureResult(alpha=alpha, closed=False)
    p, q = frac.numerator, frac.denominator
    if params.kind is SystemKind.COULOMB:
        angle = TWO_PI * q
    else:
        angle = math.pi * q if q % 2 == 0 else TWO_PI * q
    return ClosureResult(alpha=alpha, closed=True, p=p, q=q, closure_angle=angle)


def state_at_theta(traj: Trajectory, theta_target: float) -> PhaseState:
    """Dense-output state where the unwrapped azimuth crosses theta_target."""
    from scipy.optimize import brentq

    sign = 1.0 if traj.theta[-1] >= traj.theta[0] else -1.0  # Lz < 0 runs clockwise
    th = sign * traj.theta
    target = sign * theta_target
    if not th[0] <= target <= th[-1]:
        raise ValueError(
            f"theta_target {theta_target:g} outside trajectory range "
            f"[{traj.theta[0]:g}, {traj.theta[-1]:g}]"
        )
    idx = int(np.searchsorted(th, target))
    if idx == 0:
        return traj.state_at(traj.t[0])
    t_star = brentq(
        lambda t: sign * traj.theta_at(t) - target,
        traj.t[idx - 1],
        traj.t[idx],
        xtol=1e-13,
        rtol=8.9e-16,
    )
    return traj.state_at(float(t_star))
