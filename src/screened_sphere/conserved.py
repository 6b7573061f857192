"""Extended conserved quantities and the Poisson-bracket engine.

For the screened coulomb system the extended Runge-Lenz components (with
pi the curvature-corrected momentum) are

    R'x =  pi_y*Lz - (1 + 2k/r) * x/r
    R'y = -pi_x*Lz - (1 + 2k/r) * y/r

and for the screened oscillator the Fradkin-type quantities are

    Q'xy = (1 + 2k/r**4)*x*y + pi_x*pi_y
    Q'1  = [(1 + 2k/r**4)*(x**2 - y**2) + pi_x**2 - pi_y**2] / 2.

For k > 0 these are conserved only where rdot = 0 (aphelia/perihelia);
together with Lz they close into a polynomial deformation of SO(3)/SU(2)
(a Higgs algebra) whose classical bracket identities are

    {R'x, Lz} = -R'y          {Q'xy, Lz} =  2*Q'1
    {R'y, Lz} =  R'x          {Q'1,  Lz} = -2*Q'xy
    {R'x, R'y} = (-2H + 2*lam*Lz**2 - 2*k*lam) * Lz
    {Q'xy, Q'1} = -(2 + lam*(2H - lam*Lz**2)) * Lz

The quadratic identities drop the quantum operator-ordering constant
(+lam/4 in the coulomb commutator); the finite-difference bracket mode
exists to pin those constants independently of the analytic gradients.

Brackets {f, g} = sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i) are
pointwise in the gradients, so they batch.  An ``Observable`` is its two
kernels: ``value`` and ``gradient`` are functions of
``(x1, x2, p1, p2, params)`` that work the same on floats and on
equal-shape arrays, the gradient a 4-tuple.  ``poisson_bracket`` and
``finite_difference_gradient`` call them on one state's four floats; the
algebra checks and turning-point conservation call the same kernels once
on a ``(4, n)`` batch.  The kernels of R' and Q' reject the other
system's params, so every entry point refuses a wrong system alike.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import dynamics  # registered lazily: runs only when a trajectory is analysed
from .closed_forms import SystemKind, SystemParams
from .errors import AccuracyError, DomainError, ImaginaryAlphaError, NoTurningPointError
from .phase_space import (MAX_SAMPLES, PhaseState, check_radius, h_gradient, h_value, kernel_sqrt,
                          lz_gradient, lz_value, pi_components)

_FD_STEP = 6.0e-6  # ~cbrt(eps): optimal central-difference step on unit scales

class Observable(namedtuple("Observable", "name value gradient")):
    """Named phase-space function: value and gradient kernels of (x1, x2, p1, p2, params)."""

    __slots__ = ()


class BracketReport(namedtuple("BracketReport",
                               "identity n_samples max_abs_residual mean_abs_residual")):
    """Residual summary of one bracket identity over sampled states."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


# --- value kernels and scalar evaluators -----------------------------------

def _require(params: SystemParams, kind: SystemKind, name: str) -> None:
    if params.kind is not kind:
        raise DomainError(f"{name} is defined for the {kind.value} system")


def _runge_lenz_pair(x, y, px, py, params: SystemParams):
    _require(params, SystemKind.COULOMB, "R'")
    r = kernel_sqrt(x * x + y * y)
    lz = lz_value(x, y, px, py)
    pix, piy = pi_components(x, y, px, py, params.lam)
    screen = 1.0 + 2.0 * params.k / r
    return piy * lz - screen * x / r, -pix * lz - screen * y / r


def _fradkin_pair(x, y, px, py, params: SystemParams):
    _require(params, SystemKind.OSCILLATOR, "Q'")
    r2 = x * x + y * y
    pix, piy = pi_components(x, y, px, py, params.lam)
    screen = 1.0 + 2.0 * params.k / (r2 * r2)
    qxy = screen * x * y + pix * piy
    q1 = 0.5 * (screen * (x * x - y * y) + pix * pix - piy * piy)
    return qxy, q1


def _checked_pair(kernel, name: str, state: PhaseState, params: SystemParams):
    check_radius(state.x1, state.x2, name)
    a, b = kernel(state.x1, state.x2, state.p1, state.p2, params)
    return float(a), float(b)


def runge_lenz(state: PhaseState, params: SystemParams) -> tuple[float, float]:
    """Extended Runge-Lenz components (R'x, R'y) for the coulomb system."""
    return _checked_pair(_runge_lenz_pair, "runge_lenz", state, params)


def fradkin_quantities(state: PhaseState, params: SystemParams) -> tuple[float, float]:
    """Fradkin-type quantities (Q'xy, Q'1) for the oscillator system."""
    return _checked_pair(_fradkin_pair, "fradkin_quantities", state, params)


# --- gradient kernels -------------------------------------------------------

def _pi_gradients(x, y, px, py, lam: float):
    s = x * px + y * py
    return (
        (lam * (px * x + s), lam * py * x, 1.0 + lam * x * x, lam * x * y),
        (lam * px * y, lam * (py * y + s), lam * x * y, 1.0 + lam * y * y),
    )


def _runge_lenz_gradients(x, y, px, py, params: SystemParams):
    _require(params, SystemKind.COULOMB, "R'")
    r2 = x * x + y * y
    r = kernel_sqrt(r2)
    lz = lz_value(x, y, px, py)
    pix, piy = pi_components(x, y, px, py, params.lam)
    (ax, ay, apx, apy), (bx, by, bpx, bpy) = _pi_gradients(x, y, px, py, params.lam)
    # R' = (piy*Lz, -pix*Lz) - f(r)*(x, y) with f = 1/r + 2k/r**2, df = f'(r)/r
    f, df = 1.0 / r + 2.0 * params.k / r2, -1.0 / (r2 * r) - 4.0 * params.k / (r2 * r2)
    return (
        (lz * bx + piy * py - f - df * x * x, lz * by - piy * px - df * x * y,
         lz * bpx - piy * y, lz * bpy + piy * x),
        (-lz * ax - pix * py - df * x * y, -lz * ay + pix * px - f - df * y * y,
         -lz * apx + pix * y, -lz * apy - pix * x),
    )


def _fradkin_gradients(x, y, px, py, params: SystemParams):
    _require(params, SystemKind.OSCILLATOR, "Q'")
    r2 = x * x + y * y
    r4 = r2 * r2
    pix, piy = pi_components(x, y, px, py, params.lam)
    (ax, ay, apx, apy), (bx, by, bpx, bpy) = _pi_gradients(x, y, px, py, params.lam)
    # screen = 1 + 2k/r**4 multiplies x*y and (x**2 - y**2)/2; ds = screen'(r)/r
    screen, ds = 1.0 + 2.0 * params.k / r4, -8.0 * params.k / (r4 * r2)
    xy, half_diff = x * y, 0.5 * (x * x - y * y)
    return (
        (screen * y + ds * xy * x + piy * ax + pix * bx,
         screen * x + ds * xy * y + piy * ay + pix * by,
         piy * apx + pix * bpx, piy * apy + pix * bpy),
        (screen * x + ds * half_diff * x + pix * ax - piy * bx,
         -screen * y + ds * half_diff * y + pix * ay - piy * by,
         pix * apx - piy * bpx, pix * apy - piy * bpy),
    )


# Each system's Higgs algebra: its extended pair (A, B), their value and gradient kernels
# (run once per batch), the structure constants of {A, Lz} = shift*B, {B, Lz} = -shift*A
# and {A, B} = quadratic(H, Lz, params), and the names of those three identities.
_Algebra = namedtuple("_Algebra", "names values gradients shift quadratic identities")
_ALGEBRAS = {
    SystemKind.COULOMB: _Algebra(
        ("R'x", "R'y"), _runge_lenz_pair, _runge_lenz_gradients, -1.0,
        lambda h, lz, p: (-2.0 * h + 2.0 * p.lam * lz**2 - 2.0 * p.k * p.lam) * lz,
        ("{R'x,Lz}+R'y", "{R'y,Lz}-R'x", "{R'x,R'y}-(-2H+2*lam*Lz^2-2*k*lam)*Lz")),
    SystemKind.OSCILLATOR: _Algebra(
        ("Q'xy", "Q'1"), _fradkin_pair, _fradkin_gradients, 2.0,
        lambda h, lz, p: -(2.0 + p.lam * (2.0 * h - p.lam * lz**2)) * lz,
        ("{Q'xy,Lz}-2Q'1", "{Q'1,Lz}+2Q'xy", "{Q'xy,Q'1}+(2+lam*(2H-lam*Lz^2))*Lz")),
}


def _pair_observables(kind: SystemKind):
    """The two members of a system's extended pair as observables."""
    algebra = _ALGEBRAS[kind]
    return tuple(
        Observable(name, lambda *z, i=i: algebra.values(*z)[i],
                   lambda *z, i=i: algebra.gradients(*z)[i])
        for i, name in enumerate(algebra.names)
    )


LZ = Observable("Lz", lz_value, lz_gradient)
HAMILTONIAN = Observable("H", h_value, h_gradient)
RUNGE_LENZ_X, RUNGE_LENZ_Y = _pair_observables(SystemKind.COULOMB)
FRADKIN_XY, FRADKIN_1 = _pair_observables(SystemKind.OSCILLATOR)


# --- bracket engine ---------------------------------------------------------

def _central_difference(func, z: np.ndarray) -> np.ndarray:
    """Central differences of ``func`` along each of the 4 rows of a (4,) or (4, n) state."""
    h = _FD_STEP * np.maximum(1.0, np.abs(z))
    grad = []
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        grad.append((func(zp) - func(zm)) / (2.0 * h[i]))
    return np.array(grad)


def finite_difference_gradient(func, state: PhaseState, params: SystemParams) -> np.ndarray:
    """Central-difference gradient (d/dx1, d/dx2, d/dp1, d/dp2) of a value kernel at a state,
    the oracle for analytic ones."""
    def value(z: np.ndarray) -> float:
        x1, x2, p1, p2 = z.tolist()
        check_radius(x1, x2, "finite_difference_gradient")  # a stencil point can land on r = 0
        return func(x1, x2, p1, p2, params)

    return _central_difference(value, state.as_array())


def _bracket(gf, gg):
    """{f, g} from the gradients of f and g, on floats or arrays."""
    return gf[0] * gg[2] + gf[1] * gg[3] - gf[2] * gg[0] - gf[3] * gg[1]


def poisson_bracket(
    f: Observable,
    g: Observable,
    state: PhaseState,
    params: SystemParams,
    method: str = "analytic",
) -> float:
    """{f, g} at a state, from analytic or finite-difference gradients."""
    check_radius(state.x1, state.x2, "poisson_bracket")
    if method == "analytic":
        z = (state.x1, state.x2, state.p1, state.p2)
        gf = f.gradient(*z, params)
        gg = g.gradient(*z, params)
    elif method == "fd":
        gf = finite_difference_gradient(f.value, state, params)
        gg = finite_difference_gradient(g.value, state, params)
    else:
        raise DomainError(f"unknown bracket method {method!r}")
    return float(_bracket(gf, gg))


# --- sampling ---------------------------------------------------------------

_R_MIN, _R_MAX, _P_MAX = 0.3, 3.0, 2.0
_LZ_SQ_MAX = 2.0 * (_R_MAX * _P_MAX) ** 2  # |Lz| <= r*|p| <= 3 * 2*sqrt(2) on the box


def _sample_batch(params: SystemParams, n: int, seed: int) -> np.ndarray:
    """The states of ``sample_states`` as a (4, n) array."""
    if n < 1:
        raise DomainError(f"need at least one sampled state, got {n}")
    if n > MAX_SAMPLES:  # checked before anything is drawn, as for trajectory samples
        raise DomainError(f"at most {MAX_SAMPLES} sampled states, got {n}")
    if seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if 2.0 * params.k >= _LZ_SQ_MAX:
        raise ImaginaryAlphaError(
            f"2k = {2 * params.k:g} >= {_LZ_SQ_MAX:g}, the largest Lz**2 on the sampling box"
        )
    rng = np.random.default_rng(seed)
    max_draws = 1000 * n + (1 << 20)
    blocks, have, drawn = [], 0, 0
    while have < n:
        if drawn >= max_draws:
            raise ImaginaryAlphaError(
                f"found {have} of {n} states with 2k < Lz**2 in {drawn} candidate draws"
            )
        # block size from the acceptance rate so far; one candidate is four
        # doubles (u, phi, p1, p2) mapped as Generator.uniform maps them,
        # low + (high - low) * d, so the stream matches one-at-a-time draws
        m = min((n - have) * (drawn + 1) // (have + 1) + (n - have) // 8 + 16, 1 << 16)
        u, phi, p1, p2 = rng.random((m, 4)).T
        r = np.sqrt(_R_MIN**2 + u * (_R_MAX**2 - _R_MIN**2))
        phi = 2.0 * math.pi * phi
        z = np.array([r * np.cos(phi), r * np.sin(phi),
                      -_P_MAX + 2 * _P_MAX * p1, -_P_MAX + 2 * _P_MAX * p2])
        lz = lz_value(*z)
        blocks.append(z[:, 2.0 * params.k < lz * lz])
        have += blocks[-1].shape[1]
        drawn += m
    return np.concatenate(blocks, axis=1)[:, :n]


def sample_states(params: SystemParams, n: int, seed: int = 0) -> list[PhaseState]:
    """Well-conditioned random phase states for bracket verification.

    Positions are uniform over the annulus 0.3 <= r <= 3 (area measure),
    momenta uniform over [-2, 2]**2; states with 2k >= Lz**2 are rejected
    so orbit quantities stay real.  Raises ``ImaginaryAlphaError`` when no
    state of the box, or too few candidates, pass that test.
    """
    return [PhaseState.from_array(col) for col in _sample_batch(params, n, seed).T]


# --- algebra identities -----------------------------------------------------

def _report(name: str, residual: np.ndarray) -> BracketReport:
    res = np.abs(residual)
    return BracketReport(
        identity=name,
        n_samples=res.size,
        max_abs_residual=float(res.max()),
        mean_abs_residual=float(res.mean()),
    )


def _verify_pair(kind, params, n_samples, seed, method):
    """Residuals of the identities of ``kind``'s algebra (see ``_ALGEBRAS``) over one batch
    of random states.

    Raises ``AccuracyError`` if any residual is not finite: the terms overflowed,
    which numpy is told not to warn of, so that the error is the one line printed.
    """
    algebra = _ALGEBRAS[kind]
    z = _sample_batch(params, n_samples, seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the check below
        if method == "analytic":
            g_a, g_b, g_lz = *algebra.gradients(*z, params), lz_gradient(*z)
        elif method == "fd":  # one value call per shifted copy serves A, B and Lz
            g_a, g_b, g_lz = _central_difference(
                lambda w: np.array((*algebra.values(*w, params), lz_value(*w))), z).swapaxes(0, 1)
        else:
            raise DomainError(f"unknown bracket method {method!r}")
        a, b = algebra.values(*z, params)
        residuals = (
            _bracket(g_a, g_lz) - algebra.shift * b,
            _bracket(g_b, g_lz) + algebra.shift * a,
            _bracket(g_a, g_b) - algebra.quadratic(h_value(*z, params), lz_value(*z), params),
        )
    if not all(np.isfinite(res).all() for res in residuals):
        raise AccuracyError(f"bracket residuals are not finite at lam = {params.lam:g}, "
                            f"k = {params.k:g}: the terms overflow")
    return [_report(name, res) for name, res in zip(algebra.identities, residuals)]


def verify_coulomb_algebra(
    params: SystemParams,
    n_samples: int = 1000,
    seed: int = 0,
    method: str = "analytic",
) -> list[BracketReport]:
    """Residuals of the coulomb Higgs-algebra identities over random states."""
    return _verify_pair(SystemKind.COULOMB, params, n_samples, seed, method)


def verify_oscillator_algebra(
    params: SystemParams,
    n_samples: int = 1000,
    seed: int = 0,
    method: str = "analytic",
) -> list[BracketReport]:
    """Residuals of the oscillator Higgs-algebra identities over random states."""
    return _verify_pair(SystemKind.OSCILLATOR, params, n_samples, seed, method)


# --- turning-point conservation ---------------------------------------------

class TurningConservationReport(namedtuple(
        "TurningConservationReport", "quantity_names n_turning_points bracket_at_turning "
        "values_at_turning turning_kinds max_abs_at_turning generic_max")):
    """|{quantity, H}| at turning points versus generic points of one orbit.

    For k > 0 the extended quantities are conserved only where rdot = 0:
    the turning-point maximum should sit at root-finder noise while the
    generic maximum stays finite.  ``values_at_turning`` holds the
    quantities themselves, which agree across successive same-kind
    turning points; it and ``bracket_at_turning`` are (n_turning, 2) arrays.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "quantities": list(self.quantity_names),
            "n_turning_points": self.n_turning_points,
            "max_abs_bracket_at_turning": self.max_abs_at_turning,
            "generic_max_abs_bracket": self.generic_max,
            "bracket_at_turning": [list(row) for row in self.bracket_at_turning],
            "values_at_turning": [list(row) for row in self.values_at_turning],
            "turning_kinds": list(self.turning_kinds),
        }


def turning_point_conservation(
    traj: dynamics.Trajectory, params: SystemParams
) -> TurningConservationReport:
    """Evaluate {quantity, H} along a trajectory at and away from rdot = 0."""
    algebra = _ALGEBRAS[params.kind]
    points = dynamics.find_turning_points(traj)
    if not points:
        raise NoTurningPointError(
            "no turning points detected"
            + (" (orbit is circular)" if traj.circular else "")
        )

    def brackets_with_h(z: np.ndarray) -> np.ndarray:
        g_h = h_gradient(*z, params)
        return np.stack([_bracket(g, g_h) for g in algebra.gradients(*z, params)], axis=1)

    z_turning = np.array([p.state.as_array() for p in points]).T
    at_turning = brackets_with_h(z_turning)
    values = np.stack(algebra.values(*z_turning, params), axis=1)
    generic = np.max(np.abs(brackets_with_h(traj.states.T)))
    return TurningConservationReport(
        quantity_names=algebra.names,
        n_turning_points=len(points),
        bracket_at_turning=at_turning,
        values_at_turning=values,
        turning_kinds=tuple(p.kind.value for p in points),
        max_abs_at_turning=float(np.max(np.abs(at_turning))),
        generic_max=float(generic),
    )
