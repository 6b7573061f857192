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
``tests/test_symbolic.py`` proves these identities exact on the kernels
below, run on sympy symbols, together with {R', H} = {Q', H} = 0 at rdot = 0.

Brackets {f, g} = sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i) are
pointwise in the gradients, so they batch.  An ``Observable`` is its two
kernels: ``value`` and ``gradient`` are functions of
``(x1, x2, p1, p2, params)`` that work the same on floats and on
equal-shape arrays, the gradient a 4-tuple.  ``poisson_bracket`` and
``finite_difference_gradient`` call them on one state's four floats, as
does an analytic algebra check of at most 4096 states, so that it never
loads numpy; larger and ``fd`` checks and turning-point conservation call
the same kernels once on a ``(4, n)`` batch, with the same bits.  States
come from one stream, ``random.Random(seed)``, on either path.  The
kernels of R' and Q' reject the other system's params, so every entry
point refuses a wrong system alike.  Turning-point conservation reads the
apsides that the trajectory records (``turning_points``), so this module
depends only on ``phase_space``, ``closed_forms`` and ``errors``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .closed_forms import SystemKind, SystemParams, check_count
from .errors import AccuracyError, DomainError, ImaginaryAlphaError, NoTurningPointError
from .phase_space import (MAX_SAMPLES, PhaseState, check_radius, h_gradient, h_value, kernel_sqrt,
                          lz_gradient, lz_value, pi_components)

_FD_STEP = 6.0e-6  # ~cbrt(eps): optimal central-difference step on unit scales

Observable = namedtuple("Observable", "name value gradient")
Observable.__doc__ = ("Named phase-space function: value and gradient kernels of "
                      "(x1, x2, p1, p2, params).")


BracketReport = namedtuple("BracketReport", "identity n_samples max_abs_residual mean_abs_residual")
BracketReport.__doc__ = "Residual summary of one bracket identity over sampled states."


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


# contract: a scalar entry point, R' of one state
def runge_lenz(state: PhaseState, params: SystemParams) -> tuple[float, float]:
    """Extended Runge-Lenz components (R'x, R'y) for the coulomb system."""
    return _checked_pair(_runge_lenz_pair, "runge_lenz", state, params)


# contract: a scalar entry point, Q' of one state
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
        lambda h, lz, p: (-2.0 * h + 2.0 * p.lam * (lz * lz) - 2.0 * p.k * p.lam) * lz,
        ("{R'x,Lz}+R'y", "{R'y,Lz}-R'x", "{R'x,R'y}-(-2H+2*lam*Lz^2-2*k*lam)*Lz")),
    SystemKind.OSCILLATOR: _Algebra(
        ("Q'xy", "Q'1"), _fradkin_pair, _fradkin_gradients, 2.0,
        lambda h, lz, p: -(2.0 + p.lam * (2.0 * h - p.lam * (lz * lz))) * lz,
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


LZ = Observable("Lz", lz_value, lz_gradient)  # contract: a bracket operand
HAMILTONIAN = Observable("H", h_value, h_gradient)  # contract: a bracket operand
RUNGE_LENZ_X, RUNGE_LENZ_Y = _pair_observables(SystemKind.COULOMB)
FRADKIN_XY, FRADKIN_1 = _pair_observables(SystemKind.OSCILLATOR)  # contract: bracket operands


# --- bracket engine ---------------------------------------------------------

def _central_difference(func, z):
    """Central differences of ``func`` along each of the 4 rows of a (4,) or (4, n) state."""
    import numpy as np
    h = _FD_STEP * np.maximum(1.0, np.abs(z))
    grad = []
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        grad.append((func(zp) - func(zm)) / (2.0 * h[i]))
    return np.array(grad)


def finite_difference_gradient(func, state: PhaseState, params: SystemParams):
    """Central-difference gradient (d/dx1, d/dx2, d/dp1, d/dp2) of a value kernel at a state,
    as a (4,) array, the oracle for analytic ones."""
    def value(z) -> float:
        x1, x2, p1, p2 = z.tolist()
        check_radius(x1, x2, "finite_difference_gradient")  # a stencil point can land on r = 0
        return func(x1, x2, p1, p2, params)

    import numpy as np
    return _central_difference(value, np.array(state))


def _bracket(gf, gg):
    """{f, g} from the gradients of f and g, on floats or arrays."""
    return gf[0] * gg[2] + gf[1] * gg[3] - gf[2] * gg[0] - gf[3] * gg[1]


def poisson_bracket(  # contract: a scalar entry point, {f, g} at one state
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

# The states of an algebra check: positions area-uniform on the annulus 0.3 <= r <= 3, by
# rejection from the square [-3, 3]**2, momenta uniform on [-2, 2]**2, and a state with
# 2k >= Lz**2 rejected, so that orbit quantities stay real; ``ImaginaryAlphaError`` when no
# state of the box, or too few candidates, pass.  +, - and * alone make a state's bits.
_LZ_SQ_MAX = 2.0 * (3.0 * 2.0) ** 2  # |Lz| <= r*|p| <= 3 * 2*sqrt(2) on the box
_FLOAT_PATH_MAX = 4096  # analytic checks of at most this many states run on Python floats


def _check_sampling(params: SystemParams, n: int, seed: int) -> tuple[int, int]:
    """(n, seed) as ints, once each is checked, before anything is drawn: a float seed would
    seed by its hash, and random.Random seeds with abs(seed), so a negative seed would alias
    its absolute value."""
    n, seed = check_count(n, "n_samples", 1, MAX_SAMPLES), check_count(seed, "seed", 0)
    if 2.0 * params.k >= _LZ_SQ_MAX:
        raise ImaginaryAlphaError(f"2k = {2 * params.k:g} >= {_LZ_SQ_MAX:g}, the largest Lz**2 "
                                  "on the sampling box")
    return n, seed


def _candidates(k: float, u1, u2, u3, u4):
    """(x, y, p1, p2) of four successive random() values, x, y on [-3, 3] and p on [-2, 2], and
    whether 0.3**2 <= r**2 <= 3**2 and 2k < Lz**2 keep it, on floats or equal-shape arrays."""
    z = x, y, p1, p2 = -3.0 + 6.0 * u1, -3.0 + 6.0 * u2, -2.0 + 4.0 * u3, -2.0 + 4.0 * u4
    r2, lz = x * x + y * y, lz_value(*z)
    return z, (0.3**2 <= r2) & (r2 <= 3.0**2) & (2.0 * k < lz * lz)


def _sample_floats(params: SystemParams, n: int, seed: int):
    """The sampled states as float tuples, drawn one value at a time, or None if fewer than n
    pass among the first 6n + 64 candidates (the annulus keeps 0.778 of the square)."""
    import random
    draw, states = random.Random(seed).random, []
    for _ in range(6 * n + 64):
        z, kept = _candidates(params.k, draw(), draw(), draw(), draw())
        if kept:
            states.append(z)
            if len(states) == n:
                return states
    return None


def _uniforms(rng: random.Random, count: int):
    """The next ``count`` values of ``rng.random()`` as an array, from one getrandbits call:
    random() maps two 32-bit outputs a, b to ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and
    getrandbits puts each output above the one before, so a 64-bit word is one value."""
    import numpy as np
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
    return (((words & 0xFFFFFFFF) >> 5) * 67108864.0 + (words >> 38)) * 2.0**-53


def _sample_batch(params: SystemParams, n: int, seed: int):
    """The sampled states as a (4, n) array, drawn a block at a time.  Refuses at the draw cap,
    or sooner once 2**20 candidates show a yield that, projected to the cap, finds less than
    half of n; both rules read only the seeded stream."""
    import random
    import numpy as np
    rng = random.Random(seed)
    max_draws = 1000 * n + (1 << 20)
    blocks, have, drawn = [], 0, 0
    while have < n:
        if drawn >= max_draws or (drawn >= 1 << 20 and 2 * have * max_draws < n * drawn):
            raise ImaginaryAlphaError(f"found {have} of {n} states with 2k < Lz**2 in {drawn} "
                                      f"candidate draws, too few to reach {n} in {max_draws}")
        # block size from the acceptance rate so far, within the cap
        m = min((n - have) * (drawn + 1) // (have + 1) + (n - have) // 8 + 16, 1 << 16,
                max_draws - drawn)
        z, kept = _candidates(params.k, *_uniforms(rng, 4 * m).reshape(m, 4).T)
        blocks.append(np.array(z)[:, kept])
        have += blocks[-1].shape[1]
        drawn += m
    return np.concatenate(blocks, axis=1)[:, :n]


# --- algebra identities -----------------------------------------------------

def _residuals(algebra: _Algebra, params: SystemParams, z, gradients=None):
    """The three identity residuals at states ``z`` (floats, or rows of arrays), from the
    analytic gradients or the given (A, B, Lz) ones."""
    a, b = algebra.values(*z, params)
    g_a, g_b, g_lz = (*algebra.gradients(*z, params), lz_gradient(*z)) if gradients is None \
        else gradients
    return (
        _bracket(g_a, g_lz) - algebra.shift * b,
        _bracket(g_b, g_lz) + algebra.shift * a,
        _bracket(g_a, g_b) - algebra.quadratic(h_value(*z, params), lz_value(*z), params),
    )


def _report(name: str, res: list, params: SystemParams) -> BracketReport:
    """The exact max and the correctly rounded mean of one identity's |residuals|; raises
    ``AccuracyError`` if one is not finite or their sum overflows: the terms overflowed,
    which numpy is told not to warn of, so that the error is the one line printed."""
    try:
        total = math.fsum(res)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise AccuracyError(f"bracket residuals are not finite at lam = {params.lam:g}, "
                            f"k = {params.k:g}: the terms overflow")
    return BracketReport(name, len(res), max(res), total / len(res))


def _verify_pair(kind, params, n_samples, seed, method):
    """Residuals of the identities of ``kind``'s algebra (see ``_ALGEBRAS``) over random
    states: an analytic check of at most ``_FLOAT_PATH_MAX`` states that ``_sample_floats``
    finds runs one state at a time on Python floats, without numpy, and any other on one
    batch of arrays from ``_sample_batch``; both take the same states for a seed and give the
    same bits."""
    algebra = _ALGEBRAS[kind]
    n_samples, seed = _check_sampling(params, n_samples, seed)
    if method not in ("analytic", "fd"):  # this and the system are checked before any draw
        raise DomainError(f"unknown bracket method {method!r}")
    _require(params, kind, "R'" if kind is SystemKind.COULOMB else "Q'")
    z = (method == "analytic" and n_samples <= _FLOAT_PATH_MAX
         and _sample_floats(params, n_samples, seed) or _sample_batch(params, n_samples, seed))
    if isinstance(z, list):
        residuals = [list(map(abs, res))
                     for res in zip(*(_residuals(algebra, params, state) for state in z))]
    else:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked in _report
            if method == "analytic":
                residuals = _residuals(algebra, params, z)
            else:  # fd: one value call per shifted copy serves A, B and Lz
                residuals = _residuals(algebra, params, z, _central_difference(
                    lambda w: np.array((*algebra.values(*w, params), lz_value(*w))), z
                ).swapaxes(0, 1))
        residuals = [np.abs(res).tolist() for res in residuals]
    return [_report(name, res, params) for name, res in zip(algebra.identities, residuals)]


def verify_coulomb_algebra(params: SystemParams, n_samples: int = 1000, seed: int = 0,
                          method: str = "analytic") -> list[BracketReport]:
    """Residuals of the coulomb Higgs-algebra identities over random states."""
    return _verify_pair(SystemKind.COULOMB, params, n_samples, seed, method)


def verify_oscillator_algebra(params: SystemParams, n_samples: int = 1000, seed: int = 0,
                             method: str = "analytic") -> list[BracketReport]:
    """Residuals of the oscillator Higgs-algebra identities over random states."""
    return _verify_pair(SystemKind.OSCILLATOR, params, n_samples, seed, method)


# --- turning-point conservation ---------------------------------------------

TurningConservationReport = namedtuple(
    "TurningConservationReport", "quantities n_turning_points max_abs_bracket_at_turning "
    "generic_max_abs_bracket bracket_at_turning values_at_turning turning_kinds")
TurningConservationReport.__doc__ = """|{quantity, H}| at turning points versus generic points of
one orbit, in the fields and order of the ``turning`` command's JSON.

For k > 0 the extended quantities are conserved only where rdot = 0: the turning-point
maximum should sit at root-finder noise while the generic maximum stays finite.
``values_at_turning`` holds the quantities themselves, which agree across successive
same-kind turning points; it and ``bracket_at_turning`` are (n_turning, 2) arrays."""


def _brackets_with_h(algebra: _Algebra, params: SystemParams, z):
    """({A, H}, {B, H}) of the algebra's pair at states ``z`` (floats, or rows of arrays)."""
    g_h = h_gradient(*z, params)
    return tuple(_bracket(g, g_h) for g in algebra.gradients(*z, params))


def turning_point_conservation(traj) -> TurningConservationReport:
    """Evaluate {quantity, H} along a ``dynamics.Trajectory``, under its own params, at its
    recorded turning points (rdot = 0) and at its samples."""
    import numpy as np
    params = traj.params
    algebra = _ALGEBRAS[params.kind]
    points = traj.turning_points
    if not points:
        raise NoTurningPointError(
            "no turning points detected"
            + (" (orbit is circular)" if traj.circular else "")
        )

    z_turning = np.array([p.state for p in points]).T
    at_turning = np.stack(_brackets_with_h(algebra, params, z_turning), axis=1)
    values = np.stack(algebra.values(*z_turning, params), axis=1)
    generic = np.max(np.abs(_brackets_with_h(algebra, params, traj.states.T)))
    return TurningConservationReport(
        quantities=algebra.names,
        n_turning_points=len(points),
        max_abs_bracket_at_turning=float(np.max(np.abs(at_turning))),
        generic_max_abs_bracket=float(generic),
        bracket_at_turning=at_turning,
        values_at_turning=values,
        turning_kinds=tuple(p.kind.value for p in points),
    )
