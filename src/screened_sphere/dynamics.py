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
alpha, the closure analysis and the system parameters are numpy-free
closed forms in ``closed_forms``; H, its gradient, Lz, pi and ``PhaseState``
are the kernels in ``phase_space``.  Both are re-exported here.

The chart is the gnomonic projection of the sphere q1**2 + q2**2 + q0**2
= 1/lam from its center onto the tangent plane at the north pole:

    (q1, q2, q0) = (x1, x2, 1/sqrt(lam)) / sqrt(1 + lam*r**2),

so r = tan(chi)/sqrt(lam) for the polar angle chi, and the chart covers
the open upper hemisphere (the equator maps to r = infinity).  An orbit
that runs out to the equator stops once lam*r**2 passes ``CHART_EDGE_GUARD``.

Orbits are integrated by DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
II.10), at most ``MAX_STEPS`` steps, on Python floats, without scipy.  The driver
returns the steps to t_end and raises every other end of an orbit itself.  The step
is straight-line code written at import from the table: it skips zero
coefficients and sums left to right from 0.0 as Python 3.11's
``sum(map(mul, a, k))`` does; on finite stages it is that loop bit for bit.
Each stage runs the source text of ``h_gradient`` inline, so the gradient has one
definition and no call.

``Trajectory.to_csv`` writes the bytes of ``%.17g`` per field.  Rows whose
fields all lie in 1e-4 <= |v| < 1e16 are laid out by numpy from exact
17-digit integers (Dekker's product, round half to even); other rows go
through ``%``.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from enum import Enum
from typing import Optional

import numpy as np

from .closed_forms import (  # noqa: F401 -- re-exported
    TWO_PI, ClosureResult, SystemKind, SystemParams, check_lam_k, closure_analysis, orbit_alpha)
from .errors import (
    AccuracyError,
    ChartEdgeError,
    DomainError,
    OrbitDomainError,
    RadiusError,
    SingularOrbitError,
    StepBudgetError,
    StiffnessError,
)
from .phase_space import (  # noqa: F401 -- re-exported
    _H_GRAD, _H_LINES, _H_PARAMS, MAX_SAMPLES, PhaseState, check_radius, h_gradient, h_value,
    hamiltonian, kernel_sqrt, lz_gradient, lz_value, pi_components, potential)

R_MIN_GUARD = 1e-8          # terminate near-collision orbits
CHART_EDGE_GUARD = 1e12     # terminate orbits with lam*r**2 = tan(chi)**2 beyond this
MAX_STEPS = 2 * 10**5       # cap on accepted solver steps (~0.46 kB each)
TURNING_RDOT_TOL = 1e-10    # refined |rdot| bound at a turning point
_CSV_BLOCK = 4096           # trajectory rows formatted together


class TurningKind(str, Enum):
    APHELION = "aphelion"
    PERIHELION = "perihelion"


class TurningPoint(namedtuple("TurningPoint", "t state kind r theta")):
    """Point with rdot = 0: local maximum (aphelion) or minimum (perihelion) of r."""

    __slots__ = ()


# --- equations of motion ---------------------------------------------------

def equations_of_motion(
    state: PhaseState, params: SystemParams
) -> tuple[float, float, float, float]:
    """Hamilton's equations (x1dot, x2dot, p1dot, p2dot) from analytic gradients."""
    check_radius(state.x1, state.x2, "equations_of_motion")
    return _rhs(state.x1, state.x2, state.p1, state.p2, params)


def _rhs(x1, x2, p1, p2, params: SystemParams):
    """J times the gradient of H, on Python floats or on arrays (dense output)."""
    hx1, hx2, hp1, hp2 = h_gradient(x1, x2, p1, p2, params)
    return hp1, hp2, -hx1, -hx2


# --- trajectories --------------------------------------------------------

class Trajectory:
    """Time-ordered samples of an integrated orbit plus derived scalars.

    theta is unwrapped (cumulative) so closure angles beyond 2*pi stay
    measurable; normalize at presentation boundaries only.  Its branch is
    the azimuth unwrapped over the solver's accepted steps, so sparse
    samples cannot alias it.  The dense interpolant and the turning points
    found during the solve are kept with the samples; :func:`integrate`
    sets ``turning_points`` and ``circular`` after construction.
    """

    def __init__(self, t: np.ndarray, states: np.ndarray, r: np.ndarray, theta: np.ndarray,
                 H: np.ndarray, Lz: np.ndarray, params: SystemParams, dense: DenseOutput,
                 step_t: np.ndarray, step_theta: np.ndarray):
        self.t, self.states, self.r, self.theta = t, states, r, theta  # states: (n, 4) rows
        self.H, self.Lz, self.params, self.dense = H, Lz, params, dense
        self.step_t, self.step_theta = step_t, step_theta  # accepted steps, ascending
        self.turning_points: list[TurningPoint] = []
        self.circular = False

    def state_at(self, t: float) -> PhaseState:
        return PhaseState.from_array(self.dense(t))

    def theta_at(self, t):
        """Unwrapped theta at a time or times, on the branch of the solver's steps."""
        y = self.dense(t)
        return _on_branch(np.arctan2(y[1], y[0]), t, self.step_t, self.step_theta)

    def rdot(self, t) -> np.ndarray:
        """Radial velocity along the orbit; see :func:`_rdot`."""
        return _rdot(self.dense(t), self.params.lam)

    def to_csv(self) -> str:
        """CSV export, header ``t,x1,x2,p1,p2,r,theta,H,Lz``, the bytes of ``%.17g`` per field.

        A row whose fields all have 1e-4 <= |v| < 1e16, which ``%g`` prints in
        fixed notation, is laid out by :func:`_csv_rows`; runs of other rows
        (a zero, -0, a non-finite value) go through ``%``.
        """
        columns = (self.t, self.states, self.r, self.theta, self.H, self.Lz)
        parts = ["t,x1,x2,p1,p2,r,theta,H,Lz\n"]
        for i in range(0, len(self.t), _CSV_BLOCK):
            b = np.column_stack([c[i:i + _CSV_BLOCK] for c in columns])
            fast = ((np.abs(b) >= 1e-4) & (np.abs(b) < 1e16)).all(axis=1)
            rows = _csv_rows(np.where(fast[:, None], b, 1.0))
            edges = [0, *(np.flatnonzero(fast[1:] != fast[:-1]) + 1).tolist(), len(b)]
            parts.append(b"".join(
                rows[s:e].tobytes() if fast[s] else
                (_CSV_ROW * (e - s) % tuple(b[s:e].ravel().tolist())).encode()
                for s, e in zip(edges, edges[1:])).translate(None, b"\0").decode())
        return "".join(parts)


_CSV_ROW = ",".join(["%.17g"] * 9) + "\n"  # the bytes of "{:.17g}", -0 included
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


@functools.cache
def _csv_items():
    """The 8-byte items ``_csv_rows`` looks up: each 4-digit group with a NUL after every
    digit, as is, with its trailing zeros as NUL, and that with a comma last; and each
    sign, "0.", "0.0", "0.00" or "0.000" prefix and leading digit."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    items = np.zeros((3, 10000, 8), np.uint8)
    items[:, :, ::2] = (digits + 48).T
    items[1:, :, ::2] *= ~np.logical_and.accumulate(digits[::-1] == 0)[::-1].T
    items[2, :, 7] = 44
    lead = b"".join((s + z).ljust(6, b"\0") + bytes([48 + d, 0]) for s in (b"", b"-")
                    for z in (b"", b"0.", b"0.0", b"0.00", b"0.000") for d in range(10))
    groups = items.reshape(-1, 8).view(np.uint64).ravel()
    groups.flags.writeable = False  # shared by every call, as the read-only lead table is
    return groups, np.frombuffer(lead, np.uint64)


def _round17(a, x):
    """round-half-even(a * 10**(16 - x)), exactly: by Dekker's split, hi + lo = a * 10**k
    exactly, and hi >= 1e16 > 2**53 is an even integer wherever the result has 17 digits."""
    p = _POW10[16 - x]
    hi = a * p
    ca, cp = a * 134217729.0, p * 134217729.0  # 2**27 + 1
    ah, ph = ca - (ca - a), cp - (cp - p)
    al, pl = a - ah, p - ph
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_rows(b):
    """Rows of ``b`` (n, 9) as ``%.17g`` CSV lines, NUL-padded to 360 bytes.

    Every field needs 1e-4 <= |v| < 1e16.  Its 17 digits D and decimal
    exponent X satisfy 1e16 <= D < 1e17 and -4 <= X <= 15; a field is 40
    bytes: sign and "0." prefix, the digits with a NUL after each (the one
    after digit X becomes the point), trailing fraction zeros as NUL.
    """
    groups, lead = _csv_items()
    v = b.ravel()
    a = np.abs(v)
    x = np.floor(np.log10(a)).astype(np.int64)
    d = _round17(a, x)
    while (i := np.flatnonzero((d < 10**16) | (d >= 10**17))).size:
        x[i] += np.where(d[i] < 10**16, -1, 1)
        d[i] = _round17(a[i], x[i])  # from a again, never from d
    d0, rest = np.divmod(d, 10**16)
    g1, g2 = np.divmod(rest // 10**8, 10**4)
    g3, g4 = np.divmod(rest % 10**8, 10**4)
    z3 = g4 == 0
    z2 = z3 & (g3 == 0)
    out = np.empty((len(v), 5), np.uint64)
    out[:, 0] = lead[d0 + 10 * np.clip(-x, 0, 4) + 50 * (v < 0)]
    out[:, 1] = groups[g1 + 10000 * (z2 & (g2 == 0))]
    out[:, 2] = groups[g2 + 10000 * z2]
    out[:, 3] = groups[g3 + 10000 * z3]
    out[:, 4] = groups[g4 + 20000]
    chars = out.view(np.uint8)
    flat = chars.ravel()
    f = np.flatnonzero(x >= 0)
    point = 40 * f + 7 + 2 * x[f]
    flat[point[flat[point + 1] != 0]] = 46  # no point before an empty fraction
    whole = f[flat[point - 1] == 0]  # trailing zeros reach into the integer part: put them back
    if whole.size:
        sub = chars[whole, 6::2]
        sub[(sub == 0) & (np.arange(17) <= x[whole, None])] = 48
        chars[whole, 6::2] = sub
    chars[8::9, 39] = 10
    return chars.reshape(len(b), 360)


def _rdot(y, lam: float):
    """rdot = (x.p) * (1 + lam*r**2)**2 / r of states ``y`` (columns x1, x2, p1, p2)."""
    x1, x2, p1, p2 = y
    r2 = x1 * x1 + x2 * x2
    return (x1 * p1 + x2 * p2) * (1.0 + lam * r2) ** 2 / np.sqrt(r2)


def _on_branch(raw, t, step_t: np.ndarray, step_theta: np.ndarray):
    """atan2 angles ``raw`` at times ``t``, moved by whole turns onto the step branch."""
    return raw + TWO_PI * np.round((np.interp(t, step_t, step_theta) - raw) / TWO_PI)


def turning_points_json(points: list[TurningPoint]) -> list[dict]:
    """JSON-ready rows ``{t, r, theta, kind}`` for detected turning points."""
    return [
        {"t": p.t, "r": p.r, "theta": p.theta, "kind": p.kind.value} for p in points
    ]


# --- DOP853 ----------------------------------------------------------------

# Hairer's DOP853 table (dop853.f) as shortest round-trip doubles: the 12
# stage rows of A (row 12 is the weights B) and its 3 dense-output rows, the
# E3 and E5 error weights and the 4 dense-output rows D.  The flow does not
# depend on t, so the nodes C are not needed.
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E3 = tuple(b - c for b, c in zip(_A[12] + (0,), (0.2440944881889764, 0, 0, 0, 0, 0, 0, 0,
                                                   0.7338466882816118, 0, 0, 0.022058823529411766, 0)))
_E5 = (
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0,
)
_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)


def _step_source() -> str:
    """Source of ``_step(y, f, h, params, atol, rtol)``: new state, stage derivatives, err5, err3.

    Each stage runs the gradient text of ``h_gradient`` inline and applies J itself.
    """
    def dot(row, c):
        return "(0.0" + "".join(f" + {a!r} * k{c}_{j}" for j, a in enumerate(row) if a) + ")"
    names = ("x1", "x2", "p1", "p2")
    hx1, hx2, hp1, hp2 = _H_GRAD
    src = ["def _step(y, f, h, params, atol, rtol):", _H_PARAMS, "sqrt = math.sqrt",
           "y1, y2, y3, y4 = y", "k1_0, k2_0, k3_0, k4_0 = f"]
    for s, row in enumerate(_A[1:13], 1):
        src += [f"{v} = y{c} + {dot(row, c)} * h" for c, v in enumerate(names, 1)]
        src += [*_H_LINES, f"k1_{s}, k2_{s}, k3_{s}, k4_{s} = {hp1}, {hp2}, -({hx1}), -({hx2})"]
    src += [f"sc{c} = atol + max(abs(y{c}), abs({v})) * rtol" for c, v in enumerate(names, 1)]
    src += [f"err{n} = " + " + ".join(f"({dot(e, c)} / sc{c}) ** 2" for c in range(1, 5))
            for n, e in ((5, _E5), (3, _E3))]
    ks = ", ".join(f"k{c}_{j}" for c in range(1, 5) for j in range(13))
    return "\n    ".join(src + [f"return (x1, x2, p1, p2), ({ks}), err5, err3"])


exec(_step_source())  # defines _step


def _dop853(y, params: SystemParams, t_end: float, rtol: float):
    """DOP853 steps of Hamilton's equations from t = 0 to ``t_end`` under scipy's step controller.

    Returns the accepted step times and states and each step's 13 stage
    derivatives (flat, component-major), at atol = rtol * 1e-2; a step whose
    error norm overflows is rejected.  Every other end is raised here: past
    ``MAX_STEPS`` steps, once r falls to ``R_MIN_GUARD`` (at the time the step's
    interpolant crosses it), once lam*r**2 exceeds ``CHART_EDGE_GUARD``, and on
    a step size below float spacing (:func:`_underflow`).
    """
    atol = rtol * 1e-2
    r_max = math.sqrt(CHART_EDGE_GUARD / params.lam) if params.lam > 0.0 else math.inf
    direction = 1.0 if t_end > 0.0 else -1.0
    t = 0.0
    ts, ys, ks = array("d", [t]), array("d", y), array("d")
    f = _rhs(*y, params)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = (math.hypot(*(v / sc for v, sc in zip(w, scale))) / 2.0 for w in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
    if h0 == 0.0:  # an infinite derivative leaves no first step
        raise _underflow(y, t)
    f1 = _rhs(*(v + h0 * direction * dv for v, dv in zip(y, f)), params)
    d2 = math.hypot(*((b - a) / sc for a, b, sc in zip(f, f1, scale))) / 2.0 / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, abs(t_end))
    while direction * (t - t_end) < 0.0:
        if len(ts) > MAX_STEPS:
            raise StepBudgetError(f"more than {MAX_STEPS} solver steps; stopped at t = {t:.6g}")
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also ends a NaN step size
                raise _underflow(y, t)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            try:
                y_new, k, err5, err3 = _step(y, f, h, params, atol, rtol)
                err = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 4) if err5 or err3 else 0.0
            except OverflowError:  # from ``** 2`` in the error norm
                err = math.inf
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        r = math.hypot(y_new[0], y_new[1])
        if r <= R_MIN_GUARD:
            dense = DenseOutput(np.array((t, t_new)), np.array((y, y_new)).T,
                                np.reshape(k, (1, 4, 13)), params)
            t_hit = _bracketed_root(lambda s: np.hypot(*dense(s)[:2]) - R_MIN_GUARD, t, t_new)
            raise SingularOrbitError(f"orbit collapsed to r <= {R_MIN_GUARD:g} at t = {t_hit:.6g}")
        if r > r_max:
            raise ChartEdgeError(f"orbit reached the edge of the chart, lam*r**2 > "
                                 f"{CHART_EDGE_GUARD:g}, at t = {t_new:.6g}")
        t, y, f = t_new, y_new, k[12::13]
        ts.append(t)
        ys.extend(y)
        ks.extend(k)
    return ts, ys, ks


def _underflow(y, t: float) -> DomainError:
    """The error for a step size below float spacing at state ``y``, time ``t``.  At a vanishing
    radius that is the collapse itself: the time to the singularity drops below float
    spacing before the radius guard can fire."""
    r = math.hypot(y[0], y[1])
    if r <= max(1e-5, 1e3 * R_MIN_GUARD):
        return SingularOrbitError(f"orbit collapsed to r = {r:.3g} at t = {t:.6g}")
    return StiffnessError(
        "integrator failed: Required step size is less than spacing between numbers.")


class DenseOutput:
    """DOP853's 7th-order interpolant over all steps, built and evaluated on arrays.

    Takes step times ``t`` and states ``y`` (4, n + 1) in integration order
    and each step's 13 stage derivatives ``k`` (n, 4, 13); keeps the steps in
    increasing time.  A time on a step boundary takes the step that ends
    there in integration order, as scipy's ``OdeSolution`` does.
    """

    def __init__(self, t, y, k, params: SystemParams):
        h = np.diff(t)
        k = np.concatenate((k, np.empty(k.shape[:2] + (3,))), axis=2)
        for s in (13, 14, 15):
            k[:, :, s] = np.transpose(_rhs(*(y[:, :-1] + (k[:, :, :s] @ _A[s]).T * h), params))
        dy = y[:, 1:] - y[:, :-1]
        f_old, f_new = k[:, :, 0].T, k[:, :, 12].T
        F = np.stack([dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old),
                      *np.transpose(k @ np.transpose(_D), (2, 1, 0)) * h])
        order = slice(None) if t[-1] > t[0] else slice(None, None, -1)
        self.bounds, self.t_old, self.h = t[order], t[:-1][order], h[order]
        self.y_old, self.F = y[:, :-1][:, order], F[:, :, order]
        self.side = "left" if t[-1] > t[0] else "right"

    def __call__(self, t) -> np.ndarray:
        """States (x1, x2, p1, p2) at a time, shape (4,), or at times, shape (4, m)."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.bounds, t, self.side) - 1, 0, self.h.size - 1)
        x = (t - self.t_old[i]) / self.h[i]
        y = 0.0  # Horner in x over the rows of F, the factors x and 1 - x alternating
        for row in range(6, -1, -1):
            y = (y + self.F[row][:, i]) * (x if row % 2 == 0 else 1.0 - x)
        return y + self.y_old[:, i]


def _bracketed_root(g, a, b):
    """Zeros of ``g`` (vectorised) in brackets [a, b] whose ends do not share a strict
    sign, bisected to 4 eps; an end where g is exactly zero is returned as it is."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lo, hi = a, b
    sign_a, g_b = np.sign(g(a)), g(b)
    for _ in range(200):  # each pass halves every bracket
        if not np.any(np.abs(hi - lo) > 4.0 * math.ulp(1.0) * (1.0 + np.abs(lo))):
            break
        mid = lo + 0.5 * (hi - lo)
        left = np.sign(g(mid)) != sign_a
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return np.where(sign_a == 0.0, a, np.where(g_b == 0.0, b, lo + 0.5 * (hi - lo)))


# --- integration -----------------------------------------------------------

def integrate(
    state0: PhaseState,
    params: SystemParams,
    t_end: float,
    rel_tol: float = 1e-10,
    n_samples: int = 2001,
) -> Trajectory:
    """Integrate Hamilton's equations with an adaptive Dormand-Prince scheme.

    Uses DOP853 with dense output.  The same solve finds the turning points
    (see :func:`find_turning_points`), and theta is unwrapped over its
    accepted steps, so it does not depend on ``n_samples``.  Raises
    :class:`~screened_sphere.errors.SingularOrbitError` if the orbit falls
    below ``R_MIN_GUARD`` (both potentials are singular at r = 0),
    :class:`~screened_sphere.errors.ChartEdgeError` once lam*r**2 exceeds
    ``CHART_EDGE_GUARD`` (the orbit is at the equator, where the chart ends) and
    :class:`~screened_sphere.errors.AccuracyError` if energy or angular
    momentum drift beyond 10x the requested tolerance, relative to
    max(1, |H0|) and max(1, |Lz0|), or if a turning
    point is left with |rdot| above ``TURNING_RDOT_TOL``.  More than
    ``MAX_SAMPLES`` samples is a domain error, raised before any allocation.
    """
    y0 = (state0.x1, state0.x2, state0.p1, state0.p2)
    if not all(map(math.isfinite, y0)):
        raise DomainError(f"initial state must be finite, got {y0}")
    if state0.r <= 0.0:
        raise RadiusError("initial state must have r > 0")
    if state0.r <= R_MIN_GUARD:
        raise SingularOrbitError(f"initial r = {state0.r:.3g} is at or below the guard {R_MIN_GUARD:g}")
    if not math.isfinite(t_end) or t_end == 0.0:
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    if not 1e-13 <= rel_tol <= 1e-6:
        raise DomainError(f"rel_tol must lie in [1e-13, 1e-6], got {rel_tol}")
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"n_samples must be at most {MAX_SAMPLES}, got {n_samples}")

    # Local truncation errors accumulate to a few tens of the solver
    # tolerance over long spans; integrating two decades tighter keeps the
    # 10x drift contract on the returned trajectory with margin.
    rtol_eff = max(rel_tol * 1e-2, 2.5e-14)
    ts, ys, ks = _dop853(y0, params, t_end, rtol_eff)
    step_y = np.frombuffer(ys).reshape(-1, 4).T
    dense = DenseOutput(np.frombuffer(ts), step_y, np.frombuffer(ks).reshape(-1, 4, 13), params)

    # The accepted steps in increasing time.  theta is unwrapped in
    # integration order, so theta(0) is atan2 of the initial state.
    order = slice(None, None, 1 if t_end > 0.0 else -1)
    step_theta = np.unwrap(np.arctan2(step_y[1], step_y[0]))[order]

    t = np.linspace(0.0, t_end, n_samples)
    y = dense(t)
    x1, x2, p1, p2 = y
    r = np.hypot(x1, x2)
    theta = _on_branch(np.arctan2(x2, x1), t, dense.bounds, step_theta)
    h = h_value(x1, x2, p1, p2, params)
    lz = lz_value(x1, x2, p1, p2)

    bound = 10.0 * rel_tol
    h_drift = float(np.max(np.abs(h - h[0]))) / max(1.0, abs(float(h[0])))
    lz_drift = float(np.max(np.abs(lz - lz[0]))) / max(1.0, abs(float(lz[0])))
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
        dense=dense,
        step_t=dense.bounds,
        step_theta=step_theta,
    )
    traj.turning_points, traj.circular = _turning_points(traj, step_y[:, order])
    return traj


# --- turning points -------------------------------------------------------

def _turning_points(traj: Trajectory, step_y: np.ndarray):
    """(points, circular): the x.p roots on the solver's steps, which ``step_y`` holds ascending."""
    s = step_y[0] * step_y[2] + step_y[1] * step_y[3]
    speed = float(np.max(np.hypot(step_y[2], step_y[3])))
    if float(np.max(np.abs(s))) <= 1e-8 * max(1.0, speed * float(np.max(traj.r))):
        return [], True
    # one root of rdot (which has the sign of x.p) per step over which x.p
    # changes sign, in increasing time: rising through zero is a minimum of
    # r, a perihelion
    j = np.flatnonzero((s[:-1] <= 0.0) & (s[1:] >= 0.0) | (s[:-1] >= 0.0) & (s[1:] <= 0.0))
    roots = _bracketed_root(traj.rdot, traj.step_t[j], traj.step_t[j + 1])
    y = traj.dense(roots)
    rdot = np.abs(_rdot(y, traj.params.lam))
    if roots.size and float(np.max(rdot)) > TURNING_RDOT_TOL:
        raise AccuracyError(f"turning-point refinement left |rdot| = {float(np.max(rdot)):.3e}")
    theta = _on_branch(np.arctan2(y[1], y[0]), roots, traj.step_t, traj.step_theta)
    points = []
    for t_star, col, th, rising in zip(roots.tolist(), y.T, theta.tolist(),
                                       (s[j + 1] > s[j]).tolist()):
        st = PhaseState.from_array(col)
        kind = TurningKind.PERIHELION if rising else TurningKind.APHELION
        points.append(TurningPoint(t=t_star, state=st, kind=kind, r=st.r, theta=th))
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

class OrbitShape(namedtuple("OrbitShape", "E lz alpha theta0", defaults=(0.0,))):
    """Constants of a closed-form orbit: energy, Lz, alpha, phase offset."""

    __slots__ = ()

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


def closed_form_radius(theta, shape: OrbitShape, params: SystemParams):
    """r(theta) from the closed-form orbit equation for the given system.

    Raises :class:`~screened_sphere.errors.OrbitDomainError` where the
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


def fit_theta0(traj: Trajectory, params: SystemParams) -> float:
    """Phase offset theta0 aligning the closed form with the trajectory.

    The closed form is linear in (A, B) = c1*(cos(nu*theta0), sin(nu*theta0)):
    w*la2 - c0 = A*cos(nu*theta) + B*sin(nu*theta) (see
    :meth:`OrbitShape.coefficients`).  One least-squares solve over all
    samples gives theta0 = atan2(B, A)/nu, in (-pi/nu, pi/nu], so no turning
    point is needed.  A circular orbit accepts any phase; returns 0 by convention.
    """
    if traj.circular:
        return 0.0
    c0, _, nu, la2, n = OrbitShape.from_state(traj.state_at(0.0), params).coefficients(params)
    basis = np.column_stack([np.cos(nu * traj.theta), np.sin(nu * traj.theta)])
    (a, b), *_ = np.linalg.lstsq(basis, la2 / traj.r**n - c0, rcond=None)
    return math.atan2(b, a) / nu


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
