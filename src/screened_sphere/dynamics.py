"""Classical dynamics of screened central-force systems in gnomonic coordinates.

The Hamiltonian on a sphere of curvature lam, written in the gnomonic
chart with canonical coordinates (x1, x2, p1, p2), is

    H = pi**2/2 + (lam/2)*Lz**2 + V(r)
      = (1 + lam*r**2) * (p**2 + lam*(x.p)**2) / 2 + V(r),

where pi_i = p_i + lam*x_i*(x.p) is the curvature-corrected momentum and
Lz = x1*p2 - x2*p1.  The two screened potentials are

    coulomb:     V(r) = -1/r    - k/r**2
    oscillator:  V(r) = r**2/2  - k/r**2

Bound orbits are controlled by alpha = sqrt(1 - 2k/Lz**2) and the shifted
energy Et = E - (lam/2)*Lz**2.  Curvature enters the projected orbit only
through Et, so a spherical trajectory traces the same (r, theta) curve as
the flat trajectory with energy Et.  For rational alpha = p/q the orbit
closes; the radial period in theta is 2*pi/alpha (coulomb) or pi/alpha
(oscillator, doubled angle).
alpha, the closure analysis and the system parameters are numpy-free
closed forms in ``closed_forms``; H, its gradient, Lz, pi and ``PhaseState``
are the kernels in ``phase_space``.  ``perfbench`` reads ``SystemParams``
and ``closure_analysis`` here, though this module does not run them.

The chart is the gnomonic projection of the sphere q1**2 + q2**2 + q0**2
= 1/lam from its center onto the tangent plane at the north pole:

    (q1, q2, q0) = (x1, x2, 1/sqrt(lam)) / sqrt(1 + lam*r**2),

so r = tan(chi)/sqrt(lam) for the polar angle chi, and the chart covers
the open upper hemisphere (the equator maps to r = infinity).  An orbit
that runs out to the equator stops once lam*r**2 passes ``CHART_EDGE_GUARD``.

Orbits are integrated by DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), at most
``MAX_STEPS`` steps, on Python floats, without scipy, by one loop written at import from the
table.  Its stages are straight-line code that skips zero coefficients and runs the text of
``hamilton_field`` inline, and ``max`` of two floats is written as the comparison ``max`` makes.
It keeps only the step times and states, returns them at t_end and raises every other end of
an orbit itself.  The dense output then owns the steps: in increasing time, with theta's
branch unwrapped over them, and their stage derivatives rebuilt with the same operations on
arrays, a block of steps at a time (``_stages``).  It is evaluated a block of times at a time,
on the step coefficients gathered once (``_interpolate``): the same bits as evaluating each
time alone.  Every sum runs left to right from its first term, so a sum's sign of zero is its
first term's: the driver's, each row of the table in ``_stages`` and the dense output's rows
(``_row_sum``), and ``_interpolate``'s.  No matrix product sums one, so no BLAS kernel that
OpenBLAS picks by CPU moves a last bit.  The apsides (rdot = 0) are found and refined on x.p,
which has the sign of rdot: its sign changes over the dense output's steps bracket them, and
each bracket, one step's span, is bisected on x.p of the dense output.

``Trajectory.to_csv`` writes the bytes of ``%.17g`` per field: numpy lays out a field in
1e-4 <= |v| < 1e16 from its exact 17-digit integer (Dekker's product, round half to
even), and ``%`` formats every other field.
"""

from __future__ import annotations

import functools
import linecache
import math
from array import array
from collections import namedtuple
from enum import Enum

import numpy as np

from .closed_forms import TWO_PI, SystemKind, check_count  # SystemKind runs in the driver's text
from .closed_forms import SystemParams, closure_analysis  # noqa: F401 -- perfbench reads them here
from .errors import (
    AccuracyError,
    ChartEdgeError,
    DomainError,
    RadiusError,
    SingularOrbitError,
    StepBudgetError,
    StiffnessError,
)
from .phase_space import (_FIELD, _H_LINES, _H_PARAMS, MAX_SAMPLES, PhaseState, check_radius,
                          h_value, hamilton_field, kernel_sqrt, lz_value)

R_MIN_GUARD = 1e-8          # terminate near-collision orbits
CHART_EDGE_GUARD = 1e12     # terminate orbits with lam*r**2 = tan(chi)**2 beyond this
MAX_STEPS = 2 * 10**5       # cap on accepted solver steps (40 B each, ~0.3 kB in dense output)
TURNING_RDOT_TOL = 1e-10    # refined |rdot| bound at a turning point
_BLOCK = 2048               # steps, samples or trajectory rows worked on together


class TurningKind(str, Enum):
    APHELION = "aphelion"
    PERIHELION = "perihelion"


TurningPoint = namedtuple("TurningPoint", "t state kind r theta")
TurningPoint.__doc__ = "Point with rdot = 0: local maximum (aphelion) or minimum (perihelion) of r."


# --- equations of motion ---------------------------------------------------

def equations_of_motion(  # contract: a scalar entry point, Hamilton's equations at one state
    state: PhaseState, params: SystemParams
) -> tuple[float, float, float, float]:
    """Hamilton's equations (x1dot, x2dot, p1dot, p2dot) from analytic gradients."""
    check_radius(state.x1, state.x2, "equations_of_motion")
    return hamilton_field(state.x1, state.x2, state.p1, state.p2, params)


# --- trajectories --------------------------------------------------------

class Trajectory(namedtuple("Trajectory", "t states r theta H Lz params dense turning_points "
                                           "circular")):
    """Time-ordered samples of an integrated orbit plus derived scalars.

    theta is unwrapped (cumulative) so closure angles beyond 2*pi stay
    measurable; normalize at presentation boundaries only.  Its branch is
    the azimuth unwrapped over the solver's accepted steps (``dense.theta``,
    at the times ``dense.bounds``), so sparse samples cannot alias it.
    ``states`` holds (n, 4) rows.  The dense interpolant and the turning
    points found during the solve (``circular`` when x.p and its rate stay at
    rounding level) are kept with the samples.  ``state_at``, ``theta_at`` and
    ``rdot`` take times inside the integrated span only.
    """

    __slots__ = ()

    def state_at(self, t: float) -> PhaseState:  # contract: the orbit between its samples
        return PhaseState(*map(float, self._in_span(t)))  # float refuses an array of times

    def theta_at(self, t):  # contract: the orbit between its samples
        """Unwrapped theta at a time or times, on the branch of the solver's steps."""
        return self.dense.on_branch(t, self._in_span(t))

    def rdot(self, t) -> np.ndarray:  # contract: the orbit between its samples
        """Radial velocity along the orbit; see :func:`_rdot`."""
        return _rdot(self._in_span(t), self.params.lam)

    def _in_span(self, t) -> np.ndarray:
        """The dense output at a time or times in the integrated span, ends included; past
        either end the end step's polynomial is no orbit, so that is a domain error."""
        lo, hi, ts = self.dense.bounds[0], self.dense.bounds[-1], np.asarray(t)
        if not np.all((lo <= ts) & (ts <= hi)):
            raise DomainError(f"t outside the integrated span [{lo:.17g}, {hi:.17g}]")
        return self.dense(t)

    def to_csv(self) -> str:
        """CSV export, header ``t,x1,x2,p1,p2,r,theta,H,Lz``, the bytes of ``%.17g`` per field,
        formatted ``_BLOCK`` rows at a time by :func:`_csv_rows`."""
        columns = (self.t, self.states, self.r, self.theta, self.H, self.Lz)
        parts = ["t,x1,x2,p1,p2,r,theta,H,Lz\n"]
        for s in range(0, len(self.t), _BLOCK):
            parts.append(_csv_rows(np.column_stack([c[s:s + _BLOCK] for c in columns])))
        return "".join(parts)


_CSV_FIELD = b"%.17g"  # the bytes of "{:.17g}", -0 included
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
    """Rows of ``b`` (n, 9) as ``%.17g`` CSV lines, each field in a NUL-padded 40-byte slot.

    A field with 1e-4 <= |v| < 1e16, which ``%g`` prints in fixed notation, has 17 digits D
    and decimal exponent X with 1e16 <= D < 1e17 and -4 <= X <= 15: its slot holds the sign
    and "0." prefix, the digits with a NUL after each (the one after digit X becomes the
    point), trailing fraction zeros as NUL, and its comma or newline.  Every other field (a
    zero, -0, a non-finite value, one printed with an exponent) is laid out as 1.0, then its
    slot is overwritten with ``_CSV_FIELD % v``.
    """
    groups, lead = _csv_items()
    a = np.abs(b.ravel())
    fast = (a >= 1e-4) & (a < 1e16)
    v, a = np.where(fast, b.ravel(), 1.0), np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    d = _round17(a, x)
    while (i := np.flatnonzero((d < 10**16) | (d >= 10**17))).size:
        x[i] += np.where(d[i] < 10**16, -1, 1)
        d[i] = _round17(a[i], x[i])  # from a again, never from d
    q = d // 10**8  # D = q * 10**8 + its last 8 digits; both parts fit int32, which divides faster
    d0, g12 = np.divmod(q.astype(np.int32), 10**8)
    g1, g2 = np.divmod(g12, 10**4)
    g3, g4 = np.divmod((d - q * 10**8).astype(np.int32), 10**4)
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
    sub = chars[whole, 6::2]
    sub[(sub == 0) & (np.arange(17) <= x[whole, None])] = 48
    chars[whole, 6::2] = sub
    chars[8::9, 39] = 10
    slow = np.flatnonzero(~fast)
    text = b"".join((_CSV_FIELD % value).ljust(39, b"\0")
                    for value in b.ravel()[slow].tolist())
    chars[slow, :39] = np.frombuffer(text, np.uint8).reshape(-1, 39)
    return chars.tobytes().translate(None, b"\0").decode()


def _rdot(y, lam: float):
    """rdot = (x.p) * (1 + lam*r**2)**2 / r of states ``y`` (columns x1, x2, p1, p2)."""
    x1, x2, p1, p2 = y
    r2 = x1 * x1 + x2 * x2
    return (x1 * p1 + x2 * p2) * (1.0 + lam * r2) ** 2 / kernel_sqrt(r2)


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


def _row_sum(row, k):
    """Row ``row`` of the table times stages ``k``: its nonzero terms, left to right."""
    return functools.reduce(np.add, (a * k[j] for j, a in enumerate(row) if a))


def _stages(y, h, params: SystemParams):
    """Stage derivatives (16, 4, n) of steps of sizes ``h`` (n,) from states ``y`` (4, n), each
    as the driver computes stages 0-12: a row of ``_A`` summed by :func:`_row_sum`, then
    ``hamilton_field``; rows 13-15 of ``_A`` are the dense output's."""
    k = np.empty((16, 4, h.size))
    k[0] = hamilton_field(*y, params)
    for s, row in enumerate(_A[1:], 1):
        k[s] = hamilton_field(*(y + _row_sum(row, k) * h), params)
    return k


_DRIVER = '''\
def _dop853(y, params, t_end, rtol):
    """DOP853 steps of Hamilton's equations from t = 0 to ``t_end`` under scipy's step controller.

    Returns the accepted step times and states (flat), at atol = rtol * 1e-2; a step whose
    error norm overflows is rejected.  Every other end is raised here: past ``MAX_STEPS``
    steps, once r falls to ``R_MIN_GUARD`` (when the step's interpolant crosses it), once
    lam*r**2 exceeds ``CHART_EDGE_GUARD``, and on a step below float spacing (``_underflow``).
    """
    sqrt = math.sqrt  # called by the stages' gradient lines
    hypot, nextafter, inf = math.hypot, math.nextafter, math.inf
    max_steps, r_min = MAX_STEPS, R_MIN_GUARD
    atol = rtol * 1e-2
    r_max = math.sqrt(CHART_EDGE_GUARD / params.lam) if params.lam > 0.0 else math.inf
    direction = 1.0 if t_end > 0.0 else -1.0
    toward = direction * inf
    t = 0.0
    ts, ys = array("d", [t]), array("d", y)
    f = hamilton_field(*y, params)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = (math.hypot(*(v / sc for v, sc in zip(w, scale))) / 2.0 for w in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
    if h0 == 0.0:  # an infinite derivative leaves no first step
        raise _underflow(y, t)
    f1 = hamilton_field(*(v + h0 * direction * dv for v, dv in zip(y, f)), params)
    d2 = math.hypot(*((b - a) / sc for a, b, sc in zip(f, f1, scale))) / 2.0 / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, abs(t_end))
    (y1, y2, y3, y4), (k1_0, k2_0, k3_0, k4_0) = y, f
    <params>
    while direction * (t - t_end) < 0.0:
        if len(ts) > max_steps:
            raise StepBudgetError(f"more than {max_steps} solver steps; stopped at t = {t:.6g}")
        min_step = 10.0 * abs(nextafter(t, toward) - t)
        if min_step > h_abs:  # max(h_abs, min_step): h_abs on a tie or a NaN
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also ends a NaN step size
                raise _underflow((y1, y2, y3, y4), t)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            try:
                <stages>
                err = h_abs * err5 / sqrt((err5 + 0.01 * err3) * 4) if err5 or err3 else 0.0
            except OverflowError:  # from ``** 2`` in the error norm
                err = math.inf
            if err < 1.0:
                factor = 10.0 if err == 0.0 else 0.9 * err ** -0.125
                if not factor < 10.0:  # min(10.0, factor): these conditionals pick as min, max do
                    factor = 10.0
                h_abs *= factor if not rejected or factor < 1.0 else 1.0  # min(1.0, factor)
                break
            factor = 0.9 * err ** -0.125
            h_abs *= factor if factor > 0.2 else 0.2  # max(0.2, factor)
            rejected = True
        r = hypot(x1, x2)
        if r <= r_min:
            y_new = (x1, x2, p1, p2)
            dense = DenseOutput(np.array((t, t_new)), np.array(((y1, y2, y3, y4), y_new)).T, params)
            t_hit = _bracketed_root(lambda s: np.hypot(*dense(s)[:2]) - R_MIN_GUARD, t, t_new)
            raise SingularOrbitError(f"orbit collapsed to r <= {R_MIN_GUARD:g} at t = {t_hit:.6g}")
        if r > r_max:
            raise ChartEdgeError(f"orbit reached the edge of the chart, lam*r**2 > "
                                 f"{CHART_EDGE_GUARD:g}, at t = {t_new:.6g}")
        t, y1, y2, y3, y4 = t_new, x1, x2, p1, p2
        k1_0, k2_0, k3_0, k4_0 = k1_12, k2_12, k3_12, k4_12
        ts.append(t)
        ys.fromlist([y1, y2, y3, y4])  # half the time of extend with a tuple
    return ts, ys
'''


def _compile_driver():
    """The driver's loop ``_DRIVER`` with one block per row of ``_A`` at <stages> (the stage's state
    in x1, x2, p1, p2, the text of ``hamilton_field`` inline, the derivative in k1_s..k4_s) and the
    error norms err5, err3, compiled; its text goes into ``linecache`` for tracebacks."""
    def dot(row, c):
        return "(" + " + ".join(f"{a!r} * k{c}_{j}" for j, a in enumerate(row) if a) + ")"
    names = ("x1", "x2", "p1", "p2")
    lines = []
    for s, row in enumerate(_A[1:13], 1):
        lines += [f"{v} = y{c} + {dot(row, c)} * h" for c, v in enumerate(names, 1)]
        lines += [*_H_LINES, *(f"k{c}_{s} = {d}" for c, d in enumerate(_FIELD, 1))]  # no tuple
    # max(|y|, |x|) as max picks it, the first on a tie or a NaN
    lines += [f"sc{c} = atol + (new if (new := abs({v})) > (old := abs(y{c})) else old) * rtol"
              for c, v in enumerate(names, 1)]
    # sums of squares, from the first term as every sum here
    lines += [f"err{n} = " + " + ".join(f"({dot(e, c)} / sc{c}) ** 2" for c in range(1, 5))
              for n, e in ((5, _E5), (3, _E3))]
    stages = ("\n" + " " * 16).join(lines)  # at the indentation of <stages>
    src = _DRIVER.replace("<params>", _H_PARAMS).replace("<stages>", stages)
    name = "<generated screened_sphere.dynamics._dop853>"
    linecache.cache[name] = (len(src), None, src.splitlines(True), name)
    return compile(src, name, "exec")


exec(_compile_driver())  # defines _dop853


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

    Takes step times ``t`` and states ``y`` (4, n + 1) in integration order, rebuilds each
    step's stage derivatives (:func:`_stages`) and keeps the steps in increasing time: times
    ``bounds``, states ``steps`` and azimuth ``theta``, unwrapped in integration order so that
    theta(0) is atan2 of the start.  A time on a step boundary takes the step that ends there
    in integration order, as scipy's ``OdeSolution`` does.  Times are evaluated ``_BLOCK`` at a
    time, each block on its steps' coefficients gathered once.  So a bisection inside one step's
    span is evaluated on that step's polynomial, and where a midpoint lands on either end, on
    the step the boundary rule picks there.
    """

    def __init__(self, t, y, params: SystemParams):
        h = np.diff(t)
        F = np.empty((7, 4, h.size))
        for i in range(0, h.size, _BLOCK):  # a block of steps' stages at a time
            b = slice(i, i + _BLOCK)
            hb, y_old = h[b], y[:, :-1][:, b]
            k = _stages(y_old, hb, params)
            dy, f_old, f_new = y[:, 1:][:, b] - y_old, k[0], k[12]
            F[:3, :, b] = dy, hb * f_old - dy, 2.0 * dy - hb * (f_new + f_old)
            F[3:, :, b] = [_row_sum(row, k) * hb for row in _D]
        order = slice(None) if t[-1] > t[0] else slice(None, None, -1)
        self.bounds, self.t_old, self.h = t[order], t[:-1][order], h[order]
        self.steps, self.y_old, self.F = y[:, order], y[:, :-1][:, order], F[:, :, order]
        self.theta = np.unwrap(np.arctan2(y[1], y[0]))[order]
        self.side = "left" if t[-1] > t[0] else "right"

    def __call__(self, t) -> np.ndarray:
        """States (x1, x2, p1, p2) at a time, shape (4,), or at times, shape (4, m)."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.bounds[1:-1], t, self.side)  # the step; past an end, the end step
        ts, steps = t.ravel(), i.ravel()
        y = np.empty((4, ts.size))
        for s in range(0, ts.size, _BLOCK):  # each block's coefficients are gathered once
            b, j = slice(s, s + _BLOCK), steps[s:s + _BLOCK]
            _interpolate(self.F[:, :, j], self.y_old[:, j], self.t_old[j], self.h[j], ts[b], y[:, b])
        return y.reshape(4, *t.shape)

    def on_branch(self, t, y):
        """atan2 of states ``y`` at times ``t``, moved by whole turns onto ``theta``'s branch."""
        raw = np.arctan2(y[1], y[0])
        return raw + TWO_PI * np.round((np.interp(t, self.bounds, self.theta) - raw) / TWO_PI)


def _interpolate(F, y_old, t_old, h, t, out):
    """The interpolant with step coefficients ``F`` (7, 4, m), ``y_old`` (4, m), ``t_old`` and ``h``
    (m,) at times ``t`` (m,), into ``out`` (4, m): Horner in x over the rows of F, from F[6] as
    every sum here starts from its first term, the factors x and 1 - x alternating."""
    x = (t - t_old) / h
    w = 1.0 - x
    np.multiply(F[6], x, out=out)
    for row in (5, 4, 3, 2, 1, 0):
        out += F[row]
        out *= w if row % 2 else x
    out += y_old
    return out


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
    (see :func:`find_turning_points`), and theta takes the branch unwrapped over
    its accepted steps (``DenseOutput.theta``), not over ``n_samples``.  Raises
    :class:`~screened_sphere.errors.SingularOrbitError` if the orbit falls
    below ``R_MIN_GUARD`` (both potentials are singular at r = 0),
    :class:`~screened_sphere.errors.ChartEdgeError` once lam*r**2 exceeds
    ``CHART_EDGE_GUARD`` (the orbit is at the equator, where the chart ends) and
    :class:`~screened_sphere.errors.AccuracyError` if energy or angular
    momentum drift beyond 10x the requested tolerance, relative to
    max(1, |H0|) and max(1, |Lz0|), or if a turning
    point is left with |rdot| above ``TURNING_RDOT_TOL``.  More than
    ``MAX_SAMPLES`` samples is a domain error, raised before any allocation.

    Local truncation errors accumulate to a few tens of the solver tolerance over long spans,
    so the solver runs two decades tighter, at max(rel_tol * 1e-2, 2.5e-14), to keep the 10x
    drift contract with margin.  Below rel_tol = 2.5e-12 that floor leaves less than two
    decades, and at the minimum 1e-13 (0.25 x rel_tol) a coulomb orbit can fail the drift gate.

    ``rel_tol`` bounds the drift of H and Lz, not the phase: against the exact bound orbit
    at lam = 0, 0.1 and 1 (coulomb at k = 0.05 from (1, 0, 0, 0.55) to t = 70, 26.8 radial
    periods at lam = 0), r was within 187-331 x rel_tol and theta 4810-9360 x every pi/3 of
    the orbit's phase, and the apsis times at lam = 0 within 129-216 x; the oscillator within
    0.16 x at lam <= 0.1 and 3.4 x at lam = 1 (``tests/orbit_reference.orbit_points``).
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
    n_samples = check_count(n_samples, "n_samples")
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"n_samples must be at most {MAX_SAMPLES}, got {n_samples}")

    rtol_eff = max(rel_tol * 1e-2, 2.5e-14)
    ts, ys = _dop853(y0, params, t_end, rtol_eff)
    dense = DenseOutput(np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4).T, params)

    t = np.linspace(0.0, t_end, n_samples)
    y = dense(t)
    x1, x2, p1, p2 = y
    r = np.hypot(x1, x2)
    theta = dense.on_branch(t, y)
    h = h_value(x1, x2, p1, p2, params)
    lz = lz_value(x1, x2, p1, p2)

    bound = 10.0 * rel_tol
    h_scale, lz_scale = max(1.0, abs(float(h[0]))), max(1.0, abs(float(lz[0])))
    h_dev, lz_dev = np.abs(h - h[0]) / h_scale, np.abs(lz - lz[0]) / lz_scale
    h_drift, lz_drift = float(np.max(h_dev)), float(np.max(lz_dev))
    if h_drift > bound or lz_drift > bound:
        # which error broke the gate: the solver's, if its accepted steps drift as far as the
        # samples, else the interpolant's between them
        worst = int(np.argmax(np.maximum(h_dev, lz_dev)))
        step_h, step_lz = h_value(*dense.steps, params), lz_value(*dense.steps)
        raise AccuracyError(
            f"conservation drift exceeds 10x tolerance: "
            f"dH = {h_drift:.3e}, dLz = {lz_drift:.3e}, bound = {bound:.3e}; "
            f"worst sample t = {t[worst]:.6g}, r = {r[worst]:.3g}; on the {dense.h.size} "
            f"accepted steps dH = {float(np.max(np.abs(step_h - h[0]))) / h_scale:.3e}, "
            f"dLz = {float(np.max(np.abs(step_lz - lz[0]))) / lz_scale:.3e}"
        )

    points, circular = _turning_points(dense, params)
    return Trajectory(t, y.T, r, theta, h, lz, params, dense, points, circular)


# --- turning points -------------------------------------------------------

def _turning_points(dense: DenseOutput, params: SystemParams):
    """(points, circular) from x.p on the solver's steps, ``dense.steps``, never the samples."""
    def xp(y):  # x.p, which has the sign of rdot: it brackets each apsis and refines it
        return y[0] * y[2] + y[1] * y[3]

    step_y, step_t = dense.steps, dense.bounds
    s = xp(step_y)
    radius, momentum = np.hypot(step_y[0], step_y[1]), np.hypot(step_y[2], step_y[3])
    if float(np.max(np.abs(s))) <= 1e-8 * max(1.0, float(np.max(momentum) * np.max(radius))):
        # a circle, or a short span that starts at an apsis: only on the circle does the rate
        # of x.p, xdot.p + x.pdot, stay at rounding level too
        f1, f2, f3, f4 = hamilton_field(*step_y, params)
        rate = f1 * step_y[2] + f2 * step_y[3] + step_y[0] * f3 + step_y[1] * f4
        scale = np.hypot(f1, f2) * momentum + radius * np.hypot(f3, f4)
        if float(np.max(np.abs(rate))) <= 1e-8 * float(np.max(scale)):
            return [], True
    # one root of x.p per step over which it changes sign, in increasing time:
    # rising through zero is a minimum of r, a perihelion
    j = np.flatnonzero((s[:-1] <= 0.0) & (s[1:] >= 0.0) | (s[:-1] >= 0.0) & (s[1:] <= 0.0))
    # with Lz at rounding level x.p also rises through zero where the orbit passes r = 0,
    # while rdot jumps from -|v| to |v|: that is no apsis
    radial = np.abs(lz_value(*step_y)) <= 4.0 * math.ulp(1.0) * radius * momentum
    j = j[~((s[j + 1] > s[j]) & radial[j] & radial[j + 1])]
    roots = _bracketed_root(lambda t: xp(dense(t)), step_t[j], step_t[j + 1])
    y = dense(roots)
    rdot = np.abs(_rdot(y, params.lam))
    if roots.size and float(np.max(rdot)) > TURNING_RDOT_TOL:
        raise AccuracyError(f"turning-point refinement left |rdot| = {float(np.max(rdot)):.3e}")
    theta = dense.on_branch(roots, y).tolist()
    kinds = [TurningKind.PERIHELION if rising else TurningKind.APHELION
             for rising in (s[j + 1] > s[j]).tolist()]
    states = map(PhaseState._make, y.T.tolist())
    return [TurningPoint(t_star, st, kind, math.hypot(st.x1, st.x2), th)
            for t_star, st, kind, th in zip(roots.tolist(), states, kinds, theta)], False


def find_turning_points(traj: Trajectory) -> list[TurningPoint]:
    """The rdot = 0 points of the trajectory, in increasing time.

    :func:`integrate` finds them as roots of x.p on the solver's own steps
    (``traj.dense.steps``), to |rdot| < ``TURNING_RDOT_TOL``.  A perihelion is where x.p rises
    through zero in increasing time, an aphelion where it falls.  A
    trajectory whose x.p and its rate, xdot.p + x.pdot, stay at rounding level sets
    ``circular`` instead; on a short span that starts at an apsis x.p alone does.
    """
    return traj.turning_points
