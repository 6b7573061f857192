"""Per-op output checks built only on independent references.

Nothing here imports the program: energies, apsidal radii, alpha and the
closed-form orbits are re-derived from the formulas of the paper, spectra
are re-evaluated in mpmath, and tolerances are the pinned ones of the
acceptance suite (``tests/test_acceptance.py``) or the program's own
documented contracts.  Each check returns ``None`` when the output is
correct, otherwise a one-line reason.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

ORBIT_DEV_TOL = 1e-6        # acceptance 1: max |r - r_closed(theta)| / r
APSIS_TOL = 1e-6            # relative error of a reported turning radius
PHASE_TOL = 1e-4            # radians of closed-form phase at a turning point
LINEAR_TOL = 1e-9           # acceptance 5: linear bracket identities (analytic)
QUADRATIC_TOL = 1e-7        # acceptance 5: quadratic identity (analytic)
FD_TOL = 1e-6               # acceptance 5: finite-difference bracket pin
TURNING_BRACKET_TOL = 1e-7  # acceptance 4: |{Q, H}| at turning points
GENERIC_BRACKET_MIN = 1e-3  # acceptance 4: |{Q, H}| away from them (k > 0)
SPECTRUM_REL_TOL = 1e-4     # acceptance 6: grid oracle vs closed form
CLOSED_FORM_TOL = 1e-9      # acceptance 6: closed-form energies
RATIONAL_TOL = 1e-9         # documented |alpha - p/q| closure threshold
MAX_DENOMINATOR = 64
EPS = 2.0**-52

ORBIT_HEADER = "t,x1,x2,p1,p2,r,theta,H,Lz"
SPECTRUM_HEADER = "kind,lambda,k,m,N,m_prime,E_analytic,E_numeric,abs_diff"
IDENTITIES = {
    "coulomb": ["{R'x,Lz}+R'y", "{R'y,Lz}-R'x", "{R'x,R'y}-(-2H+2*lam*Lz^2-2*k*lam)*Lz"],
    "oscillator": ["{Q'xy,Lz}-2Q'1", "{Q'1,Lz}+2Q'xy", "{Q'xy,Q'1}+(2+lam*(2H-lam*Lz^2))*Lz"],
}
QUANTITIES = {"coulomb": ["R'x", "R'y"], "oscillator": ["Q'xy", "Q'1"]}


def hamiltonian(x1, x2, p1, p2, system: str, lam: float, k: float):
    """H = (1 + lam*r**2) * (p**2 + lam*(x.p)**2) / 2 + V(r), on arrays."""
    r2 = x1 * x1 + x2 * x2
    s = x1 * p1 + x2 * p2
    kinetic = 0.5 * (1.0 + lam * r2) * (p1 * p1 + p2 * p2 + lam * s * s)
    if system == "coulomb":
        return kinetic - 1.0 / np.sqrt(r2) - k / r2
    return kinetic + 0.5 * r2 - k / r2


class OrbitConstants:
    """Closed-form orbit of an initial state: 1/r (coulomb) or 1/r**2 (oscillator)
    equals (c0 + c1*cos(nu*(theta - theta0))) / la2, with nu = alpha or 2*alpha."""

    def __init__(self, state, system: str, lam: float, k: float):
        x1, x2, p1, p2 = state
        self.system = system
        self.lz = x1 * p2 - x2 * p1
        et = float(hamiltonian(x1, x2, p1, p2, system, lam, k)) - 0.5 * lam * self.lz**2
        self.alpha = math.sqrt(1.0 - 2.0 * k / self.lz**2)
        self.la2 = self.lz**2 * self.alpha**2
        if system == "coulomb":
            self.nu, self.c0 = self.alpha, 1.0
            self.c1 = math.sqrt(1.0 + 2.0 * et * self.la2)
        else:
            self.nu, self.c0 = 2.0 * self.alpha, et
            self.c1 = math.sqrt(et * et - self.la2)

    def radius(self, theta, theta0: float):
        w = (self.c0 + self.c1 * np.cos(self.nu * (theta - theta0))) / self.la2
        return 1.0 / w if self.system == "coulomb" else 1.0 / np.sqrt(w)

    def apsis(self, perihelion: bool) -> float:
        w = (self.c0 + (self.c1 if perihelion else -self.c1)) / self.la2
        return 1.0 / w if self.system == "coulomb" else 1.0 / math.sqrt(w)

    def fit_theta0(self, theta, r) -> float:
        """theta0 by linear least squares on w*la2 - c0 = A cos(nu th) + B sin(nu th)."""
        w = 1.0 / r if self.system == "coulomb" else 1.0 / r**2
        basis = np.column_stack([np.cos(self.nu * theta), np.sin(self.nu * theta)])
        (a, b), *_ = np.linalg.lstsq(basis, w * self.la2 - self.c0, rcond=None)
        return math.atan2(b, a) / self.nu


def _sqrt_diff_ok(got: float, a: float, b: float) -> bool:
    """Whether a float evaluation of sqrt(a - b) is within its rounding bound.

    The subtraction amplifies the rounding of a and b by (|a| + |b|) / (a - b),
    so the bound grows as the difference cancels.
    """
    ref = float(mpmath.sqrt(mpmath.mpf(a) - mpmath.mpf(b)))
    return abs(got - ref) <= 4.0 * EPS * ref * (1.0 + (abs(a) + abs(b)) / (a - b))


def _wrap(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _alternates(kinds) -> bool:
    return all(a != b for a, b in zip(kinds, kinds[1:]))


def check_orbit(spec: dict, files: list[bytes], stderr: str) -> str | None:
    text = files[0].decode()
    header, _, body = text.partition("\n")
    if header != ORBIT_HEADER:
        return f"csv header {header!r}"
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != (spec["samples"], 9):
        return f"csv shape {rows.shape}, want ({spec['samples']}, 9)"
    t, x1, x2, p1, p2, r, theta = rows[:, :7].T
    if t[0] != 0.0 or abs(t[-1] - spec["t_end"]) > 1e-12 * spec["t_end"]:
        return f"time span [{t[0]}, {t[-1]}]"
    if np.max(np.abs(rows[0, 1:5] - spec["state"])) > 1e-12:
        return "first row differs from the initial state"
    if np.max(np.abs(r - np.hypot(x1, x2))) > 1e-13 * np.max(r):
        return "r column is not hypot(x1, x2)"
    orbit = OrbitConstants(spec["state"], spec["system"], spec["lam"], spec["k"])
    tol = spec["tol"]
    h = hamiltonian(x1, x2, p1, p2, spec["system"], spec["lam"], spec["k"])
    h_drift = float(np.max(np.abs(h - h[0]))) / max(1.0, abs(float(h[0])))
    lz_drift = float(np.max(np.abs(x1 * p2 - x2 * p1 - orbit.lz)))
    if h_drift > 10.0 * tol or lz_drift > 10.0 * tol:
        return f"drift dH={h_drift:.2e} dLz={lz_drift:.2e} over 10*tol={10 * tol:.0e}"
    # theta must be the continuous azimuth: atan2 on each row, strictly
    # increasing (Lz > 0); aliasing between samples breaks monotonicity
    if np.max(np.abs(_wrap(theta - np.arctan2(x2, x1)))) > 1e-9:
        return "theta column is not atan2(x2, x1) modulo 2*pi"
    if np.any(np.diff(theta) <= 0.0):
        i = int(np.argmax(np.diff(theta) <= 0.0))
        return f"theta not increasing at row {i + 1} (unwrap aliasing)"
    theta0 = orbit.fit_theta0(theta, r)
    dev = float(np.max(np.abs(r - orbit.radius(theta, theta0)) / r))
    if dev > ORBIT_DEV_TOL:
        return f"closed-form deviation {dev:.2e} > {ORBIT_DEV_TOL:.0e}"
    points = json.loads(files[1])
    reason = _check_turning_points(points, orbit, theta0, theta[0], theta[-1])
    if reason:
        return reason
    if f"turning_points={len(points)}" not in stderr:
        return f"stderr summary does not report {len(points)} turning points"
    alpha = float(stderr.split("alpha=", 1)[1].split()[0])
    if abs(alpha - orbit.alpha) > 1e-12:
        return f"summary alpha {alpha!r} vs {orbit.alpha!r}"
    return None


def _check_turning_points(points, orbit: OrbitConstants, theta0: float,
                          th_start: float, th_end: float) -> str | None:
    kinds = [p["kind"] for p in points]
    if not _alternates(kinds):
        return "turning-point kinds do not alternate"
    if any(b["t"] <= a["t"] for a, b in zip(points, points[1:])):
        return "turning-point times not increasing"
    for p in points:
        peri = p["kind"] == "perihelion"
        want = orbit.apsis(peri)
        if abs(p["r"] - want) > APSIS_TOL * want:
            return f"turning radius {p['r']!r} vs closed form {want!r}"
        phase = _wrap(orbit.nu * (p["theta"] - theta0) - (0.0 if peri else math.pi))
        if abs(phase) > PHASE_TOL:
            return f"turning point off its closed-form phase by {phase:.2e} rad"
    # apsides sit at nu*(theta - theta0) = j*pi: count them over the span
    lo = orbit.nu * (th_start - theta0) / math.pi
    hi = orbit.nu * (th_end - theta0) / math.pi
    expected = math.floor(hi) - math.ceil(lo) + 1
    near_edge = min(abs(lo - round(lo)), abs(hi - round(hi))) < 1e-6
    if len(points) != expected and not (near_edge and abs(len(points) - expected) <= 1):
        return f"{len(points)} turning points, closed form gives {expected}"
    return None


def check_turning(spec: dict, files: list[bytes], stderr: str) -> str | None:
    rep = json.loads(files[0])
    system = spec["system"]
    if rep["quantities"] != QUANTITIES[system]:
        return f"quantities {rep['quantities']}"
    kinds = rep["turning_kinds"]
    n = rep["n_turning_points"]
    if n < 1 or n != len(kinds) or n != len(rep["bracket_at_turning"]):
        return f"inconsistent turning-point count {n}"
    if not _alternates(kinds):
        return "turning-point kinds do not alternate"
    worst = max(abs(v) for row in rep["bracket_at_turning"] for v in row)
    if not rep["max_abs_bracket_at_turning"] == worst:
        return "max_abs_bracket_at_turning is not the max of the listed brackets"
    if not worst < TURNING_BRACKET_TOL:
        return f"bracket at turning points {worst:.2e} >= {TURNING_BRACKET_TOL:.0e}"
    if not rep["generic_max_abs_bracket"] > GENERIC_BRACKET_MIN:
        return f"generic bracket {rep['generic_max_abs_bracket']:.2e} <= {GENERIC_BRACKET_MIN:.0e}"
    return None


def check_brackets(spec: dict, files: list[bytes], stderr: str) -> str | None:
    reports = json.loads(files[0])
    names = [r["identity"] for r in reports]
    if names != IDENTITIES[spec["system"]]:
        return f"identities {names}"
    fd = spec["method"] == "fd"
    for r, limit in zip(reports, (LINEAR_TOL, LINEAR_TOL, QUADRATIC_TOL)):
        limit = FD_TOL if fd else limit
        if r["n_samples"] != spec["samples"]:
            return f"n_samples {r['n_samples']}, want {spec['samples']}"
        if not 0.0 <= r["mean_abs_residual"] <= r["max_abs_residual"] < limit:
            return f"{r['identity']}: max residual {r['max_abs_residual']:.2e} vs {limit:.0e}"
    return None


def check_closure(spec: dict, files: list[bytes], stderr: str) -> str | None:
    res = json.loads(files[0])
    mpmath.mp.dps = 40
    ratio = 2.0 * spec["k"] / spec["lz"] ** 2
    alpha = float(mpmath.sqrt(1 - mpmath.mpf(ratio)))
    if not _sqrt_diff_ok(res["alpha"], 1.0, ratio):
        return f"alpha {res['alpha']!r} vs {alpha!r}"
    frac = Fraction(alpha).limit_denominator(MAX_DENOMINATOR)
    closed = abs(alpha - float(frac)) <= RATIONAL_TOL
    if res["closed"] != closed:
        return f"closed={res['closed']} for alpha {alpha!r} (nearest {frac})"
    if not closed:
        return None if res["p"] is None and res["q"] is None else "p/q given for irrational alpha"
    p, q = frac.numerator, frac.denominator
    if (res["p"], res["q"]) != (p, q):
        return f"p/q = {res['p']}/{res['q']}, want {p}/{q}"
    angle = math.pi * q if spec["system"] == "oscillator" and q % 2 == 0 else 2.0 * math.pi * q
    if abs(res["closure_angle"] - angle) > 1e-12 * angle:
        return f"closure angle {res['closure_angle']!r} vs {angle!r}"
    return None


def _energy_mp(system: str, lam: float, k: float, m: int, n: int):
    lam, k = mpmath.mpf(lam), mpmath.mpf(k)
    mp = mpmath.sqrt(m * m - 2 * k)
    if system == "coulomb":
        half = mpmath.mpf(1) / 2
        return lam / 2 * (mp + n) * (mp + n + 1) - 1 / (2 * (mp + n + half) ** 2) + lam * k
    s = 1 + mp + 2 * n
    return s / 2 * (mpmath.sqrt(4 + lam * lam) + lam * s) + lam * k


def check_spectrum(spec: dict, files: list[bytes], stderr: str) -> str | None:
    lines = files[0].decode().splitlines()
    if lines[0] != SPECTRUM_HEADER:
        return f"csv header {lines[0]!r}"
    want = [(m, n) for m in spec["ms"] for n in sorted(spec["ns"])]
    if len(lines) - 1 != len(want):
        return f"{len(lines) - 1} rows, want {len(want)}"
    mpmath.mp.dps = 40
    for line, (m, n) in zip(lines[1:], want):
        kind, lam, k, m_s, n_s, m_prime, e_an, e_num, diff = line.split(",")
        if (kind, int(m_s), int(n_s)) != (spec["system"], m, n):
            return f"row {line!r} out of order"
        if float(lam) != spec["lam"] or float(k) != spec["k"]:
            return f"row {line!r} has other parameters"
        if not _sqrt_diff_ok(float(m_prime), m * m, 2.0 * spec["k"]):
            return f"m' {m_prime} for m={m}, k={spec['k']!r}"
        e_ref = _energy_mp(spec["system"], spec["lam"], spec["k"], m, n)
        if abs(float(e_an) - e_ref) > CLOSED_FORM_TOL:
            return f"E_analytic {e_an} vs mpmath {mpmath.nstr(e_ref, 17)} for (m, N)=({m}, {n})"
        if not spec["numeric"]:
            if e_num or diff:
                return "numeric columns filled without --numeric"
            continue
        if float(diff) != abs(float(e_an) - float(e_num)):
            return f"abs_diff {diff} is not |E_analytic - E_numeric|"
        if float(diff) > SPECTRUM_REL_TOL * abs(float(e_ref)):
            return f"grid oracle off by {float(diff):.2e} for (m, N)=({m}, {n})"
    return None


CHECKS = {
    "orbit": check_orbit,
    "turning": check_turning,
    "brackets": check_brackets,
    "closure": check_closure,
    "spectrum": check_spectrum,
}


def check(kind: str, spec: dict, files: list[bytes], stderr: str) -> str | None:
    """Run the oracle for one op; a malformed output is a failure, not a crash."""
    try:
        return CHECKS[kind](spec, files, stderr)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
