"""Quantum spectra of the screened systems: the spectrum table and its grid oracle.

``spectrum_entries`` tabulates the closed-form levels of ``closed_forms`` over the
requested (m, N), optionally beside the grid oracle's; ``spectrum_csv`` writes the table.

The independent oracle discretizes the radial Hamiltonian H1 in the arc
length s = chi/sqrt(lam) from the pole (chi the polar angle, r =
tan(chi)/sqrt(lam)).  Conjugated by w = cos(chi)**1.5 / sin(chi)**0.5, H1
becomes an ordinary 1D Schroedinger operator, for every lam >= 0,

    Ht = -(1/2) d^2/ds^2 + (m'**2 - 1/4)/(2 S**2) + V0 - lam/8 + lam*k

with S = sin(sqrt(lam) s)/sqrt(lam), T = tan(sqrt(lam) s)/sqrt(lam) (both s
at lam = 0, where Ht is the flat 2D radial operator), and V0 = -1/T for the
coulomb system, T**2/2 for the oscillator.  The grid spans the flat extent
the requested levels need, unless the sphere ends inside it, where
atan(sqrt(lam)*extent) > 1/2; then it spans the coulomb sphere, s in (0,
pi/sqrt(lam)), or the oscillator's upper hemisphere, which its wall holds.
Central differences with Dirichlet ends give a symmetric tridiagonal
matrix; eigenvalues on two nested grids (``default_grid`` and its halved
spacing) are Richardson-combined and their gap is the error estimate.  At
most ``GRID_MAX_LEVELS`` levels are solved.  ``ERR_ACCURACY`` refuses
m' < 1/2, whose solution ~ s**(m'+1/2) is too rough at s = 0 for that h**2
step, a matrix entry that overflows (lam near the float range's end) and a
failed bisection.

The grid matrix is built on Python floats with ``math``, and its levels
come from LAPACK's bisection routine dstebz in the OpenBLAS that scipy
ships, called through ``ctypes`` on first use, so the oracle imports
neither numpy nor any scipy module.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from collections.abc import Sequence

from .closed_forms import SystemKind, SystemParams, _check_qn, analytic_energy, check_count, m_prime
from .errors import AccuracyError, DomainError

GRID_MAX_LEVELS = 10        # levels the grid oracle solves: N = 0 .. GRID_MAX_LEVELS - 1


# --- finite-difference radial oracle ---------------------------------------

def check_grid_m_prime(m: int, k: float) -> None:
    """Refuse the grid oracle for m' < 1/2: there u ~ x**(m'+1/2) is not smooth at x = 0,
    and its levels stray past their Richardson error estimate (by 12-15x at m' = 0)."""
    mp = m_prime(m, k)
    if mp < 0.5:
        raise AccuracyError(f"the grid oracle needs m' >= 1/2, got m' = {mp:.6g} at m = {m}")


RadialGrid = namedtuple("RadialGrid", "n_points x_max")
RadialGrid.__doc__ = """The uniform Dirichlet grid a level set was solved on: interior nodes
s = i*x_max/(n_points + 1), i = 1..n_points, in the arc length s = chi/sqrt(lam) from the pole
(r at lam = 0)."""


def default_grid(params: SystemParams, m: int, n_levels: int) -> RadialGrid:
    """The flat grid that holds the requested levels, or 2000 points where the sphere ends in it."""
    mp = m_prime(m, params.k)
    if params.kind is SystemKind.COULOMB:
        n_eff = mp + (n_levels - 1) + 0.5  # the outer turning point of the top level is ~2 n_eff**2
        x_max = max(40.0, 30.0 * n_eff, 2.0 * n_eff * n_eff + 20.0 * n_eff)
        flat, chi_end = RadialGrid(6000, x_max), math.pi
    else:
        e_max = 1.0 + mp + 2.0 * (n_levels - 1)
        flat, chi_end = RadialGrid(3000, max(10.0, math.sqrt(2.0 * e_max) + 7.0)), math.pi / 2.0
    q = math.sqrt(params.lam)
    return RadialGrid(2000, chi_end / q) if math.atan(q * flat.x_max) > 0.5 else flat


def _sine_tangent(lam: float, s: Sequence[float]) -> tuple[Sequence[float], Sequence[float]]:
    """S and T on the nodes s: sin(q s)/q and tan(q s)/q, q = sqrt(lam), and s at lam = 0."""
    q = math.sqrt(lam)
    if q == 0.0:
        return s, s
    return [math.sin(q * x) / q for x in s], [math.tan(q * x) / q for x in s]


def _transformed_potential(kind: SystemKind, lam: float, k: float, m: int,
                           s: Sequence[float]) -> list[float]:
    """Potential of the symmetrized operator Ht on the nodes s."""
    mp = m_prime(m, k)
    c, shift = 0.5 * (mp * mp - 0.25), lam * k - lam / 8.0
    sines, tangents = _sine_tangent(lam, s)
    if kind is SystemKind.COULOMB:
        return [c / (a * a) - 1.0 / t + shift for a, t in zip(sines, tangents)]
    return [c / (a * a) + 0.5 * (t * t) + shift for a, t in zip(sines, tangents)]


@functools.cache
def _dstebz_routine():
    """LAPACK's ``dstebz`` in the OpenBLAS that scipy ships, found through scipy's compiled
    LAPACK wrapper: ``ctypes`` loads that library (≈5 ms) without running its module init,
    so neither numpy nor any scipy module is imported."""
    import ctypes
    import importlib.machinery
    import importlib.util
    import os

    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(d, "linalg") for d in scipy_dirs])
    routine = ctypes.CDLL(spec.origin).scipy_dstebz_
    i, d = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK,
    # IWORK, INFO, then the hidden lengths of the two character arguments
    routine.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i, d, d, i, i, d, d, d, i, i, d, i, i,
                        d, i, i, ctypes.c_size_t, ctypes.c_size_t]
    routine.restype = None
    return routine


def _dstebz(d: array, e: array, il: int, iu: int) -> tuple[int, tuple[float, ...], int]:
    """Eigenvalues il..iu (1-based, ascending) of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e`` (``array('d')``, len(e) = len(d) - 1), by
    LAPACK's bisection at its default tolerance; returns (found, values, info)."""
    from ctypes import byref, c_double, c_int

    n = len(d)
    if len(e) != n - 1 or not 1 <= il <= iu <= n:
        raise ValueError(f"bad tridiagonal: n = {n}, {len(e)} off-diagonal entries, "
                         f"levels {il}..{iu}")
    found, nsplit, info = c_int(), c_int(), c_int()
    w = (c_double * n)()
    _dstebz_routine()(
        b"I", b"E", byref(c_int(n)), byref(c_double(0.0)), byref(c_double(1.0)),
        byref(c_int(il)), byref(c_int(iu)), byref(c_double(0.0)),
        (c_double * n).from_buffer(d), (c_double * (n - 1)).from_buffer(e),
        byref(found), byref(nsplit), w, (c_int * n)(), (c_int * n)(), (c_double * (4 * n))(),
        (c_int * (3 * n))(), byref(info), 1, 1)
    return found.value, tuple(w[:found.value]), info.value


def _eigenvalues_on_grid(params: SystemParams, m: int, n_levels: int,
                         grid: RadialGrid) -> tuple[float, ...]:
    """Lowest ``n_levels`` eigenvalues of the grid matrix, by bisection (LAPACK dstebz)."""
    n = grid.n_points
    h = grid.x_max / (n + 1)
    s = [h * i for i in range(1, n + 1)]
    try:
        kin = 1.0 / h**2
        diag = array("d", [kin + v for v in _transformed_potential(*params, m, s)])
        finite = all(map(math.isfinite, diag))
    except ArithmeticError:  # a float division by zero or an h**2 past the float range:
        finite = False       # an inf or a NaN in IEEE arithmetic
    if not finite:  # a NaN inside the band can pass dstebz with info = 0
        raise AccuracyError("tridiagonal eigensolver failed: array must not contain infs or NaNs")
    off = array("d", [-0.5 / h**2]) * (n - 1)
    found, vals, info = _dstebz(diag, off, 1, n_levels)
    if info != 0 or found < n_levels:
        raise AccuracyError(f"tridiagonal eigensolver failed: dstebz found {found} of "
                            f"{n_levels} levels (LAPACK info={info})")
    return vals[:n_levels]


RadialSolveResult = namedtuple("RadialSolveResult", "energies error_estimate grid")
RadialSolveResult.__doc__ = "Richardson-combined eigenvalues with a per-level error estimate."


def radial_solve_numeric(params: SystemParams, m: int, n_levels: int) -> RadialSolveResult:
    """Lowest eigenvalues of the discretized radial Hamiltonian.

    Solves on ``default_grid`` and on its nested grid of halved spacing
    (2n+1 interior points); returns the h**2-extrapolated eigenvalues with
    |E_fine - E_coarse| as the error estimate, and the nested grid.
    """
    n_levels = check_count(n_levels, "n_levels", 1, GRID_MAX_LEVELS)
    check_grid_m_prime(m, params.k)
    grid = default_grid(params, m, n_levels)
    fine = RadialGrid(2 * grid.n_points + 1, grid.x_max)
    e_coarse = _eigenvalues_on_grid(params, m, n_levels, grid)
    e_fine = _eigenvalues_on_grid(params, m, n_levels, fine)
    energies = tuple((4.0 * f - c) / 3.0 for f, c in zip(e_fine, e_coarse))
    estimate = tuple(abs(f - c) for f, c in zip(e_fine, e_coarse))
    return RadialSolveResult(energies=energies, error_estimate=estimate, grid=fine)


# --- spectrum table -------------------------------------------------------

SPECTRUM_COLUMNS = tuple("kind lambda k m N m_prime E_analytic E_numeric abs_diff".split())


class SpectrumEntry(namedtuple("SpectrumEntry",
                               "kind lam k m n m_prime e_analytic e_numeric abs_diff",
                               defaults=(None, None))):
    """One (m, N) level: analytic energy plus optional grid-oracle energy."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return dict(zip(SPECTRUM_COLUMNS, (self.kind.value, *self[1:])))


def spectrum_csv(entries: Sequence[SpectrumEntry]) -> str:
    """CSV table of spectrum entries under a ``SPECTRUM_COLUMNS`` header: a float with 17
    significant digits, None as an empty field."""
    lines = [",".join(SPECTRUM_COLUMNS)]
    for e in entries:
        lines.append(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in e.to_dict().values()))
    return "\n".join(lines) + "\n"


def spectrum_entries(params: SystemParams, ms: Sequence[int], ns: Sequence[int],
                     numeric: bool = False) -> list[SpectrumEntry]:
    """Spectrum table over given quantum numbers, optionally with the grid oracle.

    Every N is checked first (an integer-valued float N counts as its int); the grid oracle
    takes N < ``GRID_MAX_LEVELS`` and m' >= 1/2, and solves each distinct m once.
    """
    for n in ns:
        _check_qn(params.lam, params.k, n)
        if numeric and n >= GRID_MAX_LEVELS:
            raise DomainError(f"radial index N must be at most {GRID_MAX_LEVELS - 1} for the grid "
                              f"oracle, got {n}")
    if numeric:
        for m in ms:
            check_grid_m_prime(m, params.k)
    entries: list[SpectrumEntry] = []
    solved: dict[int, Sequence[float]] = {}
    for m in ms:
        if numeric and ns and m not in solved:
            solved[m] = radial_solve_numeric(params, m, n_levels=int(max(ns)) + 1).energies
        numeric_levels = solved.get(m)
        for n in sorted(ns):
            e_an = analytic_energy(*params, m, n)
            e_num = None if numeric_levels is None else numeric_levels[int(n)]
            entries.append(SpectrumEntry(*params, m, n, m_prime(m, params.k), e_an, e_num,
                                         None if e_num is None else abs(e_an - e_num)))
    return entries
