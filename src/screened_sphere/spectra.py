"""Quantum spectra of the screened systems: the finite-difference grid oracle.

The closed-form levels, the spectrum table and its CSV live in
``closed_forms`` and are re-exported here.

The independent oracle discretizes the radial Hamiltonian H1.  Written in
the polar-angle variable chi (r = tan(chi)/sqrt(lam)) and conjugated by
w(chi) = cos(chi)**1.5 / sin(chi)**0.5 (which removes the first-derivative
term), H1 becomes an ordinary 1D Schroedinger operator

    Ht = -(lam/2) d^2/dchi^2 + (lam/2)*(m'**2 - 1/4)/sin(chi)**2 + V0 - lam/8 + lam*k

with V0 = -sqrt(lam)/tan(chi) for the coulomb system and
V0 = tan(chi)**2/(2*lam) for the oscillator.  The coulomb potential is
regular at the equator and its eigenfunctions extend over the whole
sphere, so the grid spans chi in (0, pi); the oscillator wall confines
the states to the upper hemisphere and the grid spans (0, pi/2).  In the
flat limit the same reduction in r gives the familiar 2D radial operator
-(1/2) d^2/dr^2 + (m'**2 - 1/4)/(2 r**2) + V0(r).  Second-order central
differences with Dirichlet ends give a symmetric tridiagonal matrix;
eigenvalues from two nested grids are Richardson-combined and their gap
is reported as the discretization-error estimate.  The oracle sizes both
grids itself (``default_grid`` and its halved spacing) and refuses
m' < 1/2, whose solution ~ x**(m'+1/2) is too rough at x = 0 for that
h**2 step, with ``ERR_ACCURACY``.

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

from .closed_forms import (  # noqa: F401 -- re-exported
    GRID_MAX_LEVELS, SPECTRUM_CSV_HEADER, SpectrumEntry, SystemKind, analytic_energy,
    check_grid_m_prime, coulomb_energy, m_prime, oscillator_energy, spectrum_csv, spectrum_entries)
from .errors import AccuracyError, DomainError


# --- finite-difference radial oracle ---------------------------------------

class RadialGrid(namedtuple("RadialGrid", "n_points x_max")):
    """The uniform Dirichlet grid a level set was solved on: interior nodes at
    i*x_max/(n_points + 1), i = 1..n_points, read as chi for lam > 0 and as r at lam = 0."""

    __slots__ = ()


def default_grid(kind: SystemKind, lam: float, k: float, m: int, n_levels: int) -> RadialGrid:
    """Grid sized so the requested levels are resolved and contained."""
    mp = m_prime(m, k)
    if lam > 0.0:
        x_max = math.pi if kind is SystemKind.COULOMB else math.pi / 2.0
        return RadialGrid(2000, x_max)
    if kind is SystemKind.COULOMB:
        n_eff = mp + (n_levels - 1) + 0.5  # the outer turning point of the top level is ~2 n_eff**2
        return RadialGrid(6000, max(40.0, 30.0 * n_eff, 2.0 * n_eff * n_eff + 20.0 * n_eff))
    e_max = 1.0 + mp + 2.0 * (n_levels - 1)
    return RadialGrid(3000, max(10.0, math.sqrt(2.0 * e_max) + 7.0))


def _transformed_potential(
    kind: SystemKind, lam: float, k: float, m: int, x: Sequence[float]
) -> list[float]:
    """Potential of the symmetrized operator Ht on grid nodes."""
    mp = m_prime(m, k)
    if lam > 0.0:
        c, shift, screen = 0.5 * lam * (mp * mp - 0.25), lam / 8.0, lam * k
        sines, tangents = map(math.sin, x), map(math.tan, x)
        if kind is SystemKind.COULOMB:
            a = -math.sqrt(lam)
            return [c / (s * s) + a / t - shift + screen for s, t in zip(sines, tangents)]
        b = 2.0 * lam
        return [c / (s * s) + t * t / b - shift + screen for s, t in zip(sines, tangents)]
    c = 0.5 * (mp * mp - 0.25)
    if kind is SystemKind.COULOMB:
        return [c / (r * r) - 1.0 / r for r in x]
    return [c / (r * r) + 0.5 * (r * r) for r in x]


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


def _eigenvalues_on_grid(
    kind: SystemKind, lam: float, k: float, m: int, n_levels: int, grid: RadialGrid
) -> tuple[float, ...]:
    """Lowest ``n_levels`` eigenvalues of the grid matrix, by bisection (LAPACK dstebz)."""
    n = grid.n_points
    h = grid.x_max / (n + 1)
    c_kin = 0.5 * lam if lam > 0.0 else 0.5
    kin = 2.0 * c_kin / h**2
    x = [h * i for i in range(1, n + 1)]
    try:
        diag = array("d", [kin + v for v in _transformed_potential(kind, lam, k, m, x)])
        finite = all(map(math.isfinite, diag))
    except ZeroDivisionError:  # a float division by zero, an inf or a NaN in IEEE arithmetic
        finite = False
    if not finite:  # a NaN inside the band can pass dstebz with info = 0
        raise AccuracyError("tridiagonal eigensolver failed: array must not contain infs or NaNs")
    off = array("d", [-c_kin / h**2]) * (n - 1)
    found, vals, info = _dstebz(diag, off, 1, n_levels)
    if info != 0 or found < n_levels:
        raise AccuracyError(f"tridiagonal eigensolver failed: dstebz found {found} of "
                            f"{n_levels} levels (LAPACK info={info})")
    return vals[:n_levels]


class RadialSolveResult(namedtuple("RadialSolveResult", "energies error_estimate grid")):
    """Richardson-combined eigenvalues with a per-level error estimate."""

    __slots__ = ()


def radial_solve_numeric(kind: SystemKind, lam: float, k: float, m: int,
                         n_levels: int) -> RadialSolveResult:
    """Lowest eigenvalues of the discretized radial Hamiltonian.

    Solves on ``default_grid`` and on its nested grid of halved spacing
    (2n+1 interior points); returns the h**2-extrapolated eigenvalues with
    |E_fine - E_coarse| as the error estimate, and the nested grid.
    """
    if not 1 <= n_levels <= GRID_MAX_LEVELS:
        raise DomainError(f"n_levels must lie in 1..{GRID_MAX_LEVELS}")
    check_grid_m_prime(m, k)
    grid = default_grid(kind, lam, k, m, n_levels)
    fine = RadialGrid(2 * grid.n_points + 1, grid.x_max)
    e_coarse = _eigenvalues_on_grid(kind, lam, k, m, n_levels, grid)
    e_fine = _eigenvalues_on_grid(kind, lam, k, m, n_levels, fine)
    energies = tuple((4.0 * f - c) / 3.0 for f, c in zip(e_fine, e_coarse))
    estimate = tuple(abs(f - c) for f, c in zip(e_fine, e_coarse))
    return RadialSolveResult(energies=energies, error_estimate=estimate, grid=fine)
