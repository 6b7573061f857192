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

The grid oracle loads only scipy's compiled LAPACK wrapper, on first use,
to call dstebz; it imports no ``scipy.linalg``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .closed_forms import (  # noqa: F401 -- re-exported
    SPECTRUM_CSV_HEADER, SpectrumEntry, SystemKind, analytic_energy, check_grid_m_prime,
    coulomb_energy, m_prime, oscillator_energy, spectrum_csv, spectrum_entries)
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
        n_eff = mp + (n_levels - 1) + 0.5
        return RadialGrid(6000, max(40.0, 30.0 * n_eff))
    e_max = 1.0 + mp + 2.0 * (n_levels - 1)
    return RadialGrid(3000, max(10.0, math.sqrt(2.0 * e_max) + 7.0))


def _transformed_potential(
    kind: SystemKind, lam: float, k: float, m: int, x: np.ndarray
) -> np.ndarray:
    """Potential of the symmetrized operator Ht on grid nodes."""
    mp = m_prime(m, k)
    if lam > 0.0:
        cent = 0.5 * lam * (mp * mp - 0.25) / np.sin(x) ** 2
        if kind is SystemKind.COULOMB:
            v0 = -math.sqrt(lam) / np.tan(x)
        else:
            v0 = np.tan(x) ** 2 / (2.0 * lam)
        return cent + v0 - lam / 8.0 + lam * k
    cent = 0.5 * (mp * mp - 0.25) / x**2
    v0 = -1.0 / x if kind is SystemKind.COULOMB else 0.5 * x**2
    return cent + v0


def _dstebz():
    """LAPACK's ``dstebz`` from scipy's compiled wrapper, loaded in ≈5 ms without the ≈0.25 s
    ``scipy.linalg`` import; registered under its own name, so ``scipy.linalg`` reuses it."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "linalg") for d in scipy_dirs])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name].dstebz


def _eigenvalues_on_grid(
    kind: SystemKind, lam: float, k: float, m: int, n_levels: int, grid: RadialGrid
) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues of the grid matrix, by bisection (LAPACK dstebz)."""
    h = grid.x_max / (grid.n_points + 1)
    x = h * np.arange(1, grid.n_points + 1)
    c_kin = 0.5 * lam if lam > 0.0 else 0.5
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        diag = 2.0 * c_kin / h**2 + _transformed_potential(kind, lam, k, m, x)
    off = np.full(grid.n_points - 1, -c_kin / h**2)
    if not np.isfinite(diag).all():  # a NaN inside the band can pass dstebz with info = 0
        raise AccuracyError("tridiagonal eigensolver failed: array must not contain infs or NaNs")
    # range 2 selects levels il..iu (1-based) in ascending order, at LAPACK's default tolerance
    found, vals, _, _, info = _dstebz()(diag, off, 2, 0.0, 1.0, 1, n_levels, 0.0, "E")
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
    if n_levels < 1 or n_levels > 10:
        raise DomainError("n_levels must lie in 1..10")
    check_grid_m_prime(m, k)
    grid = default_grid(kind, lam, k, m, n_levels)
    fine = RadialGrid(2 * grid.n_points + 1, grid.x_max)
    e_coarse = _eigenvalues_on_grid(kind, lam, k, m, n_levels, grid)
    e_fine = _eigenvalues_on_grid(kind, lam, k, m, n_levels, fine)
    energies = (4.0 * e_fine - e_coarse) / 3.0
    return RadialSolveResult(energies=energies, error_estimate=np.abs(e_fine - e_coarse), grid=fine)
