"""Closed-form screened-oscillator eigenstates and their O(h**2) operator residual.

The oscillator eigenfunctions are available in closed form through a
terminating Gauss hypergeometric series,

    psi(r) = r**m' * (1 + lam*r**2)**(-eta/lam) * F(-N, beta, gamma, lam*r**2/(1+lam*r**2)),

    eta   = (4*lam + 2*lam*m' + sqrt(4+lam**2)) / 4,
    beta  = 1 + m' + N + sqrt(4+lam**2)/(2*lam),
    gamma = 1 + m',

which the operator-residual check validates against the grid form of H1.
``test_symbolic`` proves the same states exact eigenstates of that operator.
"""

from __future__ import annotations

import math

import numpy as np

from screened_sphere.closed_forms import _check_qn, m_prime, oscillator_energy
from screened_sphere.errors import DomainError

_RESIDUAL_POINTS = 4000  # chi cells on (0, pi/2) for the operator-residual stencils


def hypergeometric_terminating(n: int, b: float, c: float, z) -> float | np.ndarray:
    """Terminating series F(-N, b; c; z) = sum_{j<=N} (-N)_j (b)_j / (c)_j z^j / j!.

    Evaluated by the forward term recurrence; exact termination after N+1
    terms because the first parameter is a non-positive integer.  Raises
    if (c)_j hits zero before the series terminates.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"series order N must be a non-negative integer, got {n}")
    for j in range(n):
        if c + j == 0.0:
            raise DomainError(f"pole in (c)_j at j = {j} before termination")
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for j in range(n):
        term = term * ((-n + j) * (b + j)) / ((c + j) * (j + 1.0)) * z
        total = total + term
    return float(total) if total.ndim == 0 else total


def oscillator_wavefunction(r, lam: float, k: float, m: int, n: int):
    """Radial part of the screened-oscillator eigenstate (full state: e^{im theta} * value)."""
    if lam <= 0.0:
        raise DomainError("oscillator_wavefunction requires lam > 0")
    _check_qn(lam, k, n)
    mp = m_prime(m, k)
    root = math.sqrt(4.0 + lam * lam)
    eta = 0.25 * (4.0 * lam + 2.0 * lam * mp + root)
    beta = 1.0 + mp + n + root / (2.0 * lam)
    gamma = 1.0 + mp
    r = np.asarray(r, dtype=float)
    z = lam * r**2 / (1.0 + lam * r**2)
    val = r**mp * (1.0 + lam * r**2) ** (-eta / lam) * hypergeometric_terminating(
        n, beta, gamma, z
    )
    return float(val) if val.ndim == 0 else val


def oscillator_operator_residual(lam: float, k: float, m: int, n: int) -> float:
    """||H1 psi - E psi|| / ||psi|| for the closed-form oscillator state.

    Applies the untransformed chi-form of the radial operator with
    second-order stencils to the sampled wavefunction; adjudicates the
    eta constant in the closed form (a wrong eta leaves an O(1) residual).
    Norms are taken in L2 of the sphere's radial measure sin(chi) d(chi),
    which also keeps the known stencil inconsistency against the
    chi**m' behavior at the singular origin node from masking the test.
    """
    if lam <= 0.0:
        raise DomainError("operator residual is defined for lam > 0")
    mp = m_prime(m, k)
    h = (math.pi / 2.0) / _RESIDUAL_POINTS
    chi = h * np.arange(1, _RESIDUAL_POINTS)
    r = np.tan(chi) / math.sqrt(lam)
    psi = oscillator_wavefunction(r, lam, k, m, n)
    e = oscillator_energy(lam, k, m, n)

    d2 = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
    d1 = (psi[2:] - psi[:-2]) / (2.0 * h)
    ci = chi[1:-1]
    tan, sin = np.tan(ci), np.sin(ci)
    interior = psi[1:-1]
    h1_psi = (
        -0.5
        * lam
        * (
            d2
            + (1.0 / tan + 3.0 * tan) * d1
            - (mp * mp / sin**2) * interior
            + 3.0 * interior
            + 3.75 * tan**2 * interior
        )
        + (tan**2 / (2.0 * lam)) * interior
        + lam * k * interior
    )
    resid = h1_psi - e * interior
    return float(
        math.sqrt(np.sum(sin * resid**2) / np.sum(sin * interior**2))
    )
