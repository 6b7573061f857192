"""The paper's closed forms: system parameters, orbit closure and the analytic levels.

This module imports only the standard library and ``errors``, so the
``closure`` command never loads numpy; the spectrum table over these levels
lives in ``spectra``.  Its records are namedtuples rather than dataclasses,
since ``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), and ``closure_analysis`` finds p/q without ``fractions`` (which
imports ``decimal``).

Orbits close for rational alpha = sqrt(1 - 2k/Lz**2) = p/q.  Screening
enters the radial quantum problem only through the effective angular
number m' = sqrt(m**2 - 2k) and an additive constant lam*k.  The levels are

    coulomb:     E = (lam/2)*(m'+N)*(m'+N+1) - 1/(2*(m'+N+1/2)**2) + lam*k
    oscillator:  E = (1+m'+2N)/2 * (sqrt(4+lam**2) + lam*(1+m'+2N)) + lam*k

with N = 0, 1, 2, ...  For k > 0, m' is irrational, so levels that are
degenerate at k = 0 (equal |m|+N, resp. |m|+2N) split.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum

from .errors import CurvatureError, DomainError, ImaginaryAlphaError, ImaginaryMPrimeError

TWO_PI = 2.0 * math.pi
RATIONAL_TOL = 1e-9         # |alpha - p/q| below this counts as rational
MAX_DENOMINATOR = 64        # largest denominator q of a rational alpha = p/q


class SystemKind(str, Enum):
    COULOMB = "coulomb"
    OSCILLATOR = "oscillator"


def check_lam_k(lam: float, k: float) -> None:
    """Reject a curvature or a screening strength that is non-finite or negative."""
    if not math.isfinite(lam) or lam < 0.0:
        raise CurvatureError(f"curvature must be finite and >= 0, got {lam}")
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"screening strength must be finite and >= 0, got {k}")


def check_count(value, name: str) -> int:
    """``value`` as an int, or a domain error that names ``name`` where it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class SystemParams(namedtuple("SystemParams", "kind lam k")):
    """System selector: potential kind, curvature lam >= 0, screening k >= 0."""

    __slots__ = ()

    def __new__(cls, kind: SystemKind, lam: float = 0.0, k: float = 0.0) -> "SystemParams":
        check_lam_k(lam, k)
        return super().__new__(cls, kind, lam, k)

    @classmethod
    def _make(cls, iterable) -> "SystemParams":  # contract: so that _replace checks too
        return cls(*iterable)


# --- closure --------------------------------------------------------------

def orbit_alpha(params: SystemParams, lz: float) -> float:
    """Frequency ratio alpha = sqrt(1 - 2k/Lz**2); requires a finite Lz with 2k < Lz**2."""
    if not math.isfinite(lz):
        raise DomainError(f"angular momentum Lz must be finite, got {lz}")
    if params.k == 0.0 and lz != 0.0:  # alpha = 1, also where Lz**2 underflows to 0
        return 1.0
    lz2 = lz * lz
    if 2.0 * params.k >= lz2:
        raise ImaginaryAlphaError(f"2k = {2 * params.k:g} >= Lz**2 = {lz2:g}: alpha is imaginary")
    return math.sqrt(1.0 - 2.0 * params.k / lz2)


ClosureResult = namedtuple("ClosureResult", "alpha closed p q closure_angle",
                           defaults=(None, None, None))
ClosureResult.__doc__ = "Rational-alpha closure analysis for given system and angular momentum."


def closure_analysis(params: SystemParams, lz: float) -> ClosureResult:
    """Detect rational alpha = p/q (q <= 64) and the phase-closure angle.

    The orbit returns to its initial phase point once the unwrapped
    azimuth advances by a common multiple of 2*pi and the radial period
    in theta.  For alpha = p/q in lowest terms that is 2*pi*q for the
    coulomb system; the oscillator's doubled angle halves it to pi*q
    when q is even.

    p/q is the fraction of smallest q within ``RATIONAL_TOL`` of alpha.
    Fractions with q <= 64 lie at least 1/4032 apart, so no other is that
    close, and it is ``Fraction(alpha).limit_denominator(64)`` in lowest terms.
    """
    alpha = orbit_alpha(params, lz)
    q = next((q for q in range(1, MAX_DENOMINATOR + 1)
              if abs(alpha - round(alpha * q) / q) <= RATIONAL_TOL), None)
    if q is None:
        return ClosureResult(alpha=alpha, closed=False)
    p = round(alpha * q)
    if params.kind is SystemKind.COULOMB:
        angle = TWO_PI * q
    else:
        angle = math.pi * q if q % 2 == 0 else TWO_PI * q
    return ClosureResult(alpha=alpha, closed=True, p=p, q=q, closure_angle=angle)


# --- analytic spectra -----------------------------------------------------

def m_prime(m: int, k: float) -> float:
    """Effective angular quantum number m' = sqrt(m**2 - 2k) of an integer m.

    Raises for m**2 < 2k (all m = 0 states once k > 0): m' is imaginary
    and the state ceases to exist in the screened spectrum.
    """
    if not m % 1 == 0:  # nan and inf too: inf % 1 is nan
        raise DomainError(f"angular number m must be an integer, got {m}")
    try:
        disc = m * m - 2.0 * k
    except OverflowError:
        raise DomainError("m**2 is too large for a float") from None
    if disc < 0.0:
        raise ImaginaryMPrimeError(f"m**2 = {m * m} < 2k = {2 * k:g}: m' is imaginary")
    return math.sqrt(disc)


def _check_qn(lam: float, k: float, n: int) -> None:
    check_lam_k(lam, k)
    if not (n >= 0 and n % 1 == 0):  # nan and inf too: inf % 1 is nan
        raise DomainError(f"radial index N must be a non-negative integer, got {n}")
    try:
        float(n)
    except OverflowError:
        raise DomainError("radial index N is too large for a float") from None


def _finite_level(e: float, lam: float, m: int, n: int) -> float:
    if not math.isfinite(e):
        raise DomainError(f"level m = {m}, N = {n} overflows at lam = {lam:g}")
    return e


def coulomb_energy(lam: float, k: float, m: int, n: int) -> float:
    """Screened-coulomb level on a sphere of curvature lam; a domain error if it overflows."""
    _check_qn(lam, k, n)
    mp = m_prime(m, k)
    try:
        e = 0.5 * lam * (mp + n) * (mp + n + 1.0) - 0.5 / (mp + n + 0.5) ** 2 + lam * k
    except OverflowError:  # a float ** raises where a float * gives inf
        e = math.inf
    return _finite_level(e, lam, m, n)


def oscillator_energy(lam: float, k: float, m: int, n: int) -> float:
    """Screened-oscillator level on a sphere of curvature lam; a domain error if it overflows."""
    _check_qn(lam, k, n)
    mp = m_prime(m, k)
    s = 1.0 + mp + 2.0 * n
    return _finite_level(0.5 * s * (math.sqrt(4.0 + lam * lam) + lam * s) + lam * k, lam, m, n)


def analytic_energy(kind: SystemKind, lam: float, k: float, m: int, n: int) -> float:
    if kind is SystemKind.COULOMB:
        return coulomb_energy(lam, k, m, n)
    return oscillator_energy(lam, k, m, n)
