"""Coordinate systems of the gnomonic projection.

A sphere of curvature ``lam = 1/R**2`` embedded in 3-space,

    q1**2 + q2**2 + q0**2 = 1/lam,

is projected from its center onto the tangent plane at the north pole.
The chart coordinates (x1, x2) relate to the embedding by

    q_i = x_i / sqrt(1 + lam*r**2),      q0 = (1/sqrt(lam)) / sqrt(1 + lam*r**2),

with r**2 = x1**2 + x2**2, and to spherical angles by r = R*tan(chi),
(x1, x2) = (r*cos(theta), r*sin(theta)).  The projection covers the open
upper hemisphere chi < pi/2; the equator maps to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import check_lam_k
from .errors import FlatProjectionError, ProjectionDomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Curvature:
    """Sphere curvature lam = 1/R**2; lam = 0 is the flat-plane limit."""

    lam: float

    def __post_init__(self) -> None:
        check_lam_k(self.lam)

    @property
    def radius(self) -> float:
        """Sphere radius R = 1/sqrt(lam); infinite in the flat limit."""
        return math.inf if self.lam == 0.0 else 1.0 / math.sqrt(self.lam)


@dataclass(frozen=True)
class GnomonicPoint:
    """Cartesian point (x1, x2) on the tangent plane."""

    x1: float
    x2: float

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)


@dataclass(frozen=True)
class SpherePoint:
    """Spherical angles (chi, theta) on a sphere of given curvature.

    chi is the polar angle from the point of tangency, restricted to
    [0, pi/2) where the gnomonic chart is defined.  theta is normalized
    to [0, 2*pi).
    """

    chi: float
    theta: float
    curvature: Curvature

    def __post_init__(self) -> None:
        if not 0.0 <= self.chi < math.pi / 2.0:
            raise ProjectionDomainError(
                f"chi must lie in [0, pi/2), got {self.chi}"
            )


def embed(p: GnomonicPoint, c: Curvature) -> tuple[float, float, float]:
    """Embedded coordinates (q1, q2, q0) of a gnomonic point.

    Requires lam > 0: the flat plane has no sphere to embed into.
    """
    if c.lam == 0.0:
        raise FlatProjectionError("embedding undefined for zero curvature")
    scale = 1.0 / math.sqrt(1.0 + c.lam * (p.x1 * p.x1 + p.x2 * p.x2))
    return (p.x1 * scale, p.x2 * scale, scale / math.sqrt(c.lam))


def to_spherical(p: GnomonicPoint, c: Curvature) -> SpherePoint:
    """Spherical angles of a gnomonic point; chi = arctan(r*sqrt(lam))."""
    if c.lam == 0.0:
        raise FlatProjectionError("spherical angles undefined for zero curvature")
    chi = math.atan(p.r * math.sqrt(c.lam))
    theta = math.atan2(p.x2, p.x1) % TWO_PI
    return SpherePoint(chi=chi, theta=theta, curvature=c)


def from_spherical(s: SpherePoint) -> GnomonicPoint:
    """Gnomonic point of spherical angles; inverse of :func:`to_spherical`."""
    if s.curvature.lam == 0.0:
        raise FlatProjectionError("gnomonic radius undefined for zero curvature")
    r = math.tan(s.chi) * s.curvature.radius
    return GnomonicPoint(x1=r * math.cos(s.theta), x2=r * math.sin(s.theta))
