"""Gnomonic projection: embedding constraint, round trips, flat limit."""

import math

import numpy as np
import pytest

from screened_sphere.errors import CurvatureError, FlatProjectionError, ProjectionDomainError
from screened_sphere.geometry import (
    Curvature,
    GnomonicPoint,
    SpherePoint,
    embed,
    from_spherical,
    to_spherical,
)


def test_embed_unit_curvature():
    q1, q2, q0 = embed(GnomonicPoint(1.0, 0.0), Curvature(1.0))
    assert q1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert q2 == 0.0
    assert q0 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_embed_pole():
    assert embed(GnomonicPoint(0.0, 0.0), Curvature(1.0)) == (0.0, 0.0, 1.0)


def test_embed_constraint_random():
    rng = np.random.default_rng(42)
    c = Curvature(0.25)
    for _ in range(1000):
        x1, x2 = rng.uniform(-20.0, 20.0, size=2)
        q1, q2, q0 = embed(GnomonicPoint(x1, x2), c)
        assert abs(q0 * q0 + q1 * q1 + q2 * q2 - 4.0) < 1e-12


def test_from_spherical_values():
    c = Curvature(0.25)  # R = 2
    p = from_spherical(SpherePoint(chi=math.pi / 3.0, theta=0.0, curvature=c))
    assert p.x1 == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)
    assert p.x2 == 0.0

    p = from_spherical(SpherePoint(chi=math.pi / 4.0, theta=0.0, curvature=Curvature(1.0)))
    assert p.r == pytest.approx(1.0, rel=1e-15)


def test_pole_maps_to_origin():
    p = from_spherical(SpherePoint(chi=0.0, theta=1.3, curvature=Curvature(0.5)))
    assert p.r == 0.0


def test_equator_divergence():
    c = Curvature(1.0)
    p = from_spherical(SpherePoint(chi=math.pi / 2.0 - 1e-9, theta=0.0, curvature=c))
    assert math.isfinite(p.r)
    assert p.r > 1e8 * c.radius
    with pytest.raises(ProjectionDomainError):
        SpherePoint(chi=math.pi / 2.0, theta=0.0, curvature=c)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    c = Curvature(0.37)
    for _ in range(1000):
        x1, x2 = rng.uniform(-15.0, 15.0, size=2)
        p = GnomonicPoint(x1, x2)
        back = from_spherical(to_spherical(p, c))
        assert abs(back.x1 - x1) < 1e-12 * max(1.0, abs(x1))
        assert abs(back.x2 - x2) < 1e-12 * max(1.0, abs(x2))


def test_spherical_round_trip_random():
    rng = np.random.default_rng(8)
    c = Curvature(2.0)
    for _ in range(500):
        chi = rng.uniform(0.0, math.pi / 2.0 - 1e-3)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = SpherePoint(chi=chi, theta=theta, curvature=c)
        s2 = to_spherical(from_spherical(s), c)
        assert abs(s2.chi - chi) < 1e-12
        assert abs((s2.theta - theta + math.pi) % (2.0 * math.pi) - math.pi) < 1e-12


def test_embedded_point_matches_spherical_angles():
    # q = (R sin(chi) cos(theta), R sin(chi) sin(theta), R cos(chi))
    c = Curvature(0.25)
    p = GnomonicPoint(1.7, -2.3)
    q1, q2, q0 = embed(p, c)
    s = to_spherical(p, c)
    R = c.radius
    assert q1 == pytest.approx(R * math.sin(s.chi) * math.cos(s.theta), rel=1e-13)
    assert q2 == pytest.approx(R * math.sin(s.chi) * math.sin(s.theta), rel=1e-13)
    assert q0 == pytest.approx(R * math.cos(s.chi), rel=1e-13)


def test_flat_limit():
    c = Curvature(1e-12)
    for x1, x2 in ((0.4, -1.1), (3.0, 2.0)):
        q1, q2, _ = embed(GnomonicPoint(x1, x2), c)
        assert abs(q1 - x1) < 1e-10
        assert abs(q2 - x2) < 1e-10


def test_flat_curvature_rejected():
    flat = Curvature(0.0)
    with pytest.raises(FlatProjectionError):
        embed(GnomonicPoint(1.0, 0.0), flat)
    with pytest.raises(FlatProjectionError):
        to_spherical(GnomonicPoint(1.0, 0.0), flat)


def test_negative_curvature_rejected():
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(CurvatureError):
            Curvature(bad)
