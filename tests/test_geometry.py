"""The gnomonic chart behind the Hamiltonian: embedding, pole, flat limit, curvature domain.

The chart maps (x1, x2) onto the sphere q1**2 + q2**2 + q0**2 = 1/lam by

    (q1, q2, q0) = (x1, x2, 1/sqrt(lam)) / sqrt(1 + lam*r**2)

(see the ``dynamics`` module docstring); the kinetic term of H must be
the free motion on that sphere.
"""

import math

import numpy as np
import pytest

from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    equations_of_motion,
    h_gradient,
    h_value,
    integrate,
)
from screened_sphere.phase_space import pi_components, potential


def _embed_with_velocity(x, xdot, lam):
    """Embedded point q and its velocity qdot for chart position x moving at xdot."""
    s = 1.0 / math.sqrt(1.0 + lam * (x @ x))
    q = np.array([x[0] * s, x[1] * s, s / math.sqrt(lam)])
    ds = -lam * s**3 * (x @ xdot)
    qdot = np.array([xdot[0] * s + x[0] * ds, xdot[1] * s + x[1] * ds, ds / math.sqrt(lam)])
    return q, qdot


def test_embed_constraint_random():
    rng = np.random.default_rng(42)
    params = SystemParams(SystemKind.COULOMB, lam=0.25, k=0.05)
    for _ in range(1000):
        x1, x2 = rng.uniform(-20.0, 20.0, size=2)
        p1, p2 = rng.uniform(-2.0, 2.0, size=2)
        xdot = np.array(h_gradient(x1, x2, p1, p2, params)[2:])  # dH/dp
        q, qdot = _embed_with_velocity(np.array([x1, x2]), xdot, params.lam)
        # the chart lands on the sphere and Hamilton's velocity stays tangent to it
        assert abs(q @ q - 4.0) < 1e-12
        assert abs(q @ qdot) < 1e-12 * (1.0 + np.linalg.norm(qdot))
        # the kinetic term of H is the free kinetic energy on the sphere
        kinetic = h_value(x1, x2, p1, p2, params) - potential(math.hypot(x1, x2), params)
        assert 0.5 * (qdot @ qdot) == pytest.approx(kinetic, rel=1e-11, abs=1e-13)


def test_embed_pole():
    # the chart touches the sphere at the pole, so there the metric is Euclidean
    for lam in (0.0, 0.25, 4.0):
        assert pi_components(0.0, 0.0, 0.3, -1.2, lam) == (0.3, -1.2)
        params = SystemParams(SystemKind.OSCILLATOR, lam=lam)
        x1dot, x2dot, _, _ = equations_of_motion(PhaseState(1e-9, 0.0, 0.3, -1.2), params)
        assert x1dot == pytest.approx(0.3, rel=1e-15)
        assert x2dot == pytest.approx(-1.2, rel=1e-15)


def test_flat_limit():
    flat = SystemParams(SystemKind.COULOMB, lam=0.0, k=0.05)
    tiny = SystemParams(SystemKind.COULOMB, lam=1e-12, k=0.05)
    for x1, x2 in ((0.4, -1.1), (3.0, 2.0)):
        assert h_value(x1, x2, 0.2, 0.7, tiny) == pytest.approx(
            h_value(x1, x2, 0.2, 0.7, flat), abs=1e-10)
        assert h_gradient(x1, x2, 0.2, 0.7, tiny) == pytest.approx(
            h_gradient(x1, x2, 0.2, 0.7, flat), abs=1e-10)
    state0 = PhaseState(1.6, 0.0, 0.0, 0.55)
    a = integrate(state0, flat, t_end=20.0)
    b = integrate(state0, tiny, t_end=20.0)
    assert np.max(np.abs(a.states - b.states)) < 1e-8

