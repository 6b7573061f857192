"""Phase-space kernels of the gnomonic chart: H, its gradient, Hamilton's equations, Lz and pi.

``dynamics`` sets out the chart and integrates on these kernels; ``conserved``
takes its kernels from here, so the bracket checks never run ``dynamics``.
On Python floats the kernels run on the stdlib alone: numpy loads only
where an array is passed in.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .closed_forms import SystemKind, SystemParams
from .errors import RadiusError

MAX_SAMPLES = 10**6  # cap on trajectory samples and sampled states, checked before allocating


class PhaseState(namedtuple("PhaseState", "x1 x2 p1 p2")):
    """Gnomonic phase-space point (x1, x2, p1, p2)."""

    __slots__ = ()

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)


def v_value(r, params: SystemParams):
    """V(r) = -1/r (coulomb) or r**2/2 (oscillator), minus k/r**2, unchecked: the one
    definition, on floats, arrays and symbols alike."""
    r2 = r * r  # numpy's r**2 is r*r; a float ** calls pow, which need not be
    return (-1.0 / r if params.kind is SystemKind.COULOMB else 0.5 * r2) - params.k / r2


def potential(r, params: SystemParams):
    """V(r) for the given system on a float or an array; r must be positive (singular at
    r = 0), and an r whose square underflows to 0 is refused alike."""
    if array := not isinstance(r, (float, int)):
        import numpy as np
        r = np.asarray(r, dtype=float)
    r2 = r * r
    if ((r <= 0.0) | (r2 == 0.0)).any() if array else r <= 0.0 or r2 == 0.0:
        raise RadiusError("potential requires r > 0")
    v = v_value(r, params)
    return v if array and v.ndim else float(v)


def pi_components(x1, x2, p1, p2, lam: float):
    """Curvature-corrected momentum components (pi_1, pi_2) on floats or arrays."""
    s = x1 * p1 + x2 * p2
    return p1 + lam * s * x1, p2 + lam * s * x2


def check_radius(x1: float, x2: float, name: str) -> None:
    """Raise ``RadiusError`` unless r**2 = x1**2 + x2**2 > 0; it can underflow at r > 0."""
    if not x1 * x1 + x2 * x2 > 0.0:
        raise RadiusError(f"{name} requires r**2 > 0")


# Phase-space kernels: functions of (x1, x2, p1, p2, params) that work the
# same on floats and on equal-shape arrays; gradients are 4-tuples
# (d/dx1, d/dx2, d/dp1, d/dp2).

def kernel_sqrt(v):
    """sqrt that keeps a Python float a float, whose arithmetic is cheaper than numpy's, and
    loads numpy only for an array."""
    if isinstance(v, (float, int)):
        return math.sqrt(v)
    import numpy as np
    return np.sqrt(v)


def lz_value(x1, x2, p1, p2, params: SystemParams | None = None):
    """Lz = x1*p2 - x2*p1."""
    return x1 * p2 - x2 * p1


def lz_gradient(x1, x2, p1, p2, params: SystemParams | None = None):
    """Phase-space gradient of Lz."""
    return p2, -p1, -x2, x1


def h_value(x1, x2, p1, p2, params: SystemParams):
    """H = (1 + lam*r**2) * (p**2 + lam*(x.p)**2) / 2 + V(r), r unchecked."""
    r2 = x1 * x1 + x2 * x2
    s = x1 * p1 + x2 * p2
    psq = p1 * p1 + p2 * p2
    return 0.5 * (1.0 + params.lam * r2) * (psq + params.lam * s * s) + v_value(
        kernel_sqrt(r2), params
    )


# The gradient of H as source text, the one definition that h_gradient and each
# stage of the generated DOP853 driver (dynamics._compile_driver) are built from: a line
# reading the system from ``params``, lines on (x1, x2, p1, p2) that call a local ``sqrt``,
# and the four components dH/dx_i = lam*x_i*(p**2 + lam*s**2) + a*lam*s*p_i + V'(r)*x_i/r,
# dH/dp_i = a*pi_i with a = 1 + lam*r**2.  ``_FIELD`` is Hamilton's equations, J times it,
# which hamilton_field and the driver's stages run, so a stage derivative is hamilton_field's
# bit for bit.
_H_PARAMS = "lam, two_k, coulomb = params.lam, 2.0 * params.k, params.kind is SystemKind.COULOMB"
_H_LINES = (
    "r2 = x1 * x1 + x2 * x2", "r = sqrt(r2)", "s = x1 * p1 + x2 * p2", "a = 1.0 + lam * r2",
    "ls = lam * s", "common = lam * (p1 * p1 + p2 * p2 + ls * s)", "als = a * lam * s",
    "radial = ((1.0 / r2 if coulomb else r) + two_k / (r2 * r)) / r",
)
_H_GRAD = ("x1 * common + als * p1 + radial * x1", "x2 * common + als * p2 + radial * x2",
           "a * (p1 + ls * x1)", "a * (p2 + ls * x2)")
_FIELD = (_H_GRAD[2], _H_GRAD[3], f"-({_H_GRAD[0]})", f"-({_H_GRAD[1]})")

exec("\n".join("\n    ".join((  # defines h_gradient and hamilton_field
    f"def {name}(x1, x2, p1, p2, params):", f'"""{doc}, on floats or equal-shape arrays."""',
    _H_PARAMS, "sqrt = kernel_sqrt", *_H_LINES, "return " + ", ".join(exprs)))
    for name, doc, exprs in (("h_gradient", "Phase-space gradient of H", _H_GRAD),
                             ("hamilton_field", "Hamilton's equations, J times h_gradient", _FIELD))))


# contract: a scalar entry point, H of one state
def hamiltonian(state: PhaseState, params: SystemParams) -> float:
    """Total energy H = pi**2/2 + (lam/2)*Lz**2 + V(r)."""
    check_radius(state.x1, state.x2, "hamiltonian")
    return float(h_value(state.x1, state.x2, state.p1, state.p2, params))
