"""Symbolic oracle: the production kernels run on sympy symbols, with symbolic lam
and k, and are proved exactly to be the values and derivatives of an independent
sympy H, R' and Q', to satisfy the Higgs-algebra identities the ``brackets``
command prints, and to conserve R' and Q' at the apsides, as the ``turning``
command reports; the gradient kernels are also checked on sampled states, and
the coulomb ground state and the lowest oscillator states are proved exact
eigenstates of the radial operator."""

import math
import sys
import types

import numpy as np
import pytest
import sympy as sp

from screened_sphere import conserved, dynamics, phase_space, spectra
from screened_sphere.conserved import (
    FRADKIN_1,
    FRADKIN_XY,
    HAMILTONIAN,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
)
from screened_sphere.dynamics import SystemKind, SystemParams
from screened_sphere.closed_forms import coulomb_energy, m_prime, oscillator_energy
from screened_sphere.spectra import _transformed_potential
from oscillator_reference import oscillator_wavefunction
from state_sampler import sample_states

X, Y, PX, PY = sp.symbols("x y p_x p_y", real=True)
LAM, K = sp.symbols("lambda k", positive=True)
Z = (X, Y, PX, PY)
COULOMB, OSCILLATOR = SystemKind.COULOMB, SystemKind.OSCILLATOR

# The independent oracle of the kernels: H, pi, R' and Q' written out in sympy
R = sp.sqrt(X**2 + Y**2)
S = X * PX + Y * PY
PI_X, PI_Y = PX + LAM * S * X, PY + LAM * S * Y
LZ = X * PY - Y * PX
KINETIC = (1 + LAM * R**2) * (PX**2 + PY**2 + LAM * S**2) / 2

H_COULOMB = KINETIC - 1 / R - K / R**2
H_OSCILLATOR = KINETIC + R**2 / 2 - K / R**2
RX = PI_Y * LZ - (1 + 2 * K / R) * X / R
RY = -PI_X * LZ - (1 + 2 * K / R) * Y / R
QXY = (1 + 2 * K / R**4) * X * Y + PI_X * PI_Y
Q1 = ((1 + 2 * K / R**4) * (X**2 - Y**2) + PI_X**2 - PI_Y**2) / 2


@pytest.fixture
def on_symbols(monkeypatch):
    """The params stand-in of a system, with symbolic lam and k (``SystemParams`` refuses
    symbols), for kernels that run on sympy: ``kernel_sqrt`` is ``sympy.sqrt`` in every
    loaded screened_sphere module that binds it, found by the object itself, so no kernel
    takes ``math.sqrt`` of a symbol whichever module it lives in."""
    kernel_sqrt = phase_space.kernel_sqrt
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "screened_sphere":
            for key, value in list(vars(module).items()):
                if value is kernel_sqrt:
                    monkeypatch.setattr(module, key, sp.sqrt)
    return lambda kind: types.SimpleNamespace(kind=kind, lam=LAM, k=K)


def _vanishes(expr) -> bool:
    """Whether ``expr``, a rational function of the symbols and of sqrt(x**2 + y**2), is
    identically 0: over one denominator its numerator expands to 0."""
    return sp.expand(sp.together(expr)) == 0


@pytest.mark.parametrize(
    "kind,cases",
    [
        (COULOMB, ((HAMILTONIAN, H_COULOMB), (RUNGE_LENZ_X, RX), (RUNGE_LENZ_Y, RY))),
        (OSCILLATOR, ((HAMILTONIAN, H_OSCILLATOR), (FRADKIN_XY, QXY), (FRADKIN_1, Q1))),
    ],
)
def test_gradient_kernels_match_symbolic_derivatives(kind, cases):
    params = SystemParams(kind, 0.1, 0.05)
    z = np.array([st.as_array() for st in sample_states(params, 1000, seed=31)]).T
    for obs, expr in cases:
        exact = sp.lambdify(
            (X, Y, PX, PY, LAM, K),
            [sp.diff(expr, v) for v in (X, Y, PX, PY)],
            "numpy",
        )
        want = np.array(exact(*z, params.lam, params.k))
        got = np.array(obs.gradient(*z, params))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), obs.name


@pytest.mark.parametrize("kind,h,pair,values,gradients", [
    (COULOMB, H_COULOMB, (RX, RY), conserved._runge_lenz_pair, conserved._runge_lenz_gradients),
    (OSCILLATOR, H_OSCILLATOR, (QXY, Q1), conserved._fradkin_pair, conserved._fradkin_gradients),
], ids=["coulomb", "oscillator"])
def test_kernels_on_symbols_are_the_symbolic_values_and_derivatives(on_symbols, kind, h, pair,
                                                                    values, gradients):
    # the production kernels themselves expand to exactly H, pi, R' and Q' and their derivatives
    params = on_symbols(kind)
    got = [phase_space.h_value(*Z, params), *phase_space.pi_components(*Z, LAM),
           *phase_space.h_gradient(*Z, params), *values(*Z, params),
           *(d for gradient in gradients(*Z, params) for d in gradient)]
    want = [h, PI_X, PI_Y, *(sp.diff(h, v) for v in Z), *pair,
            *(sp.diff(e, v) for e in pair for v in Z)]
    assert [sp.expand(g - w) for g, w in zip(got, want)] == [0] * len(want)


@pytest.mark.parametrize("kind", [COULOMB, OSCILLATOR])
def test_rdot_is_dr_dt_along_hamiltons_flow(on_symbols, kind):
    # the rdot that TURNING_RDOT_TOL gates is x.xdot / r, with xdot = dH/dp from h_gradient
    _, _, dh_dp1, dh_dp2 = phase_space.h_gradient(*Z, on_symbols(kind))
    assert _vanishes(dynamics._rdot(Z, LAM) - (X * dh_dp1 + Y * dh_dp2) / R)


# --- the Higgs algebra, as the brackets command evaluates it -------------------

def _identity(kind: SystemKind, i: int):
    """The residual of identity ``i`` of ``kind``'s algebra, as ``brackets`` evaluates it."""
    return lambda params: conserved._residuals(conserved._ALGEBRAS[kind], params(kind), Z)[i]


@pytest.mark.parametrize("name,residual", [
    (name, _identity(kind, i))
    for kind in (COULOMB, OSCILLATOR)
    for i, name in enumerate(conserved._ALGEBRAS[kind].identities)
])
def test_higgs_identity_holds_exactly(on_symbols, name, residual):
    assert _vanishes(residual(on_symbols)), name


# --- the paper's theorem: conservation at the apsides --------------------------

def _with_h(kind: SystemKind, i: int):
    """{A, H} or {B, H} of ``kind``'s pair, as ``turning`` evaluates it."""
    return lambda params: conserved._brackets_with_h(conserved._ALGEBRAS[kind], params(kind), Z)[i]


def _magnitude(kind: SystemKind, params):
    """A**2 + B**2 in terms of Et = H - lam*Lz**2/2 and Lz**2 - 2k, from the production values:
    1 + 2*Et*(Lz**2 - 2k) for R', Et**2 - (Lz**2 - 2k) for Q'."""
    a, b = conserved._ALGEBRAS[kind].values(*Z, params)
    lz = phase_space.lz_value(*Z)
    et = phase_space.h_value(*Z, params) - LAM * lz**2 / 2
    if kind is COULOMB:
        return a**2 + b**2 - 1 - 2 * et * (lz**2 - 2 * K)
    return a**2 + b**2 - et**2 + (lz**2 - 2 * K)


# rdot = (1 + lam*r**2)**2 * (x.p)/r, so the turning points are x.p = 0; at k = 0 they hold
# everywhere
CONDITIONS = {"k=0": {K: 0}, "x.p=0": {PX: -Y * PY / X}}
OFF_APSIS = {X: 1, Y: sp.Rational(1, 2), PX: sp.Rational(3, 10), PY: sp.Rational(7, 10),
             LAM: sp.Rational(1, 10), K: sp.Rational(1, 20)}  # x.p != 0, k > 0


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("name,residual", [
    ("{R'x,H}", _with_h(COULOMB, 0)),
    ("{R'y,H}", _with_h(COULOMB, 1)),
    ("{Q'xy,H}", _with_h(OSCILLATOR, 0)),
    ("{Q'1,H}", _with_h(OSCILLATOR, 1)),
    ("R'x^2+R'y^2-1-2*Et*(Lz^2-2k)", lambda params: _magnitude(COULOMB, params(COULOMB))),
    ("Q'xy^2+Q'1^2-Et^2+(Lz^2-2k)", lambda params: _magnitude(OSCILLATOR, params(OSCILLATOR))),
])
def test_extended_quantities_conserved_at_turning_points(on_symbols, name, residual, condition):
    assert _vanishes(residual(on_symbols).subs(CONDITIONS[condition])), name


def test_screened_runge_lenz_not_conserved_off_the_apsides(on_symbols):
    # {R'x, H} as turning evaluates it
    assert 0.05 < float(_with_h(COULOMB, 0)(on_symbols).subs(OFF_APSIS)) < 0.06  # 0.05265


@pytest.mark.parametrize("kind", [COULOMB, OSCILLATOR])
def test_apsis_geometry_on_the_production_kernels(on_symbols, kind):
    # at x.p = 0, R' points along the apsis (R' x x = 0), and x is a principal axis of the
    # symmetric tensor Q' = [[Q'1, Q'xy], [Q'xy, -Q'1]]; neither holds off the apsides
    a, b = conserved._ALGEBRAS[kind].values(*Z, on_symbols(kind))
    statement = (a * Y - b * X if kind is COULOMB
                 else 2 * b * X * Y - a * (X**2 - Y**2))
    assert _vanishes(statement.subs(CONDITIONS["x.p=0"]))
    assert abs(float(statement.subs(OFF_APSIS))) > 0.1


# --- the coulomb ground state, exactly -----------------------------------------

CHI = sp.symbols("chi", positive=True)
MP = sp.symbols("m_prime", positive=True)
# spectra's Ht for the coulomb system at lam > 0, written in chi = sqrt(lam) s:
# Ht = -(lam/2) d^2/dchi^2 + V(chi)
HT_POTENTIAL = (LAM / 2 * (MP**2 - sp.Rational(1, 4)) / sp.sin(CHI) ** 2
                - sp.sqrt(LAM) * sp.cot(CHI) - LAM / 8 + LAM * K)
E_GROUND = LAM / 2 * MP * (MP + 1) - 1 / (2 * (MP + sp.Rational(1, 2)) ** 2) + LAM * K
PSI_GROUND = sp.sin(CHI) ** (MP + sp.Rational(1, 2)) * sp.exp(
    -CHI / (sp.sqrt(LAM) * (MP + sp.Rational(1, 2))))


def test_coulomb_ground_state_is_an_exact_eigenstate():
    ht_psi = -LAM / 2 * sp.diff(PSI_GROUND, CHI, 2) + HT_POTENTIAL * PSI_GROUND
    assert sp.simplify((ht_psi - E_GROUND * PSI_GROUND) / PSI_GROUND) == 0


def test_the_grid_operator_is_ht_exactly(monkeypatch):
    # spectra's potential itself, on the node s = chi/sqrt(lam): sympy's sqrt, sin and tan for
    # its math, and the symbol m' for m_prime(m, k); its float constants 0.5, 0.125 and 0.25
    # are binary fractions, so nsimplify makes them the exact rationals
    monkeypatch.setattr(spectra, "math", types.SimpleNamespace(sqrt=sp.sqrt, sin=sp.sin,
                                                               tan=sp.tan))
    monkeypatch.setattr(spectra, "m_prime", lambda m, k: MP)
    (potential,) = _transformed_potential(COULOMB, LAM, K, 1, [CHI / sp.sqrt(LAM)])
    assert sp.simplify(sp.nsimplify(potential, rational=True) - HT_POTENTIAL) == 0


@pytest.mark.parametrize("lam,k,m", [(0.1, 0.05, 1), (0.7, 0.0, 2), (2.0, 1.3, 3)])
def test_coulomb_ground_state_operator_is_the_grid_operator(lam, k, m):
    mp = m_prime(m, k)
    chi = np.array([0.1, 0.7, 1.3, 1.5])
    values = {LAM: lam, K: k, MP: mp}
    want = [float(HT_POTENTIAL.subs(values).subs(CHI, c)) for c in chi]
    got = _transformed_potential(SystemKind.COULOMB, lam, k, m, chi / math.sqrt(lam))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert math.isclose(float(E_GROUND.subs(values)), coulomb_energy(lam, k, m, 0),
                        rel_tol=1e-14)


# --- the oscillator eigenstates, exactly ---------------------------------------

T, RHO = sp.symbols("t rho", positive=True)  # t = tan(chi), rho = sqrt(4 + lam**2)
ETA = (4 * LAM + 2 * LAM * MP + RHO) / 4


def _oscillator_state(n: int, eta):
    """(g, F, E) of the N-th closed-form state psi = g*F in t: g = t**m' * (1 + t**2)**(-eta/lam)
    and the terminating series F = F(-N, beta; gamma; sin(chi)**2)."""
    beta, gamma = 1 + MP + n + RHO / (2 * LAM), 1 + MP
    sin2 = T**2 / (1 + T**2)
    series = sum(sp.rf(-n, j) * sp.rf(beta, j) / (sp.rf(gamma, j) * sp.factorial(j)) * sin2**j
                 for j in range(n + 1))
    s = 1 + MP + 2 * n
    return T**MP * (1 + T**2) ** (-eta / LAM), series, s * (RHO + LAM * s) / 2 + LAM * K


def _oscillator_residual(n: int, eta):
    """Numerator of (H1 - E)psi / g, reduced modulo rho**2 - 4 - lam**2.

    H1 is the chi-form that ``oscillator_operator_residual`` applies by stencils.
    Since d/dchi = (1 + t**2) d/dt, d/dchi (g*u) = g * (1 + t**2) * (u' + (g'/g)*u),
    so g divides out before sympy sees it and only rational functions of t remain.
    """
    g, series, energy = _oscillator_state(n, eta)
    log_dg = sp.diff(sp.expand_log(sp.log(g), force=True), T)

    def d_chi(u):  # d/dchi (g*u), divided by g
        return (1 + T**2) * (sp.diff(u, T) + log_dg * u)

    d1 = d_chi(series)
    d2 = d_chi(d1)
    h1 = (-LAM / 2 * (d2 + (1 / T + 3 * T) * d1 - MP**2 * (1 + T**2) / T**2 * series
                      + 3 * series + sp.Rational(15, 4) * T**2 * series)
          + T**2 / (2 * LAM) * series + LAM * K * series)
    numerator = sp.numer(sp.together(h1 - energy * series))
    return sp.rem(sp.expand(numerator), RHO**2 - 4 - LAM**2, RHO)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_oscillator_states_are_exact_eigenstates(n):
    assert _oscillator_residual(n, ETA) == 0


def test_oscillator_proof_rejects_a_shifted_eta():
    assert _oscillator_residual(0, ETA + LAM / 8) != 0


@pytest.mark.parametrize("lam,k,m,n", [(0.1, 0.05, 1, 0), (0.7, 0.0, 2, 3), (2.0, 1.3, 3, 2)])
def test_oscillator_proof_is_of_the_reference_state_and_energy(lam, k, m, n):
    mp = m_prime(m, k)
    g, series, energy = _oscillator_state(n, ETA)
    values = {LAM: lam, K: k, MP: mp, RHO: math.sqrt(4.0 + lam * lam)}
    psi = sp.lambdify(T, (g * series).subs(values), "numpy")
    r = np.array([0.2, 0.9, 1.7, 3.0])
    # r**m' = lam**(-m'/2) * t**m', a constant factor that g leaves out
    want = oscillator_wavefunction(r, lam, k, m, n)
    assert np.allclose(lam ** (-mp / 2) * psi(math.sqrt(lam) * r), want, rtol=1e-12, atol=0.0)
    assert math.isclose(float(energy.subs(values)), oscillator_energy(lam, k, m, n),
                        rel_tol=1e-14)
