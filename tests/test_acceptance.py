"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from screened_sphere.closed_forms import analytic_energy, coulomb_energy, m_prime, oscillator_energy
from screened_sphere.conserved import (
    FRADKIN_1,
    FRADKIN_XY,
    HAMILTONIAN,
    LZ,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    Observable,
    finite_difference_gradient,
    poisson_bracket,
    turning_point_conservation,
    verify_coulomb_algebra,
    verify_oscillator_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    closure_analysis,
    equations_of_motion,
    find_turning_points,
    integrate,
    lz_value,
)
from screened_sphere.spectra import radial_solve_numeric
from orbit_reference import OrbitShape, orbit_residual, state_at_theta
from oscillator_reference import oscillator_operator_residual
from state_sampler import sample_states

COULOMB = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
OSCILLATOR = SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05)
COULOMB_STATE = PhaseState(1.6, 0.0, 0.0, 0.55)
OSCILLATOR_STATE = PhaseState(1.5, 0.0, 0.0, 0.6)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def _radial_periods_covered(traj, params) -> float:
    nu = OrbitShape.from_state(traj.state_at(0.0), params).coefficients(params)[2]
    return (traj.theta[-1] - traj.theta[0]) / (2.0 * math.pi / nu)


def test_criterion_1_orbit_matches_closed_form():
    details = []
    ok = True
    for params, st0, t_end in (
        (COULOMB, COULOMB_STATE, 70.0),
        (OSCILLATOR, OSCILLATOR_STATE, 40.0),
    ):
        start = time.perf_counter()
        traj = integrate(st0, params, t_end=t_end, rel_tol=1e-10, n_samples=6001)
        points = find_turning_points(traj)
        dev_cf, dev_ode = orbit_residual(traj, params)
        elapsed = time.perf_counter() - start
        periods = _radial_periods_covered(traj, params)
        ok = (
            ok
            and dev_cf < 1e-6
            and dev_ode < 1e-6
            and periods >= 10.0
            and elapsed < 5.0
            and len(points) > 20
        )
        details.append(
            f"{params.kind.value}: dev={dev_cf:.2e}, periods={periods:.1f}, {elapsed:.2f}s"
        )
    _report(1, "orbit/closed-form agreement", ok, "; ".join(details))


def test_criterion_2_curvature_shift_equivalence():
    lam = 0.2
    st0 = PhaseState(1.4, 0.0, 0.0, 0.65)
    sphere = integrate(st0, SystemParams(SystemKind.COULOMB, lam, 0.05),
                       t_end=60.0, rel_tol=1e-11, n_samples=12001)
    flat = integrate(st0, SystemParams(SystemKind.COULOMB, 0.0, 0.05),
                     t_end=60.0, rel_tol=1e-11, n_samples=12001)
    th_hi = min(sphere.theta[-1], flat.theta[-1]) - 0.05
    th = np.linspace(sphere.theta[0] + 0.01, th_hi, 4000)
    r_sphere = CubicSpline(sphere.theta, sphere.r)(th)
    r_flat = CubicSpline(flat.theta, flat.r)(th)
    dev = float(np.max(np.abs(r_sphere - r_flat) / r_sphere))
    _report(2, "curvature-shift equivalence", dev < 1e-6,
            f"max rel dev={dev:.2e} over {th_hi - th[0]:.0f} rad")


def test_criterion_3_closure_and_irrational_control():
    # rational case: alpha = 1/2, phase point returns after delta theta = 4 pi
    params = SystemParams(SystemKind.COULOMB, 0.0, 0.375)
    st0 = PhaseState(2.0, 0.0, 0.0, 0.5)
    res = closure_analysis(params, 1.0)
    traj = integrate(st0, params, t_end=60.0, rel_tol=1e-10, n_samples=8001)
    back = state_at_theta(traj, traj.theta[0] + res.closure_angle)
    return_dev = float(np.max(np.abs(np.array(back) - np.array(st0))))

    # irrational control: alpha = sqrt(0.9); never within 1e-3 of the
    # start over 64 radial periods
    params_i = SystemParams(SystemKind.COULOMB, 0.0, 0.05)
    st_i = PhaseState(2.0, 0.0, 0.0, 0.5)
    res_i = closure_analysis(params_i, 1.0)
    t_radial = 2.0 * math.pi * (-2.0 * -0.3875) ** -1.5  # flat-Kepler-period scale
    traj_i = integrate(st_i, params_i, t_end=65.5 * t_radial, rel_tol=1e-10,
                       n_samples=40001)
    n_periods = (traj_i.theta[-1] - traj_i.theta[0]) / (2.0 * math.pi / res_i.alpha)
    tg = np.linspace(0.5 * t_radial, traj_i.t[-1], 300000)
    y = traj_i.dense(tg)
    dist = np.sqrt(
        (y[0] - st_i.x1) ** 2 + (y[1] - st_i.x2) ** 2
        + (y[2] - st_i.p1) ** 2 + (y[3] - st_i.p2) ** 2
    )
    min_dist = float(dist.min())
    ok = (
        res.closed
        and res.closure_angle == pytest.approx(4.0 * math.pi)
        and return_dev < 1e-6
        and not res_i.closed
        and n_periods >= 64.0
        and min_dist > 1e-3
    )
    _report(3, "closure", ok,
            f"alpha=1/2 return dev={return_dev:.2e}; irrational min dist="
            f"{min_dist:.2e} over {n_periods:.0f} radial periods")


def test_criterion_4_turning_point_conservation():
    details = []
    ok = True
    for params, st0, t_end in (
        (COULOMB, COULOMB_STATE, 70.0),
        (OSCILLATOR, OSCILLATOR_STATE, 40.0),
    ):
        traj = integrate(st0, params, t_end=t_end, rel_tol=1e-10, n_samples=6001)
        rep = turning_point_conservation(traj)
        unscreened = SystemParams(params.kind, params.lam, 0.0)
        traj0 = integrate(st0, unscreened, t_end=t_end / 2, rel_tol=1e-10, n_samples=3001)
        rep0 = turning_point_conservation(traj0)
        ok = (
            ok
            and rep.max_abs_bracket_at_turning < 1e-7
            and rep.generic_max_abs_bracket > 1e-3
            and rep0.generic_max_abs_bracket < 1e-9
        )
        details.append(
            f"{params.kind.value}: turning={rep.max_abs_bracket_at_turning:.1e}, "
            f"generic={rep.generic_max_abs_bracket:.1e}, k=0 max={rep0.generic_max_abs_bracket:.1e}"
        )
    _report(4, "turning-point conservation", ok, "; ".join(details))


def test_criterion_5_algebra_verification():
    coulomb_reports = verify_coulomb_algebra(COULOMB, 1000, seed=0)
    osc_reports = verify_oscillator_algebra(OSCILLATOR, 1000, seed=0)
    linear_max = max(
        r.max_abs_residual for r in (coulomb_reports[:2] + osc_reports[:2])
    )
    quad_max = max(coulomb_reports[2].max_abs_residual, osc_reports[2].max_abs_residual)

    # oracle pinning of the classical quadratic constants at 10 states
    pin_ok = True
    for st in sample_states(COULOMB, 10, seed=13):
        lz = lz_value(st.x1, st.x2, st.p1, st.p2)
        fd = poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, st, COULOMB, "fd")
        classical = (-2.0 * HAMILTONIAN.value(st.x1, st.x2, st.p1, st.p2, COULOMB)
                     + 2.0 * COULOMB.lam * lz**2 - 2.0 * COULOMB.k * COULOMB.lam) * lz
        pin_ok = pin_ok and abs(fd - classical) < 1e-6
        pin_ok = pin_ok and abs(fd - (classical + 0.25 * COULOMB.lam * lz)) > 1e-3

    # Jacobi identity on (Lz, R'x, R'y), nested brackets in FD mode
    def nested(f, g):
        def value(x1, x2, p1, p2, p):
            return poisson_bracket(f, g, PhaseState(x1, x2, p1, p2), p)

        return Observable(
            "b", value,
            lambda x1, x2, p1, p2, p: finite_difference_gradient(
                value, PhaseState(x1, x2, p1, p2), p),
        )

    jac = 0.0
    for st in sample_states(COULOMB, 100, seed=11):
        total = (
            poisson_bracket(LZ, nested(RUNGE_LENZ_X, RUNGE_LENZ_Y), st, COULOMB)
            + poisson_bracket(RUNGE_LENZ_X, nested(RUNGE_LENZ_Y, LZ), st, COULOMB)
            + poisson_bracket(RUNGE_LENZ_Y, nested(LZ, RUNGE_LENZ_X), st, COULOMB)
        )
        jac = max(jac, abs(total))

    ok = linear_max < 1e-9 and quad_max < 1e-7 and pin_ok and jac < 1e-6
    _report(5, "algebra verification", ok,
            f"linear={linear_max:.1e}, quadratic={quad_max:.1e}, jacobi={jac:.1e}, "
            f"constant pinned={pin_ok}")


def test_criterion_6_spectra():
    start = time.perf_counter()

    # flat / unscreened closed-form reductions at 1e-9
    limits_ok = True
    for m in (1, 2):
        for n in (0, 1, 2):
            mp = m_prime(m, 0.05)
            flat_c = -0.5 / (n + mp + 0.5) ** 2
            limits_ok = limits_ok and abs(coulomb_energy(1e-12, 0.05, m, n) - flat_c) < 1e-9
            limits_ok = limits_ok and abs(
                oscillator_energy(1e-12, 0.05, m, n) - (1.0 + mp + 2 * n)
            ) < 1e-9
            higgs_c = 0.5 * 0.1 * (m + n) * (m + n + 1) - 0.5 / (m + n + 0.5) ** 2
            limits_ok = limits_ok and abs(coulomb_energy(0.1, 1e-12, m, n) - higgs_c) < 1e-9
            s = 1 + m + 2 * n
            higgs_o = 0.5 * s * (math.sqrt(4.01) + 0.1 * s)
            limits_ok = limits_ok and abs(oscillator_energy(0.1, 1e-12, m, n) - higgs_o) < 1e-9

    # oracle agreement across the full parameter box
    worst_rel = 0.0
    box_ok = True
    for kind in (SystemKind.COULOMB, SystemKind.OSCILLATOR):
        for lam in (0.0, 0.05, 0.1):
            for k in (0.0, 0.02, 0.05):
                for m in (1, 2):
                    result = radial_solve_numeric(SystemParams(kind, lam, k), m, n_levels=3)
                    for n in range(3):
                        want = analytic_energy(kind, lam, k, m, n)
                        rel = abs(result.energies[n] - want) / abs(want)
                        est_rel = result.error_estimate[n] / abs(want)
                        worst_rel = max(worst_rel, rel)
                        box_ok = box_ok and rel <= max(1e-4, est_rel)

    # degeneracy splitting: exact equality at k = 0, nonzero gap at k = 0.05
    deg_ok = True
    for kind, pair in (
        (SystemKind.COULOMB, ((1, 1), (2, 0))),
        (SystemKind.OSCILLATOR, ((4, 0), (2, 1))),
    ):
        (m1, n1), (m2, n2) = pair
        degenerate_unscreened = (analytic_energy(kind, 0.0, 0.0, m1, n1)
                                 == analytic_energy(kind, 0.0, 0.0, m2, n2))
        gap = abs(analytic_energy(kind, 0.0, 0.05, m1, n1)
                  - analytic_energy(kind, 0.0, 0.05, m2, n2))
        deg_ok = deg_ok and degenerate_unscreened and gap > 1e-4

    elapsed = time.perf_counter() - start
    ok = limits_ok and box_ok and deg_ok and elapsed < 180.0
    _report(6, "spectra", ok,
            f"limits={limits_ok}, box worst rel={worst_rel:.2e}, "
            f"degeneracy={deg_ok}, {elapsed:.0f}s")


def test_criterion_7_oscillator_wavefunction_residual():
    worst = max(
        oscillator_operator_residual(0.1, 0.05, 1, n)
        for n in range(4)
    )
    _report(7, "wavefunction residual", worst < 1e-3, f"max residual={worst:.2e}")


def test_criterion_8_gradient_hygiene():
    worst = 0.0
    for params, observables in (
        (COULOMB, (LZ, HAMILTONIAN, RUNGE_LENZ_X, RUNGE_LENZ_Y)),
        (OSCILLATOR, (LZ, HAMILTONIAN, FRADKIN_XY, FRADKIN_1)),
    ):
        for st in sample_states(params, 1000, seed=8):
            for obs in observables:
                ga = np.array(obs.gradient(st.x1, st.x2, st.p1, st.p2, params))
                gf = finite_difference_gradient(obs.value, st, params)
                worst = max(worst, float(np.max(np.abs(ga - gf) / np.maximum(1.0, np.abs(ga)))))
            # equations of motion are the symplectic gradient of H
            d = np.array(equations_of_motion(st, params))
            gh = finite_difference_gradient(HAMILTONIAN.value, st, params)
            expected = np.array([gh[2], gh[3], -gh[0], -gh[1]])
            worst = max(worst, float(np.max(np.abs(d - expected) / np.maximum(1.0, np.abs(expected)))))
    _report(8, "gradient hygiene", worst < 1e-6, f"max rel dev={worst:.2e}")
