"""Metamorphic relations: one run of a command against another run of it, with no closed form.

Each relation follows from the physics alone, so it checks the program independently of
the closed forms it also evaluates (ROADMAP item 15).
"""

import math
import random

import numpy as np
import pytest

from golden_digests import run as run_main
from screened_sphere.conserved import turning_point_conservation
from screened_sphere.dynamics import (PhaseState, SystemKind, SystemParams, closure_analysis,
                                      integrate)


def _e_numeric(directory, system: str, lam: float) -> float:
    """The grid oracle's E_numeric for k = 0.05, m = 1, N = 0, as ``spectrum`` prints it."""
    rc, out = run_main(["spectrum", "--system", system, "--lambda", repr(lam), "--k", "0.05",
                        "--m", "1", "--N", "0", "--numeric"], directory)
    assert rc == 0
    header, row = out["stdout"].decode().splitlines()
    return float(dict(zip(header.split(","), row.split(",")))["E_numeric"])


@pytest.mark.parametrize("system, lam", [("coulomb", 1e-12), ("oscillator", 1e-7)])
def test_numeric_spectrum_is_continuous_as_lambda_goes_to_zero(tmp_path, system, lam):
    # a printed level is within 1e-4 relative of the true level (the acceptance contract),
    # and a level is smooth in lambda with a slope of order one, so from lambda = 0 to these
    # lambda it moves by far less than that: the two prints agree within 2e-4 relative.  The
    # chi grid of 2000 points on the whole sphere printed -0.23825 and -0.00148 for coulomb,
    # 1.94868 and 1.0089 for the oscillator
    flat, curved = _e_numeric(tmp_path, system, 0.0), _e_numeric(tmp_path, system, lam)
    assert abs(curved - flat) <= 2e-4 * abs(flat)


def _closure_cases(rng: random.Random, n: int):
    """(lam, k, Lz) with 2k < Lz**2: random alpha, and alpha = p/q, which closes."""
    for i in range(n):
        lz = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.3, 1.3)
        lam = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        if i % 2:
            q = rng.randint(1, 64)
            alpha = rng.randint(1, q) / q
            k = 0.5 * lz * lz * (1.0 - alpha * alpha)
        else:
            k = rng.choice([0.0, rng.uniform(0.0, 0.499 * lz * lz)])
        yield lam, k, lz


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("s", [2.0, 4.0, 0.5, 0.25])
def test_closure_is_invariant_under_the_coulomb_scaling(tmp_path, kind, s):
    # (x, p, t, lam, k) -> (s**2 x, p/s, s**3 t, lam/s**4, s**2 k) maps coulomb orbits to
    # orbits with Lz -> s Lz, and alpha = sqrt(1 - 2k/Lz**2) does not change; for s a power
    # of 2 every scaled product is exact, so the result is the same bit for bit
    cases = list(_closure_cases(random.Random(f"{kind.value}:{s}"), 400))
    assert sum(closure_analysis(SystemParams(kind, lam, k), lz).closed for lam, k, lz in cases) > 150
    for lam, k, lz in cases:
        want = closure_analysis(SystemParams(kind, lam, k), lz)
        got = closure_analysis(SystemParams(kind, lam / s**4, s * s * k), s * lz)
        assert repr(got) == repr(want), (lam, k, lz)
    for lam, k, lz in cases[:20]:  # and the closure command prints the same bytes
        want, got = (run_main(["closure", "--system", kind.value, "--lambda", repr(args[0]),
                               "--k", repr(args[1]), "--Lz", repr(args[2])], tmp_path)
                     for args in ((lam, k, lz), (lam / s**4, s * s * k, s * lz)))
        assert want[0] == 0
        assert want == got, (lam, k, lz)


_SHORT_ORBITS = [(SystemKind.COULOMB, (1.6, 0.0, 0.0, 0.55), 20.0),
                 (SystemKind.OSCILLATOR, (1.5, 0.0, 0.0, 0.6), 10.0)]


def _assert_reflected(kind, state, t_end, lam, signs, lz_sign, value_signs):
    """The orbit from ``state`` and the one from its reflection by ``signs`` are the same
    integration: times, radii, energies and turning times equal to the bit, states and the
    extended pair reflected (an exact zero may take either sign), Lz times ``lz_sign``.  theta
    is left out, since atan2 and the unwrapping pick branches."""
    params = SystemParams(kind, lam, 0.05)
    a, b = (integrate(PhaseState(*(s * v for s, v in zip(side, state))), params, t_end,
                      n_samples=401) for side in ((1.0,) * 4, signs))
    ra, rb = turning_point_conservation(a), turning_point_conservation(b)
    assert len(a.turning_points) >= 4
    for name in ("t", "r", "H"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [(p.t.hex(), p.kind) for p in a.turning_points] == [
        (p.t.hex(), p.kind) for p in b.turning_points]
    assert np.array_equal(a.states * signs, b.states)
    assert np.array_equal([p.state for p in a.turning_points] * np.array(signs),
                          [p.state for p in b.turning_points])
    assert (lz_sign * a.Lz).tobytes() == b.Lz.tobytes()
    assert ra.generic_max_abs_bracket == rb.generic_max_abs_bracket
    assert np.array_equal(ra.values_at_turning * value_signs, rb.values_at_turning)
    # the brackets at the turning points are rounding noise, of no definite sign
    assert rb.max_abs_bracket_at_turning < 1e-7


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind, state, t_end", _SHORT_ORBITS, ids=["coulomb", "oscillator"])
def test_point_reflection_maps_an_orbit_onto_itself(kind, state, t_end, lam):
    # (x, p) -> (-x, -p) is the rotation by pi: H and Lz are even, the equations of motion odd,
    # and so is rounding, so the solver takes the same steps; R' is odd and Q' even
    value_signs = (-1.0, -1.0) if kind is SystemKind.COULOMB else (1.0, 1.0)
    _assert_reflected(kind, state, t_end, lam, (-1.0,) * 4, 1.0, value_signs)


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind, state, t_end", _SHORT_ORBITS, ids=["coulomb", "oscillator"])
def test_mirror_maps_an_orbit_onto_itself(kind, state, t_end, lam):
    # (x2, p2) -> (-x2, -p2) keeps H and x.p and negates Lz: R' -> (R'x, -R'y) and
    # (Q'xy, Q'1) -> (-Q'xy, Q'1)
    value_signs = (1.0, -1.0) if kind is SystemKind.COULOMB else (-1.0, 1.0)
    _assert_reflected(kind, state, t_end, lam, (1.0, -1.0, 1.0, -1.0), -1.0, value_signs)


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind, state, t_end", _SHORT_ORBITS, ids=["coulomb", "oscillator"])
def test_time_reversal_maps_an_orbit_onto_itself(kind, state, t_end, lam):
    # H is even in p, so the orbit from (x, p) back to -T is the one from (x, -p) on to T with
    # every step negated: t negated, the states with p negated, r, theta and H to the bit, Lz
    # negated, and the turning points in reverse.  Each side bisects its turning times in
    # increasing time, to a bracket of 4 eps (1 + |t|) about the same sign change, so the
    # two times lie within 8 eps (1 + |t|)
    params, flip = SystemParams(kind, lam, 0.05), np.array((1.0, 1.0, -1.0, -1.0))
    back = integrate(PhaseState(*state), params, -t_end, n_samples=401)
    forth = integrate(PhaseState(*(flip * state).tolist()), params, t_end, n_samples=401)
    assert np.array_equal(-back.t, forth.t)
    for name in ("r", "theta", "H"):
        assert getattr(back, name).tobytes() == getattr(forth, name).tobytes(), name
    assert np.array_equal(back.states * flip, forth.states)  # an exact zero may take either sign
    assert np.array_equal(-back.Lz, forth.Lz)
    assert back.circular == forth.circular
    points = back.turning_points[::-1]
    assert len(points) >= 4 and [p.kind for p in points] == [p.kind for p in forth.turning_points]
    for p, q in zip(points, forth.turning_points):
        assert abs(p.t + q.t) <= 8.0 * math.ulp(1.0) * (1.0 + abs(q.t)), (p.t, q.t)


# integrate's docstring: the coulomb r is within 331 x rel_tol and theta within 9360 x of the
# exact orbit at lam = 0, 0.1 and 1, and the apsis times within 216 x at lam = 0 (used at 0.1 too)
_APSIS_T_RATE, _R_RATE, _THETA_RATE = 216.0, 331.0, 9360.0


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("s", [0.5, 2.0])
def test_coulomb_scaling_maps_the_apsides_onto_themselves(coulomb_params, lam, s):
    # (x, p, t, lam, k) -> (s**2 x, p/s, s**3 t, lam/s**4, s**2 k) takes H to H/s**2 and
    # Hamilton's equations to themselves, so the scaled orbit is the same orbit in other
    # units: apsis times scale by s**3 and radii by s**2, while theta, the kinds and
    # R' = pi_y Lz - (1 + 2k/r) x/r (pi -> pi/s, Lz -> s Lz) stay; a power-of-2 s maps the
    # inputs exactly.  The solver is not scale-free (atol is absolute), so each side is held
    # only to the docstring's rates against the one exact orbit, and the two to twice them.
    # R' is |R'| < 1 (a bound orbit) along the apsis line: its components move by theta's
    # error plus the length's, which H and Lz, held to 10 x rel_tol, keep under 100 x.
    rel_tol, (x1, x2, p1, p2) = 1e-10, (1.6, 0.0, 0.0, 0.55)
    params = SystemParams(SystemKind.COULOMB, lam, coulomb_params.k)
    scaled_params = SystemParams(SystemKind.COULOMB, lam / s**4, s * s * params.k)
    a = integrate(PhaseState(x1, x2, p1, p2), params, 70.0, rel_tol=rel_tol, n_samples=2)
    b = integrate(PhaseState(s * s * x1, s * s * x2, p1 / s, p2 / s), scaled_params, s**3 * 70.0,
                  rel_tol=rel_tol, n_samples=2)
    pa, pb = a.turning_points, b.turning_points
    assert len(pa) >= 4 and [p.kind for p in pa] == [p.kind for p in pb]
    assert max(abs(q.t / s**3 - p.t) for p, q in zip(pa, pb)) <= 2.0 * _APSIS_T_RATE * rel_tol
    assert max(abs(q.r / (s * s) - p.r) for p, q in zip(pa, pb)) <= 2.0 * _R_RATE * rel_tol
    assert max(abs(q.theta - p.theta) for p, q in zip(pa, pb)) <= 2.0 * _THETA_RATE * rel_tol
    ra, rb = (turning_point_conservation(traj).values_at_turning for traj in (a, b))
    assert np.max(np.abs(rb - ra)) <= 2.0 * (_THETA_RATE + 100.0) * rel_tol
