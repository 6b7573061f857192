"""Metamorphic relations: one run of a command against another run of it, with no closed form.

Each relation follows from the physics alone, so it checks the program independently of
the closed forms it also evaluates (ROADMAP item 15).
"""

import random

import pytest

from screened_sphere.cli import main
from screened_sphere.dynamics import SystemKind, SystemParams, closure_analysis


def _e_numeric(capsys, system: str, lam: float) -> float:
    """The grid oracle's E_numeric for k = 0.05, m = 1, N = 0, as ``spectrum`` prints it."""
    assert main(["spectrum", "--system", system, "--lambda", repr(lam), "--k", "0.05",
                 "--m", "1", "--N", "0", "--numeric"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    return float(dict(zip(header.split(","), row.split(",")))["E_numeric"])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the grid oracle is wrong at small lambda")
@pytest.mark.parametrize("system, lam", [("coulomb", 1e-12), ("oscillator", 1e-7)])
def test_numeric_spectrum_is_continuous_as_lambda_goes_to_zero(capsys, system, lam):
    # a printed level is within 1e-4 relative of the true level (the acceptance contract),
    # and a level is smooth in lambda with a slope of order one, so from lambda = 0 to these
    # lambda it moves by far less than that: the two prints agree within 2e-4 relative.  The
    # grid printed -0.23825 and -0.00148 for coulomb, 1.94868 and 1.0089 for the oscillator
    flat, curved = _e_numeric(capsys, system, 0.0), _e_numeric(capsys, system, lam)
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
def test_closure_is_invariant_under_the_coulomb_scaling(capsys, kind, s):
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
        out = []
        for args in ((lam, k, lz), (lam / s**4, s * s * k, s * lz)):
            assert main(["closure", "--system", kind.value, "--lambda", repr(args[0]),
                         "--k", repr(args[1]), "--Lz", repr(args[2])]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1], (lam, k, lz)
