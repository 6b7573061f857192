"""Seeded generators for the three benchmark workloads.

A workload is a *pass*: a fixed list of CLI commands drawn from the seed.
The run repeats the pass, so every command is run more than once and its
output bytes can be compared between repeats.

Every pass has a fixed mix of op kinds; the seed draws each op's
parameters inside its kind's ranges (stratified where two ops share a
range), so passes of different seeds cost about the same while every op
gets its own inputs.  No draw is ever rejected or redrawn after the fact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("long-orbits", "cli-mix", "algebra")


@dataclass
class Op:
    """One CLI command: its argv, the files it writes, and what the oracle needs."""

    argv: list[str]                # argv[0] is the command, which picks the oracle
    outputs: list[str]             # paths relative to the checkout root
    spec: dict = field(default_factory=dict)


def _lhs(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n stratified draws from [lo, hi): one per equal-width stratum, shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (s + rng.random()) / n for s in strata]


def _f(v: float) -> str:
    return repr(float(v))


def orbit_state(system: str, lam: float, k: float, shape: float, ecc: float,
                psi: float, phi: float) -> tuple[float, float, float, float]:
    """Initial state on a bound orbit at radial phase ``psi``, rotated by ``phi``.

    ``shape`` is Lz**2*alpha**2 (coulomb) or Lz*alpha (oscillator), ``ecc``
    the eccentricity of the flat-equivalent closed form in 1/r (coulomb)
    or 1/r**2 (oscillator).  The momentum is split into a radial part,
    fixed by the shifted energy Et = E - lam*Lz**2/2, and the angular part
    Lz/r; Lz > 0, and rdot has the sign of sin(psi).
    """
    if system == "coulomb":
        lz = math.sqrt(shape + 2.0 * k)
        et = (ecc * ecc - 1.0) / (2.0 * shape)
        r0 = shape / (1.0 + ecc * math.cos(psi))
        v = -1.0 / r0 - k / r0**2
    else:
        lz = math.sqrt(shape * shape + 2.0 * k)
        et = shape / math.sqrt(1.0 - ecc * ecc)
        r0 = shape / math.sqrt(et * (1.0 + ecc * math.cos(psi)))
        v = 0.5 * r0 * r0 - k / r0**2
    a2 = 2.0 * (et - lz * lz / (2.0 * r0 * r0) - v) / (1.0 + lam * r0 * r0) ** 2
    a = math.copysign(math.sqrt(max(a2, 0.0)), math.sin(psi))
    c, s = math.cos(phi), math.sin(phi)
    return (r0 * c, r0 * s, a * c - lz / r0 * s, a * s + lz / r0 * c)


def radial_period(system: str, lam: float, k: float, shape: float, ecc: float,
                  n: int = 2048) -> float:
    """Time of one radial oscillation: the integral of dt = r**2 / (Lz*(1 + lam*r**2)) dtheta
    over one radial period in theta, along the closed-form orbit (periodic trapezoid)."""
    if system == "coulomb":
        lz, alpha = math.sqrt(shape + 2.0 * k), math.sqrt(shape / (shape + 2.0 * k))
        span = 2.0 * math.pi / alpha
        radius = [shape / (1.0 + ecc * math.cos(alpha * span * i / n)) for i in range(n)]
    else:
        lz = math.sqrt(shape * shape + 2.0 * k)
        alpha = shape / lz
        et = shape / math.sqrt(1.0 - ecc * ecc)
        span = math.pi / alpha
        radius = [shape / math.sqrt(et * (1.0 + ecc * math.cos(2.0 * alpha * span * i / n)))
                  for i in range(n)]
    return span / n * sum(r * r / (lz * (1.0 + lam * r * r)) for r in radius)


def _orbit_op(kind: str, out: str, system: str, lam: float, k: float, shape: float,
              ecc: float, psi: float, phi: float, t_end: float, tol: float,
              samples: int) -> Op:
    x, y, px, py = orbit_state(system, lam, k, shape, ecc, psi, phi)
    argv = [kind, "--system", system, "--lambda", _f(lam), "--k", _f(k),
            "--x", _f(x), "--y", _f(y), "--px", _f(px), "--py", _f(py),
            "--t-end", _f(t_end), "--tol", repr(tol), "--trajectory-samples", str(samples)]
    spec = dict(system=system, lam=lam, k=k, state=(x, y, px, py), t_end=t_end,
                tol=tol, samples=samples)
    if kind == "orbit":
        outputs = [out + ".csv", out + ".turning.json"]
        argv += ["--out", outputs[0], "--turning-out", outputs[1]]
    else:
        outputs = [out + ".json"]
        argv += ["--out", outputs[0]]
    return Op(argv, outputs, spec)


def _orbit_shape(rng: random.Random, system: str, lam_range: tuple[float, float],
                 ecc_range: tuple[float, float]) -> tuple:
    """(lam, k, shape, ecc, psi, phi) of one eccentric bound orbit."""
    shape = rng.uniform(0.8, 1.2) if system == "coulomb" else rng.uniform(0.6, 1.0)
    return (rng.uniform(*lam_range), rng.uniform(0.01, 0.1), shape, rng.uniform(*ecc_range),
            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))


# One pass of long-orbits: (system, lam range, tol, sample range, radial
# periods) per op.  Step-heavy ops pair a tight tolerance with few samples,
# sample-heavy ops a loose tolerance with many.  t_end spans a set number
# of radial periods (in the hundreds of time units), so the solver's work
# per op, and the cost of a pass, vary little from seed to seed.
LONG_CELLS = (
    ("coulomb", (0.0, 0.25), 1e-12, (2000, 4000), 32),
    ("oscillator", (0.25, 0.5), 1e-10, (4000, 8000), 96),
    ("coulomb", (0.25, 0.5), 1e-10, (12000, 20000), 40),
    ("oscillator", (0.0, 0.25), 1e-8, (20000, 30000), 104),
)


def long_orbits(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for i, (system, lam_range, tol, samples, periods) in enumerate(LONG_CELLS):
        shape = _orbit_shape(rng, system, lam_range, (0.55, 0.65))
        t_end = rng.uniform(0.95, 1.05) * periods * radial_period(system, *shape[:4])
        ops.append(_orbit_op("orbit", f"{workdir}/op{i:02d}", system, *shape,
                             t_end=round(t_end, 3), tol=tol, samples=rng.randint(*samples)))
    return ops


def _closure_op(out: str, system: str, lam: float, k: float, lz: float) -> Op:
    path = out + ".json"
    argv = ["closure", "--system", system, "--lambda", _f(lam), "--k", _f(k),
            "--Lz", _f(lz), "--out", path]
    return Op(argv, [path], dict(system=system, lam=lam, k=k, lz=lz))


def _spectrum_op(out: str, system: str, lam: float, k: float, ms: list[int],
                 ns: list[int], numeric: bool) -> Op:
    path = out + ".csv"
    argv = ["spectrum", "--system", system, "--lambda", _f(lam), "--k", _f(k),
            "--m", ",".join(map(str, ms)), "--N", ",".join(map(str, ns))]
    if numeric:
        argv.append("--numeric")
    argv += ["--out", path]
    return Op(argv, [path],
              dict(system=system, lam=lam, k=k, ms=ms, ns=ns, numeric=numeric))


def _brackets_op(out: str, system: str, lam: float, k: float, samples: int,
                 seed: int, method: str) -> Op:
    path = out + ".json"
    argv = ["brackets", "--system", system, "--lambda", _f(lam), "--k", _f(k),
            "--samples", str(samples), "--seed", str(seed), "--method", method,
            "--out", path]
    return Op(argv, [path],
              dict(system=system, lam=lam, k=k, samples=samples, method=method))


def cli_mix(rng: random.Random, workdir: str) -> list[Op]:
    ops: list[Op] = []

    def out() -> str:
        return f"{workdir}/op{len(ops):02d}"

    systems = ["coulomb", "oscillator"]
    # closure: one rational alpha = p/q (q <= 12), one generic alpha
    q = rng.randint(2, 12)
    p = rng.choice([n for n in range(1, q) if math.gcd(n, q) == 1])
    for system, alpha in zip(systems, (Fraction(p, q), rng.uniform(0.3, 0.99))):
        lz = rng.uniform(0.5, 2.0)
        k = lz * lz * (1.0 - float(alpha) ** 2) / 2.0
        ops.append(_closure_op(out(), system, rng.uniform(0.0, 0.5), k, lz))
    # analytic spectrum tables
    for system in systems:
        ops.append(_spectrum_op(out(), system, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.2),
                                [1, 2, 3], [0, 1, 2, 3], numeric=False))
    # grid-oracle spectra inside the acceptance box (lam <= 0.1, k <= 0.05,
    # m in {1, 2}, N < 3), where the oracle's 1e-4 relative bound is pinned:
    # chi-grid for lam > 0, r-grid for lam = 0
    for lam_lo in (0.01, 0.0):
        for system in systems:
            lam = 0.0 if lam_lo == 0.0 else rng.uniform(lam_lo, 0.1)
            m = rng.randint(1, 2)
            ops.append(_spectrum_op(out(), system, lam, rng.uniform(0.0, 0.05),
                                    [m], [0, 1, 2], numeric=True))
    for system in systems:
        ops.append(_brackets_op(out(), system, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1),
                                rng.randint(200, 1000), rng.randint(0, 2**31 - 1), "analytic"))
    for system in systems:
        ops.append(_orbit_op("orbit", out(), system,
                             *_orbit_shape(rng, system, (0.0, 0.5), (0.3, 0.7)),
                             t_end=round(rng.uniform(40.0, 70.0), 3),
                             tol=rng.choice([1e-9, 1e-10]), samples=rng.randint(2001, 6001)))
    return ops


def algebra(rng: random.Random, workdir: str) -> list[Op]:
    ops: list[Op] = []

    def out() -> str:
        return f"{workdir}/op{len(ops):02d}"

    systems = ["coulomb", "oscillator"]
    # Sizes are set so that analytic brackets and turning runs cost about
    # the same (about 1.5 s at the reference host speed) and fd brackets,
    # at the 10**4-state floor, a little more: the median and the tail rank
    # of a run's latencies then fall inside one cluster, not between kinds.
    for method, (lo, hi) in (("analytic", (30000, 32000)), ("fd", (10000, 10500))):
        for system, n in zip(systems, _lhs(rng, 2, lo, hi)):
            ops.append(_brackets_op(out(), system, rng.uniform(0.0, 0.5), rng.uniform(0.01, 0.1),
                                    int(n), rng.randint(0, 2**31 - 1), method))
    turning_t_end = {"coulomb": (180.0, 195.0), "oscillator": (150.0, 160.0)}
    for system in systems:
        ops.append(_orbit_op("turning", out(), system,
                             *_orbit_shape(rng, system, (0.0, 0.5), (0.3, 0.7)),
                             t_end=round(rng.uniform(*turning_t_end[system]), 3),
                             tol=1e-10, samples=rng.randint(14000, 15000)))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"long-orbits": long_orbits, "cli-mix": cli_mix, "algebra": algebra}

# The layers each workload is built to spend most of its time in.
DOMINANT_LAYERS = {"long-orbits": ("dynamics", "serialize"), "cli-mix": ("import",),
                   "algebra": ("conserved",)}

# About how long one pass takes on the reference machine (2 vCPU Xeon).
PASS_SECONDS = {"long-orbits": 9.0, "cli-mix": 13.0, "algebra": 17.0}


def passes(workload: str, seconds: float) -> int:
    """How many times a run repeats the pass: set by ``seconds`` alone, never
    by how fast the program runs, so a percentile names the same rank on
    every version (and at least twice, so every command has a repeat)."""
    return max(2, int(seconds // PASS_SECONDS[workload]))


def generate(workload: str, seed: int, workdir: str) -> list[Op]:
    """The pass of ``workload`` for ``seed``; the same seed gives the same argv list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
