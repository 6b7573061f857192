"""Micro-timings of single layer calls on pinned inputs; prints one JSON object.

Usage: ``python3 perfbench/micro.py`` with ``src`` on ``PYTHONPATH``.

- ``rhs_us``: one call of the public ``equations_of_motion``.
- ``bracket_us``: one analytic ``poisson_bracket`` {R'x, R'y}.
- ``fixture_integrate_s``: ``integrate`` on the coulomb test fixture
  (lam=0.1, k=0.05, t=70, rel_tol 1e-10, 6001 samples).
- ``fixture_fd_brackets_s``: ``verify_coulomb_algebra`` on 1000 states in
  finite-difference mode.

Each figure is the median of several repeats.
"""

from __future__ import annotations

import json
import statistics
import time

from screened_sphere.conserved import (
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    poisson_bracket,
    verify_coulomb_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    equations_of_motion,
    integrate,
)

PARAMS = SystemParams(SystemKind.COULOMB, lam=0.1, k=0.05)
STATE = PhaseState(1.6, 0.0, 0.0, 0.55)


def median_seconds(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean time of one call in a batch of ``calls``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def main() -> None:
    print(json.dumps({
        "rhs_us": 1e6 * median_seconds(lambda: equations_of_motion(STATE, PARAMS), 2000, 7),
        "bracket_us": 1e6 * median_seconds(
            lambda: poisson_bracket(RUNGE_LENZ_X, RUNGE_LENZ_Y, STATE, PARAMS), 2000, 7),
        "fixture_integrate_s": median_seconds(
            lambda: integrate(STATE, PARAMS, t_end=70.0, rel_tol=1e-10, n_samples=6001), 1, 3),
        "fixture_fd_brackets_s": median_seconds(
            lambda: verify_coulomb_algebra(PARAMS, 1000, seed=0, method="fd"), 1, 3),
    }))


if __name__ == "__main__":
    main()
