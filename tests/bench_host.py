"""The host facts that the benchmark's records do not hold, as one JSON object on stdout.

    python tests/bench_host.py

``perfbench/run.py`` records python, numpy and scipy versions, the core count, the CPU model
and the thread settings.  This adds what else moves the benchmark's bytes or its times:

- numpy's SIMD baseline, the dispatch targets its build holds and those this CPU runs
  (numpy's level selects kernels whose last bits differ);
- the glibc version (libm's ``pow``, ``exp`` and ``log`` differ between releases);
- the medians of ``RUNS`` fresh ``python -c pass`` and ``python -S -c pass`` runs, each
  pinned to one CPU: the interpreter floor under every op, and the share of it that
  ``site`` and its ``.pth`` hooks take;
- the ``.pth`` files that ``site`` runs at startup;
- whether ``PYTHONDONTWRITEBYTECODE`` is set in this script's environment.  ``perfbench/run.py``
  passes its own environment to the children it starts, so this is the children's setting
  only when both run in one environment; children with it set compile the package's source
  at every op.

``BENCH_baseline.json`` keeps this object as ``host``.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import site
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 15


def simd() -> dict:
    """numpy's SIMD baseline and dispatch targets, and the targets this CPU runs."""
    from numpy._core import _multiarray_umath as umath

    return {"baseline": list(umath.__cpu_baseline__), "dispatch": list(umath.__cpu_dispatch__),
            "dispatch_on_host": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]}


def startup_median_s(flags: list[str], cpu: int) -> float:
    """Median wall time of ``RUNS`` fresh ``python FLAGS -c pass``, each pinned to ``cpu``."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *flags, "-c", "pass"], check=True,
                       preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pth_files() -> list[str]:
    """The names of the ``.pth`` files in the directories that ``site`` reads them from."""
    dirs = site.getsitepackages() + ([site.getusersitepackages()] if site.ENABLE_USER_SITE else [])
    return sorted(path.name for d in dirs for path in Path(d).glob("*.pth"))


def main() -> dict:
    cpu = min(os.sched_getaffinity(0))
    return {
        "numpy_simd": simd(),
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "python_c_pass_median_s": startup_median_s([], cpu),
        "python_S_c_pass_median_s": startup_median_s(["-S"], cpu),
        "pth_files": pth_files(),
        "no_bytecode_in_this_env": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
