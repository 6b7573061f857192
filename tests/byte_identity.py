"""Compare the CLI's outputs under two source trees, byte for byte.

    python tests/byte_identity.py PARENT_SRC CHANGE_SRC [KEY=VALUE ...]

runs every argv of ``golden_digests.load_argv(workloads=True)`` (the argv of
``golden/argv.json`` and each further argv of the benchmark workloads at seeds 1-5) through
``python -m screened_sphere.cli`` once with each ``src`` directory on ``PYTHONPATH``.  Each run
starts in a fresh empty directory, and the side that runs first alternates from one argv to
the next.  The change's run is compared with the record of the parent's by
``golden_digests.mismatch``: one line is printed per argv that differs, naming its exit status,
its set of outputs or the first differing line of the first differing output (the parent's run
is the "golden" one), then a count, and the exit status is 1 if any argv differs.  Each
``KEY=VALUE`` is set in the environment of the change's runs only, so that

    python tests/byte_identity.py src src NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"

names every argv whose bytes depend on that setting.  No ``PYTHONPATH`` is needed to run it.
pytest does not collect this file.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from golden_digests import load_argv, mismatch, record, run_process


def main(parent: str, change: str, ops: list[dict] | None = None, **extra: str) -> int:
    """Compare ``ops`` ({"name", "argv"}; by default every argv above) under both trees, with
    the ``extra`` environment variables in the change's runs."""
    sides = (Path(parent).resolve(), Path(change).resolve())
    ops = load_argv(workloads=True) if ops is None else ops
    differing = 0
    for i, op in enumerate(ops):
        runs = [None, None]  # parent, change: one tree may be named twice
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            with tempfile.TemporaryDirectory() as directory:
                runs[side] = run_process(op["argv"], Path(directory), sides[side], timeout=600,
                                         **(extra if side else {}))
        if found := mismatch(*runs[1], record(*runs[0])):
            differing += 1
            print(f"{op['name']}: {found}", flush=True)
    print(f"{differing} of {len(ops)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or not all("=" in arg for arg in sys.argv[3:]):
        raise SystemExit(__doc__)
    raise SystemExit(main(*sys.argv[1:3], **dict(arg.split("=", 1) for arg in sys.argv[3:])))
