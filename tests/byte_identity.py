"""Compare the CLI's outputs under two source trees, byte for byte.

    python tests/byte_identity.py PARENT_SRC CHANGE_SRC

runs every argv of ``golden/argv.json``, and the argv that
``perfbench/workloads.generate`` gives for each benchmark workload at seeds
1-3, through ``python -m screened_sphere.cli`` once with each ``src``
directory on ``PYTHONPATH``.  Each run starts in a fresh empty directory, and
the side that runs first alternates from one argv to the next.  The exit
status, stdout, stderr and every file written are compared; one line is
printed per argv that differs, then a count, and the exit status is 1 if any
argv differs.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def argvs() -> list[tuple[str, list[str]]]:
    """(name, argv) of the golden runs and of the workload passes, each distinct argv once."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    golden = json.loads((ROOT / "tests" / "golden" / "argv.json").read_text())
    named = {tuple(op["argv"]): op["name"] for op in golden}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.generate(workload, seed, ".")):
                argv = tuple(a.removeprefix("./") for a in op.argv)  # as golden/argv.json has them
                named.setdefault(argv, f"{workload}-{seed}-op{i:02d}-{argv[0]}")
    return [(name, list(argv)) for argv, name in named.items()]


def run(src: Path, argv: list[str]) -> tuple:
    """(exit status, stdout, stderr, {relative path: bytes}) of one run in an empty directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    with tempfile.TemporaryDirectory() as directory:
        proc = subprocess.run([sys.executable, "-m", "screened_sphere.cli", *argv], cwd=directory,
                              env=env, capture_output=True, timeout=600)
        files = {str(p.relative_to(directory)): p.read_bytes()
                 for p in sorted(Path(directory).rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(a: tuple, b: tuple) -> list[str]:
    """What differs between two runs: the exit status, stdout, stderr, or a file by name."""
    diff = [f"exit status {a[0]} != {b[0]}"] if a[0] != b[0] else []
    diff += [stream for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])) if x != y]
    diff += [f"file {name}" for name in sorted(a[3].keys() | b[3].keys())
             if a[3].get(name) != b[3].get(name)]
    return diff


def main(parent: str, change: str) -> int:
    sides = (Path(parent).resolve(), Path(change).resolve())
    ops = argvs()
    differing = 0
    for i, (name, argv) in enumerate(ops):
        order = sides if i % 2 == 0 else sides[::-1]
        results = dict(zip(order, (run(src, argv) for src in order)))
        if diff := differences(results[sides[0]], results[sides[1]]):
            differing += 1
            print(f"{name}: {', '.join(diff)}", flush=True)
    print(f"{differing} of {len(ops)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(*sys.argv[1:]))
