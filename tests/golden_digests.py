"""Golden digests of CLI runs, the one harness that runs and compares them, and the script
that regenerates them.

Each argv in ``golden/argv.json`` runs in-process through ``cli.main`` in an empty directory,
on the stdio a process has (UTF-8 text over a buffered byte stream); its record in
``golden/digests.json`` holds the exit status and, for stdout, stderr and every file written,
the SHA-256 of the bytes and a 16-bit fingerprint per line (base64), so that a mismatch can
name its first differing line.  ``run`` (in-process, the tests' one caller of ``cli.main``) and
``run_process`` (a fresh interpreter, under any ``src``) return the same ``(rc, outputs)``
record, which ``record`` and ``mismatch`` compare; ``child_env`` is the environment of every
child the tests start, ``load_argv`` yields the golden argv, with the benchmark workloads' argv
at seeds 1-5 if asked, and ``perfbench_workloads`` loads the benchmark's workload generator
without writing bytecode into ``perfbench/``.
The numpy version and the CPU model are stored beside the records: every orbit's theta
comes from numpy's ``arctan2``, whose SIMD kernel numpy picks by CPU dispatch level.  The
dense output sums no matrix product, so OpenBLAS's CPU kernel, which once changed every
column of every orbit, changes none.  The ``brackets`` records take their states from +, -
and * alone.  The ``spectrum --numeric`` levels take no numpy: their bits come from libm's
``sin`` and ``tan`` and from dstebz in the OpenBLAS that scipy ships.  ``tests/test_golden.py``
runs both kinds under a masked glibc and a lowered numpy dispatch level, and orbit records
under another OpenBLAS kernel, in fresh processes (``run_process`` passes such settings to
the child).

    PYTHONPATH=src python tests/golden_digests.py [NAME ...]

rewrites ``golden/digests.json`` from the current sources: every record, or
only the named ones, each other record kept byte for byte (which needs the
host the file was made on).  Record every regeneration in CHANGES.md, with
each changed op and the reason.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"
SEEDS = range(1, 6)  # the workload seeds of load_argv


def host() -> dict:
    """The numpy version and CPU model that outputs are produced with."""
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "cpu": cpu}


def child_env(src: Path = SRC, unbuffered: bool = False, paths=(), **extra: str) -> dict:
    """The environment of a child process: ``src`` and then ``paths`` on PYTHONPATH, stdio
    buffered as by default unless ``unbuffered`` (whatever PYTHONUNBUFFERED is here), and
    the ``extra`` variables."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(map(str, [src, *paths]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, **extra}


def run(argv: list[str], directory: Path, entry=None) -> tuple[int, dict[str, bytes]]:
    """(rc, outputs) of ``entry(argv)``, by default ``cli.main``, run inside the empty
    ``directory``, made if missing; outputs maps "stdout", "stderr" and the name of each file
    written to its bytes.

    stdout and stderr are UTF-8 text over a buffered byte stream, as in a process (stderr
    is line-buffered and escapes what it cannot encode), so ``entry`` takes the branches that
    ``python -m screened_sphere.cli`` takes: ``cli._write_output`` writes to
    ``stdout.buffer``, and ``cli._report`` to ``stderr.buffer.raw``."""
    if entry is None:
        from screened_sphere.cli import main as entry

    out = io.TextIOWrapper(io.BufferedWriter(io.BytesIO()), encoding="utf-8")
    err = io.TextIOWrapper(io.BufferedWriter(io.BytesIO()), encoding="utf-8",
                           errors="backslashreplace", line_buffering=True)
    Path(directory).mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = entry(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        os.chdir(cwd)
    out.flush()
    err.flush()
    return rc, _outputs(out.buffer.raw.getvalue(), err.buffer.raw.getvalue(), directory)


def run_process(argv: list[str], directory: Path, src: Path = SRC, *,
                entry=("-m", "screened_sphere.cli"), timeout: float = 60.0,
                python=sys.executable, **extra: str) -> tuple[int, dict[str, bytes]]:
    """``run`` in a fresh interpreter started as ``python *entry *argv`` under ``src`` (see
    ``child_env`` for ``extra``), by default this one; a hang fails at ``timeout``."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([python, *entry, *argv], cwd=directory,
                          env=child_env(src, **extra), capture_output=True, timeout=timeout)
    return proc.returncode, _outputs(proc.stdout, proc.stderr, directory)


def _outputs(stdout: bytes, stderr: bytes, directory: Path) -> dict[str, bytes]:
    outputs = {"stdout": stdout, "stderr": stderr}
    outputs.update((p.name, p.read_bytes()) for p in sorted(Path(directory).iterdir()))
    return outputs


def fingerprints(data: bytes) -> bytes:
    """The first two bytes of each line's SHA-256, the newline included."""
    return b"".join(hashlib.sha256(line).digest()[:2] for line in data.splitlines(True))


def record(rc: int, outputs: dict[str, bytes]) -> dict:
    return {"rc": rc, "outputs": {
        name: {"sha256": hashlib.sha256(data).hexdigest(),
               "lines": base64.b64encode(fingerprints(data)).decode()}
        for name, data in outputs.items()}}


def mismatch(rc: int, outputs: dict[str, bytes], golden: dict) -> str | None:
    """None if the run matches its golden record, else what differs first: the exit status,
    the set of outputs, or the first line of the first differing output."""
    if rc != golden["rc"]:
        return f"exit status {rc}, golden {golden['rc']}"
    if sorted(outputs) != sorted(golden["outputs"]):
        return f"outputs {sorted(outputs)}, golden {sorted(golden['outputs'])}"
    for name, data in outputs.items():
        want = golden["outputs"][name]
        if hashlib.sha256(data).hexdigest() == want["sha256"]:
            continue
        lines = data.splitlines(True)
        have, old = fingerprints(data), base64.b64decode(want["lines"])
        i = next((i for i in range(0, min(len(have), len(old)), 2)
                  if have[i:i + 2] != old[i:i + 2]), min(len(have), len(old)))
        n = i // 2
        line = repr(lines[n]) if n < len(lines) else "end of output"
        return (f"{name}: first differing line {n + 1} of {len(lines)} "
                f"(golden {len(old) // 2}): {line}")
    return None


def load_argv(workloads: bool = False) -> list[dict]:
    """The ops ({"name", "argv"}) of ``golden/argv.json``, then, if ``workloads``, each argv
    that ``perfbench/workloads.generate`` gives a benchmark workload at ``SEEDS`` and no op
    before it has, named ``<workload>-<seed>-op<i>-<command>``.  A workload argv loses the
    ``./`` of its output paths, as ``golden/argv.json`` has them."""
    ops = json.loads((GOLDEN / "argv.json").read_text())
    if not workloads:
        return ops
    module = perfbench_workloads()
    seen = {tuple(op["argv"]) for op in ops}
    for workload in module.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(module.generate(workload, seed, ".")):
                argv = [a.removeprefix("./") for a in op.argv]
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    ops.append({"name": f"{workload}-{seed}-op{i:02d}-{argv[0]}", "argv": argv})
    return ops


@functools.cache
def perfbench_workloads():
    """``perfbench/workloads.py``, loaded once as ``perfbench_workloads`` without writing
    bytecode into ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def regenerate(names: list[str]) -> None:
    """Rewrite the records of ``names`` in argv order, or all records if none is named."""
    argv = load_argv()
    unknown = sorted(set(names) - {op["name"] for op in argv})
    if unknown:
        raise SystemExit(f"not in argv.json: {', '.join(unknown)}")
    golden = json.loads((GOLDEN / "digests.json").read_text()) if names else host()
    made = {key: golden[key] for key in host()}
    if made != host():
        raise SystemExit(f"digests made with {made}, this host has {host()}")
    ops = {}
    for op in argv:
        if names and op["name"] not in names:
            ops[op["name"]] = golden["ops"][op["name"]]
            continue
        with tempfile.TemporaryDirectory() as directory:
            ops[op["name"]] = record(*run(op["argv"], Path(directory)))
            print(op["name"], ops[op["name"]]["rc"])
    text = json.dumps({**made, "ops": ops}, indent=1)
    (GOLDEN / "digests.json").write_text(text + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
