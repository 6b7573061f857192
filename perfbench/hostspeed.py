"""Host-speed sampling for the benchmark's time metrics.

On a shared host the speed a process gets drifts with the neighbours'
load: the same CLI command takes anywhere from 1x to 2x its unloaded
time, on each CPU separately, in episodes from a second to minutes long.
Those swings are the host, not the program, and they are wider than a
regression bound.

``run_sampled`` starts a command pinned to one CPU and, while waiting for
it, wakes every ``SAMPLE_EVERY_S`` on that same CPU to time a fixed probe
of about a millisecond of CPU time (about 1% of the CPU, the same on
every program version).  The median probe time over the command's life
is the speed the command got; ``REFERENCE_S / median`` scales its latency
to the host's reference speed.  The program cannot reach the probe, so a
change to the program moves the scaled time exactly as it moves the raw
time; only the host's drift is divided out.  Raw times are kept beside
the scaled ones.

The probe maps fresh anonymous pages, touches each once and unmaps them:
system calls, page faults and page zeroing.  Over repeats of the same
commands (interpreter start-up and imports, or the solver and bracket
loops) its time tracked their latency more closely than a pure-Python
arithmetic loop did, on both kinds.
"""

from __future__ import annotations

import mmap
import os
import select
import statistics
import subprocess
import time

PAGES = 64
ROUNDS = 4
SAMPLE_EVERY_S = 0.1
# Unloaded time of one probe on the reference machine (2 vCPU Xeon, Python 3.11).
REFERENCE_S = 0.0006


def probe() -> float:
    """CPU seconds of one fixed probe (CPU time, so a wait for the CPU is not counted)."""
    start = time.thread_time()
    for _ in range(ROUNDS):
        pages = mmap.mmap(-1, PAGES * mmap.PAGESIZE)
        for offset in range(0, PAGES * mmap.PAGESIZE, mmap.PAGESIZE):
            pages[offset] = 1
        pages.close()
    return time.thread_time() - start


def run_sampled(cmd: list[str], timeout: float, **popen) -> tuple[int | None, float, float]:
    """Run ``cmd`` to its end on one CPU; (returncode or None if killed at
    ``timeout``, raw latency in s, scale to reference host speed).  Linux only:
    the child's exit is watched through a pidfd, so it is seen at once."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})   # the child inherits the one CPU
    try:
        samples = [probe()]
        start = time.perf_counter()
        deadline = start + timeout
        proc = subprocess.Popen(cmd, **popen)
        killed = False
        try:
            with os.fdopen(os.pidfd_open(proc.pid)) as pidfd:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(1000.0 * max(0.0, min(SAMPLE_EVERY_S,
                                                             deadline - time.perf_counter()))):
                    if time.perf_counter() >= deadline:
                        proc.kill()
                        killed = True
                        break
                    samples.append(probe())
            proc.wait()
            latency = time.perf_counter() - start
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        samples.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return (None if killed else proc.returncode), latency, REFERENCE_S / statistics.median(samples)
