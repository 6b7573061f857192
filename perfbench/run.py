"""screened-sphere benchmark: closed-loop CLI workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload long-orbits --seed 1 --seconds 30 --trace 0

One client runs the workload's seeded pass of ``python -m screened_sphere.cli``
commands, one fresh interpreter at a time, each launched only after the
previous one has exited, and repeats the pass as often as ``--seconds``
allows on the reference machine (at least twice).  Every op's output is
checked by an independent oracle after the pass, outside the timed region,
and its bytes are compared with the first pass.  End-to-end times are
scaled to the host's reference speed (``perfbench/hostspeed.py``); the raw
times are printed beside them.  ``--trace 1`` instead
runs the pass once with each op twice, plain and then under
``perfbench/traced.py``, and reports per-layer figures from the spans.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable report, including every failed op.  See ``perfbench/README.md``
for the metrics and what each is expected to move.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # after this, further ops are killed at launch, so a hang ends the run
DEADLINE = time.monotonic() + RUN_LIMIT_S
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WARMUP_ARGV = ["closure", "--system", "coulomb", "--lambda", "0.0", "--k", "0.0",
               "--Lz", "1.0", "--out", f"{WORK}/warmup.json"]


@dataclass
class OpRun:
    latency: float               # seconds at reference host speed (see hostspeed.py)
    raw_latency: float           # seconds as measured
    returncode: int | None       # None: killed after the timeout
    stderr: str
    files: list[bytes | None]
    digest: str
    spans: list[dict] | None = None


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def run_op(op: workloads.Op, traced: bool = False, op_id: str = "") -> OpRun:
    """Launch one command, wait for it to exit, and collect what it wrote.

    The latency is also given scaled to the host's reference speed, from
    the speed samples taken while the command ran (``hostspeed``)."""
    for path in op.outputs:
        (ROOT / path).unlink(missing_ok=True)
    if traced:
        spans_path = ROOT / WORK / "spans.json"
        cmd = [sys.executable, str(HERE / "traced.py"), *op.argv]
        env = child_env({"PERFBENCH_SPANS": str(spans_path), "PERFBENCH_OP": op_id})
    else:
        cmd = [sys.executable, "-m", "screened_sphere.cli", *op.argv]
        env = child_env()
    with open(ROOT / WORK / "stdout", "w+b") as out, open(ROOT / WORK / "stderr", "w+b") as err:
        returncode, latency, scale = hostspeed.run_sampled(
            cmd, min(OP_TIMEOUT_S, max(0.0, DEADLINE - time.monotonic())),
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        out.seek(0)
        err.seek(0)
        out, err = out.read(), err.read()
    files = [(ROOT / p).read_bytes() if (ROOT / p).is_file() else None for p in op.outputs]
    digest = hashlib.sha256()
    for part in (str(returncode).encode(), out, err, *(f or b"<missing>" for f in files)):
        digest.update(hashlib.sha256(part).digest())
    spans = None
    if traced and spans_path.is_file():
        spans = json.loads(spans_path.read_text())["spans"]
        spans_path.unlink()
    return OpRun(latency * scale, latency, returncode, err.decode(errors="replace"), files,
                 digest.hexdigest(), spans)


def failure(op: workloads.Op, run: OpRun) -> str | None:
    """Why an op failed (exit status, missing output, oracle), or None."""
    if run.returncode is None:
        return f"timed out (limits: {OP_TIMEOUT_S:g} s per op, {RUN_LIMIT_S:g} s per run)"
    if run.returncode != 0:
        return f"exit {run.returncode}: {run.stderr.strip()[-200:]}"
    if any(f is None for f in run.files):
        return "missing output file"
    return oracles.check(op.argv[0], op.spec, run.files, run.stderr)


def setup(workload: str, seed: int) -> tuple[list[workloads.Op], float]:
    """Generate the inputs and run one warm-up command; repeated, median
    time at reference host speed."""
    times, passes = [], []
    warmup = workloads.Op(WARMUP_ARGV, [WARMUP_ARGV[-1]])
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.generate(workload, seed, f"{WORK}/{workload}")
        (ROOT / WORK / workload).mkdir(parents=True, exist_ok=True)
        warm = run_op(warmup)
        elapsed = time.perf_counter() - start
        times.append(elapsed * warm.latency / warm.raw_latency)
        if warm.returncode != 0:
            sys.exit(f"warm-up command failed (exit {warm.returncode}): {warm.stderr.strip()}")
        passes.append([op.argv for op in ops])
    if any(p != passes[0] for p in passes):
        sys.exit("workload generator is not deterministic for this seed")
    return ops, statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond) at the highest percentile with
    TAIL_BEYOND ops beyond it (the slowest op if there are fewer)."""
    ordered = sorted(latencies)
    i = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def measure(ops: list[workloads.Op], passes: int, failures: list) -> dict:
    """Run the pass ``passes`` times; end-to-end metrics.

    A pass's wall time is the sum of its ops' latencies at reference host
    speed, launch to exit of each command, one after the other."""
    walls, raw_walls, latencies, digests, records = [], [], [], {}, []
    ok = attempted = completed = 0
    for _ in range(passes):
        runs, first = [], time.perf_counter()
        for op in ops:
            runs.append(run_op(op))
        raw_walls.append(time.perf_counter() - first)
        walls.append(sum(run.latency for run in runs))
        for i, (op, run) in enumerate(zip(ops, runs)):
            attempted += 1
            latencies.append(run.latency)
            completed += run.returncode == 0
            reason = failure(op, run)
            if reason is None and digests.setdefault(i, run.digest) != run.digest:
                reason = "output bytes differ from the first pass"
            if reason is None:
                ok += 1
            else:
                failures.append((len(walls), i, op, reason))
            records.append({"pass": len(walls), "op": i, "latency_s": run.latency,
                            "raw_latency_s": run.raw_latency, "digest": run.digest,
                            "ok": reason is None})
    tail_s, tail_pct, beyond = tail(latencies)
    wall = statistics.median(walls)
    return {
        "metrics": {
            "wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "ops_per_s": completed / len(walls) / wall,
            "ok_frac": ok / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
        "attempted": attempted,
        "failed": attempted - ok,
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_op_p50_s": statistics.median(r["raw_latency_s"] for r in records),
        "op_tail": {"percentile": tail_pct, "ops": len(latencies), "ops_beyond": beyond},
        "op_runs": records,
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children, in seconds."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [(s["end"] - s["start"] - child[s["id"]]) * 1e-9 for s in spans]


def layer_metrics(traced: list[OpRun], plain: list[OpRun], micro: dict) -> dict:
    """Per-layer figures summed over one traced pass (import: median per op)."""
    busy = defaultdict(float)      # self seconds by span name (verify_*: by method)
    count = defaultdict(float)     # calls, and summed span attributes
    layers = defaultdict(float)
    imports = []
    for run in traced:
        for span, self_s in zip(run.spans or [], self_times(run.spans or [])):
            name, attrs = span["name"], span.get("attrs", {})
            if name.startswith("verify_"):
                name = f"verify:{attrs.pop('method')}"
            layers[span["layer"]] += self_s
            busy[name] += self_s
            count[name] += 1
            for attr, value in attrs.items():
                count[f"{name}.{attr}"] += value
            if name == "import":
                imports.append(self_s)
    total = sum(r.raw_latency for r in traced)   # spans are raw times too
    verify_s = busy["verify:analytic"] + busy["verify:fd"]
    states = count["verify:analytic.states"] + count["verify:fd.states"]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    shares = {f"share.{layer}": rate(layers[layer], total)
              for layer in ("import", "dynamics", "serialize", "conserved", "spectra")}
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.serialize_s": layers["serialize"],
        "cli.serialize_bytes": count["_write_output.bytes"],
        "dynamics.integrate_s": busy["integrate"],
        "dynamics.integrate_calls": count["integrate"],
        "dynamics.orbit_time_per_s": rate(count["integrate.orbit_time"], busy["integrate"]),
        "dynamics.rhs_us": micro["rhs_us"],
        "dynamics.turning_s": busy["find_turning_points"],
        "dynamics.turning_points": count["find_turning_points.points"],
        "dynamics.closure_s": busy["closure_analysis"],
        "dynamics.fixture_integrate_s": micro["fixture_integrate_s"],
        "conserved.verify_analytic_s": busy["verify:analytic"],
        "conserved.verify_fd_s": busy["verify:fd"],
        "conserved.states_per_s": rate(states, verify_s),
        "conserved.turning_conservation_s": busy["turning_point_conservation"],
        "conserved.bracket_us": micro["bracket_us"],
        "conserved.fixture_fd_brackets_s": micro["fixture_fd_brackets_s"],
        "spectra.radial_solve_s": busy["radial_solve_numeric"],
        "spectra.grid_points": count["radial_solve_numeric.grid_points"],
        "spectra.levels_per_s": rate(count["radial_solve_numeric.levels"],
                                     busy["radial_solve_numeric"]),
        "spectra.analytic_s": busy["spectrum_entries"],
        "trace.overhead_frac": (sum(r.latency for r in traced)
                                / sum(r.latency for r in plain) - 1.0),
        **shares,
        "share.other": 1.0 - sum(shares.values()),
    }


def measure_traced(ops: list[workloads.Op], failures: list) -> tuple[dict, list[OpRun]]:
    """One pass, each op plain then traced; per-layer metrics from the spans."""
    plain, traced, ok = [], [], 0
    for i, op in enumerate(ops):
        p = run_op(op)
        t = run_op(op, traced=True, op_id=f"op{i:02d}")
        plain.append(p)
        traced.append(t)
        reason = failure(op, p)
        if reason is None and t.digest != p.digest:
            reason = "traced output bytes differ from the plain run"
        if reason is None and not t.spans:
            reason = "traced run wrote no spans"
        if reason is None:
            ok += 1
        else:
            failures.append((1, i, op, reason))
    micro = subprocess.run([sys.executable, str(HERE / "micro.py")], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
    metrics = layer_metrics(traced, plain, json.loads(micro.stdout))
    return {"metrics": metrics, "attempted": len(ops), "failed": len(ops) - ok}, traced


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "screened_sphere" / "cli.py").is_file():
        print(f"no screened_sphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(ROOT / WORK / args.workload, ignore_errors=True)
    ops, setup_s = setup(args.workload, args.seed)
    failures: list = []
    if args.trace:
        result, traced = measure_traced(ops, failures)
        spans = [s for run in traced for s in run.spans or []]
        (ROOT / WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        result = measure(ops, workloads.passes(args.workload, args.seconds), failures)
        result["metrics"]["setup_s"] = setup_s
    metric_units = units()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), **result,
        "failures": [{"pass": p, "op": i, "argv": op.argv, "reason": r}
                     for p, i, op, r in failures],
        "ops": [op.argv for op in ops],
    }
    (ROOT / WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} ops per pass, closed loop, 1 client")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}  threads {env['threads']}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {metric_units.get(name, '')}")
    if args.trace:
        layers = workloads.DOMINANT_LAYERS[args.workload]
        share = sum(result["metrics"][f"share.{layer}"] for layer in layers)
        print(f"  {' + '.join(layers)}: {100 * share:.1f}% of traced op time "
              f"({'above' if share > 0.5 else 'NOT above'} the 50% this workload is built for)")
    else:
        t = result["op_tail"]
        print(f"  op_tail_s is p{t['percentile']:.1f} of {t['ops']} ops "
              f"({t['ops_beyond']} beyond); {result['passes']} passes")
        print(f"  times are at reference host speed; as measured: pass walls "
              f"{', '.join(f'{w:.3f}' for w in result['raw_pass_walls_s'])} s, "
              f"op p50 {result['raw_op_p50_s']:.4f} s")
    print(f"  ops ok: {result['attempted'] - result['failed']}/{result['attempted']}")
    for p, i, op, reason in failures:
        print(f"  FAILED pass {p} op {i}: {reason}\n    {' '.join(op.argv)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
