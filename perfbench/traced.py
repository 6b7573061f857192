"""Traced entry point: one screened-sphere CLI command with layer spans.

Usage: ``python3 perfbench/traced.py <cli argv...>`` with the environment
variables ``PERFBENCH_SPANS`` (file to write the spans to, as JSON) and
``PERFBENCH_OP`` (op id carried by every span).

The child times its own ``import screened_sphere.cli``, wraps the public
layer functions in place on every ``screened_sphere`` module that holds
them (so the CLI and ``spectra`` call the wrappers), then runs
``screened_sphere.cli.main(argv)`` inside a root span.  Spans stay in
memory and are written once, when the command has finished; the command's
own outputs are untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

_clock = time.perf_counter_ns
_spans: list[dict] = []
_stack: list[dict] = []
_op = os.environ.get("PERFBENCH_OP", "")


def _open(name: str, layer: str) -> dict:
    span = {"id": len(_spans), "parent": _stack[-1]["id"] if _stack else None,
            "op": _op, "name": name, "layer": layer, "start": _clock(), "end": None}
    _spans.append(span)
    _stack.append(span)
    return span


def _close(span: dict) -> None:
    span["end"] = _clock()
    _stack.pop()


def _orbit_time(bound, result) -> dict:
    return {"orbit_time": float(result.t[-1] - result.t[0])}


def _points(bound, result) -> dict:
    return {"points": len(result)}


def _verify(bound, result) -> dict:
    return {"method": bound.arguments["method"], "states": int(bound.arguments["n_samples"])}


def _radial(bound, result) -> dict:
    fine = result.grid.n_points
    return {"levels": int(bound.arguments["n_levels"]), "grid_points": fine + (fine - 1) // 2}


def _written(bound, result) -> dict:
    return {"bytes": len(bound.arguments["text"].encode())}


# (module, attribute, layer, attrs from the bound arguments and the result).
# _json and _write_output are the CLI's JSON writer and file writer.
TARGETS = (
    ("dynamics", "integrate", "dynamics", _orbit_time),
    ("dynamics", "find_turning_points", "dynamics", _points),
    ("dynamics", "closure_analysis", "dynamics", None),
    ("dynamics", "Trajectory.to_csv", "serialize", None),
    ("conserved", "turning_point_conservation", "conserved", None),
    ("conserved", "verify_coulomb_algebra", "conserved", _verify),
    ("conserved", "verify_oscillator_algebra", "conserved", _verify),
    ("spectra", "spectrum_entries", "spectra", None),
    ("spectra", "radial_solve_numeric", "spectra", _radial),
    ("spectra", "spectrum_csv", "serialize", None),
    ("cli", "_json", "serialize", None),
    ("cli", "_write_output", "serialize", _written),
)


def _wrap(name: str, layer: str, fn, attrs):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _stack and _stack[-1]["name"] == name:  # recursion, e.g. the JSON writer
            return fn(*args, **kwargs)
        span = _open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(span)
        if attrs is not None:
            span["attrs"] = attrs(signature.bind(*args, **kwargs), result)
        return result

    return wrapper


def install() -> None:
    """Replace each target on every loaded screened_sphere module that holds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "screened_sphere" or n.startswith("screened_sphere."))]
    for module_name, attr, layer, attrs in TARGETS:
        owner = sys.modules[f"screened_sphere.{module_name}"]
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(meth, layer, getattr(cls, meth), attrs))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(attr, layer, original, attrs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    span = _open("import", "import")
    import screened_sphere.cli as cli
    _close(span)
    install()
    root = _open("main", "cli")
    try:
        return cli.main(argv)
    finally:
        _close(root)
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"op": _op, "spans": _spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
