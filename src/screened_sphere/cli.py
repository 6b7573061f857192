"""Command-line front end: orbits, closure, turning points, brackets, spectra.

Commands
--------
orbit     integrate an orbit, write the trajectory table, report closure
closure   rational-alpha closure analysis for given Lz
turning   turning-point conservation report for an integrated orbit
brackets  Higgs-algebra bracket residuals over seeded random states
spectrum  analytic (optionally grid-oracle) energy levels

A ``--config`` file of ``key=value`` lines (``#`` starts a comment) sets
option defaults.  A key is a long option without its dashes (``lambda``,
``t-end``, ``Lz``) and its value is converted with that flag's type;
``numeric`` and ``gnuplot`` take ``1``/``true``/``yes`` for on; a value
outside the flag's choices is the flag's usage error.  Flags beat
the file and the file beats the built-in defaults.  Keys of options that
only other commands have are ignored; a key no command has is a domain
error.

All floating output is printed with 17 significant digits and regular
files are written atomically (a FIFO or a device is written into), so
identical inputs (including ``--seed``) give byte-identical outputs.  Exit status: 0 on success, 2 on usage errors
(an output path that cannot be written is one), 3 on domain errors (one
``CODE: message`` line on stderr).

The process entry ``run`` (``python -m screened_sphere.cli``, the
``screened-sphere`` script) runs the command with the cyclic garbage
collector off and freezes the heap before exit, since no command makes
cycles that grow with its work; ``main`` leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
import tempfile
from typing import Optional, Sequence

from . import conserved, dynamics  # registered lazily: numpy loads on their first use
from .closed_forms import SystemKind, SystemParams, closure_analysis, spectrum_csv, spectrum_entries
from .errors import AccuracyError, DomainError, ImaginaryAlphaError


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with deterministic 17-significant-digit floats.

    JSON has no nan or infinity, so a non-finite float raises ``AccuracyError``.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, float) and not math.isfinite(obj):
        raise AccuracyError(f"{obj} is not a JSON number")
    return _fmt(obj)


def _write_output(path: str, text: str) -> None:
    """Write to stdout for '-', into a path that exists and is not a regular file
    (a FIFO, a device), otherwise atomically via temp file + rename, with the
    mode that the umask gives a new file."""
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _strip_header_csv(text: str) -> str:
    """Gnuplot mode: drop the header line and use space-separated columns."""
    return text.split("\n", 1)[1].replace(",", " ")


class UsageError(Exception):
    """Missing or malformed flags; maps to exit status 2."""


def _params(args: argparse.Namespace) -> SystemParams:
    return SystemParams(kind=SystemKind(args.system), lam=args.lam, k=args.k)


def _trajectory(args: argparse.Namespace) -> tuple[SystemParams, dynamics.Trajectory]:
    params = _params(args)
    missing = [n for n in ("x", "px", "py") if getattr(args, n) is None]
    if missing:
        raise UsageError(f"missing initial-condition flags: {', '.join('--' + m for m in missing)}")
    state = dynamics.PhaseState(args.x, args.y, args.px, args.py)
    return params, dynamics.integrate(state, params, t_end=args.t_end, rel_tol=args.tol,
                                      n_samples=args.n_samples)


def _int_list(text: str) -> list[int]:
    """Type of ``--m`` and ``--N``: a non-empty comma-separated list of integers."""
    try:
        values = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")
    return values


def _cmd_orbit(args: argparse.Namespace) -> int:
    params, traj = _trajectory(args)
    points = dynamics.find_turning_points(traj)
    csv = traj.to_csv()
    _write_output(args.out, _strip_header_csv(csv) if args.gnuplot else csv)
    if args.turning_out:
        _write_output(args.turning_out, _json(dynamics.turning_points_json(points)) + "\n")
    try:
        closure = closure_analysis(params, float(traj.Lz[0]))
        summary = f"closure: alpha={_fmt(closure.alpha)} closed={_fmt(closure.closed)}"
        if closure.closed:
            summary += f" p={closure.p} q={closure.q} delta_theta={_fmt(closure.closure_angle)}"
    except ImaginaryAlphaError:
        summary = "closure: alpha imaginary (2k >= Lz**2)"
    if points:
        summary += f"; turning_points={len(points)}"
    elif traj.circular:
        summary += "; circular orbit"
    print(summary, file=sys.stderr)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    if args.lz is None:
        raise UsageError("closure requires --Lz")
    result = closure_analysis(_params(args), args.lz)
    _write_output(args.out, _json(result.to_dict()) + "\n")
    return 0


def _cmd_turning(args: argparse.Namespace) -> int:
    params, traj = _trajectory(args)
    report = conserved.turning_point_conservation(traj, params)
    _write_output(args.out, _json(report.to_dict()) + "\n")
    return 0


def _cmd_brackets(args: argparse.Namespace) -> int:
    params = _params(args)
    verify = (
        conserved.verify_coulomb_algebra
        if params.kind is SystemKind.COULOMB
        else conserved.verify_oscillator_algebra
    )
    reports = verify(params, n_samples=args.samples, seed=args.seed, method=args.method)
    _write_output(args.out, _json([r.to_dict() for r in reports]) + "\n")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params(args)
    entries = spectrum_entries(params.kind, args.lam, args.k, args.m, args.n, numeric=args.numeric)
    if args.fmt == "json":
        text = _json([e.to_dict() for e in entries]) + "\n"
    else:
        text = spectrum_csv(entries)
        if args.gnuplot:
            text = _strip_header_csv(text)
    _write_output(args.out, text)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file supplying option defaults")
    p.add_argument("--system", choices=["coulomb", "oscillator"], help="potential kind")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="sphere curvature (>= 0, default %(default)s)")
    p.add_argument("--k", type=float, default=0.0,
                   help="screening strength (>= 0, default %(default)s)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout (default %(default)s)")


def _add_gnuplot(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gnuplot", action="store_true",
                   help="space-separated columns without header")


def _add_state(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=float, help="initial x1")
    p.add_argument("--y", type=float, default=0.0, help="initial x2 (default %(default)s)")
    p.add_argument("--px", type=float, help="initial p1")
    p.add_argument("--py", type=float, help="initial p2")
    p.add_argument("--t-end", dest="t_end", type=float, help="integration time")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="integrator relative tolerance (default %(default)s)")
    p.add_argument("--trajectory-samples", dest="n_samples", type=int, default=4001,
                   help="number of recorded samples (default %(default)s)")


def _add_orbit(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_gnuplot(p)
    _add_state(p)
    p.add_argument("--turning-out", dest="turning_out",
                   help="also write turning points as JSON to this path")


def _add_closure(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--Lz", dest="lz", type=float, help="angular momentum")


def _add_turning(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_state(p)


def _add_brackets(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--samples", type=int, default=1000,
                   help="number of sampled states (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    p.add_argument("--method", choices=["analytic", "fd"], default="analytic",
                   help="gradient mode (default %(default)s)")


def _add_spectrum(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv",
                   help="output format (default %(default)s)")
    _add_gnuplot(p)
    p.add_argument("--m", type=_int_list, default="0",
                   help="angular quantum number(s), comma separated (default %(default)s)")
    p.add_argument("--N", dest="n", type=_int_list, default="0",
                   help="radial index(es), comma separated (default %(default)s)")
    p.add_argument("--numeric", action="store_true",
                   help="add finite-difference oracle energies")


_COMMANDS = {  # name: (run, help, options)
    "orbit": (_cmd_orbit, "integrate an orbit and export the trajectory", _add_orbit),
    "closure": (_cmd_closure, "rational-alpha closure analysis", _add_closure),
    "turning": (_cmd_turning, "turning-point conservation report", _add_turning),
    "brackets": (_cmd_brackets, "bracket-identity residuals over random states", _add_brackets),
    "spectrum": (_cmd_spectrum, "energy levels, analytic and grid-oracle", _add_spectrum),
}
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)  # "-1e-05", "-inf" are not options


def build_parser(
    argv: Optional[Sequence[str]] = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subparsers, by command name.

    With ``argv`` whose first word is a command, only that command's
    subparser is built, unless a word starts like ``--config`` (which reads
    every command's keys) or ``--help``/``-h``; without it, or for a missing
    or unknown command, every one is.  The usage line lists all commands.
    """
    parser = argparse.ArgumentParser(
        prog="screened-sphere",
        description="Screened Coulomb/oscillator systems on a sphere: orbits, brackets, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS and not any(
            a.startswith(("--c", "--h", "-h")) for a in argv):
        sub.metavar = "{" + ",".join(names) + "}"
        names = [argv[0]]
    commands = {}
    for name in names:
        _, help_text, add_options = _COMMANDS[name]
        p = commands[name] = sub.add_parser(name, help=help_text)
        add_options(p)
        p._negative_number_matcher = _NUMBER
    return parser, commands


def _config_defaults(path: str, command: str, commands: dict) -> dict:
    """Defaults for ``command``'s options from a config file, keyed by dest.

    A key is a long option of any command without its dashes.  Values stay
    strings, which argparse converts with the flag's own ``type``; only
    store_true flags are read here (``1``, ``true`` or ``yes`` sets them).
    argparse checks ``choices`` only on command-line values, so a value
    outside its flag's choices is a usage error here, with the flag's message.
    A path that cannot be read is a usage error; a file that is not text in
    the locale's encoding is a domain error, as a bad line is.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read --config {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path!r} is not text: {exc}") from None
    defaults = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        owners = {name: sp._option_string_actions.get("--" + key)
                  for name, sp in commands.items()}
        if key in ("config", "help") or not any(owners.values()):
            raise DomainError(f"unknown config key {key!r}")
        action = owners[command]
        if action is None:  # an option of other commands only
            continue
        try:
            commands[command]._check_value(action, raw)
        except argparse.ArgumentError as exc:
            commands[command].error(str(exc))  # prints usage, raises SystemExit(2)
        defaults[action.dest] = raw.lower() in ("1", "true", "yes") if action.nargs == 0 else raw
    return defaults


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = build_parser(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            commands[args.command].set_defaults(
                **_config_defaults(args.config, args.command, commands))
            args = parser.parse_args(argv)  # flags still beat the file's defaults
        if "t_end" in args and args.t_end is None:
            raise UsageError("missing --t-end")
        if args.system is None:
            raise UsageError("missing --system")
        if "tol" in args and not (math.isfinite(args.tol) and 1e-13 <= args.tol <= 1e-6):
            raise UsageError(f"--tol must lie in [1e-13, 1e-6], got {args.tol:g}")
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        parser.error(str(exc))  # prints usage, raises SystemExit(2)
    except DomainError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3


def run(argv: Optional[Sequence[str]] = None) -> int:
    """``main`` as a whole process: collector off for the run, heap frozen on every exit."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
