"""Command-line front end: orbits, closure, turning points, brackets, spectra.

Commands
--------
orbit     integrate an orbit, write the trajectory table, report closure
closure   rational-alpha closure analysis for given Lz
turning   turning-point conservation report for an integrated orbit
brackets  Higgs-algebra bracket residuals over seeded random states
spectrum  analytic (optionally grid-oracle) energy levels

Each option is declared once, in ``_OPTIONS``: its flag, the commands that take
it and its argparse keywords.  ``_read_args`` reads a command and its exact
long flags from that table, the ``--config`` re-read too; help, an
abbreviation, a bad value and every usage error go to argparse, whose parser is
built from the same table (its command's subparser alone), so no other run
imports argparse.  A ``--config`` file of ``key=value`` lines (``#`` starts a
comment) is read as the flags ``--key=value``, placed before the command line's
own flags, so a key acts exactly as its flag does (type, choices, the last one
wins) and the command line beats the file.  A key is a long option without its
dashes (``lambda``, ``t-end``, ``Lz``); ``numeric`` and ``gnuplot`` become
their bare flags for ``1``/``true``/``yes`` and are left out otherwise.  Keys
of options that only other commands have are skipped; a bad line or a key no
command has is a domain error, found before any value is parsed.  ``--gnuplot``
with ``--format json`` is a usage error, from either source.

All floating output is printed with 17 significant digits and regular
files are written atomically, through a new temporary file beside the target
that is renamed over it (a FIFO or a device is written into), so identical
inputs (including ``--seed``) give byte-identical outputs.  Exit status: 0 on
success, 2 on usage errors (an output path that cannot be written is one), 3 on
domain errors (one ``CODE: message`` line on stderr).

The process entry ``run`` (``python -m screened_sphere.cli``, the
``screened-sphere`` script) runs the command with the cyclic garbage
collector off, since no command makes cycles that grow with its work, and
freezes the heap when it ends.  After the command returns it flushes stdout
and stderr and ends the process with ``os._exit``, so the interpreter does not
tear down its modules and objects; a usage error, an uncaught exception or a
flush that fails ends through the interpreter's normal exit instead.  ``main``
leaves the collector as it finds it.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
import types
from collections.abc import Sequence

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
    (a FIFO, a device), otherwise atomically: into a new file beside ``path``, named
    ``.tmp-`` and 16 random hex digits and created exclusively with mode 0o666, so that
    the kernel applies the umask as to any new file, then renamed over ``path``.

    Stdout with a binary ``buffer`` takes the encoded text through it until every byte
    is written: unbuffered (``PYTHONUNBUFFERED``), that buffer is the raw file, whose
    short write the text layer would let pass, dropping the rest."""
    if path == "-":
        out = sys.stdout
        if getattr(out, "buffer", None) is None:  # no stdout at all, or a StringIO
            out.write(text)
            return
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            n = out.buffer.write(data)
            if not n:  # 0, or None from a raw file that would block
                raise OSError(f"stdout took none of the last {len(data)} bytes")
            data = data[n:]
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".tmp-" + os.urandom(8).hex())
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
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


def _trajectory(args: argparse.Namespace) -> dynamics.Trajectory:
    params = _params(args)
    missing = [n for n in ("x", "px", "py") if getattr(args, n) is None]
    if missing:
        raise UsageError(f"missing initial-condition flags: {', '.join('--' + m for m in missing)}")
    state = dynamics.PhaseState(args.x, args.y, args.px, args.py)
    return dynamics.integrate(state, params, t_end=args.t_end, rel_tol=args.tol,
                              n_samples=args.n_samples)


def _int_list(text: str) -> list[int]:
    """Type of ``--m`` and ``--N``: a non-empty comma-separated list of integers."""
    try:
        values = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        values = []
    if not values:
        import argparse
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")
    return values


def _cmd_orbit(args: argparse.Namespace) -> int:
    traj = _trajectory(args)
    points = dynamics.find_turning_points(traj)
    csv = traj.to_csv()
    _write_output(args.out, _strip_header_csv(csv) if args.gnuplot else csv)
    if args.turning_out:
        _write_output(args.turning_out, _json(dynamics.turning_points_json(points)) + "\n")
    try:
        closure = closure_analysis(traj.params, float(traj.Lz[0]))
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
    traj = _trajectory(args)
    report = conserved.turning_point_conservation(traj)
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


_COMMANDS = {  # name: (run, help)
    "orbit": (_cmd_orbit, "integrate an orbit and export the trajectory"),
    "closure": (_cmd_closure, "rational-alpha closure analysis"),
    "turning": (_cmd_turning, "turning-point conservation report"),
    "brackets": (_cmd_brackets, "bracket-identity residuals over random states"),
    "spectrum": (_cmd_spectrum, "energy levels, analytic and grid-oracle"),
}
_ALL, _ORBITS = tuple(_COMMANDS), ("orbit", "turning")
# Every option once, in each command's help order: (flag, commands that take it, keywords)
_OPTIONS = (
    ("--config", _ALL, dict(help="file of key=value lines, read as --key=value flags")),
    ("--system", _ALL, dict(choices=["coulomb", "oscillator"], help="potential kind")),
    ("--lambda", _ALL, dict(dest="lam", type=float, default=0.0,
                            help="sphere curvature (>= 0, default %(default)s)")),
    ("--k", _ALL, dict(type=float, default=0.0,
                       help="screening strength (>= 0, default %(default)s)")),
    ("--out", _ALL, dict(default="-", help="output path, '-' for stdout (default %(default)s)")),
    ("--format", ("spectrum",), dict(dest="fmt", choices=["csv", "json"], default="csv",
                                     help="output format (default %(default)s)")),
    ("--gnuplot", ("orbit", "spectrum"), dict(action="store_true",
                                              help="space-separated columns without header")),
    ("--x", _ORBITS, dict(type=float, help="initial x1")),
    ("--y", _ORBITS, dict(type=float, default=0.0, help="initial x2 (default %(default)s)")),
    ("--px", _ORBITS, dict(type=float, help="initial p1")),
    ("--py", _ORBITS, dict(type=float, help="initial p2")),
    ("--t-end", _ORBITS, dict(dest="t_end", type=float, help="integration time")),
    ("--tol", _ORBITS, dict(type=float, default=1e-10,
                            help="integrator relative tolerance (default %(default)s)")),
    ("--trajectory-samples", _ORBITS, dict(
        dest="n_samples", type=int, default=4001,
        help="number of recorded samples (default %(default)s)")),
    ("--turning-out", ("orbit",), dict(dest="turning_out",
                                       help="also write turning points as JSON to this path")),
    ("--Lz", ("closure",), dict(dest="lz", type=float, help="angular momentum")),
    ("--samples", ("brackets",), dict(type=int, default=1000,
                                      help="number of sampled states (default %(default)s)")),
    ("--seed", ("brackets",), dict(type=int, default=0, help="RNG seed (default %(default)s)")),
    ("--method", ("brackets",), dict(choices=["analytic", "fd"], default="analytic",
                                     help="gradient mode (default %(default)s)")),
    ("--m", ("spectrum",), dict(
        type=_int_list, default="0",
        help="angular quantum number(s), comma separated (default %(default)s)")),
    ("--N", ("spectrum",), dict(dest="n", type=_int_list, default="0",
                                help="radial index(es), comma separated (default %(default)s)")),
    ("--numeric", ("spectrum",), dict(action="store_true",
                                      help="add finite-difference oracle energies")),
)
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)  # "-1e-05", "-inf" are not options


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with the subparser of ``argv``'s command alone when its first word
    names one, and every command's otherwise.  The usage line lists all commands."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="screened-sphere",
        description="Screened Coulomb/oscillator systems on a sphere: orbits, brackets, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_ALL) + "}")
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _ALL:
        p = sub.add_parser(name, help=_COMMANDS[name][1])
        for flag, commands, keywords in _OPTIONS:
            if name in commands:
                p.add_argument(flag, **keywords)
        p._negative_number_matcher = _NUMBER
    return parser


def _read_args(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """argparse's namespace for ``argv`` when it is a command and only its exact long flags
    (``--flag value``, ``--flag=value``, a bare store_true flag), read from ``_OPTIONS``, each
    value typed and checked where it stands; None for argparse to read or report otherwise."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, options = {"command": argv[0]}, {}
    for flag, commands, keywords in _OPTIONS:
        if argv[0] in commands:
            dest = keywords.get("dest", flag[2:].replace("-", "_"))
            default = keywords.get("default", False if "action" in keywords else None)
            values[dest] = keywords.get("type", str)(default) if type(default) is str else default
            options[flag] = dest, keywords
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        dest, keywords = options[flag]
        if "action" in keywords:  # a store_true flag takes no value
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:  # argparse takes a separate "-..." value only if it is "-" or a number
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-" and not _NUMBER.match(value):
                return None
        try:
            value = keywords.get("type", str)(value)
        except Exception:  # argparse reports it, or raises it again
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    return types.SimpleNamespace(**values)


def _config_flags(path: str, command: str) -> list[str]:
    """The flags a config file names for ``command``: ``--key=value`` for each line.

    A key is a flag of ``_OPTIONS`` without its dashes; a store_true key is
    its bare flag when its value is ``1``, ``true`` or ``yes`` and nothing
    otherwise, and a key of other commands' options only is skipped.
    A path that cannot be read is a usage error; a file that is not text in
    the locale's encoding is a domain error, as a bad line or key is.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read --config {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path!r} is not text: {exc}") from None
    options = {flag: (commands, keywords) for flag, commands, keywords in _OPTIONS}
    flags = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key
        if key == "config" or flag not in options:
            raise DomainError(f"unknown config key {key!r}")
        commands, keywords = options[flag]
        if command not in commands:  # an option of other commands only
            continue
        if keywords.get("action") != "store_true":
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or build_parser(argv).parse_args(argv)
    try:
        if args.config:  # the file's flags go before the command line's, which win
            argv = [args.command, *_config_flags(args.config, args.command), *argv[1:]]
            args = _read_args(argv) or build_parser(argv).parse_args(argv)
        if getattr(args, "t_end", 0.0) is None:
            raise UsageError("missing --t-end")
        if args.system is None:
            raise UsageError("missing --system")
        if getattr(args, "fmt", None) == "json" and args.gnuplot:
            raise UsageError("--gnuplot needs csv output, not --format json")
        if hasattr(args, "tol") and not (math.isfinite(args.tol) and 1e-13 <= args.tol <= 1e-6):
            raise UsageError(f"--tol must lie in [1e-13, 1e-6], got {args.tol:g}")
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        build_parser(argv).error(str(exc))  # prints usage, raises SystemExit(2)
    except DomainError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3


def run(argv: Sequence[str] | None = None) -> int:
    """``main`` as a whole process: collector off for the run, heap frozen on every exit.

    Once ``main`` returns and stdout and stderr are flushed, the process ends
    with ``os._exit``, skipping the interpreter's teardown.  A usage error
    (``SystemExit``), an uncaught exception or a flush that fails returns through
    the interpreter's normal exit, which reports it as before.
    """
    gc.disable()
    try:
        status = main(argv)
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):  # a broken pipe, a closed or a missing stream
        return status
    os._exit(status)


if __name__ == "__main__":
    raise SystemExit(run())
