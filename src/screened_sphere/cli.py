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
built from the same table, so no other run imports argparse.  A ``--config``
file of ``key=value`` lines (``#`` starts a comment) is read as the flags
``--key=value``, placed before the command line's own flags, so a key acts
exactly as its flag does (type, choices, the last one wins) and the command
line beats the file.  A key is a long option without its
dashes (``lambda``, ``t-end``, ``Lz``); ``numeric`` and ``gnuplot`` become
their bare flags for ``1``/``true``/``yes`` and are left out otherwise.  Keys
of options that only other commands have are skipped; a bad line or a key no
command has is a domain error, found before any value is parsed.  ``--gnuplot``
with ``--format json`` is a usage error, from either source.

All floating output is printed with 17 significant digits and regular files are
written atomically, through a new temporary file beside the target that is renamed
over it (a FIFO or a device is written into), so identical inputs (including ``--seed``)
give byte-identical outputs on one host; across hosts, ``orbit``'s theta fields can differ
(numpy picks the SIMD kernel of the ``arctan2`` behind every theta by CPU), not ``brackets``'
states, made with +, - and * alone, nor the other orbit fields, which no longer follow
OpenBLAS's CPU kernel since the dense output sums no matrix product.  Exit status: 0 on
success, 2 on usage errors (an output path that cannot be written is one), 3 on domain errors
(one ``CODE: message`` line on stderr).

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

import codecs
import gc
import math
import os
import re
import sys
import types
from collections.abc import Sequence

from . import conserved, dynamics, spectra  # registered lazily: each runs on its first use
from .closed_forms import MAX_DENOMINATOR, RATIONAL_TOL, SystemKind, SystemParams, closure_analysis
from .errors import AccuracyError, DomainError, ImaginaryAlphaError


def _json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with deterministic 17-significant-digit floats, the CLI's only
    writer of a value: the outputs' and the values in ``orbit``'s summary line.

    JSON has no nan or infinity, so a non-finite float raises ``AccuracyError``.
    """
    if isinstance(obj, (dict, list, tuple)):
        pad, keyed = "  " * indent, isinstance(obj, dict)
        pairs = ((f'"{k}": ', v) for k, v in obj.items()) if keyed else (("", v) for v in obj)
        items = ",\n".join(f"{pad}  {key}{_json(v, indent + 1)}" for key, v in pairs)
        start, end = "{}" if keyed else "[]"
        return f"{start}\n{items}\n{pad}{end}" if items else start + end
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise AccuracyError(f"{obj} is not a JSON number")
        return f"{obj:.17g}"
    if hasattr(obj, "tolist"):  # a numpy array, written without importing numpy
        return _json(obj.tolist(), indent)
    return str(obj)


def _write_output(path: str, text: str) -> None:
    """Write to stdout for '-', into a path that exists and is not a regular file
    (a FIFO, a device), otherwise atomically: into a new file beside ``path``, named
    ``.tmp-`` and 16 random hex digits and created exclusively with mode 0o666, so that
    the kernel applies the umask as to any new file, then renamed over ``path``.

    Stdout with a binary ``buffer`` takes the encoded text through it until every byte
    is written: unbuffered (``PYTHONUNBUFFERED``), that buffer is the raw file, whose
    short write the text layer would let pass, dropping the rest."""
    chunks = (text[i:i + 2**18] for i in range(0, len(text), 2**18))  # never encoded whole
    if path == "-":
        out = sys.stdout
        if out is None:  # `>&-` leaves no stdout
            raise UsageError("cannot write '-': there is no stdout")
        if getattr(out, "buffer", None) is None:  # a StringIO
            out.write(text)
            return
        out.flush()
        encode = codecs.getincrementalencoder(out.encoding)(out.errors).encode  # as the text layer
        for chunk in chunks:
            data = memoryview(encode(chunk))
            while data:
                n = out.buffer.write(data)
                if not n:  # 0, or None from a raw file that would block
                    raise OSError(f"stdout took none of the last {len(data)} bytes")
                data = data[n:]
        return
    if "\0" in path:  # no file can have this name; the os calls would raise ValueError
        raise UsageError(f"cannot write {path!r}: embedded null byte")
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.writelines(chunks)
            return
        tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".tmp-" + os.urandom(8).hex())
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _report(line: str) -> None:
    """Write one of the CLI's own lines to stderr, or lose it where stderr cannot take it
    (closed with ``2>&-``, a reader gone), so that the exit status still tells the result.

    Buffered stderr takes the bytes straight to its raw file, in one write that a line this
    short passes to a pipe whole: bytes of a failed write left in the buffer would fail the
    interpreter's final flush too, which ends in status 120."""
    err = sys.stderr
    try:
        raw = getattr(getattr(err, "buffer", None), "raw", None)  # none unbuffered or captured
        if raw is None:
            err.write(line + "\n")
            err.flush()
        else:
            raw.write((line + "\n").encode(err.encoding, err.errors))
    except (OSError, ValueError, AttributeError):  # a closed or broken stream, or none
        pass


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
    out, turning_out = args.out, args.turning_out  # a file replaced twice keeps only the second
    def entry(path):  # the directory entry that os.replace replaces, through any symlinked dir
        return os.path.join(os.path.realpath(os.path.dirname(path)), os.path.basename(path))
    if (turning_out and out != "-" and "\0" not in out + turning_out  # _write_output refuses a NUL
            and (os.path.isfile(out) or not os.path.exists(out))
            and entry(out) == entry(turning_out)):
        raise UsageError(f"--out and --turning-out name one file, {out!r}")
    traj = _trajectory(args)
    points = dynamics.find_turning_points(traj)
    csv = traj.to_csv()
    _write_output(out, _strip_header_csv(csv) if args.gnuplot else csv)
    if turning_out:
        rows = [{"t": p.t, "r": p.r, "theta": p.theta, "kind": p.kind.value} for p in points]
        _write_output(turning_out, _json(rows) + "\n")
    try:
        closure = closure_analysis(traj.params, float(traj.Lz[0]))
        summary = f"closure: alpha={_json(closure.alpha)} closed={_json(closure.closed)}"
        if closure.closed:
            summary += f" p={closure.p} q={closure.q} delta_theta={_json(closure.closure_angle)}"
    except ImaginaryAlphaError:
        summary = "closure: alpha imaginary (2k >= Lz**2)"
    if points:
        summary += f"; turning_points={len(points)}"
    elif traj.circular:
        summary += "; circular orbit"
    _report(summary)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    if args.lz is None:
        raise UsageError("closure requires --Lz")
    result = closure_analysis(_params(args), args.lz)
    _write_output(args.out, _json(result._asdict()) + "\n")
    return 0


def _cmd_turning(args: argparse.Namespace) -> int:
    traj = _trajectory(args)
    report = conserved.turning_point_conservation(traj)
    _write_output(args.out, _json(report._asdict()) + "\n")
    return 0


def _cmd_brackets(args: argparse.Namespace) -> int:
    params = _params(args)
    verify = (
        conserved.verify_coulomb_algebra
        if params.kind is SystemKind.COULOMB
        else conserved.verify_oscillator_algebra
    )
    reports = verify(params, n_samples=args.samples, seed=args.seed, method=args.method)
    _write_output(args.out, _json([r._asdict() for r in reports]) + "\n")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    entries = spectra.spectrum_entries(_params(args), args.m, args.n, numeric=args.numeric)
    if args.fmt == "json":
        text = _json([e.to_dict() for e in entries]) + "\n"
    else:
        text = spectra.spectrum_csv(entries)
        if args.gnuplot:
            text = _strip_header_csv(text)
    _write_output(args.out, text)
    return 0


_CLOSED = (f'"closed": true means alpha lies within {RATIONAL_TOL:g} of p/q with q <= '
           f"{MAX_DENOMINATOR}; an orbit whose alpha is p/q with a larger q closes too, only later")
_COMMANDS = {  # name: (run, help, description)
    "orbit": (_cmd_orbit, "integrate an orbit and export the trajectory", None),
    "closure": (_cmd_closure, "rational-alpha closure analysis", _CLOSED),
    "turning": (_cmd_turning, "turning-point conservation report", None),
    "brackets": (_cmd_brackets, "bracket-identity residuals over random states", None),
    "spectrum": (_cmd_spectrum, "energy levels, analytic and grid-oracle", None),
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
    ("--t-end", _ORBITS, dict(type=float, help="integration time")),
    ("--tol", _ORBITS, dict(type=float, default=1e-10,
                            help="integrator relative tolerance (default %(default)s)")),
    ("--trajectory-samples", _ORBITS, dict(
        dest="n_samples", type=int, default=4001,
        help="number of recorded samples (default %(default)s)")),
    ("--turning-out", ("orbit",), dict(help="also write turning points as JSON to this path")),
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
# Each command's options, indexed once: flag -> (dest, keywords), in help order
_INDEX = {name: {flag: (keywords.get("dest", flag[2:].replace("-", "_")), keywords)
                 for flag, commands, keywords in _OPTIONS if name in commands}
          for name in _COMMANDS}
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)  # "-1e-05", "-inf" are not options


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, a subparser per command with its options from ``_INDEX``.  The
    metavar names the command argument in the errors for a missing or an unknown command."""
    import argparse

    class Parser(argparse.ArgumentParser):  # subparsers are made of the same class
        def error(self, message):
            """argparse's usage and error lines through ``_report``, which leaves no bytes of a
            refused write for the interpreter's final flush; then exit 2."""
            _report(self.format_usage() + f"{self.prog}: error: {message}")
            raise SystemExit(2)

    parser = Parser(
        prog="screened-sphere",
        description="Screened Coulomb/oscillator systems on a sphere: orbits, brackets, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_ALL) + "}")
    for name, (_, text, description) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=description)
        for flag, (_, keywords) in _INDEX[name].items():
            p.add_argument(flag, **keywords)
        p._negative_number_matcher = _NUMBER
    return parser


def _read_args(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """argparse's namespace for ``argv`` when it is a command and only its exact long flags
    (``--flag value``, ``--flag=value``, a bare store_true flag), read from ``_INDEX``, each
    value typed and checked where it stands; None for argparse to read or report otherwise."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, options = {"command": argv[0]}, _INDEX[argv[0]]
    for dest, keywords in options.values():
        default = keywords.get("default", False if "action" in keywords else None)
        values[dest] = keywords.get("type", str)(default) if type(default) is str else default
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
    options, flags = _INDEX[command], []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key
        if key == "config" or not any(flag in index for index in _INDEX.values()):
            raise DomainError(f"unknown config key {key!r}")
        if flag not in options:  # an option of other commands only
            continue
        if options[flag][1].get("action") != "store_true":
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or build_parser().parse_args(argv)
    try:
        if args.config:  # the file's flags go before the command line's, which win
            argv = [args.command, *_config_flags(args.config, args.command), *argv[1:]]
            args = _read_args(argv) or build_parser().parse_args(argv)
        for flag in ("--config", "--out", "--turning-out"):  # no file has an empty name
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise UsageError(f"{flag} needs a path, got ''")
        if getattr(args, "t_end", 0.0) is None:
            raise UsageError("missing --t-end")
        if args.system is None:
            raise UsageError("missing --system")
        if getattr(args, "fmt", None) == "json" and args.gnuplot:
            raise UsageError("--gnuplot needs csv output, not --format json")
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        build_parser().error(str(exc))  # prints usage, raises SystemExit(2)
    except DomainError as exc:
        _report(f"{exc.code}: {exc}")
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
