"""CLI commands: outputs, schemas, determinism, exit codes."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import shlex
import site
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_digests import ROOT, SRC, child_env, run_process
from golden_digests import run as run_main
from screened_sphere.cli import (_OPTIONS, _json, _read_args, _write_output, build_parser, main,
                                 run)
from screened_sphere.errors import AccuracyError, DomainError


def test_orbit_command_writes_trajectory_and_detects_closure(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    tp = tmp_path / "turning.json"
    rc = main([
        "orbit", "--system", "coulomb", "--lambda", "0", "--k", "0.375",
        "--x", "2", "--px", "0", "--py", "0.5", "--t-end", "200",
        "--tol", "1e-10", "--out", str(out), "--turning-out", str(tp),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,p1,p2,r,theta,H,Lz"
    assert len(lines) == 4002
    first = [float(v) for v in lines[1].split(",")]
    assert first[:5] == [0.0, 2.0, 0.0, 0.0, 0.5]
    assert first[8] == 1.0  # Lz

    err = capsys.readouterr().err
    assert "alpha=0.5" in err and "closed=true" in err

    points = json.loads(tp.read_text())
    assert len(points) > 10
    assert set(points[0]) == {"t", "r", "theta", "kind"}
    assert points[0]["kind"] in ("aphelion", "perihelion")


def test_spectrum_command_flat_oscillator_ground_state(capsys):
    rc = main(["spectrum", "--system", "oscillator", "--lambda", "0", "--k", "0",
               "--m", "0", "--N", "0"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kind,lambda,k,m,N,m_prime,E_analytic,E_numeric,abs_diff"
    assert out[1] == "oscillator,0,0,0,0,0,1,,"


def test_spectrum_sweep_json(capsys):
    rc = main(["spectrum", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
               "--m", "1,2", "--N", "0,1", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert rows[0]["kind"] == "coulomb"
    assert rows[0]["E_numeric"] is None


def test_spectrum_gnuplot_strips_header(capsys):
    argv = ["spectrum", "--system", "oscillator", "--lambda", "0", "--k", "0",
            "--m", "1", "--N", "0,1"]
    assert main(argv) == 0
    csv = capsys.readouterr().out.splitlines(keepends=True)
    for gnuplot in (["--gnuplot"], ["--format", "csv", "--gnuplot"]):
        assert main([*argv, *gnuplot]) == 0
        out = capsys.readouterr().out
        assert out == "".join(csv[1:]).replace(",", " ")
    out = out.splitlines()
    assert len(out) == 2
    assert "," not in out[0]
    assert out[0].split()[6] == "2"  # E = 1 + m' + 2N = 2


def test_orbit_gnuplot_is_the_csv_without_header_or_commas(tmp_path, capsys):
    argv = ["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
            "--x", "1.6", "--px", "0", "--py", "0.55", "--t-end", "5"]
    plain, gnuplot = tmp_path / "orbit.csv", tmp_path / "orbit.dat"
    assert main([*argv, "--out", str(plain)]) == 0
    assert main([*argv, "--gnuplot", "--out", str(gnuplot)]) == 0
    lines = plain.read_bytes().splitlines(keepends=True)
    assert lines[0] == b"t,x1,x2,p1,p2,r,theta,H,Lz\n"
    assert gnuplot.read_bytes() == b"".join(lines[1:]).replace(b",", b" ")


@pytest.mark.parametrize("flags,config", [
    (["--format", "json", "--gnuplot"], None),
    (["--gnuplot", "--format", "json"], None),
    ([], "format=json\ngnuplot=yes\n"),
    (["--gnuplot"], "format=json\n"),
    (["--format", "json"], "gnuplot=1\n"),
], ids=["flags", "flags-reversed", "config", "gnuplot-flag", "format-flag"])
def test_spectrum_json_with_gnuplot_is_a_usage_error(tmp_path, capsys, flags, config):
    # gnuplot columns are a csv layout; json output would drop the flag without a word
    argv = ["spectrum", "--system", "coulomb", "--m", "1", "--N", "0", *flags]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("error: --gnuplot needs csv output, not --format json\n")


def test_closure_command_json(capsys):
    rc = main(["closure", "--system", "coulomb", "--lambda", "0", "--k", "0.375",
               "--Lz", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == 0.5
    assert data["closed"] is True
    assert (data["p"], data["q"]) == (1, 2)
    assert data["closure_angle"] == pytest.approx(4.0 * math.pi)


def test_brackets_determinism(tmp_path):
    args = ["brackets", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
            "--samples", "200", "--seed", "42"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    reports = json.loads(out1.read_text())
    assert len(reports) == 3
    assert set(reports[0]) == {"identity", "n_samples", "max_abs_residual", "mean_abs_residual"}
    assert all(r["max_abs_residual"] < 1e-7 for r in reports)


def test_turning_command(tmp_path):
    out = tmp_path / "turning.json"
    rc = main(["turning", "--system", "oscillator", "--lambda", "0.1", "--k", "0.05",
               "--x", "1.5", "--px", "0", "--py", "0.6", "--t-end", "20",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["quantities"] == ["Q'xy", "Q'1"]
    assert data["max_abs_bracket_at_turning"] < 1e-7
    assert data["generic_max_abs_bracket"] > 1e-3


def test_a_short_span_from_an_aphelion_finds_it(tmp_path):
    # x.p is 0 at the start and stays at rounding level up to t = 2e-8; that used to read as
    # a circular orbit, which `turning` refused with exit 3
    argv = ["--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--x", "1.6", "--px", "0",
            "--py", "0.55", "--t-end", "2e-8"]
    rc, out = run_main(["orbit", *argv, "--out", "orbit.csv"], tmp_path / "orbit")
    assert rc == 0 and out["stderr"].endswith(b"; turning_points=1\n"), out["stderr"]
    rc, out = run_main(["turning", *argv], tmp_path / "turning")
    assert rc == 0, out["stderr"]
    assert json.loads(out["stdout"])["turning_kinds"] == ["aphelion"]


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nlambda=0\nk=0.05\nLz=1\n")
    rc = main(["closure", "--config", str(cfg)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["closed"] is False

    rc = main(["closure", "--config", str(cfg), "--k", "0.375"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed"] is True and data["alpha"] == 0.5


def test_unreadable_config_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.cfg"):  # a directory, then no file
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--config", str(path), "--Lz", "1"])
        assert exc.value.code == 2
        assert "cannot read --config" in capsys.readouterr().err


def test_undecodable_config_is_a_domain_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"system=coulomb\n\xff\xfe=1\n")
    assert main(["closure", "--config", str(cfg), "--Lz", "1"]) == 3
    assert capsys.readouterr().err.startswith("ERR_DOMAIN: ")


# --- every refusal of the command line: its exit status and its stderr, in full ------

_USAGE = "usage: screened-sphere [-h] {orbit,closure,turning,brackets,spectrum} ...\n"
_C = ["--system", "coulomb"]
_START = ["--x", "1", "--px", "0", "--py", "1", "--t-end", "1"]
_FIXTURE = [*_C, "--lambda", "0.1", "--k", "0.05", "--x", "1.6", "--px", "0", "--py", "0.55"]
_HUGE_START = [*_C, "--x", "1", "--px", "1", "--py", "1", "--t-end", "5", "--out", os.devnull]
_HUGE_INT = "1" + "0" * 200  # converts to a float, but its square does not
_STIFF = "ERR_STIFF: integrator failed: Required step size is less than spacing between numbers."
_UNREAD = "unrecognized arguments: "

# name: (argv, exit status, line[, timeout]).  Exit 3 prints the line alone, exit 2 the usage
# line and then "screened-sphere: error: " and the line; "…" stands for a computed number.  A
# row with a timeout runs in a fresh process, since what it checks is that the run ends: a
# hang, the draw cap, the step cap or an allocation.  Every other row runs in-process, where
# a numpy RuntimeWarning is an error (pyproject's filterwarnings), so a row that warns fails.
_REFUSALS = {
    "closure-imaginary-alpha": (["closure", *_C, "--lambda", "0", "--k", "0.5", "--Lz", "1"], 3,
                                "ERR_IMAGINARY_ALPHA: 2k = 1 >= Lz**2 = 1: alpha is imaginary"),
    "closure-negative-curvature": (["closure", *_C, "--lambda", "-0.1", "--Lz", "1"], 3,
                                   "ERR_NEGATIVE_CURVATURE: curvature must be finite and >= 0, "
                                   "got -0.1"),
    # an infinite Lz used to pass as alpha = 1 (a closed orbit), a NaN as a bare ValueError
    **{f"closure-lz-{lz}": (["closure", *_C, "--Lz", lz], 3,
                            f"ERR_DOMAIN: angular momentum Lz must be finite, got {lz}")
       for lz in ("nan", "inf", "-inf")},
    "spectrum-imaginary-m-prime": (["spectrum", *_C, "--lambda", "0", "--k", "0.05", "--m", "0",
                                    "--N", "0"], 3,
                                   "ERR_IMAGINARY_MPRIME: m**2 = 0 < 2k = 0.1: m' is imaginary"),
    # the level overflows; it used to be printed as a bare inf
    "spectrum-level-overflows": (["spectrum", "--system", "oscillator", "--lambda", "1e308",
                                  "--m", "1", "--N", "0", "--format", "json"], 3,
                                 "ERR_DOMAIN: level m = 1, N = 0 overflows at lam = 1e+308"),
    # the coulomb level's (m' + N + 1/2)**2 and m**2 overflow; both used to end in a traceback
    "spectrum-huge-N": (["spectrum", *_C, "--N", _HUGE_INT], 3,
                        f"ERR_DOMAIN: level m = 0, N = {_HUGE_INT} overflows at lam = 0"),
    "spectrum-huge-m": (["spectrum", *_C, "--m", _HUGE_INT], 3,
                        "ERR_DOMAIN: m**2 is too large for a float"),
    # the grid matrix overflows; numpy's RuntimeWarnings used to come before the code line.
    # m = 1 passes the m' >= 1/2 refusal, so the line is the overflow's own
    **{f"spectrum-numeric-{system}-overflows": (
        ["spectrum", "--system", system, "--lambda", "1e308", "--m", "1", "--numeric"], 3,
        "ERR_ACCURACY: tridiagonal eigensolver failed: array must not contain infs or NaNs")
       for system in ("coulomb", "oscillator")},
    # no state of the sampling box has Lz**2 > 2k = 80
    "brackets-no-state-in-the-box": (["brackets", *_C, "--lambda", "0", "--k", "40"], 3,
                                     "ERR_IMAGINARY_ALPHA: 2k = 80 >= 72, the largest Lz**2 on "
                                     "the sampling box", 60.0),
    # a few states exist, but too rare to find within the draw cap
    "brackets-too-rare": (["brackets", *_C, "--lambda", "0", "--k", "35.99"], 3,
                          "ERR_IMAGINARY_ALPHA: found 0 of 1000 states with 2k < Lz**2 in … "
                          "candidate draws, too few to reach 1000 in …", 60.0),
    # the cap allows 10**9 candidates here; drawing them took minutes, and none passes
    "brackets-hopeless": (["brackets", *_C, "--lambda", "0", "--k", "35.99", "--samples",
                           "1000000"], 3,
                          "ERR_IMAGINARY_ALPHA: found 0 of 1000000 states with 2k < Lz**2 in … "
                          "candidate draws, too few to reach 1000000 in …", 20.0),
    "brackets-no-samples": (["brackets", *_C, "--lambda", "0", "--k", "0.05", "--samples", "0"],
                            3, "ERR_DOMAIN: need at least one sampled state, got 0"),
    "brackets-negative-seed": (["brackets", *_C, "--lambda", "0", "--k", "0.05", "--seed", "-1"],
                               3, "ERR_DOMAIN: seed must be nonnegative, got -1"),
    # 10**12 states would need terabytes; the cap rejects them before any draw
    **{f"brackets-samples-{samples}": (["brackets", *_C, "--k", "0.05", "--samples", samples], 3,
                                       f"ERR_DOMAIN: at most 1000000 sampled states, got {samples}")
       for samples in ("1000001", "1000000000000")},
    # the bracket terms overflow; the residuals used to be printed as nan.  Also run in a fresh
    # process, where numpy's RuntimeWarnings would reach stderr ahead of the line
    **{f"brackets-{system}-overflows{where}": (["brackets", "--system", system, "--lambda", lam,
                                                "--samples", "3"], 3,
                                               f"ERR_ACCURACY: bracket residuals are not finite "
                                               f"at lam = {float(lam):g}, k = 0: the terms "
                                               f"overflow", *timeout)
       for system, lam in (("coulomb", "1e300"), ("oscillator", "1e150"))
       for where, timeout in (("", ()), ("-in-a-fresh-process", (60.0,)))},
    "orbit-at-the-origin": (["orbit", *_C, "--x", "0", "--px", "0", "--py", "1", "--t-end", "1"],
                            3, "ERR_NONPOSITIVE_RADIUS: initial state must have r > 0"),
    "orbit-collapses": (["orbit", *_C, "--lambda", "0", "--k", "0.05", "--x", "1", "--px", "-0.5",
                         "--py", "0", "--t-end", "50"], 3,
                        "ERR_SINGULAR_ORBIT: orbit collapsed to r = … at t = …"),
    # the orbit crosses the equator, where the chart ends; it used to run the whole step budget
    "orbit-chart-edge": (["orbit", *_C, "--x", "1", "--y", "1", "--px", "0", "--py", "0.55",
                          "--lambda", "1", "--t-end", "3"], 3,
                         "ERR_CHART_EDGE: orbit reached the edge of the chart, lam*r**2 > 1e+12, "
                         "at t = …"),
    "turning-t-end-inf": (["turning", *_FIXTURE, "--t-end", "inf"], 3,
                          "ERR_DOMAIN: t_end must be finite and nonzero, got inf", 60.0),
    "orbit-t-end-nan": (["orbit", *_FIXTURE, "--t-end", "nan"], 3,
                        "ERR_DOMAIN: t_end must be finite and nonzero, got nan", 60.0),
    "turning-t-end-0": (["turning", *_FIXTURE, "--t-end", "0"], 3,
                        "ERR_DOMAIN: t_end must be finite and nonzero, got 0.0", 60.0),
    "orbit-px-nan": (["orbit", *_C, "--x", "1", "--px", "nan", "--py", "1", "--t-end", "1"], 3,
                     "ERR_DOMAIN: initial state must be finite, got (1.0, 0.0, nan, 1.0)", 30.0),
    # p**2 overflows, the step size turns NaN, and that ends as a step underflow
    "orbit-py-1e200": (["orbit", *_C, "--x", "1", "--px", "0", "--py", "1e200", "--t-end", "1"],
                       3, _STIFF, 30.0),
    # r**2 underflows in the gradient; the start is refused below the radius guard
    "orbit-x-1e-300": (["orbit", *_C, "--x", "1e-300", "--px", "0", "--py", "1", "--t-end", "1"],
                       3, "ERR_SINGULAR_ORBIT: initial r = 1e-300 is at or below the guard 1e-08",
                       30.0),
    # an infinite first derivative leaves a zero first step (px, lambda and k at 1e308), or the
    # error norm of the first step overflows (k at 1e200)
    **{f"{command}-huge-{flags[-2][2:]}-{flags[-1]}": ([command, *_HUGE_START, *flags], 3, _STIFF)
       for command in ("orbit", "turning")
       for flags in (["--px", "1e308"], ["--px", "0", "--lambda", "1e308"],
                     ["--px", "0", "--k", "1e308"], ["--px", "0", "--k", "1e200"])},
    # ~770 steps per time unit over 1e6 time units: the step cap ends it within seconds
    "orbit-step-cap": (["orbit", *_C, "--x", "1", "--px", "0", "--py", "1", "--t-end", "1e6",
                        "--tol", "1e-6", "--lambda", "100"], 3,
                       "ERR_STEP_BUDGET: more than 200000 solver steps; stopped at t = …", 60.0),
    # 10**12 samples would need terabytes; the cap rejects them before allocating
    "orbit-samples-cap": (["orbit", *_FIXTURE, "--t-end", "10", "--trajectory-samples",
                           "1000000000000"], 3,
                          "ERR_DOMAIN: n_samples must be at most 1000000, got 1000000000000",
                          60.0),
    "turning-circular": (["turning", *_C, "--x", "1", "--px", "0", "--py", "1", "--t-end", "5"], 3,
                         "ERR_NO_TURNING_POINTS: no turning points detected (orbit is circular)"),
    # exit 2: argparse's usage errors, and those that main raises
    "missing-command": ([], 2, "the following arguments are required: "
                               "{orbit,closure,turning,brackets,spectrum}"),
    "unknown-command": (["orb"], 2, "argument {orbit,closure,turning,brackets,spectrum}: invalid "
                                    "choice: 'orb' (choose from 'orbit', 'closure', 'turning', "
                                    "'brackets', 'spectrum')"),
    "unknown-flag": (["closure", *_C, "--bogus-flag", "1"], 2, _UNREAD + "--bogus-flag 1"),
    # --format belongs to spectrum alone, --gnuplot to orbit and spectrum
    "closure-format": (["closure", *_C, "--format", "json", "--Lz", "1"], 2,
                       _UNREAD + "--format json"),
    "closure-gnuplot": (["closure", *_C, "--gnuplot", "--Lz", "1"], 2, _UNREAD + "--gnuplot"),
    "orbit-format": (["orbit", *_C, "--format", "json", *_START], 2, _UNREAD + "--format json"),
    "turning-format": (["turning", *_C, "--format", "csv", *_START], 2, _UNREAD + "--format csv"),
    "turning-gnuplot": (["turning", *_C, "--gnuplot", *_START], 2, _UNREAD + "--gnuplot"),
    "brackets-format": (["brackets", *_C, "--format", "json", "--samples", "10"], 2,
                        _UNREAD + "--format json"),
    "brackets-gnuplot": (["brackets", *_C, "--gnuplot", "--samples", "10"], 2,
                         _UNREAD + "--gnuplot"),
    "closure-missing-lz": (["closure", *_C, "--k", "0.1"], 2, "closure requires --Lz"),
    "orbit-missing-t-end": (["orbit", *_C, "--x", "1", "--px", "0", "--py", "1"], 2,
                            "missing --t-end"),
    "turning-missing-px-py": (["turning", "--system", "oscillator", "--t-end", "5", "--x", "1"], 2,
                              "missing initial-condition flags: --px, --py"),
    "brackets-missing-system": (["brackets", "--samples", "10"], 2, "missing --system"),
    "spectrum-missing-system": (["spectrum", "--m", "1,2", "--numeric"], 2, "missing --system"),
    "orbit-tol-out-of-range": (["orbit", *_C, *_START, "--tol", "0.1"], 2,
                               "--tol must lie in [1e-13, 1e-6], got 0.1"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_a_refusal_ends_as_its_row_says(tmp_path, name):
    argv, status, line, *timeout = _REFUSALS[name]
    rc, out = (run_process(argv, tmp_path, timeout=timeout[0]) if timeout
               else run_main(argv, tmp_path))
    assert (rc, sorted(out), out["stdout"]) == (status, ["stderr", "stdout"], b""), out["stderr"]
    text = line if status == 3 else f"{_USAGE}screened-sphere: error: {line}"
    pattern = r"\S+".join(map(re.escape, text.split("…"))) + r"\n"
    assert re.fullmatch(pattern, out["stderr"].decode()), out["stderr"]


def _codes(cls=DomainError) -> set[str]:
    """The code of ``cls`` and of each of its subclasses in ``errors.py``, found recursively
    (the tests' own subclasses, such as ``orbit_reference.OrbitDomainError``, left out)."""
    return {cls.code}.union(*(_codes(sub) for sub in cls.__subclasses__()
                              if sub.__module__ == DomainError.__module__))


def _row_codes() -> dict[tuple[str, ...], str]:
    """The code each exit-3 row prints, by its argv."""
    return {tuple(argv): line.partition(":")[0]
            for argv, status, line, *_ in _REFUSALS.values() if status == 3}


def test_every_error_code_is_printed_by_a_refusal():
    assert set(_row_codes().values()) == _codes()


def test_the_readme_lists_every_code_with_a_refusal_that_prints_it():
    # one "- `CODE`: ..." item per code, whose example `screened-sphere ...` is a row
    items = re.findall(r"^- `(ERR_[A-Z_]+)`.*?`screened-sphere ([^`]+)`",
                       (ROOT / "README.md").read_text(), re.M | re.S)
    rows = _row_codes()
    assert sorted((code, rows.get(tuple(shlex.split(example)))) for code, example in items) == [
        (code, code) for code in sorted(_codes())]


@pytest.mark.parametrize("lz", ["1e-200", "-5e-324"])
def test_unscreened_closure_where_lz_squared_underflows(capsys, lz):
    # at k = 0 alpha is 1 for every Lz != 0, also where Lz**2 underflows to 0
    assert main(["closure", "--system", "coulomb", "--k", "0", "--Lz", lz]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["alpha"], data["closed"], data["p"], data["q"]) == (1.0, True, 1, 1)


def test_brackets_sampler_finds_a_low_yield_request_past_the_yield_check(tmp_path):
    # about 8e-4 of the candidates pass at k = 26, so 1000 states take more than the 2**20
    # candidates after which the sampler may refuse a request for its yield
    rc, out = run_process(["brackets", "--system", "coulomb", "--lambda", "0", "--k", "26",
                           "--samples", "1000", "--out", "brackets.json"], tmp_path)
    assert (rc, out["stderr"]) == (0, b"")
    assert all(r["n_samples"] == 1000 for r in json.loads(out["brackets.json"]))


# Near-radial coulomb starts (e ~ 0.99 and beyond) that end in a coded error today: py 0.1 in
# the turning-point refinement (|rdot| = 1.368e-10 against 1e-10), py 0.05 in the drift gate
# (dH = 1.427e-09 against 1e-09).  Strict, so that the fix has to flip them.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="near-radial orbits: turning-point refinement and drift gate")
@pytest.mark.parametrize("py", ["0.1", "0.05"])
@pytest.mark.parametrize("command", ["orbit", "turning"])
def test_near_radial_coulomb_start_exits_0(tmp_path, capsys, command, py):
    rc = main([command, "--system", "coulomb", "--x", "1", "--y", "0", "--px", "0", "--py", py,
               "--t-end", "20", "--tol", "1e-10", "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


# ``integrate`` solves at max(tol * 1e-2, 2.5e-14), so at --tol 1e-13 the solver runs only
# 0.25 x tol and the drift gate (10 x tol) has no two decades of margin: this start ends in
# ERR_ACCURACY with dH = 1.258e-12 against 1e-12.  --tol 2e-13 passes, and so does the
# oscillator at 1e-13.  Strict, so that the fix has to flip it.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="--tol near its minimum: the solver floor leaves no drift margin")
def test_coulomb_orbit_at_the_minimum_tol_exits_0(capsys):
    rc = main(["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "0.5",
               "--t-end", "10", "--tol", "1e-13", "--out", os.devnull])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_numbers(value):
    with pytest.raises(AccuracyError):
        _json({"report": [0.5, value]})


@pytest.mark.parametrize("command,lam,t_end,apsides", [("orbit", "0", "50", 16),
                                                        ("turning", "0.3", "20", 7)])
def test_radial_oscillator_passes_r_0_between_its_aphelia(tmp_path, capsys, command, lam,
                                                           t_end, apsides):
    # Lz = 0: the orbit runs through the origin, where x.p changes sign but rdot jumps from
    # -|v| to |v|; those passes used to be refined as perihelia and end in ERR_ACCURACY
    out = tmp_path / "out.json"
    argv = [command, "--system", "oscillator", "--lambda", lam, "--x", "1", "--px", "-0.5",
            "--py", "0", "--t-end", t_end]
    argv += ["--out", os.devnull, "--turning-out", str(out)] if command == "orbit" else [
        "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    if command == "orbit":
        points = json.loads(out.read_text())
        assert [p["kind"] for p in points] == ["aphelion"] * apsides
        # flat and unscreened, E = 0.625 = r**2/2 at the aphelion
        assert max(abs(p["r"] - math.sqrt(1.25)) for p in points) < 1e-9
    else:
        assert json.loads(out.read_text())["turning_kinds"] == ["aphelion"] * apsides


@pytest.mark.parametrize("argv", [
    ["closure", "--system", "coulomb", "--Lz", "1", "--out", "{missing}"],
    ["closure", "--system", "coulomb", "--Lz", "1", "--out", "{directory}"],
    ["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1",
     "--out", "{tmp}/orbit.csv", "--turning-out", "{missing}"],
    ["closure", "--system", "coulomb", "--Lz", "1", "--out", "{nul}"],
    ["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1",
     "--out", "{tmp}/orbit.csv", "--turning-out", "{nul}"],
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # a missing directory fails the temporary file, an existing directory the write into it;
    # a NUL byte, which a --config line can carry, fails every os call with ValueError
    (tmp_path / "taken").mkdir()
    paths = {"missing": str(tmp_path / "no_such_dir" / "x.json"),
             "directory": str(tmp_path / "taken"), "tmp": str(tmp_path),
             "nul": str(tmp_path / "a\0b.json")}
    argv = [arg.format(**paths) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"cannot write {argv[-1]!r}: " in capsys.readouterr().err
    assert not [p.name for p in tmp_path.rglob(".tmp-*")]


def test_output_into_a_fifo_is_written_not_replaced(tmp_path, capsys):
    argv = ["closure", "--system", "coulomb", "--k", "0.375", "--Lz", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(argv + ["--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # nothing opened the FIFO to write: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [want]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@pytest.mark.parametrize("target", ["file", "device", "stdout"])
def test_output_is_written_a_chunk_at_a_time(tmp_path, monkeypatch, target):
    # an encoded copy of the whole 16 MiB text would take 16 MiB more; 2**18-character
    # chunks take about 0.5-0.75 MiB
    text = "0.12345678901234567,-1.5e-300,42\n" * (2**19 + 7)
    path = {"file": str(tmp_path / "out.csv"), "device": os.devnull, "stdout": "-"}[target]
    with open(tmp_path / "stdout", "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            _write_output(path, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(text) > 16 * 2**20
    assert peak < 4 * 2**20
    if target != "device":
        assert (tmp_path / ("out.csv" if target == "file" else "stdout")).read_text() == text


def test_stdout_chunks_are_encoded_as_one_stream(tmp_path, monkeypatch):
    # one encoder runs over every chunk, so a stateful encoding writes its BOM once
    text = "t,x1\n" * (2**19 + 3)
    with open(tmp_path / "stdout", "w", encoding="utf-16") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        _write_output("-", text)
    assert len(text) > 2 * 2**20
    assert (tmp_path / "stdout").read_bytes() == text.encode("utf-16")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda u: f"{u:03o}")
def test_regular_output_gets_the_mode_of_the_umask(tmp_path, umask):
    out, tp = tmp_path / "traj.csv", tmp_path / "tp.json"
    tp.write_text("an older file\n")
    tp.chmod(0o600)
    old = os.umask(umask)
    try:
        assert main(["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1",
                     "--t-end", "1", "--out", str(out), "--turning-out", str(tp)]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (out, tp)] == [0o666 & ~umask] * 2
    assert tp.read_text().startswith("[")


@pytest.mark.parametrize("command,flags", [
    ("closure", ["--Lz", "1.5"]),
    ("brackets", ["--samples", "10"]),
    ("orbit", ["--x", "1", "--px", "0", "--py", "1", "--t-end", "1", "--trajectory-samples", "5"]),
])
def test_config_format_and_gnuplot_keys_are_ignored_where_unread(tmp_path, command, flags):
    # one file can serve every command: keys of options the command lacks are ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nk=0.05\nformat=json\n"
                   + ("" if command == "orbit" else "gnuplot=1\n"))
    plain = ["--system", "coulomb", "--k", "0.05", *flags]
    from_config = run_main([command, "--config", str(cfg), *flags], tmp_path / "a")
    from_flags = run_main([command, *plain], tmp_path / "b")
    assert from_config[0] == 0
    assert from_config == from_flags


def test_traced_entry_point_writes_the_plain_outputs(tmp_path):
    # perfbench/traced.py wraps Trajectory.to_csv and cli._write_output in place and
    # counts the bytes of the text it is given, so both must keep their str interface
    argv = ["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
            "--x", "1.6", "--px", "0", "--py", "0.55", "--t-end", "70",
            "--out", "traj.csv", "--turning-out", "tp.json"]
    spans = tmp_path / "spans.json"
    traced = run_process(argv, tmp_path / "traced", entry=[str(ROOT / "perfbench" / "traced.py")],
                         PERFBENCH_SPANS=str(spans), PERFBENCH_OP="op00")
    assert traced[0] == 0, traced[1]["stderr"]
    plain = run_process(argv, tmp_path / "plain")
    assert plain[0] == 0, plain[1]["stderr"]
    assert traced == plain  # stdout, stderr and both files
    written = [s for s in json.loads(spans.read_text())["spans"] if s["name"] == "_write_output"]
    assert [s["attrs"]["bytes"] for s in written] == [len(plain[1][f])
                                                      for f in ("traj.csv", "tp.json")]


_SCIPY_PROBE = """
import contextlib, io, json, sys, types
sys.path.extend(json.loads(sys.argv[2]))
import screened_sphere.cli
argv = json.loads(sys.argv[1])
rc = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = screened_sphere.cli.main(argv)
        except SystemExit as exc:  # a usage error
            rc = exc.code
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "numpy": any(m == "numpy" or m.startswith("numpy.") for m in sys.modules),
                  "dataclasses": "dataclasses" in sys.modules,
                  "fractions": "fractions" in sys.modules,
                  "argparse": "argparse" in sys.modules,
                  "gettext": "gettext" in sys.modules,
                  "unused": sorted({"typing", "tempfile", "shutil", "bz2", "lzma", "random"}
                                   & set(sys.modules)),
                  # a lazily registered module turns into a plain module once its body runs
                  "dynamics_ran":
                      type(sys.modules["screened_sphere.dynamics"]) is types.ModuleType}))
"""


def _probe(argv: list, cwd: Path, clean: bool = False) -> tuple[int, dict[str, bytes]]:
    """``_SCIPY_PROBE`` on ``argv`` in a fresh interpreter; ``clean`` runs it under ``python -S``
    with site-packages appended to the path, so that no ``.pth`` hook imports modules first."""
    return run_process([json.dumps(argv), json.dumps(site.getsitepackages() if clean else [])],
                       cwd, entry=[*["-S"] * clean, "-c", _SCIPY_PROBE])


_SP_FLAGS = ["--system", "oscillator", "--lambda", "0.1", "--k", "0.05", "--m", "1,2", "--N", "0,1"]
_BR_FLAGS = ["--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--samples", "200"]


@pytest.mark.parametrize(
    "argv,loads_scipy",
    [
        ([], False),  # import only
        (["closure", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--Lz", "1.5"], False),
        (["spectrum", *_SP_FLAGS], False),
        (["brackets", *_BR_FLAGS, "--method", "analytic"], False),
        (["brackets", *_BR_FLAGS, "--method", "fd"], False),
        (["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--x", "1.6",
          "--px", "0", "--py", "0.55", "--t-end", "20", "--out", "traj.csv"], False),
        (["spectrum", *_SP_FLAGS, "--numeric"], False),  # LAPACK through ctypes
        (["turning", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--x", "1.6",
          "--px", "0", "--py", "0.55", "--t-end", "20", "--out", "turning.json"], False),
        (["brackets", *_BR_FLAGS, "--samples", "4097"], False),  # above the float path's limit
    ],
)
def test_only_commands_that_call_scipy_load_it(tmp_path, argv, loads_scipy):
    # a fresh interpreter, so that no earlier test has loaded scipy already; and a clean one,
    # since a site hook can import (here: does import) every module of "unused" first
    batch = argv[:1] == ["brackets"] and ("fd" in argv or "4097" in argv)
    uses_numpy = bool(argv) and (argv[0] in ("orbit", "turning") or batch)
    for clean in (False, True):
        rc, out = _probe(argv, tmp_path, clean)
        assert rc == 0, out["stderr"]
        report = json.loads(out["stdout"])
        assert report["rc"] == (0 if argv else None)
        # the grid oracle calls dstebz in scipy's OpenBLAS through ctypes, importing no scipy
        # module
        assert bool(report["scipy"]) is loads_scipy, report["scipy"]
        # closure and the spectrum run on the stdlib alone, and analytic brackets of at most
        # 4096 states on Python floats
        assert report["numpy"] is uses_numpy
        # every record is a namedtuple, and closure analysis finds p/q without fractions
        assert report["dataclasses"] is False
        assert report["fractions"] is False
        # the option table reads every argv here; argparse loads only for help or a usage error
        assert (report["argparse"], report["gettext"]) == (False, False)
        # brackets takes its kernels from phase_space; only an integrated orbit runs dynamics
        assert report["dynamics_ran"] is (argv[:1] in (["orbit"], ["turning"]))
    # in the clean run: annotations need no typing, a regular --out file no tempfile (nor its
    # shutil, bz2, lzma and random); only brackets draws random states
    assert ("random" in report["unused"]) is (argv[:1] == ["brackets"]), argv
    if not uses_numpy:
        assert report["unused"] == (["random"] if argv[:1] == ["brackets"] else []), argv


def test_a_usage_error_loads_argparse_and_reports_through_it(tmp_path):
    argv = ["closure", "--system", "coulomb", "--lambda", "0.1"]
    _, out = _probe(argv, tmp_path)
    report = json.loads(out["stdout"])
    assert (report["rc"], report["argparse"], report["gettext"]) == (2, True, True)
    assert out["stderr"].decode() == _USAGE + "screened-sphere: error: closure requires --Lz\n"


@pytest.mark.parametrize("n,message", [
    ("-1", "radial index N must be a non-negative integer, got -1"),
    ("10", "radial index N must be at most 9 for the grid oracle, got 10"),
], ids=["N=-1", "N=10"])
def test_a_bad_radial_index_for_the_grid_oracle_names_n_and_loads_no_numpy(tmp_path, n, message):
    argv = ["spectrum", "--system", "coulomb", "--m", "1", "--N", n, "--numeric"]
    _, out = _probe(argv, tmp_path)
    report = json.loads(out["stdout"])
    assert (report["rc"], out["stderr"].decode()) == (3, f"ERR_DOMAIN: {message}\n")
    assert report["numpy"] is False


@pytest.mark.parametrize("flags", [
    ["--m", "0", "--N", "0,1"],  # printed -1.2185 for E(0, 0) = -2 with exit 0
    [],  # --m defaults to 0
    ["--lambda", "0.1", "--k", "0.4", "--m", "2,1"],  # m' = 0.447 at m = 1
], ids=["m=0", "default-m", "mp=0.45"])
def test_the_grid_oracle_refuses_m_prime_below_one_half_and_loads_no_numpy(tmp_path, flags):
    argv = ["spectrum", "--system", "coulomb", *flags, "--numeric"]
    _, out = _probe(argv, tmp_path)
    report = json.loads(out["stdout"])
    assert report["rc"] == 3
    assert re.fullmatch(rb"ERR_ACCURACY: the grid oracle needs m' >= 1/2, got m' = \S+ at m = "
                        rb"[01]\n", out["stderr"]), out["stderr"]
    assert report["numpy"] is False


HELP = json.loads((Path(__file__).resolve().parent / "golden" / "help.json").read_text())


@pytest.mark.parametrize("command", list(HELP), ids=[c or "bare" for c in HELP])
def test_help_text_is_pinned(capsys, monkeypatch, command):
    # each command's options, their order and their wording, at a fixed terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


ORBIT_FLAGS = ["--system", "oscillator", "--lambda", "0.1", "--k", "0.05", "--x", "1.5",
               "--px", "0", "--py", "0.6", "--t-end", "10", "--trajectory-samples", "31",
               "--tol", "1e-9", "--out", "traj.csv", "--turning-out", "tp.json"]
ORBIT_CONFIG = ("system=oscillator\nlambda=0.1\nk=0.05\nx=1.5\ny=0\npx=0\npy=0.6\nt-end=10\n"
                "trajectory-samples=31\ntol=1e-9\nout=traj.csv\nturning-out=tp.json\n")


@pytest.mark.parametrize(
    "command,config,flags",
    [
        # keys whose dest differs from their name: lambda, Lz
        ("closure", "system=coulomb\nlambda=0.1\nk=0.05\nLz=1.5\n",
         ["--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--Lz", "1.5"]),
        # t-end, trajectory-samples, turning-out
        ("orbit", ORBIT_CONFIG, ORBIT_FLAGS),
        # Lz belongs to closure; an orbit config may carry it
        ("orbit", ORBIT_CONFIG + "Lz=1\n", ORBIT_FLAGS),
        # N, format
        ("spectrum", "system=coulomb\nlambda=0.1\nk=0.05\nm=1,2\nN=0,1\nformat=json\n",
         ["--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--m", "1,2",
          "--N", "0,1", "--format", "json"]),
        # bool keys
        ("spectrum", "system=oscillator\nlambda=0.1\nk=0.05\nm=1\nN=0\nnumeric=yes\n"
                     "gnuplot=true\n",
         ["--system", "oscillator", "--lambda", "0.1", "--k", "0.05", "--m", "1", "--N", "0",
          "--numeric", "--gnuplot"]),
        ("spectrum", "system=oscillator\nm=1\nnumeric=no\ngnuplot=0\n",
         ["--system", "oscillator", "--m", "1"]),
        ("brackets", "system=coulomb\nlambda=0.1\nk=0.05\nsamples=50\nseed=3\nmethod=fd\n",
         ["--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--samples", "50",
          "--seed", "3", "--method", "fd"]),
        # comment and blank lines, blanks around '='
        ("closure", "# a comment\n\nsystem = coulomb\n  # indented\nlambda=0\nk=0.375\n\nLz=1\n",
         ["--system", "coulomb", "--lambda", "0", "--k", "0.375", "--Lz", "1"]),
        # values that start with '-'
        ("orbit", "system=coulomb\nx=-1e-05\ny=1.6\npx=-0.55\npy=0\nt-end=3\n"
                  "trajectory-samples=7\n",
         ["--system", "coulomb", "--x", "-1e-05", "--y", "1.6", "--px", "-0.55", "--py", "0",
          "--t-end", "3", "--trajectory-samples", "7"]),
        # a value that holds '=': the line splits at its first '='
        ("closure", "system=coulomb\nk=0.375\nLz=1\nout=a=b.json\n",
         ["--system", "coulomb", "--k", "0.375", "--Lz", "1", "--out", "a=b.json"]),
        # a repeated key: the last one wins, as a repeated flag does
        ("closure", "system=oscillator\nk=0.05\nLz=1\nk=0.375\nsystem=coulomb\n",
         ["--system", "oscillator", "--k", "0.05", "--Lz", "1", "--k", "0.375",
          "--system", "coulomb"]),
    ],
)
def test_config_key_acts_like_its_flag(tmp_path, command, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    from_config = run_main([command, "--config", str(cfg)], tmp_path / "a")
    from_flags = run_main([command, *flags], tmp_path / "b")
    assert from_config[0] == 0
    assert from_config == from_flags


@pytest.mark.parametrize(
    "config",
    ["system=coulomb\nbogus=1\n", "system=coulomb\nlambda 0.1\n", "system=coulomb\nconfig=x\n"],
)
def test_config_bad_key_or_line_is_a_domain_error(tmp_path, capsys, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    rc = main(["closure", "--Lz", "1", "--config", str(cfg)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERR_DOMAIN:")


def test_config_value_is_parsed_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nk=0.05\nsamples=1.5\n")
    for argv in (["brackets", "--config", str(cfg)],
                 ["brackets", "--system", "coulomb", "--k", "0.05", "--samples", "1.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --samples: invalid int value: '1.5'" in capsys.readouterr().err


def test_config_ignores_keys_of_other_commands(tmp_path, capsys):
    # closure has neither --tol nor --samples, so their values are never parsed
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nk=0.375\nLz=1\ntol=1e-3\nsamples=many\n")
    assert main(["closure", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.5


@pytest.mark.parametrize(
    "command,key,value",
    [("spectrum", "format", "xml"), ("closure", "system", "kepler"), ("brackets", "method", "newton")],
)
def test_config_value_outside_choices_is_a_usage_error(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    errors = []
    for argv in ([command, "--config", str(cfg)], [command, f"--{key}", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"argument --{key}: invalid choice: '{value}'" in errors[0]


def test_config_value_ends_in_its_flags_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nlambda=-1\nLz=1\n")  # a value that starts with '-'
    assert main(["closure", "--config", str(cfg)]) == 3
    assert capsys.readouterr() == ("", "ERR_NEGATIVE_CURVATURE: "
                                       "curvature must be finite and >= 0, got -1.0\n")


def test_a_flag_before_config_still_beats_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nlambda=0\nk=0.05\nLz=1\n")
    assert main(["closure", "--k", "0.375", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.5


@pytest.mark.parametrize("config", [
    "system=kepler\nbogus=1\n", "bogus=1\nsystem=kepler\n",
    "samples=1.5\nlambda 0.1\n", "lambda 0.1\nsamples=1.5\n",
])
def test_config_bad_key_or_line_beats_a_bad_value_wherever_it_stands(tmp_path, capsys, config):
    # every line is checked before any value is parsed, so the domain error wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(["brackets", "--config", str(cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("ERR_DOMAIN: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--N", ","), ("--N", "1.5"), ("--m", "1,x"), ("--m", "")])
@pytest.mark.parametrize("numeric", [[], ["--numeric"]])
def test_bad_quantum_number_list_is_a_usage_error(tmp_path, capsys, flag, value, numeric):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"system=coulomb\n{flag[2:]}={value}\n")
    errors = []
    for argv in (["spectrum", "--config", str(cfg), *numeric],
                 ["spectrum", "--system", "coulomb", flag, value, *numeric]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        errors.append(out.err)
    assert errors[0] == errors[1]
    assert f"argument {flag}: want comma-separated integers, got '{value}'" in errors[0]


@pytest.mark.parametrize("argv,flag,value,rc", [
    (["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--x", "1.6",
      "--py", "0.55", "--t-end", "3", "--trajectory-samples", "7"], "--px", "-1e-05", 0),
    (["orbit", "--system", "coulomb", "--x", "1.6", "--px", "0", "--py", "0.55",
      "--trajectory-samples", "7"], "--t-end", "-2.5E+00", 0),
    (["closure", "--system", "coulomb", "--k", "0.05"], "--Lz", "-1e0", 0),
    (["turning", "--system", "coulomb", "--x", "1.6", "--px", "0", "--py", "0.55"],
     "--t-end", "-inf", 3),
    (["brackets", "--system", "coulomb", "--samples", "10"], "--lambda", "-1e-3", 3),
])
def test_negative_float_in_exponent_notation_is_a_value(tmp_path, argv, flag, value, rc):
    # "--flag -1e-05" must parse as "--flag=-1e-05" does, not as an unknown option
    spaced = run_main(argv + [flag, value], tmp_path / "spaced")
    joined = run_main(argv + [f"{flag}={value}"], tmp_path / "joined")
    assert spaced == joined
    assert spaced[0] == rc


# --- sweep: odd values on every numeric flag of every command ------------------

# Odd values: nan, +-inf, zeros, negatives, exponent notation, huge.  Slow ones
# are left out, since they only make a run longer: an orbit run to MAX_STEPS takes
# seconds (the refusal row orbit-step-cap covers that exit), which --t-end
# beyond ~100 does, as does an orbit that passes close round the singularity; so
# the orbit commands mix their odd values only with the ordinary ones of the
# fixtures and lambda = 1, where many of them run out to the edge of the chart.  A
# sample count from 10**4 up to MAX_SAMPLES is left out too.
_ODD = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5E-01", "1e-320", "1e200", "1e308",
        "-1e308")
_FLOATS = _ODD + ("0.5", "1", "3")
_T_END = ("nan", "inf", "-inf", "0", "-0.0", "-1e-320", "1e-320", "-2.5E+00", "0.5", "3",
          "1e2", "-1e2")
_TOL = _ODD + ("1e-13", "1e-6", "1e-7", "1E-6", "-1e-10")
_COUNTS = ("0", "-1", "1", "2", "7", "1e3", "nan", "1000001", "1000000000000",
           "99999999999999999999999")
_LISTS = ("0", "-1", "1,2", "0,-3", "2,,5", "1e3", "nan", "1000000", "99999999999999999999999",
          "1" + "0" * 400)
_STATE = {"--x": "1.6", "--px": "0", "--py": "0.55", "--t-end": "3", "--trajectory-samples": "7"}
_STATE_POOLS = {"--lambda": _ODD + ("0.1", "1"), "--k": _ODD + ("0.05", "0.5"),
                **{flag: _ODD + ("0.5", "1.6") for flag in ("--x", "--y", "--px", "--py")},
                "--t-end": _T_END, "--tol": _TOL, "--trajectory-samples": _COUNTS}
# command: (valid base flags, pool of values for each numeric flag)
_SWEEP = {
    "orbit": (_STATE, _STATE_POOLS),
    "turning": (_STATE, _STATE_POOLS),
    "closure": ({"--Lz": "1"}, {"--lambda": _FLOATS, "--k": _FLOATS, "--Lz": _FLOATS}),
    "brackets": ({"--samples": "10"}, {"--lambda": _FLOATS, "--k": _FLOATS, "--samples": _COUNTS,
                                       "--seed": _COUNTS, "--method": ("analytic", "fd")}),
    "spectrum": ({}, {"--lambda": _FLOATS, "--k": _FLOATS, "--m": _LISTS, "--N": _LISTS}),
}


@st.composite
def _odd_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_SWEEP)))
    base, pools = _SWEEP[command]
    flags = dict(base)
    # sorted: a set's order follows the string hash, which differs from process to process
    for flag in sorted(draw(st.sets(st.sampled_from(sorted(pools)), min_size=1, max_size=3))):
        flags[flag] = draw(st.sampled_from(pools[flag]))
    argv = [command, "--system", draw(st.sampled_from(["coulomb", "oscillator"])),
            *(tok for item in flags.items() for tok in item)]
    if command == "spectrum" and draw(st.booleans()):
        argv.append("--numeric")
    return argv


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _assert_finite_output(text: str) -> None:
    """JSON without nan or infinity, or CSV under a header whose fields are finite floats
    (or a system name, or empty for a value not computed)."""
    assert text, "exit 0 with no output"
    if text.startswith(("[", "{")):
        json.loads(text, parse_constant=_refuse_constant)
        return
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            assert field in ("", "coulomb", "oscillator") or math.isfinite(float(field)), line


@settings(max_examples=300)
@given(argv=_odd_argv())
def test_numeric_flags_end_in_a_result_or_a_coded_error(argv):
    with tempfile.TemporaryDirectory() as directory:
        rc, out = run_main(argv, directory)
    assert rc in (0, 2, 3), argv
    if rc == 0:
        _assert_finite_output(out["stdout"].decode())
    if rc == 3:
        assert re.fullmatch(rb"ERR_[A-Z_]+: .+\n", out["stderr"]), (argv, out["stderr"])


# --- the option-table reader: argparse's namespace, or None -------------------------

_FLAGS = tuple(flag for flag, _, _ in _OPTIONS)
_PARSER = build_parser()  # parse_args keeps no state from one call to the next


@st.composite
def _edited_argv(draw) -> list[str]:
    """An ``_odd_argv`` with up to three edits that argparse reads another way or refuses:
    ``--flag=value``, an abbreviation, ``-h``, ``--``, a repeated flag or ``--out`` with a
    negative number or ``-`` as its value, a flag as a value, a trailing flag with no
    value, ``--numeric=1`` and a repeated flag whose first value is bad."""
    command, *rest = draw(_odd_argv())
    groups = []  # [flag, value] or [flag]
    while rest:
        n = 1 if rest[0] == "--numeric" else 2
        groups.append(rest[:n])
        rest = rest[n:]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(groups) - 1))
        flag, *value = groups[i]
        edit = draw(st.sampled_from(["joined", "prefix", "help", "dashes", "negative",
                                     "flag-value", "trailing", "numeric=1", "bad-first"]))
        if edit == "joined" and value:
            groups[i] = [f"{flag}={value[0]}"]
        elif edit == "prefix" and len(flag) > 3:
            groups[i] = [flag[:draw(st.integers(3, len(flag) - 1))], *value]
        elif edit in ("help", "dashes"):
            groups.insert(i, ["-h" if edit == "help" else "--"])
        elif edit == "negative":  # before the group: its flag repeated, or --out
            groups.insert(i, [draw(st.sampled_from([flag, "--out"])),
                              draw(st.sampled_from(["-1e-05", "-inf", "-.5", "-"]))])
        elif edit == "flag-value":
            groups.insert(i, [draw(st.sampled_from(_FLAGS)), draw(st.sampled_from(_FLAGS))])
        elif edit == "trailing":
            groups.append([draw(st.sampled_from(_FLAGS))])
        elif edit == "numeric=1":
            groups.append(["--numeric=1"])
        elif edit == "bad-first" and value:
            groups.insert(i, [flag, "x"])
    return [command, *(tok for group in groups for tok in group)]


@settings(max_examples=600)
@given(argv=_edited_argv())
def test_the_option_table_reads_argv_as_argparse_does(argv):
    read = _read_args(argv)
    if read is None:  # argparse reads it, or reports it
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            parsed = _PARSER.parse_args(argv)
        except SystemExit:
            parsed = None
    assert parsed is not None, (argv, err.getvalue())
    assert repr(vars(read)) == repr(vars(parsed))  # by repr, since nan != nan


@pytest.mark.parametrize("argv", [
    ["closure", "--system", "coulomb", "--lam", "0.1", "--Lz", "1"],  # an abbreviation
    ["spectrum", "-h"],
    ["brackets", "--system", "coulomb", "--k", "x", "--k", "1"],  # argparse stops at --k x
], ids=["prefix", "help", "bad-first"])
def test_the_option_table_leaves_to_argparse_what_it_does_not_settle(argv):
    assert _read_args(argv) is None


# --- the process entry: collector off for the run, heap frozen on exit -------------

_ORBIT = ["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--x", "1.6",
          "--px", "0", "--py", "0.55", "--t-end", "20"]
_EXITS = {
    0: ["closure", "--system", "coulomb", "--k", "0.375", "--Lz", "1"],
    2: ["closure", "--system", "coulomb"],  # missing --Lz
    3: ["closure", "--system", "coulomb", "--k", "0.5", "--Lz", "1"],
}


def _raise_exit(status):
    raise SystemExit(status)


@pytest.mark.parametrize("rc", sorted(_EXITS))
def test_only_the_process_entry_touches_the_collector(tmp_path, rc, monkeypatch):
    monkeypatch.setattr(os, "_exit", _raise_exit)  # run ends its process; this one goes on
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert run_main(_EXITS[rc], tmp_path / "main")[0] == rc
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    try:
        assert run_main(_EXITS[rc], tmp_path / "run", entry=run)[0] == rc
        assert not gc.isenabled()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _cyclic_garbage(argv, directory) -> int:
    """Objects in reference cycles that one ``main`` run leaves for the collector."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_main(argv, directory)[0] == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv,flag,small,large", [
    ([*_ORBIT, "--out", os.devnull], "--trajectory-samples", "2001", "30000"),
    (["brackets", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--out", os.devnull],
     "--samples", "200", "30000"),
])
def test_cyclic_garbage_does_not_grow_with_the_work(tmp_path, argv, flag, small, large):
    # the process entry never collects, so a cycle per step, sample or state would pile up
    _cyclic_garbage([*argv, flag, small], tmp_path)  # first use: lazy imports
    assert (_cyclic_garbage([*argv, flag, small], tmp_path)
            == _cyclic_garbage([*argv, flag, large], tmp_path))


_CLOSURE = ["closure", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--Lz", "1.5"]
# ≈5 MB of CSV on stdout: more than a pipe (64 KiB) and the stdio buffer (8 KiB) hold
_BIG_CSV = [*_ORBIT, "--trajectory-samples", "30000", "--out", "-"]


@pytest.mark.parametrize("argv", [
    [*_ORBIT, "--out", "traj.csv", "--turning-out", "tp.json"],
    ["turning", *_ORBIT[1:], "--out", "turning.json"],
    ["brackets", *_BR_FLAGS, "--seed", "7"],
    ["spectrum", *_SP_FLAGS, "--numeric", "--out", "levels.csv"],
    _CLOSURE,
    ["spectrum", *_SP_FLAGS],
    ["spectrum", *_SP_FLAGS, "--gnuplot"],
    _BIG_CSV,
    _EXITS[0],
    _EXITS[2],
    ["brackets", "--system", "coulomb", "--lambda", "1e300", "--samples", "3"],
], ids=["orbit", "turning", "brackets", "spectrum-numeric", "closure", "spectrum",
        "spectrum-gnuplot", "orbit-stdout", "exit-0", "exit-2", "exit-3"])
def test_process_entry_and_main_give_the_same_results(tmp_path, argv):
    assert run_process(argv, tmp_path / "process") == run_main(argv, tmp_path / "main")


# the generated `screened-sphere` script, with an exit hook registered before it runs
_SCRIPT_WITH_HOOK = """
import atexit, os, sys
atexit.register(os.write, 2, b"exit hook ran\\n")
from screened_sphere.cli import run
sys.exit(run())
"""


@pytest.mark.parametrize("argv", [
    _CLOSURE,
    [*_ORBIT, "--out", "traj.csv", "--turning-out", "tp.json"],
    _EXITS[3],
    _EXITS[2],
], ids=["closure-stdout", "orbit-files", "exit-3", "exit-2"])
def test_run_ends_the_process_without_the_interpreter_teardown(tmp_path, argv):
    proc = run_process(argv, tmp_path / "process", entry=["-c", _SCRIPT_WITH_HOOK])
    rc, outputs = run_main(argv, tmp_path / "main")
    # a usage error leaves through SystemExit, so the interpreter exits as usual and runs the hook
    outputs["stderr"] += b"exit hook ran\n" if rc == 2 else b""
    assert proc == (rc, outputs)


def _traceback(command: str, error: str) -> str:
    """A traceback from a write to stdout, by the names of its frames (see ``_stderr_shape``)."""
    frames = ["_run_module_as_main", "_run_code", "<module>", "run", "main", command,
              "_write_output"]
    return "\n".join(["Traceback (most recent call last):", *(f"  in {f}" for f in frames), error])


def _stderr_shape(stderr: str) -> str:
    """stderr with each traceback frame reduced to its function name, since line numbers and
    source lines follow the code's layout; every other line is kept as it is."""
    return "\n".join(re.sub(r'^  File ".*", line \d+, ', "  ", line)
                     for line in stderr.splitlines() if not line.startswith("    "))


_EPIPE = "BrokenPipeError: [Errno 32] Broken pipe"
_NO_STDOUT = _USAGE + "screened-sphere: error: cannot write '-': there is no stdout"
_IMAGINARY_ALPHA = ["closure", "--system", "coulomb", "--Lz", "0.1", "--k", "0.05"]
# (argv, (exit status, stderr shape) with stdout buffered, the same with PYTHONUNBUFFERED set)
_STDOUT_GONE = {
    # nothing reads the pipe: a short text waits in the stdio buffer, so the interpreter's
    # final flush reports the broken pipe (status 120); unbuffered, the write itself raises
    "reader-gone": (_CLOSURE, (120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' "
                                    f"mode='w' encoding='utf-8'>\n{_EPIPE}"),
                    (1, _traceback("_cmd_closure", _EPIPE))),
    # the reader leaves after 64 KiB of the CSV; unbuffered too, the write goes on past a short
    # write until the broken pipe raises, rather than ending in status 0 with the rest dropped
    "reader-leaves": (_BIG_CSV, (1, _traceback("_cmd_orbit", _EPIPE)),
                      (1, _traceback("_cmd_orbit", _EPIPE))),
    # `>&-` leaves no stdout, so sys.stdout is None: an output that cannot be written is a
    # usage error
    "stdout-closed": (_CLOSURE, (2, _NO_STDOUT), (2, _NO_STDOUT)),
    "stdout-closed-out-file": ([*_CLOSURE, "--out", "closure.json"], (0, ""), (0, "")),
    # `2>&-` leaves no stderr, so sys.stderr is None: the CLI's own stderr line is lost, but
    # neither the status it reports beside it nor stdout's bytes
    "stderr-closed-domain-error": (_IMAGINARY_ALPHA, (3, ""), (3, "")),
    "stderr-closed-orbit": (["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "0.5",
                             "--t-end", "5", "--out", "orbit.csv"], (0, ""), (0, "")),
    # `2</dev/null` leaves a stderr that refuses writes; buffered, the refused bytes must not
    # stay behind for the interpreter's final flush, which would end in status 120
    "stderr-unwritable-domain-error": (_IMAGINARY_ALPHA, (3, ""), (3, "")),
    # the usage and error lines of a usage error, one argparse finds and one ``main`` raises,
    # are lost alike, and the status stays 2
    "stderr-unwritable-usage-error": (["closure", "--bogus"], (2, ""), (2, "")),
    "stderr-unwritable-usage-error-main": (["closure", "--system", "coulomb"], (2, ""), (2, "")),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", sorted(_STDOUT_GONE))
def test_a_stdout_that_goes_away_ends_as_it_always_has(tmp_path, case, unbuffered):
    argv, *expected = _STDOUT_GONE[case]
    env = child_env(unbuffered=unbuffered)
    cmd = [sys.executable, "-m", "screened_sphere.cli", *argv]
    if case.startswith(("stdout-closed", "stderr-")):
        redirect = (">&-" if case.startswith("stdout") else
                    "2>&-" if case.startswith("stderr-closed") else "2</dev/null")
        proc = subprocess.run(["sh", "-c", f'"$0" "$@" {redirect}', *cmd], env=env, cwd=tmp_path,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
        rc, err = proc.returncode, proc.stderr
        assert proc.stdout == ""
    elif case == "reader-gone":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(cmd, env=env, cwd=tmp_path, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        rc, err = proc.returncode, proc.stderr
    else:
        with subprocess.Popen(cmd, env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert os.read(proc.stdout.fileno(), 65536)  # the child is blocked in its write
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1]
            rc = proc.returncode
    assert (rc, _stderr_shape(err)) == expected[unbuffered]
    if case == "stderr-closed-orbit":
        assert (tmp_path / "orbit.csv").read_text().count("\n") == 4002  # every row, then exit 0


def test_script_target_is_the_entry_of_python_m():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["screened-sphere"].partition(":")
    assert module == "screened_sphere.cli"
    tree = ast.parse((SRC / "screened_sphere" / "cli.py").read_text())
    main_block = next(node for node in tree.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'")
    called = {node.func.id for node in ast.walk(main_block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {"SystemExit", name}
