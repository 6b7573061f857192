"""CLI commands: outputs, schemas, determinism, exit codes."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import site
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screened_sphere.cli import _OPTIONS, _json, _read_args, build_parser, main, run
from screened_sphere.errors import AccuracyError

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(unbuffered: bool = False) -> dict:
    """The environment of a fresh CLI process: this package on the path, and stdio
    buffered as by default unless ``unbuffered`` (whatever PYTHONUNBUFFERED is here)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(*argv: str, timeout: float = 60.0, cwd=None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter; a hang fails the test at ``timeout``."""
    return subprocess.run(
        [sys.executable, "-m", "screened_sphere.cli", *argv],
        env=_env(), capture_output=True, text=True, timeout=timeout, cwd=cwd,
    )


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


def test_domain_error_exit_codes(capsys):
    rc = main(["closure", "--system", "coulomb", "--lambda", "0", "--k", "0.5",
               "--Lz", "1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERR_IMAGINARY_ALPHA:")

    rc = main(["spectrum", "--system", "coulomb", "--lambda", "0", "--k", "0.05",
               "--m", "0", "--N", "0"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERR_IMAGINARY_MPRIME:")

    rc = main(["orbit", "--system", "coulomb", "--lambda", "0", "--k", "0.05",
               "--x", "1", "--px", "-0.5", "--py", "0", "--t-end", "50"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERR_SINGULAR_ORBIT:")


@pytest.mark.parametrize("lz", ["1e-200", "-5e-324"])
def test_unscreened_closure_where_lz_squared_underflows(capsys, lz):
    # at k = 0 alpha is 1 for every Lz != 0, also where Lz**2 underflows to 0
    assert main(["closure", "--system", "coulomb", "--k", "0", "--Lz", lz]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["alpha"], data["closed"], data["p"], data["q"]) == (1.0, True, 1, 1)


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--system", "coulomb", "--bogus-flag", "1"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["closure", "--system", "coulomb"])  # missing --Lz
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1",
              "--t-end", "1", "--tol", "0.1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1"], "missing --t-end"),
    (["closure", "--system", "coulomb", "--k", "0.1"], "closure requires --Lz"),
    (["turning", "--system", "oscillator", "--t-end", "5", "--x", "1"],
     "missing initial-condition flags: --px, --py"),
    (["brackets", "--samples", "10"], "missing --system"),
    (["spectrum", "--m", "1,2", "--numeric"], "missing --system"),
])
def test_missing_flag_usage_lists_every_command(argv, message):
    # the run builds only its own command's subparser; the usage line still lists all five
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage: screened-sphere [-h] {orbit,closure,turning,brackets,spectrum}"
                           f" ...\nscreened-sphere: error: {message}\n")


@pytest.mark.parametrize(
    "argv,code",
    [
        # no state of the sampling box has Lz**2 > 2k = 80
        (["--k", "40"], "ERR_IMAGINARY_ALPHA:"),
        # a few states exist, but too rare to find within the draw cap
        (["--k", "35.99"], "ERR_IMAGINARY_ALPHA:"),
        (["--k", "0.05", "--samples", "0"], "ERR_DOMAIN:"),
        (["--k", "0.05", "--seed", "-1"], "ERR_DOMAIN:"),
    ],
)
def test_brackets_sampler_terminates_with_code(argv, code):
    proc = run_cli("brackets", "--system", "coulomb", "--lambda", "0", *argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith(code)


def test_brackets_sampler_refuses_a_hopeless_request_without_drawing_to_the_cap():
    # the cap allows 10**9 candidates here; drawing them took minutes, and none passes
    proc = run_cli("brackets", "--system", "coulomb", "--lambda", "0", "--k", "35.99",
                   "--samples", "1000000", timeout=20.0)
    assert proc.returncode == 3
    assert proc.stderr.startswith("ERR_IMAGINARY_ALPHA: found 0 of 1000000 states")


def test_brackets_sampler_finds_a_low_yield_request_past_the_yield_check(tmp_path):
    # about 8e-4 of the candidates pass at k = 26, so 1000 states take more than the 2**20
    # candidates after which the sampler may refuse a request for its yield
    out = tmp_path / "brackets.json"
    proc = run_cli("brackets", "--system", "coulomb", "--lambda", "0", "--k", "26",
                   "--samples", "1000", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert all(r["n_samples"] == 1000 for r in json.loads(out.read_text()))


@pytest.mark.parametrize("command,t_end", [("turning", "inf"), ("orbit", "nan"), ("turning", "0")])
def test_non_finite_t_end_rejected(command, t_end):
    proc = run_cli(command, "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
                   "--x", "1.6", "--px", "0", "--py", "0.55", "--t-end", t_end)
    assert proc.returncode == 3
    assert proc.stderr.startswith("ERR_DOMAIN:")


@pytest.mark.parametrize("flag,value,code", [
    ("--px", "nan", "ERR_DOMAIN:"),
    # p**2 overflows, the step size turns NaN, and that ends as a step underflow
    ("--py", "1e200", "ERR_STIFF:"),
    # r**2 underflows in the gradient; the start is refused below the radius guard
    ("--x", "1e-300", "ERR_SINGULAR_ORBIT:"),
])
def test_non_finite_orbit_ends_with_code(flag, value, code):
    proc = run_cli("orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1",
                   "--t-end", "1", flag, value, timeout=30.0)
    assert proc.returncode == 3
    assert proc.stderr.startswith(code), proc.stderr


@pytest.mark.parametrize("command", ["orbit", "turning"])
@pytest.mark.parametrize("flags", [
    # an infinite first derivative leaves a zero first step
    ["--px", "1e308"], ["--px", "0", "--lambda", "1e308"], ["--px", "0", "--k", "1e308"],
    # the error norm of the first step overflows
    ["--px", "0", "--k", "1e200"],
])
def test_huge_inputs_end_with_code(command, flags, capsys):
    rc = main([command, "--system", "coulomb", "--x", "1", "--px", "1", "--py", "1",
               "--t-end", "5", "--out", os.devnull, *flags])
    assert rc == 3
    assert re.match(r"ERR_[A-Z_]+: ", capsys.readouterr().err)


@pytest.mark.parametrize("argv,code", [
    # the bracket terms overflow; the residuals used to be printed as nan
    (["brackets", "--system", "coulomb", "--lambda", "1e300", "--samples", "3"], "ERR_ACCURACY"),
    # the level overflows; it used to be printed as a bare inf
    (["spectrum", "--system", "oscillator", "--lambda", "1e308", "--m", "1", "--N", "0",
      "--format", "json"], "ERR_DOMAIN"),
    # the orbit crosses the equator, where the chart ends; it used to run the whole step budget
    (["orbit", "--system", "coulomb", "--x", "1", "--y", "1", "--px", "0", "--py", "0.55",
      "--lambda", "1", "--t-end", "3"], "ERR_CHART_EDGE"),
])
def test_overflow_and_chart_edge_end_with_code(argv, code, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(code + r": .+\n", err), err


_HUGE_INT = "1" + "0" * 200  # converts to a float, but its square does not


@pytest.mark.parametrize("flag", ["--N", "--m"])
def test_huge_quantum_number_ends_in_a_code(capsys, flag):
    # the coulomb level's (m' + N + 1/2)**2 and m**2 overflow; both used to end in a traceback
    assert main(["spectrum", "--system", "coulomb", flag, _HUGE_INT]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"ERR_DOMAIN: .+\n", err), err


@pytest.mark.parametrize("system,lam", [("coulomb", "1e300"), ("oscillator", "1e150")])
def test_overflowing_brackets_print_only_their_code_line(system, lam):
    # a fresh process, since pytest would capture numpy's RuntimeWarnings in-process
    proc = run_cli("brackets", "--system", system, "--lambda", lam, "--samples", "3")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(r"ERR_ACCURACY: .+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("argv", [
    ["--system", "coulomb", "--lambda", "1e308"],
    ["--system", "oscillator", "--lambda", "1e-320", "--m", "1"],
])
def test_overflowing_numeric_spectrum_prints_only_its_code_line(argv):
    # the grid potential overflows; numpy's RuntimeWarnings used to come before the code line
    proc = run_cli("spectrum", *argv, "--numeric")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(r"ERR_ACCURACY: .+\n", proc.stderr), proc.stderr


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


def test_long_fast_orbit_hits_the_step_cap():
    # ~770 steps per time unit over 1e6 time units: the step cap ends it within seconds
    proc = run_cli("orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1",
                   "--t-end", "1e6", "--tol", "1e-6", "--lambda", "100", timeout=60.0)
    assert proc.returncode == 3
    assert proc.stderr.startswith("ERR_STEP_BUDGET:"), proc.stderr


def test_trajectory_samples_are_capped():
    # 10**12 samples would need terabytes; the cap rejects them before allocating
    proc = run_cli("orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
                   "--x", "1.6", "--px", "0", "--py", "0.55", "--t-end", "10",
                   "--trajectory-samples", "1000000000000")
    assert proc.returncode == 3
    assert proc.stderr.startswith("ERR_DOMAIN: n_samples must be at most")


def test_brackets_samples_are_capped(capsys):
    # 10**12 states would need terabytes; the cap rejects them before any draw
    for samples in ("1000001", "1000000000000"):
        assert main(["brackets", "--system", "coulomb", "--k", "0.05", "--samples", samples]) == 3
        err = capsys.readouterr().err
        assert err == f"ERR_DOMAIN: at most 1000000 sampled states, got {samples}\n"


@pytest.mark.parametrize("argv", [
    ["closure", "--system", "coulomb", "--Lz", "1", "--out", "{missing}"],
    ["closure", "--system", "coulomb", "--Lz", "1", "--out", "{directory}"],
    ["orbit", "--system", "coulomb", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1",
     "--out", "{tmp}/orbit.csv", "--turning-out", "{missing}"],
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # a missing directory fails the temporary file, an existing directory the write into it
    (tmp_path / "taken").mkdir()
    paths = {"missing": str(tmp_path / "no_such_dir" / "x.json"),
             "directory": str(tmp_path / "taken"), "tmp": str(tmp_path)}
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


@pytest.mark.parametrize("argv", [
    ["orbit", "--format", "json", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1"],
    ["closure", "--format", "json", "--Lz", "1"],
    ["closure", "--gnuplot", "--Lz", "1"],
    ["turning", "--format", "csv", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1"],
    ["turning", "--gnuplot", "--x", "1", "--px", "0", "--py", "1", "--t-end", "1"],
    ["brackets", "--format", "json", "--samples", "10"],
    ["brackets", "--gnuplot", "--samples", "10"],
])
def test_format_and_gnuplot_are_usage_errors_where_unread(capsys, argv):
    # --format belongs to spectrum alone, --gnuplot to orbit and spectrum
    flag = next(a for a in argv if a in ("--format", "--gnuplot"))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--system", "coulomb", *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {flag}" in out.err


@pytest.mark.parametrize("command,flags", [
    ("closure", ["--Lz", "1.5"]),
    ("brackets", ["--samples", "10"]),
    ("orbit", ["--x", "1", "--px", "0", "--py", "1", "--t-end", "1", "--trajectory-samples", "5"]),
])
def test_config_format_and_gnuplot_keys_are_ignored_where_unread(tmp_path, capsys, monkeypatch,
                                                                 command, flags):
    # one file can serve every command: keys of options the command lacks are ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=coulomb\nk=0.05\nformat=json\n"
                   + ("" if command == "orbit" else "gnuplot=1\n"))
    plain = ["--system", "coulomb", "--k", "0.05", *flags]
    from_config = _run_in(tmp_path / "a", [command, "--config", str(cfg), *flags], capsys,
                          monkeypatch)
    from_flags = _run_in(tmp_path / "b", [command, *plain], capsys, monkeypatch)
    assert from_config[0] == 0
    assert from_config == from_flags


def test_traced_entry_point_writes_the_plain_outputs(tmp_path):
    # perfbench/traced.py wraps Trajectory.to_csv and cli._write_output in place and
    # counts the bytes of the text it is given, so both must keep their str interface
    argv = ["orbit", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05",
            "--x", "1.6", "--px", "0", "--py", "0.55", "--t-end", "70"]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SPANS=str(spans), PERFBENCH_OP="op00")
    traced = subprocess.run(
        [sys.executable, str(SRC.parent / "perfbench" / "traced.py"), *argv,
         "--out", str(tmp_path / "traced.csv"), "--turning-out", str(tmp_path / "traced.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert traced.returncode == 0, traced.stderr
    plain = run_cli(*argv, "--out", str(tmp_path / "plain.csv"),
                    "--turning-out", str(tmp_path / "plain.json"))
    assert plain.returncode == 0, plain.stderr
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    outputs = [(tmp_path / f"traced.{ext}").read_bytes() for ext in ("csv", "json")]
    assert outputs == [(tmp_path / f"plain.{ext}").read_bytes() for ext in ("csv", "json")]
    written = [s for s in json.loads(spans.read_text())["spans"] if s["name"] == "_write_output"]
    assert [s["attrs"]["bytes"] for s in written] == [len(b) for b in outputs]


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


def _probe(argv: list, cwd: Path, clean: bool = False) -> subprocess.CompletedProcess:
    """``_SCIPY_PROBE`` on ``argv`` in a fresh interpreter; ``clean`` runs it under ``python -S``
    with site-packages appended to the path, so that no ``.pth`` hook imports modules first."""
    return subprocess.run(
        [sys.executable, *["-S"] * clean, "-c", _SCIPY_PROBE, json.dumps(argv),
         json.dumps(site.getsitepackages() if clean else [])],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )


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
        proc = _probe(argv, tmp_path, clean)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
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
    if not uses_numpy:
        assert report["unused"] == (["random"] if argv[:1] == ["brackets"] else []), argv


def test_a_usage_error_loads_argparse_and_reports_through_it(tmp_path):
    argv = ["closure", "--system", "coulomb", "--lambda", "0.1"]
    proc = _probe(argv, tmp_path)
    report = json.loads(proc.stdout)
    assert (report["rc"], report["argparse"], report["gettext"]) == (2, True, True)
    assert proc.stderr == ("usage: screened-sphere [-h] {orbit,closure,turning,brackets,spectrum}"
                           " ...\nscreened-sphere: error: closure requires --Lz\n")


@pytest.mark.parametrize("n,message", [
    ("-1", "radial index N must be a non-negative integer, got -1"),
    ("10", "radial index N must be at most 9 for the grid oracle, got 10"),
], ids=["N=-1", "N=10"])
def test_a_bad_radial_index_for_the_grid_oracle_names_n_and_loads_no_numpy(tmp_path, n, message):
    argv = ["spectrum", "--system", "coulomb", "--m", "1", "--N", n, "--numeric"]
    proc = _probe(argv, tmp_path)
    report = json.loads(proc.stdout)
    assert (report["rc"], proc.stderr) == (3, f"ERR_DOMAIN: {message}\n")
    assert report["numpy"] is False


@pytest.mark.parametrize("flags", [
    ["--m", "0", "--N", "0,1"],  # printed -1.2185 for E(0, 0) = -2 with exit 0
    [],  # --m defaults to 0
    ["--lambda", "0.1", "--k", "0.4", "--m", "2,1"],  # m' = 0.447 at m = 1
], ids=["m=0", "default-m", "mp=0.45"])
def test_the_grid_oracle_refuses_m_prime_below_one_half_and_loads_no_numpy(tmp_path, flags):
    argv = ["spectrum", "--system", "coulomb", *flags, "--numeric"]
    proc = _probe(argv, tmp_path)
    report = json.loads(proc.stdout)
    assert report["rc"] == 3
    assert re.fullmatch(r"ERR_ACCURACY: the grid oracle needs m' >= 1/2, got m' = \S+ at m = "
                        r"[01]\n", proc.stderr), proc.stderr
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


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_in(directory: Path, argv: list[str], capsys, monkeypatch):
    """Run ``main`` inside ``directory``; return (rc, stdout, stderr, files written)."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err, _files(directory)


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
def test_config_key_acts_like_its_flag(tmp_path, capsys, monkeypatch, command, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    from_config = _run_in(tmp_path / "a", [command, "--config", str(cfg)], capsys, monkeypatch)
    from_flags = _run_in(tmp_path / "b", [command, *flags], capsys, monkeypatch)
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


def _exit_code_and_output(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


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
def test_negative_float_in_exponent_notation_is_a_value(capsys, argv, flag, value, rc):
    # "--flag -1e-05" must parse as "--flag=-1e-05" does, not as an unknown option
    spaced = _exit_code_and_output(argv + [flag, value], capsys)
    joined = _exit_code_and_output(argv + [f"{flag}={value}"], capsys)
    assert spaced == joined
    assert spaced[0] == rc


# --- sweep: odd values on every numeric flag of every command ------------------

# Odd values: nan, +-inf, zeros, negatives, exponent notation, huge.  Slow ones
# are left out, since they only make a run longer: an orbit run to MAX_STEPS takes
# seconds (test_long_fast_orbit_hits_the_step_cap covers that exit), which --t-end
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
    for flag in draw(st.sets(st.sampled_from(sorted(pools)), min_size=1, max_size=3)):
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_odd_argv())
def test_numeric_flags_end_in_a_result_or_a_coded_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3), argv
    if rc == 0:
        _assert_finite_output(out.getvalue())
    if rc == 3:
        assert re.fullmatch(r"ERR_[A-Z_]+: .+\n", err.getvalue()), (argv, err.getvalue())


# --- the option-table reader: argparse's namespace, or None -------------------------

_FLAGS = tuple(flag for flag, _, _ in _OPTIONS)


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


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argv=_edited_argv())
def test_the_option_table_reads_argv_as_argparse_does(argv):
    read = _read_args(argv)
    if read is None:  # argparse reads it, or reports it
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            parsed = build_parser(argv).parse_args(argv)
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


def _exit_code(entry, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return entry(argv)
        except SystemExit as exc:
            return exc.code


def _raise_exit(status):
    raise SystemExit(status)


@pytest.mark.parametrize("rc", sorted(_EXITS))
def test_only_the_process_entry_touches_the_collector(rc, monkeypatch):
    monkeypatch.setattr(os, "_exit", _raise_exit)  # run ends its process; this one goes on
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert _exit_code(main, _EXITS[rc]) == rc
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    try:
        assert _exit_code(run, _EXITS[rc]) == rc
        assert not gc.isenabled()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _cyclic_garbage(argv) -> int:
    """Objects in reference cycles that one ``main`` run leaves for the collector."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert _exit_code(main, argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv,flag,small,large", [
    ([*_ORBIT, "--out", os.devnull], "--trajectory-samples", "2001", "30000"),
    (["brackets", "--system", "coulomb", "--lambda", "0.1", "--k", "0.05", "--out", os.devnull],
     "--samples", "200", "30000"),
])
def test_cyclic_garbage_does_not_grow_with_the_work(argv, flag, small, large):
    # the process entry never collects, so a cycle per step, sample or state would pile up
    _cyclic_garbage([*argv, flag, small])  # first use: lazy imports
    assert _cyclic_garbage([*argv, flag, small]) == _cyclic_garbage([*argv, flag, large])


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
def test_process_entry_and_main_give_the_same_results(tmp_path, capsys, monkeypatch, argv):
    fresh = tmp_path / "process"
    fresh.mkdir()
    proc = run_cli(*argv, cwd=fresh)
    in_process = _run_in(tmp_path / "main", argv, capsys, monkeypatch)
    assert (proc.returncode, proc.stdout, proc.stderr, _files(fresh)) == in_process


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
def test_run_ends_the_process_without_the_interpreter_teardown(tmp_path, capsys, monkeypatch,
                                                               argv):
    fresh = tmp_path / "process"
    fresh.mkdir()
    proc = subprocess.run([sys.executable, "-c", _SCRIPT_WITH_HOOK, *argv], env=_env(),
                          cwd=fresh, capture_output=True, text=True, timeout=60)
    rc, out, err, files = _run_in(tmp_path / "main", argv, capsys, monkeypatch)
    # a usage error leaves through SystemExit, so the interpreter exits as usual and runs the hook
    hook = "exit hook ran\n" if rc == 2 else ""
    assert (proc.returncode, proc.stdout, proc.stderr, _files(fresh)) == (rc, out, err + hook, files)


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
_NO_STDOUT = "AttributeError: 'NoneType' object has no attribute 'write'"
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
    # `>&-` leaves no stdout, so sys.stdout is None
    "stdout-closed": (_CLOSURE, (1, _traceback("_cmd_closure", _NO_STDOUT)),
                      (1, _traceback("_cmd_closure", _NO_STDOUT))),
    "stdout-closed-out-file": ([*_CLOSURE, "--out", "closure.json"], (0, ""), (0, "")),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", sorted(_STDOUT_GONE))
def test_a_stdout_that_goes_away_ends_as_it_always_has(tmp_path, case, unbuffered):
    argv, *expected = _STDOUT_GONE[case]
    env = _env(unbuffered)
    cmd = [sys.executable, "-m", "screened_sphere.cli", *argv]
    if case.startswith("stdout-closed"):
        proc = subprocess.run(["sh", "-c", '"$0" "$@" >&-', *cmd], env=env, cwd=tmp_path,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        rc, err = proc.returncode, proc.stderr
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
