"""Byte identity of pinned CLI commands: each argv in ``golden/argv.json`` against its record
in ``golden/digests.json``, which ``golden_digests.py`` regenerates."""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from golden_digests import GOLDEN, ROOT, host, load_argv, mismatch, run, run_process
from screened_sphere.cli import _config_flags, _read_args
from screened_sphere.conserved import _FLOAT_PATH_MAX

DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
ARGV = load_argv()
README = [op for op in ARGV if op["name"].startswith("readme-")]


@pytest.mark.parametrize("op", ARGV, ids=[op["name"] for op in ARGV])
def test_cli_output_matches_its_golden_digests(op, tmp_path):
    found = mismatch(*run(op["argv"], tmp_path), DIGESTS["ops"][op["name"]])
    made = {key: DIGESTS[key] for key in host()}
    assert found is None, found + ("" if host() == made else
                                   f" (digests made with {made}, this host has {host()})")


@pytest.mark.parametrize("op", README, ids=[op["name"] for op in README])
def test_process_entry_output_matches_its_golden_digests(op, tmp_path):
    # the bytes a fresh process leaves on stdout and on disk as it ends, not only those of main
    found = mismatch(*run_process(op["argv"], tmp_path, timeout=120),
                     DIGESTS["ops"][op["name"]])
    assert found is None, found


# Settings that change which kernel computes a transcendental function or a product on an
# x86-64 host: glibc's libm variants without AVX2 and FMA, numpy's SIMD dispatch below AVX-512,
# and OpenBLAS's Sandy Bridge kernels.  The brackets records take their states from +, - and *
# alone, and the grid levels at lam > 0 (libm's sin and tan, LAPACK's dstebz) held under the
# first two; theta, from numpy's arctan2, does not hold under numpy's.  The orbit pipeline sums
# no matrix product, so OpenBLAS's kernel reaches no orbit or turning-point byte.  The step
# controller's float ** is libm's pow, not correctly rounded (x ** 2 != x * x on about 1 in 1200
# draws), and under glibc's setting x ** 2, x ** -0.125 and x ** 0.125 moved on 600-800 of 10**6
# inputs each: the error norms move, while the accepted steps of the long-orbits orbits and the
# three orbit records held.
HOST_SETTINGS = {
    "glibc-no-avx2-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}
HOST_FREE = [op for op in ARGV if op["argv"][0] == "brackets"
             or op["name"] == "cli-mix-1-op04-spectrum"]
BLAS_FREE = [op for op in ARGV
             if op["name"] in ("readme-orbit", "readme-turning", "orbit-backward")]


def _assert_records_hold_under(setting, ops, tmp_path):
    """Each of ``ops`` in a fresh process under ``setting`` against its golden record."""
    extra = HOST_SETTINGS[setting]
    # a host that refuses the setting says so when numpy is imported under it
    rc, out = run_process([], tmp_path / "probe", entry=("-c", "import numpy"), **extra)
    if rc or out["stderr"]:
        pytest.skip(out["stderr"].decode(errors="replace").strip() or f"exit status {rc}")
    for op in ops:
        found = mismatch(*run_process(op["argv"], tmp_path / op["name"], **extra),
                         DIGESTS["ops"][op["name"]])
        assert found is None, f"{op['name']}: {found}"


@pytest.mark.parametrize("setting", ["glibc-no-avx2-fma", "numpy-no-avx512"])
def test_brackets_and_grid_levels_hold_under_other_host_settings(setting, tmp_path):
    assert len(HOST_FREE) == 8
    _assert_records_hold_under(setting, HOST_FREE, tmp_path)


@pytest.mark.parametrize("setting", ["glibc-no-avx2-fma", "openblas-sandybridge"])
def test_orbits_and_turning_points_hold_under_other_host_settings(setting, tmp_path):
    # an orbit, its turning points and a backward orbit, whose every column a matrix product
    # in the dense output once tied to the CPU's OpenBLAS kernel; glibc's setting moves libm's
    # pow in the step controller (see HOST_SETTINGS)
    assert len(BLAS_FREE) == 3
    _assert_records_hold_under(setting, BLAS_FREE, tmp_path)


def _numpy_free(argv: list[str]) -> bool:
    """Whether a command runs without numpy: ``closure``, the analytic ``spectrum``, and an
    analytic ``brackets`` on the float path."""
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    return (command == "closure" or command == "spectrum" and "--numeric" not in argv
            or command == "brackets" and flags.get("--method", "analytic") == "analytic"
            and int(flags.get("--samples", 1000)) <= _FLOAT_PATH_MAX)


NUMPY_FREE = [op for op in ARGV if _numpy_free(op["argv"])]


def _floor_python() -> Path | None:
    """The oldest CPython at or above the floor of pyproject's ``requires-python`` among the
    interpreters installed beside this one, each in a directory named by its version (as
    pyenv keeps them), or None."""
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    found = sorted((tuple(map(int, python.parents[1].name.split("."))), python)
                   for python in Path(sys.base_prefix).parent.glob("*/bin/python3")
                   if re.fullmatch(r"\d+\.\d+\.\d+", python.parents[1].name))
    return next((python for version, python in found
                 if version >= tuple(map(int, floor.groups()))), None)


def test_numpy_free_commands_match_their_records_at_the_python_floor(tmp_path):
    # pyproject claims >=3.10; these commands need nothing but the standard library, so an
    # interpreter at the floor runs them even without numpy, and must give the same bytes
    assert len(NUMPY_FREE) == 10
    python = _floor_python()
    if python is None:
        pytest.skip(f"no CPython at requires-python's floor beside {sys.base_prefix}")
    for op in NUMPY_FREE:
        found = mismatch(*run_process(op["argv"], tmp_path / op["name"], python=python),
                         DIGESTS["ops"][op["name"]])
        assert found is None, f"{op['name']} under {python}: {found}"


# one op per command, and an orbit's --turning-out and --gnuplot
CONFIG_TWINS = ["cli-mix-1-op10-orbit", "readme-turning", "cli-mix-1-op00-closure",
                "cli-mix-1-op08-brackets", "cli-mix-1-op04-spectrum", "readme-orbit-gnuplot"]


def _as_config(flags: list[str]) -> str:
    """``key=value`` lines naming ``flags``, a store_true flag as ``key=yes``."""
    lines, rest = [], list(flags)
    while rest:
        flag = rest.pop(0)
        value = "yes" if flag in ("--gnuplot", "--numeric") else rest.pop(0)
        lines.append(f"{flag[2:]}={value}\n")
    return "".join(lines)


@pytest.mark.parametrize("name", CONFIG_TWINS)
def test_an_op_read_from_a_config_file_matches_its_golden_digests(name, tmp_path):
    command, *flags = next(op["argv"] for op in ARGV if op["name"] == name)
    cfg = tmp_path / "op.cfg"
    cfg.write_text(_as_config(flags))
    (tmp_path / "run").mkdir()
    found = mismatch(*run([command, "--config", str(cfg)], tmp_path / "run"), DIGESTS["ops"][name])
    assert found is None, found


def test_the_option_table_reads_every_pinned_and_benchmark_argv(tmp_path):
    # none of this traffic falls back to argparse, so none of it imports argparse
    argvs = [op["argv"] for op in load_argv(workloads=True)]
    for name in CONFIG_TWINS:  # the argv that main reads once it has read the file
        command, *flags = next(op["argv"] for op in ARGV if op["name"] == name)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_as_config(flags))
        argvs.append([command, *_config_flags(str(cfg), command), "--config", str(cfg)])
    assert [argv for argv in argvs if _read_args(argv) is None] == []
    assert len(argvs) > len(ARGV) + len(CONFIG_TWINS)


def test_a_one_ulp_change_in_a_csv_field_fails(tmp_path):
    op = next(op for op in ARGV if op["name"] == "cli-mix-1-op10-orbit")
    rc, outputs = run(op["argv"], tmp_path)
    golden = DIGESTS["ops"][op["name"]]
    assert mismatch(rc, outputs, golden) is None
    lines = outputs["op10.csv"].splitlines(True)
    n = len(lines) // 2
    fields = lines[n].split(b",")
    fields[3] = b"%.17g" % math.nextafter(float(fields[3]), math.inf)
    lines[n] = b",".join(fields)
    found = mismatch(rc, {**outputs, "op10.csv": b"".join(lines)}, golden)
    assert found == f"op10.csv: first differing line {n + 1} of {len(lines)} " \
                    f"(golden {len(lines)}): {lines[n]!r}"


def test_regenerating_named_records_keeps_every_other_record(tmp_path, monkeypatch):
    import golden_digests

    for name in ("argv.json", "digests.json"):
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.setattr(golden_digests, "GOLDEN", tmp_path)
    stale = {**json.loads((GOLDEN / "digests.json").read_text()), **golden_digests.host()}
    stale["ops"]["refuse-grid-mprime"]["rc"] = 0
    stale["ops"]["readme-closure"]["rc"] = 5  # not named, so kept as it is
    text = json.dumps(stale, indent=1) + "\n"
    (tmp_path / "digests.json").write_text(text)
    with pytest.raises(SystemExit, match="not in argv.json: no-such-op"):
        golden_digests.regenerate(["refuse-grid-mprime", "no-such-op"])
    assert (tmp_path / "digests.json").read_text() == text
    golden_digests.regenerate(["refuse-grid-mprime"])
    stale["ops"]["refuse-grid-mprime"]["rc"] = 3
    assert (tmp_path / "digests.json").read_text() == json.dumps(stale, indent=1) + "\n"
