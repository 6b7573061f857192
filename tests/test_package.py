"""The package's public names, the modules that importing the CLI registers, and what the
benchmark and the tests share with the package."""

import ast
import graphlib
import importlib
import inspect
import json
import linecache
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screened_sphere
from screened_sphere import closed_forms
from screened_sphere.closed_forms import SystemKind, SystemParams
from screened_sphere.errors import CurvatureError, DomainError
from golden_digests import ROOT, SRC, perfbench_workloads, run_process
from orbit_reference import bound_orbit_start, orbit_points

# Every name the package exports, by the module that defines it.
EXPORTED = {
    "closed_forms": """ClosureResult SystemKind SystemParams closure_analysis coulomb_energy
        m_prime orbit_alpha oscillator_energy""",
    "phase_space": "PhaseState hamiltonian potential",
    "dynamics": """Trajectory TurningKind TurningPoint equations_of_motion find_turning_points
        integrate""",
    "conserved": """BracketReport Observable fradkin_quantities poisson_bracket runge_lenz
        turning_point_conservation verify_coulomb_algebra verify_oscillator_algebra""",
    "spectra": "RadialGrid SpectrumEntry radial_solve_numeric spectrum_entries",
}
# The closed-form orbit oracle, which no command runs, lives in tests/orbit_reference.py.
ORBIT_REFERENCE = "OrbitShape closed_form_radius orbit_points orbit_residual state_at_theta".split()
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def test_public_names_are_their_owners_objects():
    wrong = [name for module, name in NAMES
             if getattr(screened_sphere, name)
             is not getattr(importlib.import_module(f"screened_sphere.{module}"), name)]
    assert wrong == []
    assert {name: module for module, name in NAMES} == screened_sphere._OWNER
    assert {name for _, name in NAMES} <= set(dir(screened_sphere))


# the paper's two scalar level formulas take (lam, k, m, N); every other entry point takes the
# system as one checked SystemParams
LOOSE_SYSTEM = {"coulomb_energy", "oscillator_energy"}


def test_entry_points_take_the_system_as_one_record():
    loose = {name for name in screened_sphere._OWNER
             if inspect.isfunction(function := getattr(screened_sphere, name))
             and {"kind", "lam"} & set(inspect.signature(function).parameters)}
    assert loose == LOOSE_SYSTEM


def test_records_carry_no_pass_through_methods():
    # a record's dict is namedtuple's _asdict, its array np.array(record); the turning report
    # is not exported, so it is read from its module
    from screened_sphere import conserved

    gone = {screened_sphere.ClosureResult: "to_dict", screened_sphere.BracketReport: "to_dict",
            screened_sphere.PhaseState: "as_array from_array",
            conserved.TurningConservationReport: "to_dict"}
    assert [f"{record.__name__}.{method}" for record, methods in gone.items()
            for method in methods.split() if hasattr(record, method)] == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        screened_sphere.no_such_name


@pytest.mark.parametrize("name", ORBIT_REFERENCE)
def test_the_orbit_oracle_is_not_in_the_library(name):
    from screened_sphere import dynamics, errors

    for owner in (screened_sphere, dynamics):
        with pytest.raises(AttributeError):
            getattr(owner, name)
    assert not hasattr(errors, "OrbitDomainError")


# What perfbench/micro.py imports and perfbench/traced.py wraps, by module, written out
# here so that tier-1 fails when a change removes or renames one; "Cls.meth" is a method
# that traced.py replaces on its class.
BENCHMARK_NAMES = {
    "dynamics": """PhaseState SystemKind SystemParams equations_of_motion integrate
        find_turning_points closure_analysis Trajectory.to_csv""",
    "conserved": """RUNGE_LENZ_X RUNGE_LENZ_Y poisson_bracket turning_point_conservation
        verify_coulomb_algebra verify_oscillator_algebra""",
    "spectra": "spectrum_entries radial_solve_numeric spectrum_csv",
    "cli": "_json _write_output main",
}
# the arguments traced.py reads by name from a call it wraps
BENCHMARK_PARAMS = {
    ("cli", "_write_output"): ("text",),
    ("spectra", "radial_solve_numeric"): ("n_levels",),
    ("conserved", "verify_coulomb_algebra"): ("n_samples", "method"),
    ("conserved", "verify_oscillator_algebra"): ("n_samples", "method"),
}


def _benchmark_target(module: str, name: str):
    target = importlib.import_module(f"screened_sphere.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize("module,name", [(module, name) for module, names in BENCHMARK_NAMES.items()
                                         for name in names.split()])
def test_the_benchmark_entry_points_resolve(module, name):
    target = _benchmark_target(module, name)
    if callable(target):  # traced.py binds each call of what it wraps to the signature
        params = inspect.signature(target).parameters
        assert set(BENCHMARK_PARAMS.get((module, name), ())) <= set(params)


# the shape ranges of perfbench/workloads.py's _orbit_shape: Lz**2*alpha**2 or Lz*alpha
_WORKLOAD_SHAPES = {SystemKind.COULOMB: (0.8, 1.2), SystemKind.OSCILLATOR: (0.6, 1.0)}
# the periodic trapezoid of workloads.radial_period converges geometrically: it was within
# 2.8e-15 relative of the exact law over 40 random orbits of these ranges
_PERIOD_REL_TOL = 1e-13


@settings(max_examples=25)
@given(system=st.sampled_from(list(SystemKind)), lam=st.floats(0.0, 0.5), k=st.floats(0.01, 0.1),
       ecc=st.floats(0.3, 0.7), psi=st.floats(0.0, 2.0 * math.pi),
       phi=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_the_benchmark_orbits_follow_the_tests_orbit_law(system, lam, k, ecc, psi, phi, data):
    # perfbench/ does not import the tests: its start builder is the tests' to the bit, and
    # its radial period is the time between apsides two apart of the exact law
    workloads = perfbench_workloads()
    shape = data.draw(st.floats(*_WORKLOAD_SHAPES[system]), label="shape")
    state = bound_orbit_start(system, lam, k, shape, ecc, psi, phi)
    assert workloads.orbit_state(system.value, lam, k, shape, ecc, psi, phi) == tuple(state)
    period = workloads.radial_period(system.value, lam, k, shape, ecc)
    apsides = orbit_points(state, SystemParams(system, lam, k), 1.6 * period)
    exact = apsides[2].t - apsides[0].t
    assert abs(period - exact) <= _PERIOD_REL_TOL * exact, (period, exact)


def test_the_committed_benchmark_baseline_names_each_record():
    # BENCH_baseline.json: perfbench/run.py's records as it writes them, beside the host block
    # of tests/bench_host.py
    baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert baseline["records"] and isinstance(baseline["host"], dict)
    for record in baseline["records"]:
        assert record["workload"] in {workload["name"] for workload in spec["workloads"]}
        assert isinstance(record["seed"], int)
        assert {"python", "numpy", "scipy", "nproc", "cpu"} <= set(record["environment"])


def test_the_harness_is_the_one_in_process_caller_of_the_cli():
    # golden_digests.run gives main the stdio of a process; a test that called main itself
    # would read a run that `python -m screened_sphere.cli` never makes
    importers = sorted(path.name for path in (ROOT / "tests").glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.ImportFrom) and node.module == "screened_sphere.cli"
                       and "main" in {alias.name for alias in node.names})
    assert importers == ["golden_digests.py"]


def _sources():
    """The parsed modules of src/, by path, and the text of the generated DOP853 driver."""
    from screened_sphere import dynamics

    trees = {path: ast.parse(path.read_text()) for path in
             sorted((SRC / "screened_sphere").glob("*.py"))}
    return trees, "".join(linecache.getlines(dynamics._dop853.__code__.co_filename))


def test_every_name_imported_from_a_sibling_module_is_used():
    # pyflakes' unused-import check (F401), for what a module imports from its siblings: each
    # name is loaded in the module, annotations included, runs in the text of the generated
    # DOP853 driver (dynamics), or is one that the benchmark reads there (BENCHMARK_NAMES)
    trees, driver = _sources()
    unused = []
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {name.split(".")[0] for name in BENCHMARK_NAMES.get(path.stem, "").split()}
        text = driver if path.stem == "dynamics" else ""
        imported = [(node.lineno, alias.asname or alias.name) for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
        unused += [f"{path.name}:{line} {name}" for line, name in imported
                   if name not in used and not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_the_import_graph_is_acyclic_and_closed_forms_is_a_leaf():
    # each module of src/ and the sibling modules it imports anywhere in its text, function
    # bodies included: "from .m import ..." and "from . import m"
    trees, _ = _sources()
    graph = {path.stem: {node.module or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level == 1
                         for alias in node.names}
             for path, tree in trees.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert graph["closed_forms"] <= {"errors"}
    # conserved reads a trajectory's recorded turning points, not dynamics
    assert graph["conserved"] == {"phase_space", "closed_forms", "errors"}
    # the benchmark wraps the spectrum table where it is defined, not through an alias
    from screened_sphere import spectra

    assert {getattr(spectra, name).__module__ for name in BENCHMARK_NAMES["spectra"].split()} == {
        "screened_sphere.spectra"}


# numpy's products that it hands to BLAS, whose kernel OpenBLAS picks by CPU and shape
MATRIX_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "multi_dot"}


def test_src_holds_no_matrix_product():
    # every sum of src/ is written out, left to right from its first term, so that its bits
    # are those of IEEE + and * on any host: no `@`, `@=` or numpy product, generated driver
    # included
    trees, driver = _sources()
    found = [f"{getattr(path, 'name', path)}:{node.lineno}"
             for path, tree in [*trees.items(), ("driver", ast.parse(driver))]
             for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
             or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
             and MATRIX_PRODUCTS & {alias.name for alias in node.names}]
    assert found == []


# math and numpy names whose results IEEE 754 fixes bit for bit on any host: constants and
# types, building, indexing, comparing and selecting arrays, and arithmetic that is exact or
# correctly rounded, alone or in a fixed sequence (diff, divmod, linspace)
BIT_EXACT = set("""
    inf pi int32 int64 uint8 uint64 ndarray errstate
    array asarray empty zeros arange indices column_stack concatenate stack frombuffer
    abs sign clip max maximum argmax all any where flatnonzero searchsorted logical_and isfinite
    add multiply diff divmod floor rint round sqrt fsum ulp nextafter linspace
""".split())

_HELD = "; the golden records held under glibc's no-AVX2/FMA setting, which is no proof"
# every other math or numpy name of src/ and every ** whose base is not a constant, as
# (file, definition, operation): how often it is written there, and why it moves no byte of
# an output or where it is still host-bound; a new one fails until its reason is stated
HOST_BOUND = {
    ("dynamics.py", "DenseOutput.__init__", "np.arctan2"): (
        1, "theta: numpy picks its SIMD atan2 by CPU, host-bound until ROADMAP item 27"),
    ("dynamics.py", "DenseOutput.on_branch", "np.arctan2"): (
        1, "theta: numpy picks its SIMD atan2 by CPU, host-bound until ROADMAP item 27"),
    ("dynamics.py", "DenseOutput.__init__", "np.unwrap"): (
        1, "adds whole turns by diff, mod and a running sum, each correctly rounded"),
    ("dynamics.py", "DenseOutput.on_branch", "np.interp"): (
        1, "its branch estimate is rounded to a whole number of turns at once"),
    ("dynamics.py", "_csv_rows", "np.log10"): (
        1, "only seeds the decimal exponent, which the loop after it corrects from the digits"),
    ("dynamics.py", "integrate", "np.hypot"): (1, "the r column, libm's hypot" + _HELD),
    ("dynamics.py", "_turning_points", "np.hypot"): (
        4, "scales of the circular-orbit and radial-pass tests, only compared with margins"),
    ("dynamics.py", "_turning_points", "math.hypot"): (
        1, "a turning point's r: CPython's own hypot, +, -, * and sqrt, not libm's"),
    ("dynamics.py", "_underflow", "math.hypot"): (
        1, "r of a refusal, compared with a guard and printed to 3 digits"),
    ("phase_space.py", "PhaseState.r", "math.hypot"): (
        1, "CPython's own hypot, +, -, * and sqrt, not libm's"),
    ("driver", "_dop853", "math.hypot"): (
        3, "the first step's norms and the radius guard: CPython's own hypot, not libm's"),
    ("driver", "_dop853", "np.hypot"): (1, "the collapse time of a refusal, printed to 6 digits"),
    ("driver", "_dop853", "** 2"): (8, "the error norm's squares, libm's pow" + _HELD),
    ("driver", "_dop853", "** -0.125"): (1, "the step factor, libm's pow" + _HELD),
    ("driver", "_dop853", "** 0.125"): (1, "the first step size, libm's pow" + _HELD),
    ("closed_forms.py", "coulomb_energy", "** 2"): (
        1, "libm's pow, whose OverflowError is the spectrum-huge-N refusal" + _HELD),
    ("spectra.py", "_eigenvalues_on_grid", "** 2"): (
        2, "the grid step's square, libm's pow, whose OverflowError is the grid's" + _HELD),
    ("spectra.py", "_sine_tangent", "math.sin"): (1, "libm's sin of the grid nodes" + _HELD),
    ("spectra.py", "_sine_tangent", "math.tan"): (1, "libm's tan of the grid nodes" + _HELD),
    ("spectra.py", "default_grid", "math.atan"): (
        1, "only compared with 1/2 to choose the grid"),
}


def _host_bound(tree, file: str) -> Counter:
    """(file, definition, operation) of each math or numpy name outside ``BIT_EXACT`` and each
    ``**``, ``**=`` or ``pow`` whose base is not a constant in a parsed module, counted; the
    definition is the dotted name of the enclosing classes and functions."""
    found = Counter()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("math", "np") and node.attr not in BIT_EXACT):
            found[file, where, f"{node.value.id}.{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            found.update((file, where, f"from {node.module} import {alias.name}")
                         for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "pow":
            found[file, where, "pow"] += 1
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            base, exponent = ((node.left, node.right) if isinstance(node, ast.BinOp)
                              else (node.target, node.value))
            if any(isinstance(name, ast.Name) for name in ast.walk(base)):
                found[file, where, f"** {ast.unparse(exponent)}"] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_every_host_bound_operation_states_its_reason():
    # an operation that IEEE 754 does not round correctly, libm's or numpy's, can give other
    # bits on another CPU or libc; each one in src/ and the generated driver is listed, as
    # often as it is written, with its reason
    trees, driver = _sources()
    found = _host_bound(ast.parse(driver), "driver")
    for path, tree in trees.items():
        found += _host_bound(tree, path.name)
    assert dict(found) == {key: count for key, (count, _) in HOST_BOUND.items()}


def test_the_host_bound_scan_sees_each_kind_of_operation():
    source = ("import math\nfrom math import exp\ndef f(x):\n    y = math.sin(x) + math.sqrt(x)"
              "\n    y **= 3\n    return pow(x, 2) + x ** 0.5 + 2.0 ** 3 + (2.0 * 3.0) ** 2 + y\n")
    assert _host_bound(ast.parse(source), "m.py") == {
        ("m.py", "", "from math import exp"): 1, ("m.py", "f", "math.sin"): 1,
        ("m.py", "f", "** 3"): 1, ("m.py", "f", "pow"): 1, ("m.py", "f", "** 0.5"): 1}


CONTRACT = re.compile(r"#\s*contract:\s*\S")


def _definitions(tree):
    """(node, name) of each function, class and constant a module defines at its top level,
    and of each method, named Class.method; dunder names belong to Python's protocols."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((item, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node, name.id) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _marked(node, lines: list[str]) -> bool:
    """Whether a ``# contract:`` comment ends a definition's line or is the whole line just
    above it (above its decorators, if any)."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    above = lines[first - 2].lstrip() if first > 1 else ""
    return bool(CONTRACT.search(lines[node.lineno - 1]) or CONTRACT.match(above))


def _generated(path):
    """The functions that the module of src/ file ``path`` defines by ``exec``, whose code's file
    name is ``<...>``, by name: kernels built from source text, which its AST does not hold."""
    module = importlib.import_module("screened_sphere" + ("" if path.stem == "__init__" else
                                                          f".{path.stem}"))
    return {name: value for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and value.__code__.co_filename.startswith("<")}


def _surface():
    """(unadmitted, marked): each definition of src/, and each function that a module of src/
    defines by ``exec``, that no line of src/ or of the generated DOP853 driver reads (a method
    only as an attribute) and that is neither exported, read by the benchmark nor marked
    ``# contract:`` (a generated one cannot be), as "file:line name" ("file:<...> name" for a
    generated one); and every marked name."""
    trees, driver = _sources()
    loads = [node for tree in [*trees.values(), ast.parse(driver)] for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    attrs = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in loads if isinstance(node, ast.Name)}
    unadmitted, marked = [], []
    for path, tree in trees.items():
        lines = path.read_text().splitlines()
        admitted = set(EXPORTED.get(path.stem, "").split()) | set(
            BENCHMARK_NAMES.get(path.stem, "").split())
        for node, name in _definitions(tree):
            owner, _, short = name.rpartition(".")
            if _marked(node, lines):
                marked.append(name)
            elif not (short.startswith("__") and short.endswith("__") or name in admitted
                      or short in (attrs if owner else names)):
                unadmitted.append(f"{path.name}:{node.lineno} {name}")
        unadmitted += [f"{path.name}:{function.__code__.co_filename} {name}"
                       for name, function in _generated(path).items()
                       if not (name in admitted or name in names)]
    return unadmitted, marked


def test_src_holds_only_what_runs_or_a_stated_contract():
    # a name of src/ is read in src/ or by the generated driver, exported, read by the
    # benchmark, or marked "# contract: <why>" on or just above its definition; README's
    # surface paragraph names each marked one
    unadmitted, marked = _surface()
    assert unadmitted == []
    readme = (SRC.parent / "README.md").read_text()
    assert marked and [name for name in marked if f"`{name}`" not in readme] == []


def test_the_surface_rule_reads_the_kernels_that_exec_defines(monkeypatch):
    # h_gradient and hamilton_field (phase_space) and the DOP853 driver (dynamics) are built
    # from source text; a kernel built so and read nowhere is caught as a definition would be
    from screened_sphere import phase_space

    trees, _ = _sources()
    generated = {name for path in trees for name in _generated(path)}
    assert {"h_gradient", "hamilton_field", "_dop853"} <= generated
    namespace = {"__name__": phase_space.__name__}
    exec("def unread_kernel(x1, x2, p1, p2, params):\n    return x1", namespace)
    monkeypatch.setattr(phase_space, "unread_kernel", namespace["unread_kernel"], raising=False)
    assert _surface()[0] == ["phase_space.py:<string> unread_kernel"]


def _trajectory(state, params):
    from screened_sphere import dynamics

    return dynamics.integrate(dynamics.PhaseState(*state), params, 20.0, n_samples=201)


ECCENTRIC = ((1.6, 0.0, 0.0, 0.55), SystemParams(SystemKind.COULOMB, 0.1, 0.05))


def test_trajectory_to_csv_can_be_replaced_on_its_class(monkeypatch):
    from screened_sphere import dynamics

    traj = _trajectory(*ECCENTRIC)
    original = dynamics.Trajectory.to_csv
    monkeypatch.setattr(dynamics.Trajectory, "to_csv", lambda self: "wrapped " + original(self))
    assert traj.to_csv() == "wrapped " + original(traj)


def test_integrate_returns_the_trajectory_whole():
    traj = _trajectory(*ECCENTRIC)
    assert isinstance(traj, tuple) and "step_t" not in traj._fields
    assert traj._fields[-2:] == ("turning_points", "circular")
    assert len(traj.turning_points) >= 2 and traj.circular is False
    circle = _trajectory((1.0, 0.0, 0.0, 1.0), SystemParams(SystemKind.COULOMB, 0.0, 0.0))
    assert (circle.turning_points, circle.circular) == ([], True)
    for field in traj._fields:
        with pytest.raises(AttributeError):
            setattr(traj, field, None)
    with pytest.raises(AttributeError):
        traj.note = "x"


def test_cli_import_registers_the_numpy_modules_without_running_them(tmp_path):
    # perfbench/traced.py reads these from sys.modules right after importing the CLI
    code = ("import sys, screened_sphere.cli\n"
            "print([f'screened_sphere.{m}' in sys.modules for m in ('dynamics', 'conserved', 'spectra')],"
            " 'numpy' in sys.modules)")
    rc, out = run_process([], tmp_path, entry=["-c", code])
    assert rc == 0, out["stderr"]
    assert out["stdout"] == b"[True, True, True] False\n"


def _records():
    """One of each closed-form record: system parameters and a closure result (closed_forms),
    and a spectrum entry (spectra)."""
    from screened_sphere import spectra

    params = SystemParams(SystemKind.COULOMB, 0.0, 0.375)
    entry, = spectra.spectrum_entries(SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05), [1], [0])
    return params, closed_forms.closure_analysis(params, 1.0), entry


def _library_records():
    """(record, a record of the same type that differs) for each record of phase_space,
    dynamics, conserved and spectra whose fields are all hashable."""
    from screened_sphere import conserved, dynamics, spectra

    state = dynamics.PhaseState(1.0, 0.0, 0.0, 1.0)
    point = dynamics.TurningPoint(1.0, state, dynamics.TurningKind.APHELION, 1.0, 0.5)
    report = conserved.BracketReport("{R'x,Lz}+R'y", 10, 2e-16, 1e-16)
    return [
        (state, state._replace(p2=2.0)),
        (point, point._replace(kind=dynamics.TurningKind.PERIHELION)),
        (conserved.LZ, conserved.HAMILTONIAN),
        (report, report._replace(n_samples=20)),
        (spectra.RadialGrid(200, 3.0), spectra.RadialGrid(401, 3.0)),
    ]


def _assert_frozen_hashable(record, other):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[1], 1.0)
    with pytest.raises(AttributeError):  # no instance dict either
        record.note = "x"
    copy = type(record)(*record)
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert len({record, copy}) == 1
    assert type(other) is type(record) and other != record


def test_closed_form_records_are_frozen_hashable_values():
    for record in _records():
        other = type(record)(*record[:2], *(1.0 if v is None else 2 * v for v in record[2:]))
        _assert_frozen_hashable(record, other)
    for record, other in _library_records():
        _assert_frozen_hashable(record, other)
    # the grid result is frozen, and so is the report, though its arrays make it unhashable
    from screened_sphere import conserved, spectra

    result = spectra.radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.0, 0.0), 1, 1)
    report = conserved.TurningConservationReport(
        ("R'x", "R'y"), 1, 0.0, 1.0, np.zeros((1, 2)), np.ones((1, 2)), ("aphelion",))
    for record in (result, report):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.note = "x"


def test_closed_form_records_keep_fields_defaults_and_checks():
    assert SystemParams(SystemKind.OSCILLATOR) == SystemParams(
        kind=SystemKind.OSCILLATOR, lam=0.0, k=0.0)
    assert SystemParams._fields == ("kind", "lam", "k")
    for bad in ({"lam": -1.0}, {"lam": float("nan")}, {"k": -0.1}):
        with pytest.raises(CurvatureError if "lam" in bad else DomainError):
            SystemParams(SystemKind.COULOMB, **bad)
        with pytest.raises(CurvatureError if "lam" in bad else DomainError):
            SystemParams(SystemKind.COULOMB)._replace(**bad)
    assert SystemParams(SystemKind.COULOMB)._replace(k=0.5) == (SystemKind.COULOMB, 0.0, 0.5)
    assert closed_forms.ClosureResult(0.25, False) == (0.25, False, None, None, None)
    params, closure, entry = _records()
    assert closure._asdict() == {"alpha": 0.5, "closed": True, "p": 1, "q": 2,
                                 "closure_angle": closure.closure_angle}
    assert list(closure._asdict()) == ["alpha", "closed", "p", "q", "closure_angle"]
    assert type(closure._asdict()) is dict
    assert list(entry.to_dict()) == ["kind", "lambda", "k", "m", "N", "m_prime", "E_analytic",
                                     "E_numeric", "abs_diff"]
    assert (entry.e_numeric, entry.abs_diff) == (None, None)
