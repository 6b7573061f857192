"""The package's public names, the modules that importing the CLI registers, and what the
benchmark and the tests share with the package."""

import ast
import graphlib
import importlib
import inspect
import linecache
import math
import re

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
    # a record's dict is namedtuple's _asdict, its array np.array(record)
    gone = {"ClosureResult": "to_dict", "BracketReport": "to_dict",
            "PhaseState": "as_array from_array"}
    assert [f"{record}.{method}" for record, methods in gone.items() for method in methods.split()
            if hasattr(getattr(screened_sphere, record), method)] == []


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


def _surface():
    """(unadmitted, marked): each definition of src/ that no line of src/ or of the generated
    DOP853 driver reads (a method only as an attribute) and that is neither exported, read by
    the benchmark nor marked ``# contract:``, as "file:line name"; and every marked name."""
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
    return unadmitted, marked


def test_src_holds_only_what_runs_or_a_stated_contract():
    # a name of src/ is read in src/ or by the generated driver, exported, read by the
    # benchmark, or marked "# contract: <why>" on or just above its definition; README's
    # surface paragraph names each marked one
    unadmitted, marked = _surface()
    assert unadmitted == []
    readme = (SRC.parent / "README.md").read_text()
    assert marked and [name for name in marked if f"`{name}`" not in readme] == []


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
        ("R'x", "R'y"), 1, np.zeros((1, 2)), np.ones((1, 2)), ("aphelion",), 0.0, 1.0)
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
