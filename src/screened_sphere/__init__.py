"""Screened Coulomb and isotropic-oscillator systems on a 2-sphere.

Classical orbits, turning-point-conserved extended quantities, Higgs
algebra bracket checks, and analytic-versus-numeric energy spectra, all
in gnomonic-projection coordinates.

The numpy-backed modules ``dynamics`` and ``conserved``, and ``spectra``
(the spectrum table and its grid oracle), are registered in ``sys.modules``
at import but run their bodies on first attribute access, so code that
needs only ``closed_forms`` runs none of them, and ``conserved``, which
takes its kernels from ``phase_space`` and reads a trajectory's recorded
turning points, never runs ``dynamics``.  The public names below resolve
from their owning module on use.
"""

import importlib.util
import sys

_EXPORTS = {
    "closed_forms": """ClosureResult SystemKind SystemParams closure_analysis coulomb_energy
        m_prime orbit_alpha oscillator_energy""",
    "phase_space": "PhaseState hamiltonian potential",
    "dynamics": """Trajectory TurningKind TurningPoint equations_of_motion find_turning_points
        integrate""",
    "conserved": """BracketReport Observable fradkin_quantities poisson_bracket runge_lenz
        turning_point_conservation verify_coulomb_algebra verify_oscillator_algebra""",
    "spectra": "RadialGrid SpectrumEntry radial_solve_numeric spectrum_entries",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def _lazy(name: str):
    """Register submodule ``name`` whose body runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


dynamics = _lazy("dynamics")
conserved = _lazy("conserved")
spectra = _lazy("spectra")


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_OWNER))


__version__ = "0.1.0"
