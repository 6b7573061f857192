"""Screened Coulomb and isotropic-oscillator systems on a 2-sphere.

Classical orbits, turning-point-conserved extended quantities, Higgs
algebra bracket checks, and analytic-versus-numeric energy spectra, all
in gnomonic-projection coordinates.
"""

from .dynamics import (
    ClosureResult,
    OrbitShape,
    PhaseState,
    SystemKind,
    SystemParams,
    Trajectory,
    TurningKind,
    TurningPoint,
    closed_form_radius,
    closure_analysis,
    equations_of_motion,
    find_turning_points,
    fit_theta0,
    hamiltonian,
    integrate,
    orbit_alpha,
    orbit_residual,
    pi_vector,
    potential,
    radial_theta_period,
    state_at_theta,
)
from .conserved import (
    BracketReport,
    Observable,
    angular_momentum,
    fradkin_quantities,
    poisson_bracket,
    runge_lenz,
    turning_point_conservation,
    verify_coulomb_algebra,
    verify_oscillator_algebra,
)
from .spectra import (
    RadialGrid,
    SpectrumEntry,
    coulomb_energy,
    degeneracy_split_report,
    hypergeometric_terminating,
    m_prime,
    oscillator_energy,
    oscillator_operator_residual,
    oscillator_wavefunction,
    radial_solve_numeric,
    spectrum_entries,
)

__version__ = "0.1.0"
