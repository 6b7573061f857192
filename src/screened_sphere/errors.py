"""Domain errors with machine-readable codes.

Every error the library raises on invalid physics input derives from
:class:`DomainError` and carries a stable ``code`` string; the CLI maps
these to exit status 3 and prints ``CODE: message`` on stderr.
"""


class DomainError(ValueError):
    """Invalid input for a physics operation."""

    code = "ERR_DOMAIN"


class CurvatureError(DomainError):
    """Negative curvature requested (only spherical/flat supported)."""

    code = "ERR_NEGATIVE_CURVATURE"


class RadiusError(DomainError):
    """Nonpositive radius where a singular potential is evaluated."""

    code = "ERR_NONPOSITIVE_RADIUS"


class ImaginaryAlphaError(DomainError):
    """2k >= Lz**2 makes the orbit frequency ratio alpha imaginary."""

    code = "ERR_IMAGINARY_ALPHA"


class ImaginaryMPrimeError(DomainError):
    """m**2 < 2k makes the effective quantum number m' imaginary."""

    code = "ERR_IMAGINARY_MPRIME"


class SingularOrbitError(DomainError):
    """Trajectory collapsed below the minimum-radius guard."""

    code = "ERR_SINGULAR_ORBIT"


class ChartEdgeError(DomainError):
    """Trajectory reached the equator, the edge of the gnomonic chart."""

    code = "ERR_CHART_EDGE"


class StiffnessError(DomainError):
    """Adaptive integrator step size underflowed."""

    code = "ERR_STIFF"


class StepBudgetError(DomainError):
    """Adaptive integrator needed more than its cap on accepted steps."""

    code = "ERR_STEP_BUDGET"


class AccuracyError(DomainError):
    """A conservation or resolution bound was violated."""

    code = "ERR_ACCURACY"


class NoTurningPointError(DomainError):
    """Operation needs at least one detected turning point."""

    code = "ERR_NO_TURNING_POINTS"
