"""Exception taxonomy shared across the package.

Configuration problems and numerical aborts are kept apart because the command
line maps them to different exit codes (2 and 3 respectively).
"""

from __future__ import annotations


class ElwireError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ElwireError):
    """Invalid run configuration.

    Parameters
    ----------
    problems : list of str
        One entry per problem, each prefixed with the JSON path of the
        offending field (e.g. ``"grid.n: must be >= 8"``).
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericalAbort(ElwireError):
    """Base class for mid-run numerical failures (CLI exit code 3)."""


class ChartDomainError(NumericalAbort):
    """A point left the chart on which the manifold model is defined."""


class NearGeodesicError(NumericalAbort):
    """Bentness fell below the configured floor; the tension solve is singular."""


class DegenerateCurveError(NumericalAbort):
    """A discrete tangent vector (nearly) vanished while preparing initial data."""


class NumericalSolveError(NumericalAbort):
    """A linear solve failed or left a residual above the configured tolerance."""


class ConstraintDriftError(NumericalAbort):
    """The unit-tangent defect exceeded the configured constraint tolerance."""


class NonContractionError(NumericalAbort):
    """Picard iteration failed: it stopped contracting (three consecutive
    ratios >= 1) or used up its sweep cap above its tolerance.

    ``report`` is the ContractionReport of the iteration that raised, up to
    the failing sweep.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CflError(NumericalAbort):
    """Time step exceeds the explicit stability limit dt <= dx."""
