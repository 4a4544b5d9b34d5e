"""Covariant dynamics of a closed unit-speed elastic wire in a chart.

The package solves the coupled tension/wave/transport system for a wire
moving in a Riemannian manifold presented by a single coordinate chart with
a conformal (or flat) metric.  Modules:

* ``geometry``     chart models, orthonormal frames, connection and
                   curvature coefficients;
* ``fields``       periodic grids, curve states, covariant differences and
                   the discrete norms;
* ``elliptic``     the periodic second-order solves (tension field and
                   bentness gate);
* ``wave``         the semilinear wave level: integral-formula solver and
                   leapfrog step;
* ``dynamics``     source assembly, initial-data preparation, the time
                   marcher (a generator of levels) and the coupled window
                   iteration;
* ``diagnostics``  energy split, constraint drift and the transported-frame
                   residual;
* ``initial``      closed-form starting curves and velocity fields;
* ``config``/``cli``  JSON run configs and the ``elwire`` command.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .diagnostics import DiagnosticsRecord, energy, make_record, transport_check
from .dynamics import (
    InitialData,
    Level,
    RunParams,
    SourceTerms,
    StepResult,
    WindowIterate,
    assemble_sources,
    make_state,
    march,
    picard_coupled,
    prepare_initial,
    reconstruct_mu,
    residual_base_single,
    step,
)
from .elliptic import BentnessReport, bentness, solve_flux_form, solve_theta
from .errors import (
    CflError,
    ChartDomainError,
    ConfigError,
    ConstraintDriftError,
    DegenerateCurveError,
    ElwireError,
    NearGeodesicError,
    NonContractionError,
    NumericalAbort,
    NumericalSolveError,
)
from .fields import CurveState, Grid, circ_diff, cov_dt, cov_dx, m0, m01, m1, perp
from .geometry import (
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    GeometrySamples,
    HyperbolicHalfPlaneModel,
    ManifoldModel,
    SphereChartModel,
    make_manifold,
    sample_geometry,
)
from .wave import leapfrog_step, picard_wave_solve, wave_series

__all__ = [
    "__version__",
    "BentnessReport",
    "CflError",
    "ChartDomainError",
    "ConfigError",
    "ConformalModel",
    "ConstraintDriftError",
    "CurveState",
    "DegenerateCurveError",
    "DiagnosticsRecord",
    "ElwireError",
    "EuclideanModel",
    "FlatTorusModel",
    "GeometrySamples",
    "Grid",
    "HyperbolicHalfPlaneModel",
    "InitialData",
    "Level",
    "ManifoldModel",
    "NearGeodesicError",
    "NonContractionError",
    "NumericalAbort",
    "NumericalSolveError",
    "RunConfig",
    "RunParams",
    "SourceTerms",
    "SphereChartModel",
    "StepResult",
    "WindowIterate",
    "assemble_sources",
    "bentness",
    "circ_diff",
    "cov_dt",
    "cov_dx",
    "energy",
    "leapfrog_step",
    "m0",
    "m01",
    "m1",
    "make_manifold",
    "make_record",
    "make_state",
    "march",
    "parse_config",
    "perp",
    "picard_coupled",
    "picard_wave_solve",
    "prepare_initial",
    "reconstruct_mu",
    "residual_base_single",
    "sample_geometry",
    "solve_flux_form",
    "solve_theta",
    "step",
    "transport_check",
    "wave_series",
]
