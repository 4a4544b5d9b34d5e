"""Covariant dynamics of a closed unit-speed elastic wire in a chart.

The package solves the coupled tension/wave/transport system for a wire
moving in a Riemannian manifold presented by a single coordinate chart with
a conformal (or flat) metric.  Modules:

* ``geometry``     chart models, orthonormal frames, connection and
                   curvature coefficients, sampled along a curve or a
                   window series of curves;
* ``fields``       periodic grids, curve states, covariant differences and
                   the discrete norms, acting on one level (N, n) or a
                   window series (M+1, N, n) alike;
* ``elliptic``     the periodic second-order solves (tension field and
                   bentness gate);
* ``wave``         the semilinear wave level: window solve by the
                   d'Alembert recurrence and the marching leapfrog;
* ``dynamics``     source assembly, initial-data preparation, the time
                   marcher (a generator of levels) and the coupled window
                   iteration;
* ``diagnostics``  energy split, constraint drift and the transported-frame
                   residual;
* ``initial``      closed-form starting curves and velocity fields;
* ``config``/``cli``  JSON run configs and the ``elwire`` command.

The names below are what the command line, the demos and a script driving
a run use; everything else is imported from its module.  Second routes that
only verify production (dense and CG elliptic solves, the triangle
quadrature, characteristic derivatives, the single-equation residual) live
in ``tests/``.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .diagnostics import energy, make_record
from .dynamics import Level, RunParams, make_state, march, picard_coupled, prepare_initial
from .elliptic import bentness, solve_flux_form
from .errors import ConfigError, ElwireError, NearGeodesicError, NonContractionError, NumericalAbort
from .fields import CurveState, Grid, compact_second, constraint_drift, m0
from .geometry import EuclideanModel, make_manifold, sample_geometry, stack_samples
from .wave import leapfrog_step, picard_wave_solve

__all__ = [
    "__version__",
    "ConfigError",
    "CurveState",
    "ElwireError",
    "EuclideanModel",
    "Grid",
    "Level",
    "NearGeodesicError",
    "NonContractionError",
    "NumericalAbort",
    "RunConfig",
    "RunParams",
    "bentness",
    "compact_second",
    "constraint_drift",
    "energy",
    "leapfrog_step",
    "m0",
    "make_manifold",
    "make_record",
    "make_state",
    "march",
    "parse_config",
    "picard_coupled",
    "picard_wave_solve",
    "prepare_initial",
    "sample_geometry",
    "solve_flux_form",
    "stack_samples",
]
