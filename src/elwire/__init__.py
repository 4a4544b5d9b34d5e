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

Every name is imported from its module; the package itself defines only
``__version__``.  A ``RunConfig`` (built directly or by ``parse_config``)
holds every run setting: ``march``, ``picard_coupled`` and the level solves
read their tolerances, caps and cadences from it, and its field defaults are
the only ones.  Second routes that only verify production (dense and CG
elliptic solves, the triangle quadrature, characteristic derivatives, the
single-equation residual) live in ``tests/``.
"""

__version__ = "0.1.0"
