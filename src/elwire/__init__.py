"""Covariant dynamics of a closed unit-speed elastic wire in a chart.

The package solves the coupled tension/wave/transport system for a wire
moving in a Riemannian manifold presented by a single coordinate chart with
a conformal (or flat) metric.  Modules:

* ``geometry``     chart models and their samples along a curve or a
                   window series of curves: the frame scale, the
                   connection vector and the curvature matrix of a
                   conformal chart, with the closed-form actions on them;
* ``fields``       periodic grids, covariant differences and the discrete
                   norms, acting on one level (N, n) or a window series
                   (M+1, N, n) alike;
* ``elliptic``     the periodic second-order solves (tension field and
                   bentness value);
* ``wave``         the semilinear wave level: window solve by the
                   d'Alembert recurrence and the marching leapfrog;
* ``dynamics``     the time level record ``Level``, source assembly,
                   initial-data preparation, the run's one gate (``_gate``),
                   the time marcher (a generator of levels) and the
                   coupled window iteration;
* ``diagnostics``  energy split, constraint drift and the transported-frame
                   residual;
* ``initial``      closed-form starting curves and velocity fields;
* ``config``/``cli``  JSON run configs and the ``elwire`` command.

Every name is imported from its module; the package itself defines only
``__version__``.  A ``RunConfig`` (built directly or by ``parse_config``)
holds every run setting: ``march``, ``picard_coupled`` and the level solves
read their tolerances, caps and cadences from it, and its field defaults are
the only ones; its time step ``dt`` is the grid spacing ``1 / grid_n``.
Second routes that only verify production (the dense connection and
curvature tensors, dense and CG elliptic solves, the triangle quadrature,
characteristic derivatives, the single-equation residual) live in
``tests/``.
"""

__version__ = "0.1.0"
