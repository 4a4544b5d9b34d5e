"""RunConfig of a short test run on a given grid."""

from elwire.config import RunConfig


def run_config(grid, steps, *, dt=None, **settings):
    """The settings of a run of ``steps`` steps of size ``dt`` (default dx)
    on ``grid``: a march of ``steps`` steps, or a picard window of as many.
    Any other RunConfig field is passed through ``settings``."""
    dt = grid.dx if dt is None else dt
    return RunConfig(
        grid_n=grid.n_points,
        dt=dt,
        horizon=steps * dt,
        picard_window=steps,
        **settings,
    )


_DEFAULT = RunConfig()
#: the tension solve's keyword settings in a default run
SOLVE_DEFAULTS = {"tol": _DEFAULT.solver_tol}
