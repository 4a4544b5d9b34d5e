"""Solve a short window by coupled source iteration and compare with marching.

The window solver freezes the tension series, solves the tangent wave in
integral form, advances the ordinary equations, and repeats until the iterates
stop moving.  Near the resting circle the map contracts immediately; the
converged window agrees with the marching integrator to discretization level.
"""

import numpy as np

from elwire import initial
from elwire.config import RunConfig
from elwire.dynamics import march, picard_coupled, prepare_initial
from elwire.fields import Grid
from elwire.geometry import make_manifold


def main() -> None:
    n = 64
    steps = 4
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(
        "perturbed-circle", manifold, grid, {"mode": 2, "amplitude": 0.01}
    )
    state, _ = prepare_initial(curve, velocity, manifold, grid)

    # a window of `steps` steps, and a march over the same time
    cfg = RunConfig(grid_n=n, dt=grid.dx, horizon=steps * grid.dx, picard_window=steps)
    iterate, report = picard_coupled(state, manifold, grid, cfg)
    print(f"window of {steps} steps at n = {n}: converged in {report.iterations} sweeps")
    print("  sweep   distance    ratio")
    for k, distance in enumerate(report.distances):
        ratio = f"{report.ratios[k - 1]:.4f}" if k >= 1 else "     -"
        print(f"  {k + 1:5d}   {distance:.3e}  {ratio}")

    gap = max(
        float(np.max(np.abs(iterate.state.xi[m] - level.state.xi)))
        for m, level in enumerate(march(state, manifold, grid, cfg))
    )
    print()
    print(f"sup gap between window fixed point and march: {gap:.3e}")


if __name__ == "__main__":
    main()
