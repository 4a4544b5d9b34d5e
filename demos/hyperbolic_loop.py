"""March a circle in the hyperbolic half-plane.

Negative curvature feeds the connection terms of every operator: the tension
sources pick up curvature corrections and the leapfrog transports along the
curve.  The run stays at n = 128 for half a time unit, where the unit-tangent
drift of the curved scheme sits comfortably inside the abort gate.
"""

from elwire import initial
from elwire.config import RunConfig
from elwire.diagnostics import energy
from elwire.dynamics import march, prepare_initial
from elwire.elliptic import bentness
from elwire.fields import Grid, constraint_drift
from elwire.geometry import make_manifold


def main() -> None:
    n = 128
    steps = n // 2
    manifold = make_manifold("hyperbolic")
    grid = Grid(n)
    curve, velocity = initial.generate("hyperbolic-circle", manifold, grid, {})
    state, report = prepare_initial(curve, velocity, manifold, grid)
    print(f"prepared: projection magnitude {report.projection_magnitude:.2e}, "
          f"min tangent norm {report.min_tangent_norm:.4f}")

    cfg = RunConfig(grid_n=n, dt=grid.dx, horizon=steps * grid.dx)
    print(f"marching {steps} steps to t = {cfg.horizon:.2f}")
    print()
    print("  time    energy      |norm^2-1|  bentness")
    e0 = None
    drift = 0.0
    for k, level in enumerate(march(state, manifold, grid, cfg)):
        s = level.state
        total, _ = energy(level, grid)
        e0 = total if e0 is None else e0
        drift = max(drift, abs(total - e0))
        if k % (steps // 8) == 0:
            b_value = bentness(s.xi, level.samples, grid).b_value
            print(
                f"  {s.time:5.3f}  {total:10.5f}  {constraint_drift(s.xi):.2e}  "
                f"{b_value:8.5f}"
            )
    print()
    print(f"max relative energy drift: {drift / e0:.3e}")
    print("halve dx and the drift drops fourfold; the curved terms are second order.")

if __name__ == "__main__":
    main()
