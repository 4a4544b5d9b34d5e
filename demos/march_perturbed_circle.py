"""March a perturbed circle in the plane and watch the conserved quantities.

The mode-2 perturbation makes the wire oscillate; the table tracks the total
energy, its split into tangent-rate, velocity, and bending parts, and the
unit-tangent drift of the scheme with renormalization off.
"""

from elwire import initial
from elwire.config import RunConfig
from elwire.diagnostics import energy
from elwire.dynamics import march, prepare_initial
from elwire.fields import Grid, constraint_drift, m0
from elwire.geometry import make_manifold


def main() -> None:
    n = 128
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(
        "perturbed-circle", manifold, grid, {"mode": 2, "amplitude": 0.01}
    )
    state, report = prepare_initial(curve, velocity, manifold, grid)
    print(f"prepared: projection magnitude {report.projection_magnitude:.2e}")

    # the default run settings at this grid: dt = dx, horizon 1
    cfg = RunConfig(grid_n=n, dt=grid.dx)
    print(f"marching {cfg.n_steps} steps to t = 1 (dt = dx = 1/{n})")
    print()
    print("  time    energy      rate      velocity  bending   |norm^2-1|")
    e0 = None
    drift = displacement = 0.0
    for k, level in enumerate(march(state, manifold, grid, cfg)):
        s = level.state
        total, (rate, vel, bend) = energy(level, grid)
        e0 = total if e0 is None else e0
        drift = max(drift, abs(total - e0))
        displacement = max(displacement, m0(manifold.displacement(state.gamma, s.gamma)))
        if k % (n // 8) == 0:
            print(
                f"  {s.time:5.3f}  {total:9.5f}  {rate:9.6f}  {vel:9.6f}  "
                f"{bend:8.5f}  {constraint_drift(s.xi):.2e}"
            )
    print()
    print(f"max relative energy drift : {drift / e0:.3e}")
    print(f"max chart displacement    : {displacement:.3e}")

if __name__ == "__main__":
    main()
