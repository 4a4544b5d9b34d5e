"""The free tangent wave solved two independent ways.

The same initial data is evolved by the integral-representation window solver
(source iteration on the closed-form wave operator) and by the three-level
leapfrog, each started from its own bootstrap.  The sup gap between the two
trajectories shrinks at second order, which is the strongest cheap evidence
that both implement the same equation.
"""

import math

import numpy as np

from elwire.fields import Grid, compact_second
from elwire.geometry import EuclideanModel, sample_geometry, stack_samples
from elwire.wave import leapfrog_step, picard_wave_solve

TWO_PI = 2.0 * math.pi


def route_gap(n: int) -> float:
    grid = Grid(n)
    dx = grid.dx
    x = grid.points()
    psi = TWO_PI * x + 0.3 * np.sin(2.0 * TWO_PI * x)
    a = np.column_stack([np.cos(psi), np.sin(psi)])
    aperp = np.column_stack([-np.sin(psi), np.cos(psi)])
    b = 0.2 * np.cos(TWO_PI * x)[:, None] * aperp
    steps = n // 4

    # a resting flat curve: zero tension and velocity, flat geometry samples
    flat = sample_geometry(EuclideanModel(2), np.zeros_like(a))
    zero_series = np.zeros((steps + 1, n, 2))
    series, report = picard_wave_solve(
        a,
        b,
        zero_series,
        grid,
        eta_series=zero_series,
        samples_series=stack_samples([flat] * (steps + 1)),
    )

    forward = (np.roll(a, -1, 0) - a) / dx
    backward = (a - np.roll(a, 1, 0)) / dx
    coeff = 0.5 * (np.sum(forward**2, 1) + np.sum(backward**2, 1)) - np.sum(b * b, 1)
    prev = a - dx * b + 0.5 * dx * dx * (compact_second(a, dx) + coeff[:, None] * a)
    curr = a
    zero = np.zeros_like(a)
    gap = 0.0
    for m in range(1, steps + 1):
        curr, prev = leapfrog_step(prev, curr, zero, zero, dx, grid, flat, eta_rate=zero), curr
        gap = max(gap, float(np.max(np.abs(series[m] - curr))))
    print(
        f"  n = {n:3d}  window sweeps = {report.iterations}  "
        f"sup gap to t = 1/4: {gap:.3e}"
    )
    return gap


def main() -> None:
    print("integral representation vs leapfrog on the free tangent wave")
    gaps = [route_gap(n) for n in (64, 128, 256)]
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    print(f"observed orders: {orders[0]:.2f}, {orders[1]:.2f}")


if __name__ == "__main__":
    main()
