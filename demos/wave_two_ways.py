"""The free tangent wave solved two independent ways.

The same initial data is evolved by the integral representation (the
d'Alembert series, fed back its own wave sources until it stops moving) and
by the three-level leapfrog, each started from its own bootstrap.  The sup
gap between the two trajectories shrinks at second order, which is the
strongest cheap evidence that both implement the same equation.
"""

import math

import numpy as np

from elwire.fields import Grid, compact_second
from elwire.geometry import EuclideanModel, sample_geometry, stack_samples
from elwire.wave import assemble_wave_sources, leapfrog_step, wave_series

TWO_PI = 2.0 * math.pi


def window_series(a, b, grid, steps, samples):
    """The free tangent wave over ``steps`` levels from (a, b) by source
    iteration: each sweep takes the d'Alembert series with the wave sources
    of the last one, no tension and no velocity; returns the series and the
    number of sweeps."""
    zero = np.zeros((steps + 1,) + a.shape)
    series = wave_series(a, b, zero, zero, grid.dx, steps)
    for sweep in range(1, 31):
        f, h = assemble_wave_sources(series, zero, zero, samples, grid)
        series, last = wave_series(a, b, f, h, grid.dx, steps), series
        if np.max(np.abs(series - last)) <= 1e-13:
            return series, sweep
    raise RuntimeError("the source iteration did not settle in 30 sweeps")


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
    series, sweeps = window_series(a, b, grid, steps, stack_samples([flat] * (steps + 1)))

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
        f"  n = {n:3d}  window sweeps = {sweeps}  "
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
