"""Bentness of a tangent field, from a full winding down to a geodesic.

Bentness measures how far a unit tangent field is from covariant constancy,
normalized to [0, 1].  The demo evaluates it on the flat torus for a family
of fields that relaxes toward the constant field of a closed geodesic, shows
the closed-form value of the round circle, and demonstrates that the tension
solver refuses the degenerate geodesic limit where the equation loses
solvability.
"""

import math

import numpy as np

from elwire.config import RunConfig
from elwire.elliptic import bentness, solve_flux_form
from elwire.errors import NearGeodesicError
from elwire.fields import Grid
from elwire.geometry import make_manifold, sample_geometry

TWO_PI = 2.0 * math.pi


def main() -> None:
    grid = Grid(128)
    x = grid.points()

    torus = make_manifold("flat-torus")
    line = x[:, None] * np.array([1.0, 0.0])
    samples = sample_geometry(torus, line)

    print("field angle amplitude s -> bentness of (cos(s sin 2 pi x), sin(...))")
    for s in (1.0, 0.5, 0.25, 0.1, 0.0):
        psi = s * np.sin(TWO_PI * x)
        xi = np.column_stack([np.cos(psi), np.sin(psi)])
        value = bentness(xi, samples, grid)
        print(f"  s = {s:4.2f}   B = {value:.6f}")

    euclid = make_manifold("euclidean")
    flat = sample_geometry(euclid, np.zeros((grid.n_points, 2)))
    tangent = np.column_stack([-np.sin(TWO_PI * x), np.cos(TWO_PI * x)])
    target = TWO_PI / math.sqrt(1.0 + TWO_PI**2)
    value = bentness(tangent, flat, grid)
    print()
    print(f"round circle tangent: B = {value:.6f}  (closed form {target:.6f})")

    print()
    geodesic = np.tile([1.0, 0.0], (grid.n_points, 1))
    zero = np.zeros_like(geodesic)
    try:
        cfg = RunConfig()
        solve_flux_form(
            zero, geodesic, geodesic, samples, grid, tol=cfg.solver_tol, b_floor=cfg.b_floor
        )
    except NearGeodesicError as exc:
        print(f"tension solve on the geodesic refuses, as it must: {exc}")


if __name__ == "__main__":
    main()
