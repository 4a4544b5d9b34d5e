"""Tour of the chart models: frames, connection, and curvature samples.

Walks a closed loop through each built-in chart and prints the identities the
rest of the package relies on: the frame diagonalizes the metric, the sampled
connection is antisymmetric, and the sectional curvature comes out constant
where the model is a space form (-1 on the half-plane, +1 on the sphere).
A flat chart samples no connection or curvature: both vanish.
"""

import numpy as np

from elwire.fields import Grid
from elwire.geometry import make_manifold, sample_geometry

TWO_PI = 2.0 * np.pi


def loop_for(name: str, grid: Grid) -> np.ndarray:
    x = grid.points()
    circle = np.column_stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)])
    if name == "hyperbolic":
        return np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    return 0.4 * circle


def sectional_curvature(samples) -> np.ndarray:
    # K = g(R(e1, e2) e2, e1); frame components make g the identity
    return samples.curv[:, 0, 1, 1, 0]


def main() -> None:
    grid = Grid(64)
    specs = [
        ("euclidean", {}),
        ("hyperbolic", {}),
        ("sphere", {}),
        ("conformal", {"expression": "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"}),
    ]
    for name, kwargs in specs:
        manifold = make_manifold(name, **kwargs)
        curve = loop_for(name, grid)
        samples = sample_geometry(manifold, curve)
        metric = manifold.metric(curve)
        orthonormality = np.max(
            np.abs(
                np.einsum("pai,pab,pbj->pij", samples.frame, metric, samples.frame)
                - np.eye(2)
            )
        )
        print(f"{name:12s} frame^T G frame - I : {orthonormality:.2e}")
        if samples.chris is None:
            print(f"{'':12s} flat chart          : no connection or curvature sampled")
            continue
        antisymmetry = np.max(np.abs(samples.chris + samples.chris.swapaxes(-1, -2)))
        kappa = sectional_curvature(samples)
        print(f"{'':12s} connection antisym  : {antisymmetry:.2e}")
        print(
            f"{'':12s} sectional curvature : "
            f"min {kappa.min():+.6f}  max {kappa.max():+.6f}"
        )
    print()
    print("flat charts sample no connection or curvature; the space forms are exactly +-1,")
    print("and the generic conformal chart varies along the loop.")


if __name__ == "__main__":
    main()
