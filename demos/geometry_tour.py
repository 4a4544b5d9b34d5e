"""Tour of the chart models: frame scale, connection, and curvature samples.

Walks a closed loop through each built-in chart and prints the identities the
rest of the package relies on.  A curved chart is conformally flat, e^{2 lam}
delta, and samples the frame scale e^{-lam}, the connection vector
c = e^{-lam} grad(lam) and the curvature matrix P.  The connection
Gamma(u, v) = u <c, v> - <u, v> c is metric (<Gamma(u, v), w> =
-<v, Gamma(u, w)>), and in two dimensions the sectional curvature is -tr P,
constant where the model is a space form (-1 on the half-plane, +1 on the
sphere).  A flat chart samples no connection or curvature: both vanish.
"""

import numpy as np

from elwire.fields import Grid
from elwire.geometry import apply_chris, make_manifold, sample_geometry

TWO_PI = 2.0 * np.pi


def loop_for(name: str, grid: Grid) -> np.ndarray:
    x = grid.points()
    circle = np.column_stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)])
    if name == "hyperbolic":
        return np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    return 0.4 * circle


def sectional_curvature(samples) -> np.ndarray:
    # K = g(R(e1, e2) e2, e1) = -P_11 - P_22; frame components make g the identity
    return -np.trace(samples.curv, axis1=1, axis2=2)


def main() -> None:
    grid = Grid(64)
    rng = np.random.default_rng(0)
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
        if samples.scale is None:
            print(f"{name:12s} flat chart          : identity frame, no connection or curvature sampled")
            continue
        scale = samples.scale
        print(f"{name:12s} frame scale e^-lam  : min {scale.min():.6f}  max {scale.max():.6f}")
        u, v, w = rng.standard_normal((3,) + curve.shape)
        defect = np.sum(apply_chris(samples.conn, u, v) * w, axis=-1) + np.sum(
            v * apply_chris(samples.conn, u, w), axis=-1
        )
        kappa = sectional_curvature(samples)
        print(f"{'':12s} metric connection   : {np.max(np.abs(defect)):.2e}")
        print(
            f"{'':12s} sectional curvature : "
            f"min {kappa.min():+.6f}  max {kappa.max():+.6f}"
        )
    print()
    print("flat charts sample no connection or curvature; the space forms are exactly +-1,")
    print("and the generic conformal chart varies along the loop.")


if __name__ == "__main__":
    main()
