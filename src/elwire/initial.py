"""Initial-condition library: closed unit-length curves with velocity fields.

Arc length along the wire is normalised to total length one, so every
generator here produces a curve whose length in the target geometry is one,
with samples (approximately) equidistributed by arc length:

* ``circle``             flat round circle, radius 1/(2 pi), exact;
* ``perturbed-circle``   radial Fourier perturbation, re-sampled by arc length
                         on a dense parameter grid and rescaled to length one;
* ``hyperbolic-circle``  chart circle in the upper half-plane whose chart
                         radius c_y / sqrt(1 + 4 pi^2) gives hyperbolic length
                         exactly one, re-sampled by hyperbolic arc length;
* ``sphere-loop``        chart circle of radius 2 pi - sqrt(4 pi^2 - 1) about
                         the stereographic origin, exactly unit speed;
* ``torus-geodesic``     straight closed loop on the unit torus (a covariantly
                         constant tangent, used to exercise the near-geodesic
                         guard).

Velocities are prescribed in chart components: ``none``, a rigid
``translate`` by a fixed vector, or a rigid ``rotate`` about a centre in the
first two coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Grid
from .geometry import ManifoldModel

TWO_PI = 2.0 * math.pi

#: flat circle of length one
CIRCLE_RADIUS = 1.0 / TWO_PI
#: chart radius of the unit-length loop about the stereographic origin
SPHERE_LOOP_RADIUS = TWO_PI - math.sqrt(4.0 * math.pi**2 - 1.0)
#: chart radius of the unit-length hyperbolic circle, per unit centre height
HYPERBOLIC_RADIUS_FACTOR = 1.0 / math.sqrt(1.0 + 4.0 * math.pi**2)

_DENSE_FACTOR = 64


def _embed(grid: Grid, dim: int, plane_points: np.ndarray) -> np.ndarray:
    """Place 2-d samples into the first two of ``dim`` coordinates."""
    out = np.zeros((grid.n_points, dim))
    out[:, :2] = plane_points
    return out


def _resample_by_arc(u_dense: np.ndarray, speed: np.ndarray, grid: Grid) -> np.ndarray:
    """Parameter values that equidistribute arc length (trapezoid cumulative)."""
    du = u_dense[1] - u_dense[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * du)])
    total = cum[-1]
    targets = np.arange(grid.n_points) * (total / grid.n_points)
    return np.interp(targets, cum, u_dense), total


def flat_circle(grid: Grid, dim: int, center: np.ndarray) -> np.ndarray:
    phi = TWO_PI * grid.points()
    plane = CIRCLE_RADIUS * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return _embed(grid, dim, plane) + center


def perturbed_circle(
    grid: Grid, dim: int, center: np.ndarray, mode: int, amplitude: float
) -> np.ndarray:
    """Radially perturbed circle, arc-length sampled and rescaled to length one."""
    n_dense = _DENSE_FACTOR * grid.n_points
    u = np.linspace(0.0, 1.0, n_dense + 1)
    rho = CIRCLE_RADIUS * (1.0 + amplitude * np.cos(TWO_PI * mode * u))
    drho = -CIRCLE_RADIUS * amplitude * TWO_PI * mode * np.sin(TWO_PI * mode * u)
    speed = TWO_PI * np.hypot(drho / TWO_PI, rho)
    (u_samples, total) = _resample_by_arc(u, speed, grid)
    phi = TWO_PI * u_samples
    rho_s = CIRCLE_RADIUS * (1.0 + amplitude * np.cos(TWO_PI * mode * u_samples))
    plane = rho_s[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    plane = plane / total  # rescale so the total length is exactly one
    return _embed(grid, dim, plane) + center


def hyperbolic_circle(grid: Grid, center: np.ndarray) -> np.ndarray:
    """Chart circle of hyperbolic length one, sampled by hyperbolic arc length."""
    cx, cy = float(center[0]), float(center[1])
    if cy <= 0.0:
        raise ValueError(f"hyperbolic circle centre must satisfy y > 0, got {cy}")
    radius = cy * HYPERBOLIC_RADIUS_FACTOR
    n_dense = _DENSE_FACTOR * grid.n_points
    phi = np.linspace(0.0, TWO_PI, n_dense + 1)
    speed = radius / (cy + radius * np.sin(phi))
    (phi_samples, _total) = _resample_by_arc(phi, speed, grid)
    return np.stack(
        [cx + radius * np.cos(phi_samples), cy + radius * np.sin(phi_samples)], axis=-1
    )


def sphere_loop(grid: Grid, dim: int) -> np.ndarray:
    """Unit-length chart circle about the stereographic origin, unit speed."""
    phi = TWO_PI * grid.points()
    plane = SPHERE_LOOP_RADIUS * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return _embed(grid, dim, plane)


def torus_geodesic(grid: Grid, dim: int, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Straight closed unit-length loop on the unit torus."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (dim,) or not np.allclose(d, np.round(d)) or abs(d @ d - 1.0) > 1e-12:
        raise ValueError(
            "torus geodesic direction must be an integer vector of unit length "
            f"(a coordinate direction); got {direction!r}"
        )
    return origin + grid.points()[:, None] * d


#: velocity name -> the parameters its spec may hold besides ``name``
VELOCITIES = {"none": (), "translate": ("vector",), "rotate": ("omega", "center")}


def velocity_field(points: np.ndarray, spec: dict) -> np.ndarray:
    """Chart velocity samples for a velocity spec dict."""
    name = spec.get("name", "none")
    if name == "none":
        return np.zeros_like(points)
    if name == "translate":
        vec = np.asarray(spec["vector"], dtype=float)
        if vec.shape != (points.shape[1],):
            raise ValueError(
                f"translate vector needs {points.shape[1]} components, got {vec.shape}"
            )
        return np.broadcast_to(vec, points.shape).copy()
    if name == "rotate":
        omega = float(spec["omega"])
        center = np.asarray(spec.get("center", np.zeros(points.shape[1])), dtype=float)
        rel = points - center
        out = np.zeros_like(points)
        out[:, 0] = -omega * rel[:, 1]
        out[:, 1] = omega * rel[:, 0]
        return out
    raise ValueError(f"unknown velocity spec {name!r}")


#: curve name -> (the charts it runs on, the parameters it takes besides
#: ``velocity``); chart circles also run on conformal charts, which share the
#: flat chart topology
CURVES = {
    "circle": (("euclidean", "flat-torus", "conformal"), ("center",)),
    "perturbed-circle": (("euclidean", "flat-torus", "conformal"), ("center", "mode", "amplitude")),
    "hyperbolic-circle": (("hyperbolic",), ("center",)),
    "sphere-loop": (("sphere",), ()),
    "torus-geodesic": (("flat-torus",), ("origin", "direction")),
}
#: curves drawn in the first two coordinates
PLANAR_CURVES = ("circle", "perturbed-circle", "sphere-loop")


def generate(
    name: str, manifold: ManifoldModel, grid: Grid, params: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Build (curve samples, chart velocity samples) for a named initial
    condition of ``CURVES`` and the velocity spec ``params["velocity"]``."""
    dim = manifold.dim
    velocity_spec = params.get("velocity", {"name": "none"})
    if name == "circle":
        center = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
        curve = flat_circle(grid, dim, center)
    elif name == "perturbed-circle":
        center = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
        curve = perturbed_circle(
            grid, dim, center, int(params.get("mode", 2)), float(params.get("amplitude", 0.01))
        )
    elif name == "hyperbolic-circle":
        center = np.asarray(params.get("center", (0.0, 1.0)), dtype=float)
        curve = hyperbolic_circle(grid, center)
    elif name == "sphere-loop":
        curve = sphere_loop(grid, dim)
    elif name == "torus-geodesic":
        origin = np.asarray(params.get("origin", np.full(dim, 0.25)), dtype=float)
        default_dir = np.zeros(dim)
        default_dir[0] = 1.0
        curve = torus_geodesic(
            grid, dim, origin, np.asarray(params.get("direction", default_dir), dtype=float)
        )
    else:
        raise ValueError(f"unknown initial condition {name!r}")
    return curve, velocity_field(curve, velocity_spec)
