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

Each rule of a curve or a velocity is declared once, in ``CURVES`` and
``VELOCITIES``: its generator, the charts it runs on, whether it needs two
dimensions, and each parameter's kind (of ``KINDS``) and default.  ``check``
reads them; ``config.parse_config`` and ``generate`` both run it, and the
generators themselves check nothing.
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


def flat_circle(grid: Grid, dim: int, center, radius: float = CIRCLE_RADIUS) -> np.ndarray:
    phi = TWO_PI * grid.points()
    plane = radius * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
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


def hyperbolic_circle(grid: Grid, dim: int, center) -> np.ndarray:
    """Chart circle of hyperbolic length one, sampled by hyperbolic arc length."""
    cx, cy = float(center[0]), float(center[1])
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
    return flat_circle(grid, dim, 0.0, SPHERE_LOOP_RADIUS)


def torus_geodesic(grid: Grid, dim: int, origin, direction) -> np.ndarray:
    """Straight closed unit-length loop on the unit torus along a coordinate axis."""
    return origin + grid.points()[:, None] * np.asarray(direction, dtype=float)


def _translate(points: np.ndarray, vector) -> np.ndarray:
    return np.broadcast_to(np.asarray(vector, dtype=float), points.shape).copy()


def _rotate(points: np.ndarray, omega, center) -> np.ndarray:
    """Rigid rotation at rate ``omega`` about ``center`` in the first two coordinates."""
    rel = points - np.asarray(center, dtype=float)
    out = np.zeros_like(points)
    out[:, 0] = -float(omega) * rel[:, 1]
    out[:, 1] = float(omega) * rel[:, 0]
    return out


def _number(value) -> float | None:
    """The value as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return number if math.isfinite(number) else None


def _vector(value, length: int) -> bool:
    """Whether the value is a list of ``length`` finite numbers."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == length
        and all(_number(x) is not None for x in value)
    )


def _integer(value, least: int) -> bool:
    """Whether the value is a JSON integer (not a boolean) >= ``least`` that
    a float holds, as the arithmetic on every integer setting needs."""
    return isinstance(value, int) and _number(value) is not None and value >= least


#: parameter kind -> (whether a value is of the kind in ``dim`` dimensions,
#: its wording)
KINDS = {
    "point": (_vector, "a list of {dim} numbers"),
    "half-plane point": (lambda v, _: _vector(v, 2) and v[1] > 0.0, "a point of the chart (y > 0)"),
    "axis": (
        lambda v, dim: _vector(v, dim) and sorted(map(abs, v)) == [0] * (dim - 1) + [1],
        "a list of {dim} numbers, one 1 or -1 and the rest 0",
    ),
    "positive integer": (lambda v, _: _integer(v, 1), "a positive integer"),
    "number": (lambda v, _: _number(v) is not None, "a number"),
}

_CENTER = {"center": ("point", 0.0)}
#: charts with the flat chart topology, on which chart circles run
_PLANE_CHARTS = ("euclidean", "flat-torus", "conformal")

#: curve name -> (generator of (grid, dim, **parameters), the charts it runs
#: on, whether it needs two dimensions, {parameter: (kind of ``KINDS``,
#: default)}); a point's default is the number in each of its coordinates,
#: and a default that is a function takes ``dim``
CURVES = {
    "circle": (flat_circle, _PLANE_CHARTS, True, _CENTER),
    "perturbed-circle": (
        perturbed_circle,
        _PLANE_CHARTS,
        True,
        {**_CENTER, "mode": ("positive integer", 2), "amplitude": ("number", 0.01)},
    ),
    "hyperbolic-circle": (
        hyperbolic_circle, ("hyperbolic",), False, {"center": ("half-plane point", [0.0, 1.0])}
    ),
    "sphere-loop": (sphere_loop, ("sphere",), True, {}),
    "torus-geodesic": (
        torus_geodesic,
        ("flat-torus",),
        False,
        {"origin": ("point", 0.25), "direction": ("axis", lambda dim: np.eye(dim)[0])},
    ),
}
#: velocity name -> (field of (curve samples, **parameters), the charts it
#: runs on (None: every chart), whether it needs two dimensions, parameters
#: as in ``CURVES``); a parameter whose default is None is required
VELOCITIES = {
    "none": (np.zeros_like, None, False, {}),
    "translate": (_translate, None, False, {"vector": ("point", None)}),
    "rotate": (_rotate, None, True, {"omega": ("number", None), **_CENTER}),
}


def _problems(path: str, noun: str, catalogue: dict, given: dict, chart, dim, also=()):
    """Each rule of the ``catalogue`` entry ``given["name"]`` that ``given``
    (its name and parameters; ``also`` names keys it may hold besides) breaks
    on the chart ``chart`` of dimension ``dim``."""
    name = given.get("name")
    if not (isinstance(name, str) and name in catalogue):
        return [f"{path}.name: must be one of {list(catalogue)}, got {name!r}"]
    _, charts, planar, takes = catalogue[name]
    names = ", ".join((*takes, *also)) or "no parameters"
    problems = [
        f"{path}.{key}: unknown field; {noun} {name!r} takes {names}"
        for key in sorted(set(given) - {"name", *takes, *also})
    ]
    if charts is not None and chart not in charts:
        problems.append(f"{path}.name: {name!r} runs on {list(charts)}, not {chart!r}")
    if planar and dim < 2:
        problems.append(f"manifold.dim: {noun} {name!r} needs two dimensions, got {dim}")
    for key, (kind, default) in takes.items():
        is_kind, wording = KINDS[kind]
        value = given.get(key)
        if (key in given or default is None) and not is_kind(value, dim):
            problems.append(f"{path}.{key}: must be {wording.format(dim=dim)}, got {value!r}")
    return problems


def check(name, chart: str, dim: int, params: dict) -> list[str]:
    """Each rule of ``CURVES`` and ``VELOCITIES`` that the curve ``name`` with
    ``params`` (its parameters and a ``velocity`` spec) breaks on a chart of
    that name and dimension, with its config path; empty if it breaks none."""
    curve = {**params, "name": name}
    problems = _problems("initial", "curve", CURVES, curve, chart, dim, also=("velocity",))
    spec = params.get("velocity", {})
    if not isinstance(spec, dict):
        return problems + [f"initial.velocity: must be an object, got {spec!r}"]
    spec = {"name": "none", **spec}
    return problems + _problems("initial.velocity", "velocity", VELOCITIES, spec, chart, dim)


def _arguments(given: dict, takes: dict, dim: int) -> dict:
    """The parameters of ``takes``: the given values, else their defaults."""
    values = {key: given.get(key, default) for key, (_, default) in takes.items()}
    return {key: value(dim) if callable(value) else value for key, value in values.items()}


def generate(
    name: str, manifold: ManifoldModel, grid: Grid, params: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Build (curve samples, chart velocity samples) for the curve ``name`` of
    ``CURVES`` with its parameters and the velocity spec ``params["velocity"]``;
    raises ValueError naming each rule of the catalogues they break (see check)."""
    problems = check(name, manifold.name, manifold.dim, params)
    if problems:
        raise ValueError("; ".join(problems))
    generator, _, _, takes = CURVES[name]
    curve = generator(grid, manifold.dim, **_arguments(params, takes, manifold.dim))
    spec = {"name": "none", **params.get("velocity", {})}
    field, _, _, takes = VELOCITIES[spec["name"]]
    return curve, field(curve, **_arguments(spec, takes, manifold.dim))
