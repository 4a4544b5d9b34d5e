"""Initial-condition library: closed unit-length curves with velocity fields.

Arc length along the wire is normalised to total length one, so every
generator here produces a curve whose length in the target geometry is one,
with samples equidistributed by arc length:

* ``circle``             flat round circle, radius 1/(2 pi), exact;
* ``perturbed-circle``   radial Fourier perturbation, sampled by arc length
                         and rescaled to length one;
* ``hyperbolic-circle``  chart circle in the upper half-plane whose chart
                         radius c_y / sqrt(1 + 4 pi^2) gives hyperbolic length
                         exactly one, sampled by hyperbolic arc length;
* ``sphere-loop``        chart circle of radius 2 pi - sqrt(4 pi^2 - 1) about
                         the stereographic origin, exactly unit speed;
* ``torus-geodesic``     straight closed loop on the unit torus (a covariantly
                         constant tangent, used to exercise the near-geodesic
                         guard).

The two curves sampled by arc length share ``_equal_arc``: 6-point
Gauss-Legendre integrals of the speed over N cells (at least 64), and a few
vectorised Newton steps that place each sample where the arc length reaches
k/N of the total.  Measured against adaptive quadrature, max |N gap / L - 1|
was at most 6.2e-12 at N = 4096 (the residual tolerance allows 7.3e-12),
2.8e-13 at N = 1024 and 6e-14 at N <= 64, for modes 1-4 with
|amplitude| <= 0.1 and for hyperbolic circles; the hyperbolic length comes
out as 1 to 1.3e-15.  A cusp (amplitude +-1), and a speed the cells do not
resolve, raise DegenerateCurveError.

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

from .errors import DegenerateCurveError
from .fields import Grid
from .geometry import ManifoldModel

TWO_PI = 2.0 * math.pi

#: flat circle of length one
CIRCLE_RADIUS = 1.0 / TWO_PI
#: chart radius of the unit-length loop about the stereographic origin
SPHERE_LOOP_RADIUS = TWO_PI - math.sqrt(4.0 * math.pi**2 - 1.0)
#: chart radius of the unit-length hyperbolic circle, per unit centre height
HYPERBOLIC_RADIUS_FACTOR = 1.0 / math.sqrt(1.0 + 4.0 * math.pi**2)

#: 6-point Gauss-Legendre nodes and weights on [0, 1]; written out, as
#: importing numpy.polynomial to compute them costs more than the whole
#: arc-length inversion at N = 1024
_GL_NODES = np.array(
    [
        0.0337652428984239860938492,
        0.1693953067668677431693002,
        0.3806904069584015456847491,
        0.6193095930415984543152509,
        0.8306046932331322568306998,
        0.9662347571015760139061508,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.0856622461895851725201480,
        0.1803807865240693037849167,
        0.2339569672863455236949351,
        0.2339569672863455236949351,
        0.1803807865240693037849167,
        0.0856622461895851725201480,
    ]
)
_TINY = np.finfo(float).tiny
#: the cell nodes and weights again, with the cell's end point (weight 0)
#: appended: a Newton step takes the speed at the iterate with its integral
_STEP_NODES = np.append(_GL_NODES, 1.0)
_STEP_WEIGHTS = np.append(_GL_WEIGHTS, 0.0)
#: weights of the speed's slope across a cell (its first Legendre moment)
_SLOPE_WEIGHTS = 12.0 * _GL_WEIGHTS * (_GL_NODES - 0.5)
#: arc-length residual, per unit of total length, at which a sample is
#: placed: a few ulps, as the cumulative sums that set the targets round at
#: one ulp of the length
ARC_TOL = 4.0 * np.finfo(float).eps
#: the fewest quadrature cells; a curve of fewer samples splits each
#: sample's cell, so that it is placed as accurately as a longer one
MIN_CELLS = 64
#: Newton steps allowed: a resolved curve is placed in at most 4 (the last
#: only confirms the residual); more come from a speed that (nearly)
#: vanishes, or varies, within a cell
NEWTON_STEPS = 16


def _embed(grid: Grid, dim: int, plane_points: np.ndarray) -> np.ndarray:
    """Place 2-d samples into the first two of ``dim`` coordinates."""
    out = np.zeros((grid.n_points, dim))
    out[:, :2] = plane_points
    return out


def _equal_arc(speed, n: int, curve: str) -> tuple[np.ndarray, float]:
    """The parameters u_0 = 0 < ... < u_{n-1} < 1 at which the arc length of
    a closed curve whose speed on [0, 1) is ``speed(u)`` (an array function)
    reaches k L / n, and its length L.

    The speed is integrated over m cells [j/m, (j+1)/m) by 6-point
    Gauss-Legendre, with m = n (or its smallest multiple >= ``MIN_CELLS``).
    The cumulative sum puts each target in its cell, and the speed's mean
    and slope there give a first guess: the target of a speed linear across
    the cell.  Newton steps on the cell's integral up to the iterate, taken
    with the same nodes scaled to that span, then move each sample until its
    residual is at most ``ARC_TOL`` L; a step stays inside the cell, and a
    placed sample no longer moves.  A sample still open after
    ``NEWTON_STEPS`` steps raises DegenerateCurveError naming the ``curve``.
    """
    m = n * -(-MIN_CELLS // n)
    node_speed = speed((np.arange(m)[:, None] + _GL_NODES) / m)
    mean = node_speed @ _GL_WEIGHTS  # of each cell, m times its arc length
    cum = np.concatenate([[0.0], np.cumsum(mean)])
    if not (math.isfinite(cum[-1]) and cum[-1] > 0.0):
        raise DegenerateCurveError(f"{curve}: the curve's length is {cum[-1] / m}")
    targets = np.arange(n) * (cum[-1] / n)
    cell = np.minimum(np.searchsorted(cum, targets, side="right") - 1, m - 1)
    base = targets - cum[cell]
    # first guess t in [0, 1] across the cell: where the speed
    # mean (1 + slope (t - 1/2)), linear and (|slope| <= 2) >= 0 on the cell,
    # reaches the target, t + slope (t^2 - t) / 2 = frac
    frac = base / mean[cell]
    slope = np.clip(node_speed[cell] @ _SLOPE_WEIGHTS / mean[cell], -2.0, 2.0)
    start = 1.0 - 0.5 * slope
    root = np.sqrt(np.maximum(start * start + 2.0 * slope * frac, 0.0))
    t = 2.0 * frac / np.maximum(start + root, _TINY)
    for _ in range(NEWTON_STEPS):
        values = speed((t[:, None] * _STEP_NODES + cell[:, None]) / m)
        residual = t * (values @ _STEP_WEIGHTS) - base
        placed = np.abs(residual) <= ARC_TOL * cum[-1]
        if placed.all():
            return (cell + t) / m, float(cum[-1] / m)
        # a zero speed (a cusp) sends the step to the cell's edge
        step = np.clip(t - residual / np.maximum(values[:, -1], _TINY), 0.0, 1.0)
        t = np.where(placed, t, step)
    worst = int(np.argmax(np.where(placed, 0.0, np.abs(residual))))
    raise DegenerateCurveError(
        f"{curve}: arc length not inverted in {NEWTON_STEPS} Newton steps; at "
        f"u = {(cell[worst] + t[worst]) / m:.6f} the residual is still "
        f"{float(abs(residual[worst]) / cum[-1])!r} of the length (the speed vanishes "
        "there, or the grid does not resolve it)"
    )


def flat_circle(grid: Grid, dim: int, center, radius: float = CIRCLE_RADIUS) -> np.ndarray:
    phi = TWO_PI * grid.points()
    plane = radius * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return _embed(grid, dim, plane) + center


def _perturbed_speed(mode: int, amplitude: float):
    """The speed on [0, 1) of the perturbed circle, before rescaling."""
    return lambda u: TWO_PI * CIRCLE_RADIUS * np.hypot(
        amplitude * mode * np.sin(TWO_PI * mode * u), 1.0 + amplitude * np.cos(TWO_PI * mode * u)
    )


def perturbed_circle(
    grid: Grid, dim: int, center: np.ndarray, mode: int, amplitude: float
) -> np.ndarray:
    """Radially perturbed circle, arc-length sampled and rescaled to length one;
    the cusp of |amplitude| = 1 raises DegenerateCurveError before placing."""
    if abs(amplitude) == 1.0:
        cusp = 0.5 / mode if amplitude > 0 else 0.0
        raise DegenerateCurveError(f"perturbed-circle: cusp at u = {cusp:.6f}, where the speed vanishes")
    u_samples, total = _equal_arc(_perturbed_speed(mode, amplitude), grid.n_points, "perturbed-circle")
    phi = TWO_PI * u_samples
    rho_s = CIRCLE_RADIUS * (1.0 + amplitude * np.cos(TWO_PI * mode * u_samples))
    plane = rho_s[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    plane = plane / total  # rescale so the total length is exactly one
    return _embed(grid, dim, plane) + center


def hyperbolic_circle(grid: Grid, dim: int, center) -> np.ndarray:
    """Chart circle of hyperbolic length one, sampled by hyperbolic arc length."""
    cx, cy = float(center[0]), float(center[1])
    radius = cy * HYPERBOLIC_RADIUS_FACTOR

    def speed(u):
        return TWO_PI * radius / (cy + radius * np.sin(TWO_PI * u))

    (u_samples, _total) = _equal_arc(speed, grid.n_points, "hyperbolic-circle")
    phi = TWO_PI * u_samples
    return np.stack([cx + radius * np.cos(phi), cy + radius * np.sin(phi)], axis=-1)


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
