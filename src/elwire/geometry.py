"""Chart geometry: orthonormal frames, connection and curvature samples.

Every manifold is presented on a single chart that carries a global orthonormal
frame {e_1, ..., e_n}.  Fields along curves are stored as frame components, so
downstream modules see a flat metric; position dependence enters only through
what ``sample_geometry`` samples along a curve.  Every curved chart here is
conformally flat, exp(2*lam)*delta, with the frame e_j = exp(-lam) d/dx^j, so
its samples are small (see GeometrySamples):

* ``scale`` exp(-lam): the frame-to-chart matrix is scale times the identity;
* ``conn`` the vector c = exp(-lam) grad(lam), for which the covariant
  derivative of a frame-constant field v along u is
  Gamma(u, v) = u <c, v> - <u, v> c (antisymmetric in the frame because the
  frame is orthonormal);
* ``curv`` the symmetric matrix P = exp(-2 lam) (hess(lam) - grad(lam)
  grad(lam)^T + |grad lam|^2 / 2 I), for which
  R(u, v) w = <u, Pw> v - <v, Pw> u + P(<u, w> v - <v, w> u) with
  R(u, v) = [nabla_u, nabla_v] - nabla_[u,v]; on a chart of constant
  sectional curvature K, P = -K/2 I.

Built-in models: Euclidean space, the flat unit torus, the hyperbolic upper
half-plane, the round unit sphere in a stereographic chart, and a generic
conformal metric exp(2*lam)*delta with ``lam`` given in closed form.  All
evaluators are analytic: one walk of the conformal factor's syntax tree
checks it at construction time and gives the jet (lam, grad, hess) by the
rules of differentiation; nothing differentiates the metric numerically.
The test suite keeps an independent finite-difference oracle, and
rebuilds the dense connection and curvature tensors from the samples there.
``BUILTIN`` declares each chart's rules once (the half-plane is 2-D; only
``conformal`` takes a setting, its ``expression``), and ``build_chart``, which
both ``make_manifold`` and ``config.parse_config`` run, checks them.

``stack_samples`` stacks the samples of a window's curves into a series, and
every use of the connection and the curvature goes through the two pointwise
actions ``apply_chris`` (Gamma(u, v)) and ``apply_curv`` (R(u, v) w), which
act on a level or fold a series' levels into its points, with two-operand
contractions only.  ``dot`` is the one pointwise inner product over the
component axis: every module forms <p, q> with it, never with a numpy
reduction.  ``frame_components`` turns chart vectors into frame components.
On the flat charts every sample is left out (None): both actions of None
return exact zeros, and the frame is the identity.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import ChartDomainError


class ManifoldModel:
    """Base class for single-chart models with a global orthonormal frame.

    A curved subclass implements ``sample``, the fields of GeometrySamples at
    coordinate arrays of shape ``(N, dim)``; every model has the chart
    predicate ``contains``.
    """

    name = "abstract"
    is_flat = False

    def __init__(self, dim: int):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"manifold dimension must be >= 1, got {dim}")

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying inside the chart domain: here those
        whose coordinates are all finite.  The whole array is checked at once,
        and the points of its non-finite entries marked only when it fails."""
        c = np.asarray(coords, dtype=float)
        inside = np.ones(c.shape[:-1], dtype=bool)
        finite = np.isfinite(c)
        if not finite.all():
            inside[np.nonzero(~finite)[:-1]] = False
        return inside

    def displacement(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Chart difference end - start (overridden where the chart wraps)."""
        return np.asarray(end, dtype=float) - np.asarray(start, dtype=float)

    def sample(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class EuclideanModel(ManifoldModel):
    """Flat R^n with the identity frame; the connection and curvature vanish."""

    name = "euclidean"
    is_flat = True


class FlatTorusModel(EuclideanModel):
    """Unit torus R^n / Z^n: Euclidean geometry with wrap-around differences."""

    name = "flat-torus"

    def displacement(self, start, end):
        d = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        return (d + 0.5) % 1.0 - 0.5


class _ConformalModel(ManifoldModel):
    """Metric exp(2*lam) * delta; subclasses provide the jet of lam.

    The orthonormal frame is e_j = exp(-lam) * d/dx^j, so the frame is the
    scale exp(-lam) times the identity, the connection is the one vector
    c = exp(-lam) grad(lam) and the curvature the symmetric matrix

        P = exp(-2 lam) * (hess(lam) - grad(lam) grad(lam)^T + |grad lam|^2 / 2 I)

    (see apply_chris and apply_curv).  When the model declares a constant
    sectional curvature K, P = -K/2 I is used directly; the generic formula
    reduces to it (checked in the tests).
    """

    #: sectional curvature when constant, else None
    constant_curvature: float | None = None

    def _jet(self, coords: np.ndarray) -> tuple:
        """(lam, grad(lam), hess(lam)) at the points ``coords`` (N, n); the
        Hessian is None when the model declares a constant curvature."""
        raise NotImplementedError

    def sample(self, coords):
        """(scale, c, P) at the points ``coords`` (N, n)."""
        n = self.dim
        lam, grad, hess = self._jet(coords)
        scale = np.exp(-lam)
        if self.constant_curvature is not None:
            # a copy, not a broadcast view: einsum rounds a view's zero strides
            # differently, and a window series must equal its stacked levels
            curv = np.tile(-0.5 * self.constant_curvature * np.eye(n), (len(coords), 1, 1))
        else:
            half_sq = 0.5 * dot(grad, grad)
            s = hess - grad[:, :, None] * grad[:, None, :]
            curv = (scale * scale)[:, None, None] * (s + half_sq[:, None, None] * np.eye(n))
        return scale, scale[:, None] * grad, curv


class HyperbolicHalfPlaneModel(_ConformalModel):
    """Upper half-plane y > 0 with metric (dx^2 + dy^2) / y^2 (curvature -1)."""

    name = "hyperbolic"
    constant_curvature = -1.0

    def __init__(self):
        super().__init__(2)

    def contains(self, coords):
        return super().contains(coords) & (np.asarray(coords, dtype=float)[..., 1] > 0.0)

    def _jet(self, coords):
        g = np.zeros_like(coords)
        g[..., 1] = -1.0 / coords[..., 1]
        return -np.log(coords[..., 1]), g, None


class SphereChartModel(_ConformalModel):
    """Round unit sphere minus a pole, in a stereographic chart (curvature +1).

    Metric 4 (1+|p|^2)^-2 delta; the chart origin is the point antipodal to
    the removed pole.
    """

    name = "sphere"
    constant_curvature = 1.0

    def _jet(self, coords):
        sq = dot(coords, coords)
        return math.log(2.0) - np.log1p(sq), -2.0 * coords / (1.0 + sq)[..., None], None


#: the functions a conformal factor may call, each as a -> (f(a), f'(a),
#: f''(a)); with numbers, ``pi`` and the chart coordinates they are all its
#: expression may name
CONFORMAL_FUNCTIONS = {
    "exp": lambda a: (np.exp(a),) * 3,
    "log": lambda a: (np.log(a), 1.0 / a, -1.0 / (a * a)),
    "sqrt": lambda a: (np.sqrt(a), 0.5 / np.sqrt(a), -0.25 / (a * np.sqrt(a))),
    "sin": lambda a: (np.sin(a), np.cos(a), -np.sin(a)),
    "cos": lambda a: (np.cos(a), -np.sin(a), -np.cos(a)),
    "tan": lambda a: (np.tan(a), 1.0 / np.cos(a) ** 2, 2.0 * np.tan(a) / np.cos(a) ** 2),
    "sinh": lambda a: (np.sinh(a), np.cosh(a), np.sinh(a)),
    "cosh": lambda a: (np.cosh(a), np.sinh(a), np.cosh(a)),
    "tanh": lambda a: (np.tanh(a), 1.0 / np.cosh(a) ** 2, -2.0 * np.tanh(a) / np.cosh(a) ** 2),
    "atan": lambda a: (np.arctan(a), 1.0 / (1.0 + a * a), -2.0 * a / (1.0 + a * a) ** 2),
}


def _power(p: float, a):
    """(a**p, p a**(p-1), p (p-1) a**(p-2)); a zero coefficient gives zero,
    not 0 * inf, where a is 0."""
    return tuple(c * a ** (p - k) if c else 0.0 * a for k, c in enumerate((1.0, p, p * (p - 1.0))))


def _chain(f, a):
    """The jet (value, gradient, Hessian) of f(a) from that of a; f gives
    its value and first two derivatives, as in CONFORMAL_FUNCTIONS."""
    (v, g, h), (f0, f1, f2) = a, f(a[0])
    gg = g[..., :, None] * g[..., None, :]
    return f0, f1[..., None] * g, f2[..., None, None] * gg + f1[..., None, None] * h


def _binary(op, a, b):
    """The jet of ``a op b`` from those of a and b, for an ast operator
    class ``op`` of + - * /."""
    (va, ga, ha), (vb, gb, hb) = a, b
    if op in (ast.Add, ast.Sub):
        sign = 1.0 if op is ast.Add else -1.0
        return va + sign * vb, ga + sign * gb, ha + sign * hb
    if op is ast.Div:  # q = a / b from a = q b
        va = va / vb
        ga = (ga - va[..., None] * gb) / vb[..., None]
        ha = ha - ga[..., :, None] * gb[..., None, :] - gb[..., :, None] * ga[..., None, :]
        return va, ga, (ha - va[..., None, None] * hb) / vb[..., None, None]
    cross = ga[..., :, None] * gb[..., None, :]
    hess = ha * vb[..., None, None] + cross + np.swapaxes(cross, -1, -2) + va[..., None, None] * hb
    return va * vb, ga * vb[..., None] + va[..., None] * gb, hess


def _conformal_jet(expression: str, names: list):
    """Check the conformal factor ``expression`` in the coordinates ``names``
    and return the evaluator of its jet: coords (N, n) -> (lam, grad(lam),
    hess(lam)), of shapes (N,), (N, n) and (N, n, n).

    The expression is parsed, never run, and walked once: numbers, the
    coordinates, ``pi``, ``+ - * / **``, unary signs and one-argument calls
    of CONFORMAL_FUNCTIONS are allowed, and a power needs an exponent that
    folds to a number; anything else raises ValueError.  The jet follows the
    sum, product, quotient and chain rules.  Each constant subtree folds to a
    float once, here; one that is not finite (``1/0``, ``log(0)``,
    ``sqrt(-1)``, ``9**9**9``) and a zero divisor raise ValueError too.
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse the conformal factor {expression!r}") from exc
    n, unknown = len(names), set()

    def refuse(what: str):
        raise ValueError(
            f"conformal factor {expression!r} is not a scalar expression: {what} is not "
            f"allowed (use numbers, {names}, pi, + - * / ** and {list(CONFORMAL_FUNCTIONS)})"
        )

    def not_finite(node, what: str):
        raise ValueError(
            f"conformal factor {expression!r} is not finite and real: {ast.unparse(node)!r} {what}"
        )

    def jet(part, coords):
        return part(coords) if callable(part) else (part, np.zeros(n), np.zeros((n, n)))

    def combine(node, rule, *parts):
        """The folded value of ``rule`` on constant parts, else its evaluator."""
        if not all(isinstance(part, float) for part in parts):
            return lambda coords: rule(*(jet(part, coords) for part in parts))
        value = rule(*(jet(part, None) for part in parts))[0]
        if not np.isfinite(value):
            not_finite(node, f"is {value}")
        return np.float64(value)

    def visit(node):
        """A float for a constant subtree, else the evaluator of its jet."""
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                refuse(f"the constant {node.value!r}")
            # read through its text, an integer beyond the float range is inf
            return combine(node, lambda a: a, float(str(node.value)))
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return np.float64(math.pi)
            if node.id not in names:
                unknown.add(node.id)  # refused after the walk
                return None
            i = names.index(node.id)
            return lambda coords: (coords[..., i], np.eye(n)[i], np.zeros((n, n)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            part = visit(node.operand)
            if isinstance(node.op, ast.UAdd):
                return part
            return combine(node, lambda a: tuple(-x for x in a), part)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            p = visit(node.right)
            if not isinstance(p, float):
                refuse(f"the power {ast.unparse(node)!r}, whose exponent is not a number,")
            return combine(node, partial(_chain, partial(_power, p)), visit(node.left))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = visit(node.left), visit(node.right)
            if isinstance(node.op, ast.Div) and isinstance(b, float) and b == 0.0:
                not_finite(node, "divides by zero")
            return combine(node, partial(_binary, type(node.op)), a, b)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            refuse(f"the operator {type(node.op).__name__}")
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)  # only a Name has an id
            if name not in CONFORMAL_FUNCTIONS or len(node.args) != 1 or node.keywords:
                refuse(f"the call {ast.unparse(node)!r}")
            return combine(node, partial(_chain, CONFORMAL_FUNCTIONS[name]), visit(node.args[0]))
        refuse(f"{type(node).__name__} syntax")

    with np.errstate(all="ignore"):
        body = visit(tree.body)
    if unknown:
        raise ValueError(
            f"conformal factor uses unknown symbols {sorted(unknown)}; coordinates are {names}"
        )

    def evaluate(coords):
        shape = coords.shape[:-1]
        parts = enumerate(jet(body, coords))
        return tuple(np.broadcast_to(part, shape + (n,) * k).copy() for k, part in parts)

    return evaluate


class ConformalModel(_ConformalModel):
    """User-supplied conformal factor exp(2*lam) on R^n.

    ``expression`` is a closed-form expression for lam in the coordinates
    ``x, y, z`` (dimensions <= 3) or ``x0, x1, ...``, built only from the
    arithmetic that _conformal_jet allows, which differentiates it; an
    expression with a constant part that is not finite and real (``1/0``,
    ``sqrt(-1)``) is refused.  Where the factor is not finite only at some
    points, sample_geometry reports the first non-finite sample.
    """

    name = "conformal"

    def __init__(self, dim: int, expression: str | None = None):
        super().__init__(dim)
        if not isinstance(expression, str):
            raise ValueError(f"conformal model needs an expression, got {expression!r}")
        names = ["x", "y", "z"][:dim] if dim <= 3 else [f"x{i}" for i in range(dim)]
        self._jet = _conformal_jet(expression, names)


#: chart name -> (model factory of the dimension and the settings, whether
#: the chart is two-dimensional only, the settings it takes besides ``dim``);
#: its keys are the charts a config may name
BUILTIN = {
    "euclidean": (EuclideanModel, False, ()),
    "flat-torus": (FlatTorusModel, False, ()),
    "hyperbolic": (lambda dim: HyperbolicHalfPlaneModel(), True, ()),
    "sphere": (SphereChartModel, False, ()),
    "conformal": (ConformalModel, False, ("expression",)),
}


def build_chart(name, dim: int, settings: dict) -> tuple[ManifoldModel | None, list[str]]:
    """The model of a chart of ``BUILTIN``, or None and each rule of the chart
    that the name, ``dim`` or ``settings`` break, with its config path.  A
    setting that is None is left out.  A setting's value is checked by
    building the model, so a conformal expression is refused with
    ConformalModel's reason."""
    if not (isinstance(name, str) and name in BUILTIN):
        return None, [f"manifold.name: must be one of {list(BUILTIN)}, got {name!r}"]
    factory, planar, takes = BUILTIN[name]
    settings = {key: value for key, value in settings.items() if value is not None}
    problems = [
        f"manifold.{key}: unknown field; chart {name!r} takes {', '.join(('dim', *takes))}"
        for key in sorted(set(settings) - set(takes))
    ]
    if dim < 1:
        problems.append(f"manifold.dim: manifold dimension must be >= 1, got {dim!r}")
    elif planar and dim != 2:
        problems.append(f"manifold.dim: {name} model is two-dimensional, got {dim!r}")
    if problems:
        return None, problems
    try:
        return factory(dim, **settings), []
    except ValueError as exc:
        return None, [f"manifold.{key}: {exc}" for key in takes or ("dim",)]


def make_manifold(name: str, dim: int = 2, **settings) -> ManifoldModel:
    """Construct a built-in model by name; raises ValueError naming each rule
    of ``BUILTIN`` that the arguments break (see build_chart)."""
    model, problems = build_chart(name, dim, settings)
    if problems:
        raise ValueError("; ".join(problems))
    return model


# ---------------------------------------------------------------------------
# sampling along discrete curves


@dataclass(frozen=True)
class GeometrySamples:
    """Frame geometry sampled along a discrete curve (grid index, or level
    and grid index for a series, see ``stack_samples``) of a conformal chart:
    the frame is ``scale`` times the identity, the connection the vector
    ``conn`` and the curvature the symmetric matrix ``curv`` (see
    _ConformalModel).  On a flat chart each is None: the frame is the
    identity, and the connection and the curvature vanish."""

    scale: np.ndarray | None     # (N,)
    conn: np.ndarray | None      # (N, n)
    curv: np.ndarray | None      # (N, n, n)


def stack_samples(levels: list) -> GeometrySamples:
    """The samples of levels 0..M stacked into one series (M+1, N, ...); None stays None."""
    series = {f.name: [getattr(s, f.name) for s in levels] for f in fields(GeometrySamples)}
    return GeometrySamples(**{k: None if v[0] is None else np.stack(v) for k, v in series.items()})


def sample_geometry(model: ManifoldModel, points: np.ndarray) -> GeometrySamples:
    """Evaluate frame scale, connection and curvature at every curve sample;
    a flat model (``is_flat``) samples none of them.

    Raises ChartDomainError naming the first offending grid index if any point
    left the chart or any sample there is not finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"expected points of shape (N, {model.dim}), got {pts.shape}")
    inside = model.contains(pts)
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise ChartDomainError(
            f"curve left the chart of model {model.name!r} at grid index {k}, "
            f"coordinates {pts[k]}"
        )
    if model.is_flat:
        return GeometrySamples(scale=None, conn=None, curv=None)
    # a factor that is complex or infinite somewhere gives NaN or inf there,
    # reported as a chart error instead of as numpy warnings
    with np.errstate(all="ignore"):
        scale, conn, curv = model.sample(pts)
    # one check of each whole array; the first bad sample is looked for only
    # when one fails
    parts = (scale, conn, curv)
    bad = [np.nonzero(~np.isfinite(x))[0][0] for x in parts if not np.isfinite(x).all()]
    if bad:
        k = int(min(bad))
        raise ChartDomainError(
            f"frame, connection or curvature of model {model.name!r} is not finite at "
            f"grid index {k}, coordinates {pts[k]}"
        )
    return GeometrySamples(scale=scale, conn=conn, curv=curv)


def frame_components(samples: GeometrySamples, chart: np.ndarray) -> np.ndarray:
    """Frame components of chart vectors (N, n) at the sampled points."""
    # + 0.0 turns -0.0 into +0.0: the flat charts' output bytes keep that sign
    return (chart if samples.scale is None else chart / samples.scale[:, None]) + 0.0


def dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise inner products of fields (..., n), of shape (...): the
    component products summed left to right.  For n <= 7 that equals
    ``np.sum(p * q, axis=-1)`` bit for bit (signed zeros and infinities
    included, NaN where it is NaN) without numpy's per-row reduction cost;
    for n >= 8 numpy sums pairwise, and the two differ by rounding."""
    out = 0.0 + p[..., 0] * q[..., 0]  # 0.0 + turns -0.0 into 0.0, as np.sum does
    for i in range(1, p.shape[-1]):
        out += p[..., i] * q[..., i]
    return out


def apply_chris(conn: np.ndarray | None, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise bilinear connection action Gamma(u, v) = u <c, v> - <u, v> c
    on frame components of fields (..., N, n), with the connection samples
    c of the same leading shape; zero for a flat chart's None."""
    if conn is None:
        return np.zeros(u.shape)
    return u * dot(conn, v)[..., None] - dot(u, v)[..., None] * conn


def apply_curv(curv: np.ndarray | None, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise trilinear curvature action on frame components of fields
    (..., N, n), with the curvature samples P (..., N, n, n):

        R(u, v) w = <u, Pw> v - <v, Pw> u + P(<u, w> v - <v, w> u);

    zero for a flat chart's None."""
    shape = u.shape
    if curv is None:
        return np.zeros(shape)
    n = shape[-1]
    p, u, v, w = curv.reshape(-1, n, n), u.reshape(-1, n), v.reshape(-1, n), w.reshape(-1, n)
    pw = np.einsum("pij,pj->pi", p, w)
    turn = dot(u, w)[:, None] * v - dot(v, w)[:, None] * u
    out = dot(u, pw)[:, None] * v - dot(v, pw)[:, None] * u + np.einsum("pij,pj->pi", p, turn)
    return out.reshape(shape)
