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
evaluators are analytic (sympy differentiates the conformal factor once at
construction time); nothing differentiates the metric numerically on the hot
path.  The test suite keeps an independent finite-difference oracle, and
rebuilds the dense connection and curvature tensors from the samples there.
``BUILTIN`` declares each chart's rules once (the half-plane is 2-D; only
``conformal`` takes a setting, its ``expression``), and ``build_chart``, which
both ``make_manifold`` and ``config.parse_config`` run, checks them.

``stack_samples`` stacks the samples of a window's curves into a series, and
every use of the connection and the curvature goes through the two pointwise
actions ``apply_chris`` (Gamma(u, v)) and ``apply_curv`` (R(u, v) w), which
act on a level or fold a series' levels into its points, with two-operand
contractions only.  ``frame_components`` turns chart vectors into frame
components.  On the flat charts every sample is left out (None): both
actions of None return exact zeros, and the frame is the identity.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields

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
        """Boolean mask of points lying inside the chart domain."""
        c = np.asarray(coords, dtype=float)
        return np.all(np.isfinite(c), axis=-1)

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
    """Metric exp(2*lam) * delta; subclasses provide lam, its gradient and,
    unless they declare a constant curvature, its Hessian.

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

    def _lam(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _lam_grad(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _lam_hess(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, coords):
        """(scale, c, P) at the points ``coords`` (N, n)."""
        n = self.dim
        scale = np.exp(-self._lam(coords))
        grad = self._lam_grad(coords)
        if self.constant_curvature is not None:
            # a copy, not a broadcast view: einsum rounds a view's zero strides
            # differently, and a window series must equal its stacked levels
            curv = np.tile(-0.5 * self.constant_curvature * np.eye(n), (len(coords), 1, 1))
        else:
            half_sq = 0.5 * np.einsum("pi,pi->p", grad, grad)
            s = self._lam_hess(coords) - grad[:, :, None] * grad[:, None, :]
            curv = (scale * scale)[:, None, None] * (s + half_sq[:, None, None] * np.eye(n))
        return scale, scale[:, None] * grad, curv


class HyperbolicHalfPlaneModel(_ConformalModel):
    """Upper half-plane y > 0 with metric (dx^2 + dy^2) / y^2 (curvature -1)."""

    name = "hyperbolic"
    constant_curvature = -1.0

    def __init__(self):
        super().__init__(2)

    def contains(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.all(np.isfinite(c), axis=-1) & (c[..., 1] > 0.0)

    def _lam(self, coords):
        return -np.log(coords[..., 1])

    def _lam_grad(self, coords):
        g = np.zeros_like(coords)
        g[..., 1] = -1.0 / coords[..., 1]
        return g


class SphereChartModel(_ConformalModel):
    """Round unit sphere minus a pole, in a stereographic chart (curvature +1).

    Metric 4 (1+|p|^2)^-2 delta; the chart origin is the point antipodal to
    the removed pole.
    """

    name = "sphere"
    constant_curvature = 1.0

    def _lam(self, coords):
        return math.log(2.0) - np.log1p(np.sum(coords * coords, axis=-1))

    def _lam_grad(self, coords):
        s = 1.0 + np.sum(coords * coords, axis=-1)
        return -2.0 * coords / s[..., None]


#: the functions a conformal factor may call; with numbers, ``pi`` and the
#: chart coordinates they are all its expression may name
CONFORMAL_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh", "atan")
_CONFORMAL_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)
#: largest exponent of a power, counting nested powers as the product of
#: their exponents; sympy multiplies out constant powers exactly, so this
#: bounds the size of every number it can build to 64 times the input length
CONFORMAL_MAX_POWER = 64


def _signed_number(node) -> float | None:
    """The value of an int/float literal with optional signs, else None."""
    sign = 1
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign = -sign if isinstance(node.op, ast.USub) else sign
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return sign * node.value
    return None


def _check_conformal_syntax(expression: str, names: list) -> None:
    """Raise ValueError unless ``expression`` is plain arithmetic in ``names``.

    The expression is parsed, never run: numbers, the coordinates, ``pi``,
    ``+ - * / **``, unary signs and one-argument calls of CONFORMAL_FUNCTIONS
    are allowed, every other construct is rejected.  A power needs a number
    exponent, whose size times those of the powers around it is at most
    CONFORMAL_MAX_POWER, and a base that names a coordinate or is a number
    or ``pi``.  Only an expression that passes is handed to sympy, whose
    parser evaluates its input as Python and its constant arithmetic exactly.
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse the conformal factor {expression!r}") from exc
    unknown = set()

    def refuse(what: str):
        raise ValueError(
            f"conformal factor {expression!r} is not a scalar expression: {what} is not "
            f"allowed (use numbers, {names}, pi, + - * / ** and {list(CONFORMAL_FUNCTIONS)})"
        )

    def visit(node, scale=1.0):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent, base = _signed_number(node.right), node.left
            scale *= math.inf if exponent is None else max(1.0, abs(exponent))
            named = {n.id for n in ast.walk(base) if isinstance(n, ast.Name)}
            constant = _signed_number(base) is not None or ast.unparse(base) == "pi"
            if not scale <= CONFORMAL_MAX_POWER or not (constant or named & set(names)):
                raise ValueError(
                    f"conformal factor {expression!r} has the power {ast.unparse(node)!r}: a "
                    f"power needs a number exponent, at most {CONFORMAL_MAX_POWER} in size "
                    "times the exponents around it, and a base that names a coordinate or "
                    "is a number or pi"
                )
            visit(base, scale)
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                refuse(f"the constant {node.value!r}")
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id != "pi":
                unknown.add(node.id)
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if not isinstance(node.op, _CONFORMAL_OPERATORS):
                refuse(f"the operator {type(node.op).__name__}")
            children = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,)
            for child in children:
                visit(child, scale)
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Name)
                and func.id in CONFORMAL_FUNCTIONS
                and len(node.args) == 1
                and not node.keywords
            ):
                refuse(f"the call {ast.unparse(node)!r}")
            visit(node.args[0], scale)
        else:
            refuse(f"{type(node).__name__} syntax")

    visit(tree.body)
    if unknown:
        raise ValueError(
            f"conformal factor uses unknown symbols {sorted(unknown)}; coordinates are {names}"
        )


class ConformalModel(_ConformalModel):
    """User-supplied conformal factor exp(2*lam) on R^n.

    ``expression`` is a closed-form expression for lam in the coordinates
    ``x, y, z`` (dimensions <= 3) or ``x0, x1, ...``, built only from the
    arithmetic that _check_conformal_syntax allows; it is differentiated
    symbolically once, then evaluated numerically.  An expression that, or
    whose first or second derivatives, is not finite and real everywhere
    sympy can tell (``1/0``, ``sqrt(-1)``) is rejected; where sympy cannot
    tell, sample_geometry reports the first non-finite sample.
    """

    name = "conformal"

    def __init__(self, dim: int, expression: str | None = None):
        super().__init__(dim)
        if not isinstance(expression, str):
            raise ValueError(f"conformal model needs an expression, got {expression!r}")
        import sympy

        if dim <= 3:
            names = ["x", "y", "z"][:dim]
        else:
            names = [f"x{i}" for i in range(dim)]
        _check_conformal_syntax(expression, names)
        syms = sympy.symbols(names)  # a list, also of one name
        expr = sympy.sympify(expression, locals=dict(zip(names, syms)))
        grads = [expr.diff(s) for s in syms]
        hessian = [[expr.diff(a, b) for b in syms] for a in syms]
        for part in [expr, *grads, *(h for row in hessian for h in row)]:
            for bad in (sympy.zoo, sympy.nan, sympy.oo, -sympy.oo, sympy.I):
                if part.has(bad):
                    raise ValueError(
                        f"conformal factor {expression!r} is not finite and real: it or "
                        f"one of its first two derivatives contains {bad}"
                    )
        self.expression = str(expr)
        self._lam_fn = sympy.lambdify(syms, expr, "numpy")
        self._grad_fns = [sympy.lambdify(syms, g, "numpy") for g in grads]
        self._hess_fns = [[sympy.lambdify(syms, h, "numpy") for h in row] for row in hessian]

    def _eval(self, fn, coords):
        args = [coords[..., i] for i in range(self.dim)]
        out = np.asarray(fn(*args), dtype=float)
        return np.broadcast_to(out, coords.shape[:-1]).copy()

    def _lam(self, coords):
        return self._eval(self._lam_fn, coords)

    def _lam_grad(self, coords):
        cols = [self._eval(fn, coords) for fn in self._grad_fns]
        return np.stack(cols, axis=-1)

    def _lam_hess(self, coords):
        rows = [
            np.stack([self._eval(fn, coords) for fn in row], axis=-1)
            for row in self._hess_fns
        ]
        return np.stack(rows, axis=-2)


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
    finite = np.isfinite(scale) & np.isfinite(conn).all(1) & np.isfinite(curv).all((1, 2))
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ChartDomainError(
            f"frame, connection or curvature of model {model.name!r} is not finite at "
            f"grid index {k}, coordinates {pts[k]}"
        )
    return GeometrySamples(scale=scale, conn=conn, curv=curv)


def frame_components(samples: GeometrySamples, chart: np.ndarray) -> np.ndarray:
    """Frame components of chart vectors (N, n) at the sampled points."""
    # + 0.0 turns -0.0 into +0.0: the flat charts' output bytes keep that sign
    return (chart if samples.scale is None else chart / samples.scale[:, None]) + 0.0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise inner products of rows (P, n), as a column (P, 1)."""
    return np.einsum("pi,pi->p", a, b)[:, None]


def apply_chris(conn: np.ndarray | None, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise bilinear connection action Gamma(u, v) = u <c, v> - <u, v> c
    on frame components of fields (..., N, n), with the connection samples
    c of the same leading shape; zero for a flat chart's None."""
    shape = u.shape
    if conn is None:
        return np.zeros(shape)
    n = shape[-1]
    c, u, v = conn.reshape(-1, n), u.reshape(-1, n), v.reshape(-1, n)
    return (u * _dot(c, v) - _dot(u, v) * c).reshape(shape)


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
    turn = _dot(u, w) * v - _dot(v, w) * u
    return (_dot(u, pw) * v - _dot(v, pw) * u + np.einsum("pij,pj->pi", p, turn)).reshape(shape)
