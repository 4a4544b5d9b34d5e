"""Chart geometry: orthonormal frames, connection and curvature coefficients.

Every manifold is presented on a single chart that carries a global orthonormal
frame {e_1, ..., e_n}.  Fields along curves are stored as frame components, so
downstream modules see a flat metric; position dependence enters only through
the three ingredients supplied here:

* ``h`` frame-to-chart matrix, column j holds the chart components of e_j;
* ``gamma[i, k, j]`` connection coefficients, the e_k-component of the
  covariant derivative of e_j along e_i (antisymmetric in (k, j) because the
  frame is orthonormal);
* ``r[i, j, k, l]`` curvature coefficients, the e_l-component of R(e_i, e_j) e_k
  with R(u, v) = [nabla_u, nabla_v] - nabla_[u,v].

Built-in models: Euclidean space, the flat unit torus, the hyperbolic upper
half-plane, the round unit sphere in a stereographic chart, and a generic
conformal metric exp(2*lam)*delta with ``lam`` given in closed form.  All
evaluators are analytic (sympy differentiates the conformal factor once at
construction time); nothing differentiates the metric numerically on the hot
path.  The test suite keeps an independent finite-difference oracle.

Evaluators are vectorised: coordinates of shape ``(..., n)`` yield outputs with
the same leading shape.  ``sample_geometry`` evaluates all three along a
discrete curve, ``stack_samples`` stacks the samples of a window's curves
into a series, and every use of the connection and the curvature goes
through the two pointwise actions ``apply_chris`` (Gamma(u, v)) and
``apply_curv`` (R(u, v) w), which act on a level or fold a series' levels
into its points.  Each is a chain of two-operand contractions, one vector
at a time, so no step runs numpy's generic multi-operand loop.
On the flat charts the coefficients are zero: ``sample_geometry`` leaves
them out (None), and both actions of None return exact zeros.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ChartDomainError


class ManifoldModel:
    """Base class for single-chart models with a global orthonormal frame.

    Subclasses implement the batched evaluators ``frame``, ``metric``,
    ``christoffel`` and ``curvature`` for coordinate arrays of shape
    ``(..., dim)``, plus the chart predicate ``contains``.
    """

    name = "abstract"
    is_flat = False

    def __init__(self, dim: int):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"manifold dimension must be >= 1, got {dim}")

    # -- chart bookkeeping -------------------------------------------------

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying inside the chart domain."""
        c = np.asarray(coords, dtype=float)
        return np.all(np.isfinite(c), axis=-1)

    def displacement(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Chart difference end - start (overridden where the chart wraps)."""
        return np.asarray(end, dtype=float) - np.asarray(start, dtype=float)

    # -- analytic evaluators ----------------------------------------------

    def frame(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric(self, coords: np.ndarray) -> np.ndarray:
        """Chart components of the metric (used by tests to check h^T G h = I)."""
        raise NotImplementedError

    def christoffel(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def curvature(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class EuclideanModel(ManifoldModel):
    """Flat R^n with the identity frame; all coefficients vanish."""

    name = "euclidean"
    is_flat = True

    def frame(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.broadcast_to(np.eye(self.dim), c.shape[:-1] + (self.dim, self.dim)).copy()

    metric = frame

    def christoffel(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.zeros(c.shape[:-1] + (self.dim,) * 3)

    def curvature(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.zeros(c.shape[:-1] + (self.dim,) * 4)


class FlatTorusModel(EuclideanModel):
    """Unit torus R^n / Z^n: Euclidean geometry with wrap-around differences."""

    name = "flat-torus"

    def displacement(self, start, end):
        d = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        return (d + 0.5) % 1.0 - 0.5


class _ConformalModel(ManifoldModel):
    """Metric exp(2*lam) * delta; subclasses provide lam and its derivatives.

    The orthonormal frame is e_j = exp(-lam) * d/dx^j.  Closed forms:

        gamma[i, k, j] = exp(-lam) * (delta_ik lam_j - delta_ij lam_k)
        r[i, j, k, l]  = exp(-2 lam) * (d_jl S_ik - d_il S_jk + d_ik S_jl
                          - d_jk S_il - (d_il d_jk - d_jl d_ik) |grad lam|^2)

    with S = hess(lam) - grad(lam) grad(lam)^T.  When the model declares a
    constant sectional curvature K the simpler tensor
    K * (d_jk d_il - d_ik d_jl) is used directly; the generic formula reduces
    to it (checked in the tests).
    """

    #: sectional curvature when constant, else None
    constant_curvature: float | None = None

    def _lam(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _lam_grad(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _lam_hess(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def frame(self, coords):
        c = np.asarray(coords, dtype=float)
        scale = np.exp(-self._lam(c))
        return scale[..., None, None] * np.eye(self.dim)

    def metric(self, coords):
        c = np.asarray(coords, dtype=float)
        scale = np.exp(2.0 * self._lam(c))
        return scale[..., None, None] * np.eye(self.dim)

    def christoffel(self, coords):
        c = np.asarray(coords, dtype=float)
        n = self.dim
        grad = self._lam_grad(c)
        g = np.zeros(c.shape[:-1] + (n, n, n))
        for i in range(n):
            g[..., i, i, :] += grad
            g[..., i, :, i] -= grad
        return np.exp(-self._lam(c))[..., None, None, None] * g

    def curvature(self, coords):
        c = np.asarray(coords, dtype=float)
        n = self.dim
        eye = np.eye(n)
        if self.constant_curvature is not None:
            base = self.constant_curvature * (
                np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
            )
            return np.broadcast_to(base, c.shape[:-1] + (n,) * 4).copy()
        grad = self._lam_grad(c)
        s = self._lam_hess(c) - grad[..., :, None] * grad[..., None, :]
        q = np.sum(grad * grad, axis=-1)
        r = (
            np.einsum("jl,...ik->...ijkl", eye, s)
            - np.einsum("il,...jk->...ijkl", eye, s)
            + np.einsum("ik,...jl->...ijkl", eye, s)
            - np.einsum("jk,...il->...ijkl", eye, s)
        )
        skew = np.einsum("il,jk->ijkl", eye, eye) - np.einsum("jl,ik->ijkl", eye, eye)
        r = r - skew * q[..., None, None, None, None]
        return np.exp(-2.0 * self._lam(c))[..., None, None, None, None] * r


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

    def _lam_hess(self, coords):
        c = coords
        h = np.zeros(c.shape[:-1] + (2, 2))
        h[..., 1, 1] = 1.0 / c[..., 1] ** 2
        return h


class SphereChartModel(_ConformalModel):
    """Round unit sphere minus a pole, in a stereographic chart (curvature +1).

    Metric 4 (1+|p|^2)^-2 delta; the chart origin is the point antipodal to
    the removed pole.
    """

    name = "sphere"
    constant_curvature = 1.0

    def __init__(self, dim: int = 2):
        super().__init__(dim)

    def _lam(self, coords):
        return math.log(2.0) - np.log1p(np.sum(coords * coords, axis=-1))

    def _lam_grad(self, coords):
        s = 1.0 + np.sum(coords * coords, axis=-1)
        return -2.0 * coords / s[..., None]

    def _lam_hess(self, coords):
        c = coords
        n = self.dim
        s = 1.0 + np.sum(c * c, axis=-1)
        outer = c[..., :, None] * c[..., None, :]
        return (-2.0 / s)[..., None, None] * np.eye(n) + (4.0 / s**2)[..., None, None] * outer


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

    def __init__(self, dim: int, expression: str):
        super().__init__(dim)
        import sympy

        if dim <= 3:
            names = ["x", "y", "z"][:dim]
        else:
            names = [f"x{i}" for i in range(dim)]
        _check_conformal_syntax(expression, names)
        syms = sympy.symbols(names)
        if dim == 1:
            syms = [syms]
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


_BUILTIN = {
    "euclidean": lambda dim, params: EuclideanModel(dim),
    "flat-torus": lambda dim, params: FlatTorusModel(dim),
    "hyperbolic": lambda dim, params: HyperbolicHalfPlaneModel(),
    "sphere": lambda dim, params: SphereChartModel(dim),
    "conformal": lambda dim, params: ConformalModel(dim, params["expression"]),
}


def make_manifold(name: str, dim: int = 2, **params) -> ManifoldModel:
    """Construct a built-in model by name."""
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown manifold {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None
    return factory(dim, params)


# ---------------------------------------------------------------------------
# sampling along discrete curves


@dataclass(frozen=True)
class GeometrySamples:
    """Frame geometry sampled along a discrete curve (grid index, or level
    and grid index for a series, see ``stack_samples``).  On a flat chart
    ``chris`` and ``curv`` are None: the connection and the curvature vanish,
    and the identity frame is its own inverse."""

    frame: np.ndarray            # (N, n, n)
    frame_inv: np.ndarray        # (N, n, n)
    chris: np.ndarray | None     # (N, n, n, n)
    curv: np.ndarray | None      # (N, n, n, n, n)


def stack_samples(levels: list) -> GeometrySamples:
    """The samples of levels 0..M stacked into one series (M+1, N, ...); None stays None."""
    series = {f.name: [getattr(s, f.name) for s in levels] for f in fields(GeometrySamples)}
    return GeometrySamples(**{k: None if v[0] is None else np.stack(v) for k, v in series.items()})


def sample_geometry(model: ManifoldModel, points: np.ndarray) -> GeometrySamples:
    """Evaluate frame, connection and curvature at every curve sample; a flat
    model (``is_flat``) samples only its identity frame.

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
        h = model.frame(pts)
        return GeometrySamples(frame=h, frame_inv=h, chris=None, curv=None)
    # a factor that is complex or infinite somewhere gives NaN or inf there,
    # reported as a chart error instead of as numpy warnings
    with np.errstate(all="ignore"):
        h, chris, curv = model.frame(pts), model.christoffel(pts), model.curvature(pts)
    finite = np.isfinite(np.hstack([c.reshape(len(pts), -1) for c in (h, chris, curv)])).all(1)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ChartDomainError(
            f"frame, connection or curvature of model {model.name!r} is not finite at "
            f"grid index {k}, coordinates {pts[k]}"
        )
    return GeometrySamples(frame=h, frame_inv=np.linalg.inv(h), chris=chris, curv=curv)


def apply_chris(chris: np.ndarray | None, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise bilinear connection action Gamma(u, v) on frame components
    of fields (..., N, n); zero for a flat chart's None connection."""
    shape = u.shape
    if chris is None:
        return np.zeros(shape)
    if u.ndim > 2:  # a window series: fold its level axis into the point axis
        n = shape[-1]
        chris, u, v = chris.reshape(-1, n, n, n), u.reshape(-1, n), v.reshape(-1, n)
    return np.einsum("pik,pi->pk", np.einsum("pikj,pj->pik", chris, v), u).reshape(shape)


def apply_curv(curv: np.ndarray | None, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise trilinear curvature action R(u, v) w on frame components of
    fields (..., N, n); zero for a flat chart's None curvature."""
    shape = u.shape
    if curv is None:
        return np.zeros(shape)
    if u.ndim > 2:  # a window series: fold its level axis into the point axis
        n = shape[-1]
        curv, u, v, w = curv.reshape(-1, n, n, n, n), u.reshape(-1, n), v.reshape(-1, n), w.reshape(-1, n)
    r_u = np.einsum("pijkl,pi->pjkl", curv, u)
    return np.einsum("pkl,pk->pl", np.einsum("pjkl,pj->pkl", r_u, v), w).reshape(shape)
