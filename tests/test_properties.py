"""Property tests on generated inputs (hypothesis).

* The closed-form actions Gamma(u, v) and R(u, v) w agree with the single
  multi-operand einsum of the dense tensors that ``geometry_oracle``
  rebuilds, on random connection and curvature samples and on the geometry
  sampled along random closed curves in every chart; on the flat charts
  both are exactly +0.0, with the samples left out (None) as with the
  explicit zeros of the dense tensors.
* On random points of every curved chart in two and three dimensions the
  actions keep the identities of a metric connection and its curvature:
  <Gamma(u, v), w> = -<v, Gamma(u, w)>, R(u, v) w = -R(v, u) w,
  <R(u, v) w, z> = -<R(u, v) z, w> and the first Bianchi identity; flat
  charts sample nothing.
* On random conformal factors of the expression grammar, smooth by
  construction, the gradient and Hessian of the factor's jet agree with
  central differences of its value.
* Along random closed curves in every chart: cov_dx sums by parts, the
  unfolded production blocks of the elliptic operator are symmetric and
  equal the dense oracle, the production solve leaves a residual at rounding
  level, the bentness minimiser solves its optimality system and gives the
  bentness value (exactly on a curved chart; on a flat one, whose bentness
  is a Fourier sum, within ``FOURIER_TOL``, on random unit fields and at
  N = 180 too), and the production solve (block cyclic reduction on a
  curved chart, the strand reduction on a flat one) agrees with a dense
  solve of the oracle matrix.  On a flat chart the unfolded strand system
  equals the dense oracle, and the strand solve agrees with the block route
  within the same residual bound.  A tension solve on a window series of such curves
  gives each level exactly the bytes of that level's own solve, and its
  drift and residual gates refuse the series as they refuse its first
  failing level; the series carries level 0's fresh bentness gate.
* Every series-shaped helper gives on a random window series (M+1, N, n)
  exactly (==) the stack of its calls on the levels.
* On a moving wire in every chart (a bent loop of length about one, a
  tangent rate off it, and nonzero theta, velocity, velocity rate and
  connection rate), the closed-form leapfrog step equals the fixed-point
  sweep of its equation run to convergence (``wave_oracle``) within 1e-15,
  and one sweep from it moves it by at most 1e-15.
* ``dot`` equals ``np.sum(p * q, axis=-1)`` bit for bit (signed zeros too) on
  levels and window series of n = 1 ... 7 components with signed zeros,
  infinities and NaN among the values, and so do ``perp``, ``row_norms``
  and ``constraint_drift`` their ``np.sum`` forms.
* ``write_snapshot`` writes any finite level in orjson's indented layout,
  from which ``json.loads`` reads every double back bit for bit: signed
  zeros, subnormals, the largest double, raw 64-bit patterns, non-contiguous
  fields and both neighbours of every magnitude where a float's spelling
  changes form included.  NaN or an infinity in any field or in the time
  aborts before a byte is written, naming the first grid index that holds
  one, whichever component holds it.
* Every level a run records passes the run's one gate: on drawn window
  lengths, bentness cadences and tolerances, a window level below the
  bentness floor, and a march level past the constraint tolerance, the last
  level included, abort the run with exit 3 after the levels before it,
  which metadata.json reports as the last good.  A window level doctored
  past it stops the window's rows at that level.
* On a moving loop in every chart, every level of a converged Picard window
  has unit tangent rows (defect at most 1e-15).
* A failing hypothesis test fails alone under the suite's warning filters:
  the tests after it still run.
* On a drawn chart, dimension and initial section (curves, velocities,
  parameters of every kind, valid or not, and stray keys) ``parse_config``
  accepts the document exactly when ``make_manifold`` and
  ``initial.generate`` build it without a ValueError.
* Perturbed circles of modes 1-4 and small amplitude and hyperbolic circles,
  with random centres, have samples equally spaced in arc length as
  ``scipy.integrate.quad`` measures it, at N = 8 ... 4096, and length one;
  placing them evaluates the speed at no more than a stated number of points
  per sample, cusps and near-cusps included; ``perturbed_circle`` refuses a
  cusp before placing.
"""

import contextlib
import dataclasses
import functools
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from scipy.integrate import quad
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elliptic_oracle import (
    FOURIER_TOL,
    block_operator,
    block_solve,
    block_tridiagonal_to_dense,
    dense_operator,
    reduction_bentness,
    strand_system_to_dense,
)
from elwire import initial
from elwire.cli import main, write_snapshot
from elwire.config import parse_config
from elwire.dynamics import (
    Level,
    _gate,
    _solve_level,
    frame_tangent,
    picard_coupled,
    prepare_initial,
    window_rows,
)
from elwire.elliptic import (
    _fold_order,
    _solve_system,
    _strand_operator,
    bentness,
    solve_flux_form,
)
from elwire.errors import (
    ConfigError,
    ConstraintDriftError,
    DegenerateCurveError,
    NonContractionError,
    NumericalAbort,
    NumericalSolveError,
)
from elwire.fields import (
    Grid,
    circ_diff,
    compact_second,
    constraint_drift,
    cov_dx,
    cov_dxx,
    l2_inner,
    l2_norm,
    m0,
    perp,
    row_norms,
    sided_grad_sq,
)
from elwire.geometry import (
    BUILTIN,
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    GeometrySamples,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    dot,
    make_manifold,
    sample_geometry,
    stack_samples,
)
from elwire.initial import CURVES, VELOCITIES
from elwire.wave import leapfrog_step
from geometry_oracle import (
    apply_chris_einsum,
    apply_curv_einsum,
    chris_scale,
    curv_scale,
    dense_chris,
    dense_curv,
)
from run_config import SOLVE_DEFAULTS, run_config
from wave_oracle import leapfrog_sweep, leapfrog_sweeps

#: relative to the sum of the absolute products, the scale of any rounding
REL_TOL = 1e-14
EXACT_TOL = 1e-12
#: elliptic solve defect relative to m0(u)/dx^2 + m0(f)/dx + m0(h); at most
#: 3e-16 was seen over 1000 random curves
RESIDUAL_TOL = 1e-13

#: chart name -> (model factory, centre of the random curves)
CHARTS = {
    "euclidean": (lambda: EuclideanModel(2), (0.0, 0.0)),
    "flat-torus": (lambda: FlatTorusModel(3), (0.5, 0.5, 0.5)),
    "hyperbolic": (HyperbolicHalfPlaneModel, (0.0, 1.2)),
    "sphere": (lambda: SphereChartModel(3), (0.1, -0.2, 0.3)),
    "conformal": (lambda: ConformalModel(2, "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"), (0.1, 0.2)),
}

seeds = st.integers(0, 2**32 - 1)


@functools.cache
def chart_model(name):
    return CHARTS[name][0]()


def fourier_field(rng, base, modes, size):
    """``base`` (N, dim) plus a random field of the Fourier modes 1..``modes``
    on the grid, each coefficient uniform in [-size, size]."""
    n_points, dim = base.shape
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    coeffs = rng.uniform(-size, size, (modes, 2, dim))
    out = base.copy()
    for m in range(modes):
        out += np.cos((m + 1) * t)[:, None] * coeffs[m, 0]
        out += np.sin((m + 1) * t)[:, None] * coeffs[m, 1]
    return out


def bent_loop(chart, grid, rng):
    """A loop of length about one about the centre of CHARTS[chart], bent by
    a random field of modes 1-2."""
    t = 2.0 * np.pi * grid.points()
    loop = np.zeros((grid.n_points, chart_model(chart).dim))
    loop[:, :2] = np.column_stack([np.cos(t), np.sin(t)]) / (2.0 * np.pi)
    return fourier_field(rng, loop + CHARTS[chart][1], 2, 0.01)


def closed_curve(center, n_points, rng):
    """Samples of a random three-mode Fourier loop about ``center``.

    Its chart distance from the centre stays below 0.9, inside every chart
    of CHARTS.
    """
    return fourier_field(rng, np.array(center, dtype=float) + np.zeros((n_points, 1)), 3, 0.15)


def assert_actions_match_oracle(samples, u, v, w):
    chris, curv = dense_chris(samples, u.shape), dense_curv(samples, u.shape)
    gap = np.abs(apply_chris(samples.conn, u, v) - apply_chris_einsum(chris, u, v))
    if samples.conn is not None:
        assert np.all(gap <= REL_TOL * chris_scale(samples.conn, u, v))
    gap = np.abs(apply_curv(samples.curv, u, v, w) - apply_curv_einsum(curv, u, v, w))
    if samples.curv is not None:
        assert np.all(gap <= REL_TOL * curv_scale(samples.curv, u, v, w))


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    n_points=st.integers(1, 64),
    exponent=st.integers(-8, 8),
    seed=seeds,
)
def test_actions_match_einsum_oracle_on_random_tensors(dim, n_points, exponent, seed):
    rng = np.random.default_rng(seed)
    conn = 10.0**exponent * rng.standard_normal((n_points, dim))
    curv = 10.0**exponent * rng.standard_normal((n_points, dim, dim))
    samples = GeometrySamples(scale=None, conn=conn, curv=curv + curv.swapaxes(1, 2))
    u, v, w = rng.standard_normal((3, n_points, dim))
    assert_actions_match_oracle(samples, u, v, w)


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_actions_match_einsum_oracle_on_sampled_geometry(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    u, v, w = rng.standard_normal((3, n_points, model.dim))
    assert_actions_match_oracle(samples, u, v, w)
    if model.is_flat:
        # the left-out samples act as the contraction of zero tensors does
        zeros = np.zeros((n_points, model.dim)).tobytes()
        assert apply_chris(samples.conn, u, v).tobytes() == zeros
        assert apply_curv(samples.curv, u, v, w).tobytes() == zeros
        assert apply_chris_einsum(dense_chris(samples, u.shape), u, v).tobytes() == zeros
        assert apply_curv_einsum(dense_curv(samples, u.shape), u, v, w).tobytes() == zeros


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_sampled_geometry_keeps_antisymmetries(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    if model.is_flat:
        assert samples == GeometrySamples(scale=None, conn=None, curv=None)
        return
    assert np.max(np.abs(samples.curv - samples.curv.swapaxes(-2, -1))) < EXACT_TOL
    chris = dense_chris(samples, (n_points, model.dim))
    curv = dense_curv(samples, (n_points, model.dim))
    assert np.max(np.abs(chris + np.swapaxes(chris, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -2, -1))) < EXACT_TOL


#: chart name -> (model of each dimension, random points in its chart)
CURVED_CHARTS = {
    "hyperbolic": (
        {2: HyperbolicHalfPlaneModel()},
        lambda rng, k, n: np.column_stack([rng.uniform(-2.0, 2.0, k), rng.uniform(0.2, 3.0, k)]),
    ),
    "sphere": (
        {n: SphereChartModel(n) for n in (2, 3)},
        lambda rng, k, n: rng.uniform(-2.0, 2.0, (k, n)),
    ),
    "conformal": (
        {
            2: ConformalModel(2, "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"),
            3: ConformalModel(3, "0.2*x*z - 0.3*y**2 + 0.1*cos(x + z)"),
        },
        lambda rng, k, n: rng.uniform(-1.5, 1.5, (k, n)),
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    chart=st.sampled_from(sorted(CURVED_CHARTS)),
    dim=st.sampled_from([2, 3]),
    n_points=st.integers(1, 32),
    seed=seeds,
)
def test_sampled_actions_keep_the_connection_and_curvature_identities(chart, dim, n_points, seed):
    models, draw = CURVED_CHARTS[chart]
    model = models.get(dim, models[2])
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, draw(rng, n_points, model.dim))
    c, curv = samples.conn, samples.curv
    u, v, w, z = rng.standard_normal((4, n_points, model.dim))

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    # every term is bounded by |u||v||w||z| times the size of c, or of P
    size = np.sqrt(dot(c, c)) + np.sqrt(np.sum(curv * curv, axis=(1, 2)))
    size = size * np.prod([np.sqrt(dot(a, a)) for a in (u, v, w, z)], axis=0)
    gamma_uv, gamma_uw = apply_chris(c, u, v), apply_chris(c, u, w)
    assert np.all(np.abs(dot(gamma_uv, w) + dot(v, gamma_uw)) <= REL_TOL * size)
    r_uvw = apply_curv(curv, u, v, w)
    assert np.all(np.abs(r_uvw + apply_curv(curv, v, u, w)).max(-1) <= REL_TOL * size)
    assert np.all(np.abs(dot(r_uvw, z) + dot(apply_curv(curv, u, v, z), w)) <= REL_TOL * size)
    bianchi = r_uvw + apply_curv(curv, v, w, u) + apply_curv(curv, w, u, v)
    assert np.all(np.abs(bianchi).max(-1) <= REL_TOL * size)


def conformal_factors(names):
    """Conformal factors of the grammar in the coordinates ``names`` that are
    smooth on all of R^n: each quotient, log, sqrt and non-integer power
    acts on 1 + a square, and tan on a tanh."""
    number = st.floats(-2.0, 2.0).map(lambda v: f"({v!r})")
    leaves = st.one_of(st.sampled_from([*names, "pi"]), number)

    def grow(parts):
        positive = parts.map(lambda a: f"(1 + ({a})**2)")
        entire = st.sampled_from(["exp", "sin", "cos", "sinh", "cosh", "tanh", "atan"])
        return st.one_of(
            st.tuples(parts, st.sampled_from("+-*"), parts).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(parts, positive).map(lambda t: f"({t[0]} / {t[1]})"),
            st.tuples(entire, parts).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["log", "sqrt"]), positive).map(lambda t: f"{t[0]}({t[1]})"),
            parts.map(lambda a: f"tan(tanh({a}))"),
            parts.map(lambda a: f"(-{a})"),
            st.tuples(positive, number).map(lambda t: f"{t[0]}**{t[1]}"),
            st.tuples(parts, st.integers(0, 4)).map(lambda t: f"({t[0]})**{t[1]}"),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), seed=seeds)
def test_conformal_jet_matches_central_differences_of_its_factor(data, dim, seed):
    names = ["x", "y", "z"][:dim]
    expression = data.draw(conformal_factors(names), label="expression")
    lam = make_manifold("conformal", dim, expression=expression)._jet
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, dim))
    value, grad, hess = lam(points)
    # steps for the first and second differences; 3e-7 relative to the
    # scale below is the largest hessian gap seen over 3000 factors
    h1, h2 = 1e-5, 1e-4
    steps = np.eye(dim)
    fd_grad = np.stack(
        [(lam(points + h1 * e)[0] - lam(points - h1 * e)[0]) / (2.0 * h1) for e in steps], -1
    )
    fd_hess = np.stack(
        [
            np.stack(
                [
                    (
                        lam(points + h2 * (a + b))[0]
                        - lam(points + h2 * (a - b))[0]
                        - lam(points - h2 * (a - b))[0]
                        + lam(points - h2 * (a + b))[0]
                    )
                    / (4.0 * h2 * h2)
                    for b in steps
                ],
                -1,
            )
            for a in steps
        ],
        -2,
    )
    scale = 1.0 + np.abs(value).max() + np.abs(grad).max() + np.abs(hess).max()
    assert np.abs(fd_grad - grad).max() <= 1e-8 * scale
    assert np.abs(fd_hess - hess).max() <= 1e-5 * scale


def curve_setup(chart, n_points, seed):
    """Grid, samples and unit frame tangent of a random closed curve."""
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    grid = Grid(n_points)
    pts = closed_curve(CHARTS[chart][1], n_points, rng)
    samples = sample_geometry(model, pts)
    tangent = frame_tangent(pts, model, samples, grid)
    return grid, samples, tangent / row_norms(tangent)[:, None], rng


curves = {
    "chart": st.sampled_from(sorted(CHARTS)),
    "n_points": st.integers(8, 64),
    "seed": seeds,
}


@settings(max_examples=60, deadline=None)
@given(**curves)
def test_cov_dx_sums_by_parts(chart, n_points, seed):
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    p, q = rng.standard_normal((2,) + xi.shape)
    dp, dq = cov_dx(p, xi, samples, grid.dx), cov_dx(q, xi, samples, grid.dx)
    pairing = l2_inner(dp, q, grid.dx) + l2_inner(p, dq, grid.dx)
    scale = l2_norm(dp, grid.dx) * l2_norm(q, grid.dx) + l2_norm(p, grid.dx) * l2_norm(dq, grid.dx)
    assert abs(pairing) <= REL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["perp", "identity"]), **curves)
def test_production_band_is_symmetric(kind, chart, n_points, seed):
    # a flat chart's band is the reference of its strand route
    grid, samples, xi, _ = curve_setup(chart, n_points, seed)
    system = block_operator(xi, samples, grid, kind)
    matrix = block_tridiagonal_to_dense(system, _fold_order(len(xi)), xi.shape[1])
    scale = REL_TOL * np.max(np.abs(matrix))
    assert np.max(np.abs(matrix - matrix.T)) <= scale
    # the blocks below the diagonal are stored as transposes; the oracle
    # multiplies out the full matrix
    assert np.max(np.abs(matrix - dense_operator(xi, samples, grid, kind))) <= scale


@settings(max_examples=40, deadline=None)
@given(**curves)
def test_banded_solve_residual(chart, n_points, seed):
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    f, h = rng.standard_normal((2,) + xi.shape)
    u, flux = solve_flux_form(f, h, xi, samples, grid, **SOLVE_DEFAULTS)
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    scale = m0(u) / grid.dx**2 + m0(f) / grid.dx + m0(h)
    assert m0(defect) <= RESIDUAL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(**curves)
def test_bentness_is_the_penalty_at_its_minimiser(chart, n_points, seed):
    # the minimiser phi, solved as bentness solves it, meets the optimality
    # system -DD phi + phi = xi, and bentness is the root of the penalty there
    grid, samples, xi, _ = curve_setup(chart, n_points, seed)
    phi = _solve_system(xi, samples, grid, "identity", xi)
    dphi = cov_dx(phi, xi, samples, grid.dx)
    assert m0(-cov_dx(dphi, xi, samples, grid.dx) + phi - xi) < 1e-8
    penalty = l2_norm(phi - xi, grid.dx) ** 2 + l2_norm(dphi, grid.dx) ** 2
    if samples.conn is None:  # a flat chart sums the penalty's Fourier modes
        assert abs(bentness(xi, samples, grid) - np.sqrt(penalty)) <= FOURIER_TOL
    else:
        assert bentness(xi, samples, grid) == np.sqrt(penalty)


@settings(max_examples=60, deadline=None)
@example(chart="euclidean", n_points=8, seed=0, random=True)
@example(chart="flat-torus", n_points=33, seed=1, random=False)
@example(chart="euclidean", n_points=180, seed=2, random=False)
@example(chart="flat-torus", n_points=180, seed=3, random=True)
@given(
    chart=st.sampled_from(["euclidean", "flat-torus"]),
    n_points=st.one_of(st.integers(8, 64), st.just(180)),
    seed=seeds,
    random=st.booleans(),
)
def test_flat_bentness_is_the_reductions_penalty(chart, n_points, seed, random):
    # the Fourier sum of a flat chart against the block reduction's penalty,
    # on a curve's unit tangent or on a random unit field
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    if random:
        xi = rng.standard_normal(xi.shape)
        xi /= row_norms(xi)[:, None]
    assert abs(bentness(xi, samples, grid) - reduction_bentness(xi, samples, grid)) <= FOURIER_TOL


def operator_gap(matrix, u, v, rhs, dx):
    """Sup norm of the operator applied to the gap u - v of two solves, and
    the residual bound of a backward stable solve: RESIDUAL_TOL times the
    operator's scale 1/dx^2 on the solution plus the data."""
    gap = (matrix @ (u - v).reshape(-1)).reshape(u.shape)
    return m0(gap), RESIDUAL_TOL * (m0(v) / dx**2 + m0(rhs))


# a flat chart's strands meet their first odd point count at each depth:
# N = 97 is one strand of 97 points, N = 180 two of 90 -> 45, N = 264 two of
# 132 -> 66 -> 33, and the 3-D flat torus at N = 90 two of 45; N = 254 gives
# two strands of 127, odd after every halving (127, 63, 31, 15, 7, 3)
@settings(max_examples=60, deadline=None)
@example(kind="perp", chart="euclidean", n_points=97, seed=0)
@example(kind="identity", chart="euclidean", n_points=254, seed=4)
@example(kind="identity", chart="euclidean", n_points=180, seed=1)
@example(kind="perp", chart="euclidean", n_points=264, seed=2)
@example(kind="perp", chart="flat-torus", n_points=90, seed=3)
@given(kind=st.sampled_from(["perp", "identity"]), **curves)
def test_cyclic_reduction_matches_dense_solve(kind, chart, n_points, seed):
    # N = 8 ... 64 gives 2 ... 16 block rows: odd and even row counts at
    # every level, a padded last block row when N % 4 != 0, and zero to two
    # reduction levels before the dense solve
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    rhs = rng.standard_normal(xi.shape)
    matrix = dense_operator(xi, samples, grid, kind)
    dense = np.linalg.solve(matrix, rhs.reshape(-1)).reshape(xi.shape)
    gap, bound = operator_gap(matrix, _solve_system(xi, samples, grid, kind, rhs), dense, rhs, grid.dx)
    assert gap <= bound


@settings(max_examples=40, deadline=None)
@example(kind="perp", chart="euclidean", n_points=264, seed=0)
@example(kind="identity", chart="flat-torus", n_points=97, seed=1)
@given(
    kind=st.sampled_from(["perp", "identity"]),
    chart=st.sampled_from(["euclidean", "flat-torus"]),
    n_points=st.one_of(st.integers(8, 64), st.just(180)),
    seed=seeds,
)
def test_strand_solve_matches_the_block_route(kind, chart, n_points, seed):
    # a flat chart's strand system is the dense oracle, and its solve agrees
    # with the block route of every curved chart within the residual bound
    # of a backward stable solve; on a curved chart production is that route
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    matrix = dense_operator(xi, samples, grid, kind)
    strands = strand_system_to_dense(_strand_operator(xi, grid.dx, kind), n_points)
    assert np.array_equal(strands, strands.T)
    assert np.max(np.abs(strands - matrix)) <= REL_TOL * np.max(np.abs(matrix))
    rhs = rng.standard_normal(xi.shape)
    block = block_solve(xi, samples, grid, kind, rhs)
    gap, bound = operator_gap(matrix, _solve_system(xi, samples, grid, kind, rhs), block, rhs, grid.dx)
    assert gap <= bound
    grid, samples, xi, rng = curve_setup("sphere", n_points, seed)
    rhs = rng.standard_normal(xi.shape)
    block = block_solve(xi, samples, grid, kind, rhs)
    assert block.tobytes() == _solve_system(xi, samples, grid, kind, rhs).tobytes()


def sup_defect(u, flux, h, xi, samples, grid):
    """Sup norm over each level's grid of the defect -D flux + perp(u) - h,
    formed as the tension solve forms the residual it gates."""
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    return np.max(row_norms(defect), axis=-1)


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 4), **curves)
# 3-D blocks of 12 x 12 and one reduction stage: the gathered series holds
# its level axis innermost, so the reduction must not read it strided
@example(levels=2, chart="sphere", n_points=29, seed=0)
# flat strands: two of 90 -> 45 points, and one of 97
@example(levels=3, chart="euclidean", n_points=180, seed=0)
@example(levels=2, chart="flat-torus", n_points=97, seed=1)
def test_series_solve_equals_its_level_solves(levels, chart, n_points, seed):
    setups = [curve_setup(chart, n_points, seed + m) for m in range(levels)]
    grid, rng = setups[0][0], setups[0][3]
    per_level = [samples for _, samples, _, _ in setups]
    xi = np.stack([tangent for _, _, tangent, _ in setups])
    series_samples = stack_samples(per_level)
    f, h = rng.standard_normal((2,) + xi.shape)
    tol = SOLVE_DEFAULTS["tol"]
    u, flux = solve_flux_form(f, h, xi, series_samples, grid, tol=tol)
    residual = sup_defect(u, flux, h, xi, series_samples, grid)
    assert residual.shape == (levels,)
    # the gathered series system is each level's own system, stacked
    for kind in ("perp", "identity"):
        system = block_operator(xi, series_samples, grid, kind)
        assert system.shape[0] == levels
        for m in range(levels):
            alone = block_operator(xi[m], per_level[m], grid, kind)
            assert system[m].shape == alone.shape and system[m].tobytes() == alone.tobytes()
    for m in range(levels):
        u_m, flux_m = solve_flux_form(f[m], h[m], xi[m], per_level[m], grid, tol=tol)
        assert u[m].tobytes() == u_m.tobytes()
        assert flux[m].tobytes() == flux_m.tobytes()
        alone = sup_defect(u_m, flux_m, h[m], xi[m], per_level[m], grid)
        assert residual[m].tobytes() == alone.tobytes()

    # level 0's gate, solved fresh by _gate, is carried by the whole series,
    # and by a later level short of bentness_every, as the same float object
    cfg = run_config(grid, levels, b_floor=0.0)
    zero = np.zeros_like(xi)
    start = Level.derive(zero[0], xi[0], zero[0], zero[0], per_level[0], grid.dx)
    gate = _gate(start, grid, cfg, 0)
    assert gate == bentness(xi[0], per_level[0], grid)
    assert levels < cfg.bentness_every and _gate(start, grid, cfg, levels, gate) is gate
    window = Level.derive(zero, xi, zero, zero, series_samples, grid.dx)
    assert _solve_level(window, grid, cfg, gate)[0].bentness is gate

    # each gate refuses the series at its first failing level, with the
    # message a lone solve of that level gives, followed by the level
    last = levels - 1
    drifted = xi.copy()
    drifted[last] *= 1.2
    defect = float(np.max(np.abs(np.sum(drifted[last] ** 2, axis=-1) - 1.0)))
    message = f"unit-tangent defect {defect!r} exceeds 0.1; refusing tension solve"
    with pytest.raises(ConstraintDriftError) as single:
        solve_flux_form(f[last], h[last], drifted[last], per_level[last], grid, tol=tol)
    assert str(single.value) == message
    with pytest.raises(ConstraintDriftError) as whole:
        solve_flux_form(f, h, drifted, series_samples, grid, tol=tol)
    assert str(whole.value) == message + f" at window level {last}"

    scale = max(1.0, m0(h[0]) + m0(f[0]))
    message = f"tension solve residual {float(residual[0])!r} exceeds tolerance 1e-30 * {scale!r}"
    with pytest.raises(NumericalSolveError) as single:
        solve_flux_form(f[0], h[0], xi[0], per_level[0], grid, tol=1e-30)
    assert str(single.value) == message
    with pytest.raises(NumericalSolveError) as whole:
        solve_flux_form(f, h, xi, series_samples, grid, tol=1e-30)
    assert str(whole.value) == message + " at window level 0"


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 5), **curves)
def test_series_helpers_equal_their_stacked_levels(levels, chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    dx = Grid(n_points).dx
    per_level = [
        sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
        for _ in range(levels)
    ]
    series = stack_samples(per_level)
    p, xi = rng.standard_normal((2, levels, n_points, model.dim))
    calls = {
        "circ_diff": lambda p, xi, s: circ_diff(p, dx),
        "compact_second": lambda p, xi, s: compact_second(p, dx),
        "cov_dx": lambda p, xi, s: cov_dx(p, xi, s, dx),
        "cov_dxx": lambda p, xi, s: cov_dxx(p, xi, s, dx),
        "sided_grad_sq": lambda p, xi, s: sided_grad_sq(p, xi, s, dx),
        "perp": lambda p, xi, s: perp(p, xi),
        "apply_chris": lambda p, xi, s: apply_chris(s.conn, xi, p),
        "apply_curv": lambda p, xi, s: apply_curv(s.curv, xi, p, xi),
    }
    for name, call in calls.items():
        stacked = np.stack([call(p[m], xi[m], per_level[m]) for m in range(levels)])
        assert np.array_equal(call(p, xi, series), stacked), name
    assert m0(p) == max(m0(level) for level in p)


@settings(max_examples=100, deadline=None)
@given(**curves)
def test_leapfrog_step_is_the_converged_sweep_on_a_moving_wire(chart, n_points, seed):
    # a loop of length about one about the chart's centre, bent by modes 1-2,
    # whose tangent moves at a rate of modes 1-2 off it; theta, eta and both
    # rates are nonzero (the connection rate exists on the curved charts)
    model, rng, grid = chart_model(chart), np.random.default_rng(seed), Grid(n_points)
    pts = bent_loop(chart, grid, rng)
    samples = sample_geometry(model, pts)
    xi = frame_tangent(pts, model, samples, grid)
    xi = xi / row_norms(xi)[:, None]
    dt = grid.dx * rng.uniform(0.5, 1.0)
    theta, eta, eta_rate, conn_rate, rate = (
        fourier_field(rng, np.zeros_like(xi), 2, 1.0) for _ in range(5)
    )
    args = (xi - dt * perp(rate, xi), xi, theta, eta, dt, grid, samples)
    kwargs = {"eta_rate": eta_rate, "conn_rate": None if samples.conn is None else conn_rate}
    step = leapfrog_step(*args, **kwargs)
    assert m0(step - leapfrog_sweeps(*args, **kwargs)) <= 1e-15
    assert m0(leapfrog_sweep(step, *args, **kwargs) - step) <= 1e-15


#: values of every class a component may hold: signed zeros, subnormals,
#: the extremes, infinities and NaN
dot_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -1.0]
)


@st.composite
def field_pairs(draw):
    """Two fields of one shape, a level (N, n) or a window series (M+1, N, n)
    with n = 1 ... 7."""
    shape = draw(st.sampled_from([(), (draw(st.integers(1, 4)),)]))
    shape += (draw(st.integers(1, 16)), draw(st.integers(1, 7)))
    return tuple(draw(hnp.arrays(np.float64, shape, elements=dot_float)) for _ in range(2))


def assert_same_bits(a, b):
    """Equal values, NaN where NaN, and equal signs elsewhere (-0.0 is not
    0.0); the sign of a NaN sum of NaNs follows no rule of IEEE 754."""
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))


@settings(max_examples=100, deadline=None)
@given(pair=field_pairs())
def test_dot_equals_the_numpy_sum_bit_for_bit(pair):
    p, q = pair
    with np.errstate(all="ignore"):
        assert_same_bits(dot(p, q), np.sum(p * q, axis=-1))
        assert_same_bits(dot(p, p), np.sum(p * p, axis=-1))
        assert_same_bits(perp(p, q), p - np.sum(p * q, axis=-1, keepdims=True) * q)
        assert_same_bits(row_norms(p), np.sqrt(np.sum(p * p, axis=-1)))
        drift = np.max(np.abs(np.sum(p * p, axis=-1) - 1.0))
        assert_same_bits(np.float64(constraint_drift(p)), drift)


# ---------------------------------------------------------------------------
# snapshot writer


#: the options ``write_snapshot`` passes to orjson
SNAPSHOT_OPTIONS = (
    orjson.OPT_INDENT_2
    | orjson.OPT_SORT_KEYS
    | orjson.OPT_SERIALIZE_NUMPY
    | orjson.OPT_APPEND_NEWLINE
)
FIELDS = ("gamma", "xi", "xi_t", "eta", "theta")


def written(path, state):
    write_snapshot(path, state)
    return path.read_bytes()


def assert_reads_back(text, state):
    """``json.loads`` gives back every array and the time bit for bit, and
    orjson re-encodes what it read to the same bytes."""
    loaded = json.loads(text)
    present = {key for key in FIELDS if getattr(state, key) is not None}
    assert set(loaded) == present | {"time"}
    for key in present:
        expected = np.ascontiguousarray(getattr(state, key)).tobytes()
        assert np.array(loaded[key], dtype=np.float64).tobytes() == expected, key
    assert np.float64(loaded["time"]).tobytes() == np.float64(state.time).tobytes()
    assert orjson.dumps(loaded, option=SNAPSHOT_OPTIONS) == text


finite_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def spelling_edges() -> list[float]:
    """Every magnitude where a JSON float token changes form (exponent width,
    positional or exponent form, exponent sign) with both its neighbours,
    plus the zeros and the extreme finite magnitudes."""
    edges = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    for size in (1e-9, 1e-5, 1e-4, 1e16):
        for value in (size, -size):
            edges += [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]
    return [float(value) for value in edges]


def finite_bits(raw: bytes, shape) -> np.ndarray:
    """Doubles from raw 64-bit patterns; a NaN or infinity pattern has its
    lowest exponent bit cleared, which leaves a finite double with the same
    sign and mantissa."""
    bits = np.frombuffer(raw, dtype="<u8").reshape(shape).copy()
    exponent = np.uint64(0x7FF << 52)
    bits[(bits & exponent) == exponent] ^= np.uint64(1 << 52)
    return bits.view("<f8")


def bit_pattern_arrays(shape):
    """Arrays of doubles drawn as raw 64-bit patterns (one draw per array:
    element-wise integer draws would make the test ten times slower)."""
    size = shape[0] * shape[1]
    return st.binary(min_size=8 * size, max_size=8 * size).map(lambda raw: finite_bits(raw, shape))


def strided(arr):
    """The same values as a view that is not C-contiguous (every second column)."""
    return np.repeat(arr, 2, axis=1)[:, ::2]


snapshot_float = finite_float | st.sampled_from(spelling_edges())


def snapshot_level(**fields) -> Level:
    """A Level of the fields a snapshot holds; the writer reads no other."""
    return Level(samples=None, dxi=None, dtxi=None, **fields)


@st.composite
def states(draw):
    shape = (draw(st.integers(1, 64)), draw(st.sampled_from([1, 2, 3])))
    values = hnp.arrays(np.float64, shape, elements=snapshot_float) | bit_pattern_arrays(shape)
    field = values | values.map(strided)
    return snapshot_level(
        gamma=draw(field),
        xi=draw(field),
        xi_t=draw(field),
        eta=draw(field),
        theta=draw(st.none() | field),
        time=draw(snapshot_float),
    )


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(state=states())
def test_snapshot_round_trips_bit_for_bit(tmp_path, state):
    assert_reads_back(written(tmp_path / "snapshot.json", state), state)


#: signed zeros, subnormals, extreme exponents and a value with no exact double
SPECIAL = [-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e-300, 0.1]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_theta", [False, True])
def test_snapshot_writer_special_values(tmp_path, dim, with_theta):
    values = np.resize(np.array(SPECIAL), (len(SPECIAL), dim))
    for field in (values[:1], values):
        state = snapshot_level(
            gamma=field,
            xi=field[::-1],
            xi_t=-field,
            eta=field * 0.5,
            theta=field + 1.0 if with_theta else None,
            time=-0.0,
        )
        text = written(tmp_path / "snapshot.json", state)
        assert_reads_back(text, state)
    for token in (b"-0.0", b"5e-324", b"1e300", b"-1e-300"):
        assert token in text

    # JSON has no NaN or infinity: each aborts the run naming the field and
    # the first grid index that holds one, and no file is written
    row = len(SPECIAL) - 2
    present = [key for key in FIELDS if getattr(state, key) is not None]
    for bad in (np.nan, np.inf, -np.inf):
        for key in present:
            broken = getattr(state, key).copy()
            broken[row:, -1] = bad
            path = tmp_path / f"broken_{key}.json"
            message = f"field {key} is not finite at grid index {row}$"
            with pytest.raises(NumericalAbort, match=message):
                write_snapshot(path, dataclasses.replace(state, **{key: broken}))
            assert not path.exists()
        path = tmp_path / "broken_time.json"
        with pytest.raises(NumericalAbort, match="snapshot time .* is not finite"):
            write_snapshot(path, dataclasses.replace(state, time=float(bad)))
        assert not path.exists()


@pytest.mark.parametrize("k", [0, 5, 11])
def test_snapshot_names_the_first_non_finite_grid_index(tmp_path, k):
    # each field is checked whole at once; the index named is still that of
    # the first bad row, whichever component holds it, with later rows bad too
    rng = np.random.default_rng(k)
    state = snapshot_level(time=0.5, **{key: rng.standard_normal((12, 3)) for key in FIELDS})
    for key in FIELDS:
        for j in range(3):
            broken = getattr(state, key).copy()
            broken[k, j] = np.nan
            broken[k + 1 :, (j + 1) % 3] = -np.inf
            path = tmp_path / f"{key}_{j}.json"
            message = f"^snapshot field {key} is not finite at grid index {k}$"
            with pytest.raises(NumericalAbort, match=message):
                write_snapshot(path, dataclasses.replace(state, **{key: broken}))
            assert not path.exists()


# ---------------------------------------------------------------------------
# initial curves sampled by arc length

TWO_PI = 2.0 * np.pi
#: max |N gap / L - 1| over the samples; the inversion stops at a residual
#: of 4 ulps of L, which allows 7.3e-12 at N = 4096
GAP_TOL = 1e-11
#: speed evaluations per sample: 6 per cell for the cell integrals, and 7
#: per sample for each of at most 4 Newton steps on a resolved curve
POINTS_PER_SAMPLE = 6 + 4 * 7
sample_counts = st.sampled_from([8, 64, 1024, 4096])


def arc_gaps(speed, u: np.ndarray) -> np.ndarray:
    """The arc length between consecutive parameters u (the last one up to
    u_0 + 1) of a closed curve with the given speed, by adaptive quadrature."""
    ends = np.append(u, u[0] + 1.0)
    return np.array(
        [quad(speed, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(ends, ends[1:])]
    )


def angles(points: np.ndarray, center) -> np.ndarray:
    """The increasing polar angles, in turns, of points circling ``center``."""
    rel = points[:, :2] - np.asarray(center)
    return np.unwrap(np.arctan2(rel[:, 1], rel[:, 0])) / TWO_PI


def assert_equal_gaps(gaps: np.ndarray) -> None:
    assert np.max(np.abs(len(gaps) * gaps / gaps.sum() - 1.0)) <= GAP_TOL


@settings(max_examples=16, deadline=None)
@given(
    n=sample_counts,
    mode=st.integers(1, 4),
    amplitude=st.floats(-0.1, 0.1),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_perturbed_circle_samples_are_equally_spaced_in_arc_length(n, mode, amplitude, center):
    points = initial.perturbed_circle(Grid(n), 2, np.array(center), mode, amplitude)
    u = angles(points, center)

    def radius(u):
        return 1.0 + amplitude * np.cos(TWO_PI * mode * u)

    def speed(u):  # of radius(u) (cos 2 pi u, sin 2 pi u)
        return np.hypot(TWO_PI * mode * amplitude * np.sin(TWO_PI * mode * u), TWO_PI * radius(u))

    gaps = arc_gaps(speed, u)
    assert_equal_gaps(gaps)
    # the samples' radii are radius(u) scaled to a curve of length one
    scale = np.hypot(*(points[0] - center)) / radius(u[0])
    assert abs(scale * gaps.sum() - 1.0) <= 1e-13


def hyperbolic_speed(cy: float):
    """Hyperbolic speed in u of the chart circle about height ``cy`` whose
    chart radius makes its hyperbolic length one."""
    r = cy / np.sqrt(1.0 + 4.0 * np.pi**2)
    return lambda u: TWO_PI * r / (cy + r * np.sin(TWO_PI * u))


@settings(max_examples=16, deadline=None)
@given(n=sample_counts, cy=st.floats(0.05, 20.0), shift=st.floats(-1.0, 1.0))
def test_hyperbolic_circle_samples_are_equally_spaced_in_arc_length(n, cy, shift):
    center = [shift * cy, cy]
    points = initial.hyperbolic_circle(Grid(n), 2, center)
    gaps = arc_gaps(hyperbolic_speed(cy), angles(points, center))
    assert_equal_gaps(gaps)
    assert abs(gaps.sum() - 1.0) <= 1e-13
    _, total = initial._equal_arc(hyperbolic_speed(cy), n, "hyperbolic-circle")
    assert abs(total - 1.0) <= 1e-14


def test_gauss_legendre_literals_are_the_6_point_rule():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(6)
    assert np.max(np.abs(initial._GL_NODES - 0.5 * (nodes + 1.0))) <= 2e-16
    assert np.max(np.abs(initial._GL_WEIGHTS - 0.5 * weights)) <= 2e-16


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("amplitude", [0.01, 0.5, 0.99, 1.0, -2.0])
@pytest.mark.parametrize("mode", [1, 2, 4])
def test_arc_length_placement_evaluates_a_bounded_number_of_points(n, amplitude, mode):
    # the production speed, counted, placed as perturbed_circle places it
    # (which refuses the cusp of |amplitude| = 1 before placing); an
    # inversion that refines a grid until a near-cusp is resolved would
    # evaluate 64 points per sample or more
    points = []
    speed = initial._perturbed_speed(mode, amplitude)
    initial._equal_arc(lambda u: points.append(u.size) or speed(u), n, "perturbed-circle")
    assert 0 < sum(points) <= POINTS_PER_SAMPLE * n


def test_arc_length_placement_refuses_what_it_cannot_place():
    with pytest.raises(DegenerateCurveError, match="^perturbed-circle: the curve's length is nan$"):
        initial._equal_arc(lambda u: np.full(u.shape, np.nan), 8, "perturbed-circle")
    # forty lobes on 64 cells: the cell integrals do not resolve the speed
    with pytest.raises(DegenerateCurveError) as excinfo:
        initial.perturbed_circle(Grid(64), 2, np.zeros(2), 40, 0.5)
    assert str(excinfo.value) == (
        "perturbed-circle: arc length not inverted in 16 Newton steps; at u = 0.531221 the "
        "residual is still 2.1254835215611533e-13 of the length (the speed vanishes there, "
        "or the grid does not resolve it)"
    )
    # a cusp is refused before any sample is placed
    for mode, amplitude, cusp in [(2, 1.0, "0.250000"), (3, -1, "0.000000")]:
        message = f"^perturbed-circle: cusp at u = {cusp}, where the speed vanishes"
        with pytest.raises(DegenerateCurveError, match=message):
            initial.perturbed_circle(Grid(64), 2, np.zeros(2), mode, amplitude)


# ---------------------------------------------------------------------------
# the config parser and the builders hold a run to the same catalogue rules


def valid_values(kind, dim):
    """Values of a parameter kind of ``initial.KINDS`` in ``dim`` dimensions."""
    axis = [0.0] * dim
    axis[-1] = -1.0
    return st.sampled_from(
        {
            "point": [[0.1] * dim, [0] * dim],
            "half-plane point": [[0.0, 1.5], [0.2, 0.5]],
            "axis": [axis, [1] + [0] * (dim - 1)],
            "positive integer": [1, 3],
            "number": [0.01, -0.3, 0],
        }[kind]
    )


def any_values(dim):
    """Values valid and invalid for each kind: points of dim and dim + 1
    numbers, points in and out of the half-plane, axes and non-axes,
    integers below and above 1, numbers, and values of no kind."""
    return st.sampled_from(
        [
            [0.1] * dim,
            [0.1] * (dim + 1),
            ["a"] * dim,
            [0.0, 1.5],
            [0.0, -1.0],
            [1] * dim,
            [0.5] + [0.0] * (dim - 1),
            0,
            3,
            2.0,
            -0.3,
            True,
            "x",
            None,
        ]
    )


def breaks(draw) -> bool:
    """Whether to break the rule at hand: once in seven draws, so that about
    a third of the drawn sections break none."""
    return draw(st.integers(0, 6)) == 0


def entry_params(draw, takes: dict, dim: int, strays) -> dict:
    """Each parameter of ``takes`` of its kind, or of any kind; an optional
    one may be left out, a required one only when a rule is broken; and now
    and then a stray key."""
    params = {}
    for key, (kind, default) in takes.items():
        if draw(st.booleans()) or (default is None) != breaks(draw):
            params[key] = draw(any_values(dim) if breaks(draw) else valid_values(kind, dim))
    if breaks(draw):
        params[draw(st.sampled_from(strays))] = draw(any_values(dim))
    return params


@st.composite
def run_sections(draw):
    """A chart name, a dim, the chart's settings and an initial section: a
    curve with its parameters, and a velocity with its parameters; each rule
    of the catalogues is broken now and then."""
    chart = draw(st.sampled_from(list(BUILTIN)))
    if breaks(draw):
        chart = "klein-bottle"
    dim = draw(st.integers(1, 3)) if breaks(draw) else 2
    settings = {"expression": "0.1*x"} if chart == "conformal" else {}
    if breaks(draw):
        settings = draw(st.sampled_from([{}, {"expression": "0.1*x"}, {"expression": "x + q"}]))
    on_chart = [name for name, entry in CURVES.items() if chart in entry[1]] or list(CURVES)
    name = draw(st.sampled_from([*CURVES, "helix"] if breaks(draw) else on_chart))
    takes = CURVES[name][3] if name in CURVES else {}
    section = {"name": name, **entry_params(draw, takes, dim, ["centre", "mode", "origin"])}
    velocity = draw(st.sampled_from([*VELOCITIES, "spin", None] if breaks(draw) else list(VELOCITIES)))
    if velocity in VELOCITIES:
        takes = VELOCITIES[velocity][3]
        spec = entry_params(draw, takes, dim, ["centre", "vector", "omega"])
        section["velocity"] = dict(spec, name=velocity)
    elif velocity == "spin":
        section["velocity"] = {"name": velocity}
    elif draw(st.booleans()):
        section["velocity"] = draw(any_values(dim))
    return chart, dim, settings, section


@settings(max_examples=300, deadline=None)
@given(sections=run_sections())
def test_parse_config_accepts_exactly_what_the_builders_build(sections):
    chart, dim, settings, section = sections
    document = {"manifold": {"name": chart, "dim": dim, **settings}, "initial": section}
    try:
        parse_config(json.dumps(document))
        parsed = True
    except ConfigError:
        parsed = False
    params = {key: value for key, value in section.items() if key != "name"}
    try:
        manifold = make_manifold(chart, dim, **settings)
        initial.generate(section["name"], manifold, Grid(8), params)
        built = True
    except ValueError:
        built = False
    assert parsed == built


# ---------------------------------------------------------------------------
# every level a run records passes the run's one gate

#: runs at N = 32: a perturbed-circle window, whose bentness falls over its
#: first four levels, and a hyperbolic-circle march, whose unit-tangent defect
#: grows; ``level_profile`` measures both
GATED_RUNS = {
    "picard": {
        "mode": "picard",
        "grid": {"n": 32},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
    },
    "march": {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "initial": {"name": "hyperbolic-circle"},
    },
}


def gated_run(mode, steps, every, tolerances):
    """``elwire run`` of GATED_RUNS[mode] over ``steps`` steps, every level
    recorded and a fresh bentness every ``every`` levels: its exit code,
    standard-error lines, metadata and diagnostics rows (column -> float)."""
    span = {"picard": {"window": steps}} if mode == "picard" else {"time": {"horizon": steps / 32}}
    diagnostics = {"every": 1, "bentness_every": every}
    data = dict(GATED_RUNS[mode], **span, diagnostics=diagnostics, tolerances=tolerances)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(path), "--out", f"{tmp}/out", "--quiet"])
        meta = json.loads(Path(tmp, "out", "metadata.json").read_text())
        header, *lines = Path(tmp, "out", "diagnostics.csv").read_text().splitlines()
    names = header.split(",")
    rows = [{k: float(v) if v else None for k, v in zip(names, line.split(","))} for line in lines]
    return code, stderr.getvalue().splitlines(), meta, rows


@functools.lru_cache(maxsize=None)
def level_profile(mode, steps):
    """The unit-tangent defect and the fresh bentness of levels 0..steps of a
    run that no gate refuses."""
    code, _, _, rows = gated_run(mode, steps, 1, {})
    assert code == 0
    return [r["constraint_drift"] for r in rows], [r["bentness"] for r in rows]


def assert_aborted_after(meta, rows, failure, m):
    """The run aborted with ``failure`` at level m, after recording 0..m-1."""
    assert meta["status"] == "aborted" and meta["failure"]["type"] == failure
    assert [row["time"] for row in rows] == [k / 32 for k in range(m)]
    assert meta["failure"]["last_good"] == rows[-1]


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    steps=st.integers(2, 6),
    every=st.integers(1, 7),
    where=st.floats(0.0, 0.99),
)
def test_the_constraint_holds_every_recorded_level(data, steps, every, where):
    # a tolerance from level m - 1's defect up to level m's refuses march
    # level m, the last level included
    drift, _ = level_profile("march", steps)
    m = data.draw(st.integers(1, steps), label="m")
    assert drift[m] > drift[m - 1] > 0.0
    tol = drift[m - 1] + where * (drift[m] - drift[m - 1])
    code, err, meta, rows = gated_run("march", steps, every, {"constraint": tol})
    assert code == 3
    assert err == [
        f"aborted: ConstraintDriftError: unit-tangent defect {float(drift[m])!r} exceeds "
        f"tolerance {tol!r} at t={m / 32:.6f}"
    ]
    assert_aborted_after(meta, rows, "ConstraintDriftError", m)
    assert rows[-1]["constraint_drift"] == drift[m - 1]


@functools.lru_cache(maxsize=None)
def converged_window(window):
    """The converged iterate of a GATED_RUNS["picard"] window of ``window``
    steps, with its grid and RunConfig."""
    grid = Grid(32)
    model = EuclideanModel(2)
    curve, velocity = initial.generate("perturbed-circle", model, grid, {"mode": 2, "amplitude": 0.01})
    start, _ = prepare_initial(curve, velocity, model, grid)
    cfg = run_config(grid, window)
    iterate, _ = picard_coupled(start, model, grid, cfg)
    return iterate, grid, cfg


@settings(max_examples=20, deadline=None)
@given(data=st.data(), window=st.integers(2, 6), excess=st.floats(1.01, 100.0))
def test_window_rows_hold_the_constraint_at_every_level(data, window, excess):
    # a window level whose unit-tangent defect is doctored past the
    # tolerance stops the rows at that level, after the levels before it
    iterate, grid, cfg = converged_window(window)
    m = data.draw(st.integers(1, window), label="m")
    xi = iterate.xi.copy()
    xi[m] *= np.sqrt(1.0 + excess * cfg.constraint_tol)
    rows = []
    with pytest.raises(ConstraintDriftError, match=rf"exceeds tolerance .* at t={m / 32:.6f}$"):
        for level in window_rows(dataclasses.replace(iterate, xi=xi), grid, cfg):
            rows.append(level)
    assert len(rows) == m


@settings(max_examples=25, deadline=None)
@given(
    chart=st.sampled_from(sorted(CHARTS)),
    n_points=st.integers(16, 32),
    window=st.integers(2, 6),
    seed=seeds,
)
def test_a_converged_window_keeps_unit_rows_at_every_level(chart, n_points, window, seed):
    # a loop of length about one about the chart's centre, bent by modes 1-2
    # and moving at a random velocity of modes 1-2: each sweep projects the
    # tangent to unit rows, so every level of a converged window has them
    model, rng, grid = chart_model(chart), np.random.default_rng(seed), Grid(n_points)
    pts = bent_loop(chart, grid, rng)
    start, _ = prepare_initial(pts, fourier_field(rng, np.zeros_like(pts), 2, 0.3), model, grid)
    cfg = run_config(grid, window)
    try:
        iterate, _ = picard_coupled(start, model, grid, cfg)
    except NonContractionError:
        return
    assert constraint_drift(iterate.xi) <= 1e-15


@settings(max_examples=20, deadline=None)
@given(data=st.data(), window=st.integers(3, 6), where=st.floats(0.01, 0.99))
def test_window_level_below_the_bentness_floor_aborts_the_run(data, window, where):
    # a floor between a fresh level's bentness and every earlier fresh value
    # refuses that level, the last level included.  The window's bentness
    # rises again after level 4, so m is drawn among the fresh levels below
    # every earlier fresh value, for which such a floor exists
    _, bent = level_profile("picard", window)
    every = data.draw(st.integers(1, window), label="every")
    lowest = [m for m in range(every, window + 1, every) if bent[m] < min(bent[:m:every])]
    assert lowest
    m = data.draw(st.sampled_from(lowest), label="m")
    earlier = min(bent[:m:every])
    floor = bent[m] + where * (earlier - bent[m])
    code, err, meta, rows = gated_run("picard", window, every, {"bentness_floor": floor})
    assert code == 3
    assert err == [
        f"aborted: NearGeodesicError: bentness {bent[m]!r} below floor {floor!r}; "
        "tension operator is (near) singular"
    ]
    assert_aborted_after(meta, rows, "NearGeodesicError", m)


# ---------------------------------------------------------------------------
# the suite's warning filters


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # hypothesis prints the patch of a failing example through libcst, whose
    # import raises a DeprecationWarning; under "error" alone that warning
    # was an INTERNALERROR that ended the session before the next test ran
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_runs_after():\n"
        "    pass\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
