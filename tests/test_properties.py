"""Property tests on generated inputs (hypothesis).

* The pointwise actions Gamma(u, v) and R(u, v) w agree with the single
  multi-operand einsum of ``geometry_oracle`` on random tensors and on the
  geometry sampled along random closed curves in every chart; on the flat
  charts both are exactly +0.0.
* Sampled connection and curvature coefficients keep their antisymmetries.
* Along random closed curves in every chart: cov_dx sums by parts, the
  unfolded production band of the elliptic operator is symmetric, and the
  banded solve leaves a residual at rounding level.
* Every series-shaped helper gives on a random window series (M+1, N, n)
  exactly (==) the stack of its calls on the levels.
* ``write_snapshot`` writes the bytes of ``json.dumps(indent=2,
  sort_keys=True)`` for any state, special floats included.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elliptic_oracle import band_to_dense
from elwire.cli import write_snapshot
from elwire.dynamics import frame_tangent
from elwire.elliptic import _banded_operator, solve_flux_form
from elwire.fields import (
    CurveState,
    Grid,
    circ_diff,
    compact_second,
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
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    sample_geometry,
    stack_samples,
)
from geometry_oracle import apply_chris_einsum, apply_curv_einsum, chris_scale, curv_scale

#: relative to the sum of the absolute products, the scale of any rounding
REL_TOL = 1e-14
EXACT_TOL = 1e-12
#: banded solve defect relative to m0(u)/dx^2 + m0(f)/dx + m0(h); at most
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


def closed_curve(center, n_points, rng):
    """Samples of a random three-mode Fourier loop about ``center``.

    Its chart distance from the centre stays below 0.9, inside every chart
    of CHARTS.
    """
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    coeffs = rng.uniform(-0.15, 0.15, (3, 2, len(center)))
    pts = np.array(center, dtype=float) + np.zeros((n_points, 1))
    for m in range(3):
        pts += np.cos((m + 1) * t)[:, None] * coeffs[m, 0]
        pts += np.sin((m + 1) * t)[:, None] * coeffs[m, 1]
    return pts


def assert_actions_match_oracle(chris, curv, u, v, w):
    gap = np.abs(apply_chris(chris, u, v) - apply_chris_einsum(chris, u, v))
    assert np.all(gap <= REL_TOL * chris_scale(chris, u, v))
    gap = np.abs(apply_curv(curv, u, v, w) - apply_curv_einsum(curv, u, v, w))
    assert np.all(gap <= REL_TOL * curv_scale(curv, u, v, w))


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    n_points=st.integers(1, 64),
    exponent=st.integers(-8, 8),
    seed=seeds,
)
def test_actions_match_einsum_oracle_on_random_tensors(dim, n_points, exponent, seed):
    rng = np.random.default_rng(seed)
    chris = 10.0**exponent * rng.standard_normal((n_points,) + (dim,) * 3)
    curv = 10.0**exponent * rng.standard_normal((n_points,) + (dim,) * 4)
    u, v, w = rng.standard_normal((3, n_points, dim))
    assert_actions_match_oracle(chris, curv, u, v, w)


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_actions_match_einsum_oracle_on_sampled_geometry(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    u, v, w = rng.standard_normal((3, n_points, model.dim))
    assert_actions_match_oracle(samples.chris, samples.curv, u, v, w)
    if model.is_flat:
        zeros = np.zeros((n_points, model.dim)).tobytes()
        assert apply_chris(samples.chris, u, v).tobytes() == zeros
        assert apply_curv(samples.curv, u, v, w).tobytes() == zeros


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_sampled_geometry_keeps_antisymmetries(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    chris, curv = samples.chris, samples.curv
    assert np.max(np.abs(chris + np.swapaxes(chris, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -2, -1))) < EXACT_TOL


# ---------------------------------------------------------------------------
# covariant calculus and the elliptic band along random curves


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
    grid, samples, xi, _ = curve_setup(chart, n_points, seed)
    ab, order = _banded_operator(xi, samples, grid, kind)
    matrix = band_to_dense(ab, order, xi.shape[1])
    assert np.max(np.abs(matrix - matrix.T)) <= REL_TOL * np.max(np.abs(matrix))


@settings(max_examples=40, deadline=None)
@given(**curves)
def test_banded_solve_residual(chart, n_points, seed):
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    f, h = rng.standard_normal((2,) + xi.shape)
    solved = solve_flux_form(f, h, xi, samples, grid, check_bentness=False)
    defect = -cov_dx(solved.flux, xi, samples, grid.dx) + perp(solved.u, xi) - h
    scale = m0(solved.u) / grid.dx**2 + m0(f) / grid.dx + m0(h)
    assert m0(defect) <= RESIDUAL_TOL * scale


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
        "apply_chris": lambda p, xi, s: apply_chris(s.chris, xi, p),
    }
    for name, call in calls.items():
        stacked = np.stack([call(p[m], xi[m], per_level[m]) for m in range(levels)])
        assert np.array_equal(call(p, xi, series), stacked), name
    assert m0(p) == max(m0(level) for level in p)


# ---------------------------------------------------------------------------
# snapshot writer


def indented_json(state):
    """The snapshot as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    payload = {
        "time": state.time,
        "gamma": state.gamma.tolist(),
        "xi": state.xi.tolist(),
        "xi_t": state.xi_t.tolist(),
        "eta": state.eta.tolist(),
    }
    if state.theta is not None:
        payload["theta"] = state.theta.tolist()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written(path, state):
    write_snapshot(path, state)
    return path.read_text()


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def states(draw):
    shape = (draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3])))
    field = hnp.arrays(np.float64, shape, elements=any_float)
    return CurveState(
        gamma=draw(field),
        xi=draw(field),
        xi_t=draw(field),
        eta=draw(field),
        theta=draw(st.none() | field),
        time=draw(any_float),
    )


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(state=states())
def test_snapshot_writer_matches_indented_json(tmp_path, state):
    assert written(tmp_path / "snapshot.json", state) == indented_json(state)


#: NaN, infinities, signed zeros, subnormals and extreme exponents
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e-300, 0.1]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_theta", [False, True])
def test_snapshot_writer_special_values(tmp_path, dim, with_theta):
    values = np.resize(np.array(SPECIAL), (len(SPECIAL), dim))
    for field in (values[:1], values):
        state = CurveState(
            gamma=field,
            xi=field[::-1].copy(),
            xi_t=-field,
            eta=field * 0.5,
            theta=field + 1.0 if with_theta else None,
            time=-0.0,
        )
        text = written(tmp_path / "snapshot.json", state)
        assert text == indented_json(state)
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e+300"):
        assert token in text
