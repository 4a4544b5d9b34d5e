"""Tests for chart geometry: frames, connection and curvature coefficients.

The analytic evaluators are checked against finite-difference oracles built
from nothing but the chart metric: chart Christoffel symbols from first
differences, the chart curvature tensor from first and second differences,
both converted to frame components through the frame matrix alone.
"""

import warnings

import numpy as np
import pytest

from elwire.errors import ChartDomainError
from elwire.geometry import (
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    _check_conformal_syntax,
    apply_chris,
    apply_curv,
    make_manifold,
    sample_geometry,
)

FRAME_TOL = 1e-10
EXACT_TOL = 1e-12
FD_CHRIS_TOL = 1e-6
FD_CURV_TOL = 1e-5
CROSS_MODEL_TOL = 1e-10
N_POINTS = 100


def _model_and_points(name, rng):
    if name == "euclidean":
        return EuclideanModel(2), rng.uniform(-1.0, 1.0, (N_POINTS, 2))
    if name == "flat-torus":
        return FlatTorusModel(3), rng.uniform(0.0, 1.0, (N_POINTS, 3))
    if name == "hyperbolic":
        pts = np.column_stack(
            [rng.uniform(-1.0, 1.0, N_POINTS), rng.uniform(0.5, 2.0, N_POINTS)]
        )
        return HyperbolicHalfPlaneModel(), pts
    if name == "sphere":
        return SphereChartModel(2), rng.uniform(-1.0, 1.0, (N_POINTS, 2))
    if name == "sphere3":
        return SphereChartModel(3), rng.uniform(-1.0, 1.0, (N_POINTS, 3))
    if name == "conformal":
        model = ConformalModel(2, "0.3*x**2 - 0.2*x*y + 0.1*sin(y)")
        return model, rng.uniform(-1.0, 1.0, (N_POINTS, 2))
    raise ValueError(name)


@pytest.fixture(
    params=["euclidean", "flat-torus", "hyperbolic", "sphere", "sphere3", "conformal"]
)
def model_points(request):
    rng = np.random.default_rng(7)
    return _model_and_points(request.param, rng)


# ---------------------------------------------------------------------------
# finite-difference oracles (metric in, frame coefficients out)


def metric_d1(model, p, step):
    """dg[a, b, c] = d_a g_bc by central differences."""
    n = model.dim
    out = np.empty((n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        out[a] = (model.metric(p + e) - model.metric(p - e)) / (2.0 * step)
    return out


def metric_d2(model, p, step):
    """d2g[a, b, c, d] = d_a d_b g_cd by central second differences."""
    n = model.dim
    g0 = model.metric(p)
    out = np.empty((n, n, n, n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = step
        for b in range(n):
            eb = np.zeros(n)
            eb[b] = step
            if a == b:
                out[a, b] = (model.metric(p + ea) - 2.0 * g0 + model.metric(p - ea)) / step**2
            else:
                out[a, b] = (
                    model.metric(p + ea + eb)
                    - model.metric(p + ea - eb)
                    - model.metric(p - ea + eb)
                    + model.metric(p - ea - eb)
                ) / (4.0 * step**2)
    return out


def _torsion(dg):
    """T[d, a, b] = d_a g_bd + d_b g_ad - d_d g_ab."""
    return dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg


def chart_christoffel(ginv, dg):
    """Chart symbols cgam[c, a, b] = Gamma^c_ab from metric derivatives."""
    return 0.5 * np.einsum("cd,dab->cab", ginv, _torsion(dg))


def frame_christoffel_oracle(model, p, step=1e-6):
    """gamma[i, k, j] = g(nabla_{E_i} E_j, E_k) from finite differences."""
    n = model.dim
    h = model.frame(p)
    metric = model.metric(p)
    cgam = chart_christoffel(np.linalg.inv(metric), metric_d1(model, p, step))
    dh = np.empty((n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        dh[a] = (model.frame(p + e) - model.frame(p - e)) / (2.0 * step)
    # chart components of nabla_{E_i} E_j, then inner product with E_k
    nab = np.einsum("ai,acj->icj", h, dh) + np.einsum("ai,cab,bj->icj", h, cgam, h)
    return np.einsum("icj,cd,dk->ikj", nab, metric, h)


def frame_curvature_oracle(model, p, step=1e-4):
    """r[i, j, k, l] = g(R(E_i, E_j) E_k, E_l) from metric differences only."""
    n = model.dim
    h = model.frame(p)
    metric = model.metric(p)
    ginv = np.linalg.inv(metric)
    dg = metric_d1(model, p, step)
    d2g = metric_d2(model, p, step)
    cgam = chart_christoffel(ginv, dg)
    dginv = -np.einsum("cp,epq,qd->ecd", ginv, dg, ginv)
    dtorsion = np.stack([_torsion(d2g[e]) for e in range(n)])
    dgam = 0.5 * (
        np.einsum("ecd,dab->ecab", dginv, _torsion(dg))
        + np.einsum("cd,edab->ecab", ginv, dtorsion)
    )
    # chart_r[a, b, c, d]: component d of R(d_a, d_b) d_c
    t1 = dgam.transpose(0, 2, 3, 1)
    t2 = t1.transpose(1, 0, 2, 3)
    t3 = np.einsum("dae,ebc->abcd", cgam, cgam)
    t4 = t3.transpose(1, 0, 2, 3)
    chart_r = t1 - t2 + t3 - t4
    return np.einsum("ai,bj,ck,abcd,de,el->ijkl", h, h, h, chart_r, metric, h)


# ---------------------------------------------------------------------------
# frame algebra on random points


def test_frame_orthonormal_for_metric(model_points):
    model, pts = model_points
    h = model.frame(pts)
    metric = model.metric(pts)
    gram = np.einsum("...ai,...ab,...bj->...ij", h, metric, h)
    assert np.max(np.abs(gram - np.eye(model.dim))) < FRAME_TOL


def test_connection_antisymmetry(model_points):
    model, pts = model_points
    gamma = model.christoffel(pts)
    assert np.max(np.abs(gamma + np.swapaxes(gamma, -2, -1))) < EXACT_TOL


def test_curvature_antisymmetries(model_points):
    model, pts = model_points
    r = model.curvature(pts)
    assert np.max(np.abs(r + np.swapaxes(r, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, -2, -1))) < EXACT_TOL


def test_christoffel_matches_finite_differences(model_points):
    model, pts = model_points
    for p in pts[:20]:
        gamma = model.christoffel(p)
        oracle = frame_christoffel_oracle(model, p)
        assert np.max(np.abs(gamma - oracle)) < FD_CHRIS_TOL


def test_curvature_matches_finite_differences(model_points):
    model, pts = model_points
    for p in pts[:10]:
        r = model.curvature(p)
        oracle = frame_curvature_oracle(model, p)
        assert np.max(np.abs(r - oracle)) < FD_CURV_TOL


def test_generic_conformal_matches_constant_curvature_models():
    rng = np.random.default_rng(11)
    half_plane = np.column_stack([rng.uniform(-1.0, 1.0, 25), rng.uniform(0.5, 2.0, 25)])
    cases = [
        (HyperbolicHalfPlaneModel(), ConformalModel(2, "-log(y)"), half_plane),
        (
            SphereChartModel(2),
            ConformalModel(2, "log(2) - log(1 + x**2 + y**2)"),
            rng.uniform(-1.0, 1.0, (25, 2)),
        ),
        (
            SphereChartModel(3),
            ConformalModel(3, "log(2) - log(1 + x**2 + y**2 + z**2)"),
            rng.uniform(-1.0, 1.0, (25, 3)),
        ),
    ]
    for builtin, generic, pts in cases:
        assert np.max(np.abs(builtin.frame(pts) - generic.frame(pts))) < CROSS_MODEL_TOL
        assert (
            np.max(np.abs(builtin.christoffel(pts) - generic.christoffel(pts)))
            < CROSS_MODEL_TOL
        )
        assert (
            np.max(np.abs(builtin.curvature(pts) - generic.curvature(pts)))
            < CROSS_MODEL_TOL
        )


# ---------------------------------------------------------------------------
# single points, sampling, chart domain


def test_single_point_evaluators_and_chart_domain():
    model = HyperbolicHalfPlaneModel()
    point = np.array([0.3, 1.2])
    assert model.frame(point).shape == (2, 2)
    gamma = model.christoffel(point)
    r = model.curvature(point)
    assert gamma.shape == (2, 2, 2)
    assert r.shape == (2, 2, 2, 2)
    assert np.max(np.abs(gamma + np.swapaxes(gamma, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, 0, 1))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) < EXACT_TOL
    with pytest.raises(ChartDomainError):
        sample_geometry(model, [[0.0, -1.0]])
    with pytest.raises(ValueError):
        sample_geometry(model, [[0.0, 1.0, 2.0]])


def test_sample_geometry_reports_first_bad_index():
    model = HyperbolicHalfPlaneModel()
    pts = np.column_stack([np.linspace(-0.5, 0.5, 12), np.full(12, 1.0)])
    pts[7, 1] = -0.2
    with pytest.raises(ChartDomainError, match="index 7"):
        sample_geometry(model, pts)


def test_sample_geometry_reports_first_non_finite_index():
    # sqrt(x) is real only for x >= 0; its samples at x < 0 are NaN
    model = ConformalModel(2, "sqrt(x)")
    pts = np.column_stack([np.linspace(0.1, 0.5, 12), np.full(12, 1.0)])
    pts[5, 0] = -0.3
    pts[9, 0] = -0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartDomainError, match="not finite at grid index 5"):
            sample_geometry(model, pts)


def test_sample_geometry_shapes_and_inverse():
    model = SphereChartModel(2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, (16, 2))
    samples = sample_geometry(model, pts)
    assert samples.frame.shape == (16, 2, 2)
    assert samples.chris.shape == (16, 2, 2, 2)
    assert samples.curv.shape == (16, 2, 2, 2, 2)
    prod = np.einsum("pij,pjk->pik", samples.frame, samples.frame_inv)
    assert np.max(np.abs(prod - np.eye(2))) < FRAME_TOL
    with pytest.raises(ValueError):
        sample_geometry(model, rng.uniform(-0.5, 0.5, (16, 3)))


def test_apply_helpers_match_loops():
    rng = np.random.default_rng(5)
    model = HyperbolicHalfPlaneModel()
    pts = np.column_stack([rng.uniform(-1.0, 1.0, 9), rng.uniform(0.5, 2.0, 9)])
    samples = sample_geometry(model, pts)
    u = rng.standard_normal((9, 2))
    v = rng.standard_normal((9, 2))
    w = rng.standard_normal((9, 2))
    chris_loop = np.zeros_like(u)
    curv_loop = np.zeros_like(u)
    for p in range(9):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    chris_loop[p, k] += samples.chris[p, i, k, j] * u[p, i] * v[p, j]
                    for l in range(2):
                        curv_loop[p, l] += (
                            samples.curv[p, i, j, k, l] * u[p, i] * v[p, j] * w[p, k]
                        )
    assert np.max(np.abs(apply_chris(samples.chris, u, v) - chris_loop)) < EXACT_TOL
    assert np.max(np.abs(apply_curv(samples.curv, u, v, w) - curv_loop)) < EXACT_TOL


def test_make_manifold_names_and_flags():
    assert make_manifold("euclidean", 3).dim == 3
    assert make_manifold("hyperbolic").name == "hyperbolic"
    assert make_manifold("conformal", 2, expression="x*y").name == "conformal"
    assert make_manifold("flat-torus", 2).is_flat
    assert not make_manifold("sphere").is_flat
    with pytest.raises(ValueError, match="unknown manifold"):
        make_manifold("klein-bottle")
    with pytest.raises(ValueError, match="unknown symbols"):
        ConformalModel(2, "x + q")
    with pytest.raises(ValueError):
        EuclideanModel(0)


def test_conformal_powers_are_bounded_before_sympy_parses_them():
    # the walk alone decides; sympy would multiply 9**9**9 out exactly
    names = ["x", "y"]
    for expression in (
        "9**9**9*x",
        "x**y",
        "(2*pi)**2*x",
        "x**65",
        "((x*0 + 9)**64)**64",
        "exp(log((x*0 + 9)**64))**2",
    ):
        with pytest.raises(ValueError, match="has the power"):
            _check_conformal_syntax(expression, names)
    for expression in ("x**-2 + (-2)**3 + pi**2", "2**64*x", "(x**8)**8", "sqrt(x**0.5)"):
        _check_conformal_syntax(expression, names)


def test_flat_torus_displacement_wraps():
    torus = FlatTorusModel(2)
    d = torus.displacement(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert np.allclose(d, [0.2, -0.2], atol=EXACT_TOL)
