"""Tests for chart geometry: frames, connection and curvature samples.

The sampled (scale, c, P) are rebuilt into dense frame coefficients
(``geometry_oracle``) and checked against finite-difference oracles built
from nothing but the chart metric e^{2 lam} delta: chart Christoffel symbols
from first differences, the chart curvature tensor from first and second
differences, both converted to frame components through the frame matrix
e^{-lam} delta alone.
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
    apply_chris,
    apply_curv,
    frame_components,
    make_manifold,
    sample_geometry,
)
from geometry_oracle import dense_chris, dense_curv, frame, metric

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
        out[a] = (metric(model, p + e) - metric(model, p - e)) / (2.0 * step)
    return out


def metric_d2(model, p, step):
    """d2g[a, b, c, d] = d_a d_b g_cd by central second differences."""
    n = model.dim
    g0 = metric(model, p)
    out = np.empty((n, n, n, n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = step
        for b in range(n):
            eb = np.zeros(n)
            eb[b] = step
            if a == b:
                out[a, b] = (metric(model, p + ea) - 2.0 * g0 + metric(model, p - ea)) / step**2
            else:
                out[a, b] = (
                    metric(model, p + ea + eb)
                    - metric(model, p + ea - eb)
                    - metric(model, p - ea + eb)
                    + metric(model, p - ea - eb)
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
    h = frame(model, p)
    g = metric(model, p)
    cgam = chart_christoffel(np.linalg.inv(g), metric_d1(model, p, step))
    dh = np.empty((n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        dh[a] = (frame(model, p + e) - frame(model, p - e)) / (2.0 * step)
    # chart components of nabla_{E_i} E_j, then inner product with E_k
    nab = np.einsum("ai,acj->icj", h, dh) + np.einsum("ai,cab,bj->icj", h, cgam, h)
    return np.einsum("icj,cd,dk->ikj", nab, g, h)


def frame_curvature_oracle(model, p, step=1e-4):
    """r[i, j, k, l] = g(R(E_i, E_j) E_k, E_l) from metric differences only."""
    n = model.dim
    h = frame(model, p)
    g = metric(model, p)
    ginv = np.linalg.inv(g)
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
    return np.einsum("ai,bj,ck,abcd,de,el->ijkl", h, h, h, chart_r, g, h)


# ---------------------------------------------------------------------------
# frame algebra on random points


def dense_at(model, points):
    """Dense connection and curvature coefficients rebuilt from the samples."""
    samples = sample_geometry(model, points)
    return dense_chris(samples, points.shape), dense_curv(samples, points.shape)


def test_frame_orthonormal_for_metric(model_points):
    model, pts = model_points
    scale = sample_geometry(model, pts).scale
    h = np.eye(model.dim) * (1.0 if scale is None else scale[:, None, None])
    gram = np.einsum("...ai,...ab,...bj->...ij", h, metric(model, pts), h)
    assert np.max(np.abs(gram - np.eye(model.dim))) < FRAME_TOL


def test_connection_antisymmetry(model_points):
    model, pts = model_points
    gamma, _ = dense_at(model, pts)
    assert np.max(np.abs(gamma + np.swapaxes(gamma, -2, -1))) < EXACT_TOL


def test_curvature_antisymmetries(model_points):
    model, pts = model_points
    _, r = dense_at(model, pts)
    assert np.max(np.abs(r + np.swapaxes(r, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, -2, -1))) < EXACT_TOL


def test_christoffel_matches_finite_differences(model_points):
    model, pts = model_points
    gamma, _ = dense_at(model, pts[:20])
    for p, g in zip(pts[:20], gamma):
        assert np.max(np.abs(g - frame_christoffel_oracle(model, p))) < FD_CHRIS_TOL


def test_curvature_matches_finite_differences(model_points):
    model, pts = model_points
    _, r = dense_at(model, pts[:10])
    for p, rp in zip(pts[:10], r):
        assert np.max(np.abs(rp - frame_curvature_oracle(model, p))) < FD_CURV_TOL


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
        # P = -K/2 I of the declared curvature against the generic formula
        exact, general = sample_geometry(builtin, pts), sample_geometry(generic, pts)
        for name in ("scale", "conn", "curv"):
            gap = np.max(np.abs(getattr(exact, name) - getattr(general, name)))
            assert gap < CROSS_MODEL_TOL, name


# ---------------------------------------------------------------------------
# single points, sampling, chart domain


def test_single_point_evaluators_and_chart_domain():
    model = HyperbolicHalfPlaneModel()
    point = np.array([[0.3, 1.2]])
    samples = sample_geometry(model, point)
    assert samples.scale.shape == (1,)
    assert samples.conn.shape == (1, 2)
    assert samples.curv.shape == (1, 2, 2)
    gamma, r = dense_at(model, point)
    assert np.max(np.abs(gamma + np.swapaxes(gamma, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, 1, 2))) < EXACT_TOL
    assert np.max(np.abs(r + np.swapaxes(r, 3, 4))) < EXACT_TOL
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


@pytest.mark.parametrize("k", [0, 5, 11])
def test_the_first_bad_point_is_named_by_its_grid_index(k):
    # finiteness is checked over whole arrays at once; the index named is
    # still that of the first bad point, whichever array or component holds
    # it, with more bad points at ``later`` (k itself for the last point)
    later = min(k + 3, 11)

    def points():
        return np.column_stack([np.linspace(0.1, 0.5, 12), np.full(12, 1.0)])

    for model in (make_manifold("euclidean", 2), HyperbolicHalfPlaneModel()):
        for j in range(2):
            pts = points()
            pts[k, j] = np.nan
            pts[later:, 1 - j] = np.inf
            inside = np.arange(12) < later
            inside[k] = False
            assert np.array_equal(model.contains(pts), inside)
            with pytest.raises(ChartDomainError, match=f"left the chart .* at grid index {k},"):
                sample_geometry(model, pts)
    pts = points()
    pts[k, 1] = -0.5
    pts[later:, 0] = np.nan
    with pytest.raises(ChartDomainError, match=f"left the chart .* at grid index {k},"):
        sample_geometry(HyperbolicHalfPlaneModel(), pts)

    # sqrt(x) at x = 0 leaves the scale finite and the connection infinite;
    # log(y) at y = 0 makes the scale infinite
    model = ConformalModel(2, "sqrt(x) + log(y)")
    for first, second in ((0, 1), (1, 0)):
        pts = points()
        pts[k, first] = 0.0
        pts[later, second] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChartDomainError, match=f"not finite at grid index {k},"):
                sample_geometry(model, pts)


def test_sample_geometry_shapes_and_inverse():
    model = SphereChartModel(2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, (16, 2))
    samples = sample_geometry(model, pts)
    assert samples.scale.shape == (16,)
    assert samples.conn.shape == (16, 2)
    assert samples.curv.shape == (16, 2, 2)
    # frame components invert the frame h = scale I of the metric's frame oracle
    chart = rng.standard_normal((16, 2))
    back = np.einsum("pij,pj->pi", frame(model, pts), frame_components(samples, chart))
    assert np.max(np.abs(back - chart)) < FRAME_TOL
    with pytest.raises(ValueError):
        sample_geometry(model, rng.uniform(-0.5, 0.5, (16, 3)))


def test_apply_helpers_match_loops():
    rng = np.random.default_rng(5)
    for model, pts in (
        (
            HyperbolicHalfPlaneModel(),
            np.column_stack([rng.uniform(-1.0, 1.0, 9), rng.uniform(0.5, 2.0, 9)]),
        ),
        (ConformalModel(3, "0.2*x*z - 0.3*y**2 + 0.1*cos(x + z)"), rng.uniform(-1.0, 1.0, (9, 3))),
    ):
        n = model.dim
        samples = sample_geometry(model, pts)
        chris, curv = dense_at(model, pts)
        u, v, w = rng.standard_normal((3, 9, n))
        chris_loop = np.zeros_like(u)
        curv_loop = np.zeros_like(u)
        for p in range(9):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        chris_loop[p, k] += chris[p, i, k, j] * u[p, i] * v[p, j]
                        for l in range(n):
                            curv_loop[p, l] += curv[p, i, j, k, l] * u[p, i] * v[p, j] * w[p, k]
        assert np.max(np.abs(apply_chris(samples.conn, u, v) - chris_loop)) < EXACT_TOL
        assert np.max(np.abs(apply_curv(samples.curv, u, v, w) - curv_loop)) < EXACT_TOL


def test_make_manifold_names_and_flags():
    assert make_manifold("euclidean", 3).dim == 3
    assert make_manifold("hyperbolic").name == "hyperbolic"
    assert make_manifold("conformal", 2, expression="x*y").name == "conformal"
    assert make_manifold("flat-torus", 2).is_flat
    assert not make_manifold("sphere").is_flat
    with pytest.raises(ValueError, match="manifold.name: must be one of"):
        make_manifold("klein-bottle")
    with pytest.raises(ValueError, match="unknown symbols"):
        ConformalModel(2, "x + q")
    with pytest.raises(ValueError):
        EuclideanModel(0)


def test_make_manifold_holds_every_chart_to_its_declared_rules():
    # the half-plane model is two-dimensional whatever dim it is asked for
    for dim in (1, 3, 4):
        with pytest.raises(ValueError, match="manifold.dim: hyperbolic model is two-dimensional"):
            make_manifold("hyperbolic", dim)
    with pytest.raises(ValueError, match="manifold.expression: unknown field; chart 'sphere'"):
        make_manifold("sphere", 2, expression="x")
    with pytest.raises(ValueError, match="manifold.expression: conformal model needs an expression"):
        make_manifold("conformal", 2)
    with pytest.raises(ValueError, match="manifold.expression: .*unknown symbols"):
        make_manifold("conformal", 2, expression="x + q")
    # a dimension below 1 is the dimension's fault, whatever the chart takes
    for name, settings in (("conformal", {"expression": "x"}), ("euclidean", {}), ("sphere", {})):
        with pytest.raises(ValueError, match=r"^manifold.dim: manifold dimension must be >= 1, got 0$"):
            make_manifold(name, 0, **settings)
    # a one-dimensional conformal chart has the one coordinate x
    line = make_manifold("conformal", 1, expression="0.1*x")
    assert np.allclose(sample_geometry(line, [[2.0]]).scale, np.exp(-0.2))


def test_conformal_powers_need_an_exponent_that_folds_to_a_number():
    # floats need no bound on the size of a power, only a number exponent
    for expression in ("x**y", "2**x", "x**(0*y + 2)"):
        with pytest.raises(ValueError, match="whose exponent is not a number"):
            ConformalModel(2, expression)
    for expression in (
        "x**-2 + (-2)**3 + pi**2",
        "2**64*x",
        "(x**8)**8",
        "sqrt(x**0.5)",
        "x**65",
        "(2*pi)**2*x",
        "((x*0 + 9)**64)**64",
        "exp(log((x*0 + 9)**64))**2",
        "x**(1/2 - 3)",
    ):
        ConformalModel(2, expression)


def test_a_factor_that_only_simplification_shows_infinite_fails_when_sampled():
    # the constant parts of a factor fold to floats; x - x is not one, so
    # log(x - x) is accepted, and its first sample is refused
    model = ConformalModel(2, "log(x - x)")
    with pytest.raises(ChartDomainError, match="not finite at grid index 0"):
        sample_geometry(model, np.array([[0.5, 0.5]]))


def test_flat_torus_displacement_wraps():
    torus = FlatTorusModel(2)
    d = torus.displacement(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert np.allclose(d, [0.2, -0.2], atol=EXACT_TOL)
