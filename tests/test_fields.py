"""Tests for discrete fields along the wire: grids, derivatives, norms.

Key identities checked here: summation by parts for the covariant difference,
the exact pairing of the compact second difference with the sided gradient
square on unit fields, and convergence of the discrete derivative commutator
to the curvature action.
"""

import math

import numpy as np
import pytest

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
    m01,
    m1,
    perp,
    row_norms,
    shift,
    sided_grad_sq,
    time_diff_series,
)
from elwire.geometry import (
    EuclideanModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    frame_components,
    sample_geometry,
)
from residual_oracle import cov_dt

EXACT_TOL = 1e-12
SYMBOL_TOL = 1e-11
ORDER_MIN = 1.5
TWO_PI = 2.0 * math.pi


def unit_field(grid: Grid) -> np.ndarray:
    """Smooth pointwise-unit field winding once around the circle."""
    psi = TWO_PI * grid.points() + 0.3 * np.sin(2.0 * TWO_PI * grid.points())
    return np.column_stack([np.cos(psi), np.sin(psi)])


def hyperbolic_setup(n: int):
    grid = Grid(n)
    x = grid.points()
    curve = np.column_stack(
        [0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)]
    )
    model = HyperbolicHalfPlaneModel()
    return grid, model, curve, sample_geometry(model, curve)


# ---------------------------------------------------------------------------
# grid and state containers


def test_grid_validation_and_spacing():
    grid = Grid(16)
    assert grid.dx == pytest.approx(1.0 / 16)
    assert grid.points().shape == (16,)
    assert grid.points()[0] == 0.0
    with pytest.raises(ValueError):
        Grid(7)
    with pytest.raises(ValueError):
        Grid(16.5)


# ---------------------------------------------------------------------------
# difference operators


@pytest.mark.parametrize(
    "shape, axis", [((8, 2), -2), ((3, 9, 2), -2), ((3, 9, 2, 2), -3), ((9, 3), 0)]
)
@pytest.mark.parametrize("k", [-11, -2, -1, 0, 1, 2, 9, 17])
def test_shift_equals_roll(shape, axis, k):
    v = np.random.default_rng(7).standard_normal(shape)
    out = shift(v, k, axis)
    assert out.shape == v.shape and np.array_equal(out, np.roll(v, k, axis=axis))
    out[...] = 0.0  # a fresh array, never a view of its input
    assert np.all(v != 0.0)


def test_circ_diff_discrete_symbol():
    grid = Grid(64)
    x = grid.points()
    values = np.sin(TWO_PI * x)[:, None]
    expected = np.cos(TWO_PI * x)[:, None] * (np.sin(TWO_PI * grid.dx) / grid.dx)
    assert np.max(np.abs(circ_diff(values, grid.dx) - expected)) < SYMBOL_TOL


def test_compact_second_discrete_symbol():
    grid = Grid(64)
    x = grid.points()
    values = np.sin(TWO_PI * x)[:, None]
    omega_sq = (2.0 * np.sin(math.pi * grid.dx) / grid.dx) ** 2
    assert np.max(np.abs(compact_second(values, grid.dx) + omega_sq * values)) < 1e-9


def test_summation_by_parts_flat_and_curved():
    rng = np.random.default_rng(2)
    grid, _, _, samples = hyperbolic_setup(64)
    xi = unit_field(grid)
    p = rng.standard_normal((64, 2))
    q = rng.standard_normal((64, 2))
    plain = l2_inner(circ_diff(p, grid.dx), q, grid.dx) + l2_inner(
        p, circ_diff(q, grid.dx), grid.dx
    )
    assert abs(plain) < EXACT_TOL
    curved = l2_inner(cov_dx(p, xi, samples, grid.dx), q, grid.dx) + l2_inner(
        p, cov_dx(q, xi, samples, grid.dx), grid.dx
    )
    assert abs(curved) < EXACT_TOL


def test_compact_pairing_vanishes_on_unit_fields():
    """g(compact second, xi) + sided gradient square is exactly zero pointwise
    on unit fields when the connection vanishes; this is what pins the unit
    tangent during leapfrog marching."""
    grid = Grid(64)
    xi = unit_field(grid)
    flat = sample_geometry(EuclideanModel(2), np.zeros((64, 2)))
    pairing = np.sum(compact_second(xi, grid.dx) * xi, axis=-1) + sided_grad_sq(
        xi, xi, flat, grid.dx
    )
    assert np.max(np.abs(pairing)) < 1e-9


def test_cov_dxx_matches_composed_first_derivatives():
    sups = []
    for n in (64, 128, 256):
        grid, _, _, samples = hyperbolic_setup(n)
        xi = unit_field(grid)
        composed = cov_dx(cov_dx(xi, xi, samples, grid.dx), xi, samples, grid.dx)
        sups.append(m0(cov_dxx(xi, xi, samples, grid.dx) - composed))
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


def test_sided_grad_sq_converges_to_centred_square():
    sups = []
    for n in (64, 128, 256):
        grid, _, _, samples = hyperbolic_setup(n)
        xi = unit_field(grid)
        centred = np.sum(cov_dx(xi, xi, samples, grid.dx) ** 2, axis=-1)
        sups.append(np.max(np.abs(sided_grad_sq(xi, xi, samples, grid.dx) - centred)))
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


def test_cov_dt_flat_quadratic_is_exact():
    grid = Grid(8)
    flat = sample_geometry(EuclideanModel(2), np.zeros((8, 2)))
    rng = np.random.default_rng(4)
    c0, c1, c2 = rng.standard_normal((3, 8, 2))
    dt = 0.125
    levels = [c0 + c1 * (k * dt) + c2 * (k * dt) ** 2 for k in range(3)]
    rate = cov_dt(levels[0], levels[2], np.zeros((8, 2)), dt, flat)
    assert np.max(np.abs(rate - (c1 + 2.0 * c2 * dt))) < EXACT_TOL


def test_time_diff_series_exact_on_quadratics():
    rng = np.random.default_rng(9)
    c0, c1, c2 = rng.standard_normal((3, 8, 2))
    dt = 0.0625
    times = np.arange(5) * dt
    series = np.stack([c0 + c1 * t + c2 * t * t for t in times])
    deriv = time_diff_series(series, dt)
    expected = np.stack([c1 + 2.0 * c2 * t for t in times])
    assert np.max(np.abs(deriv - expected)) < 1e-11
    with pytest.raises(ValueError):
        time_diff_series(series[:2], dt)


# ---------------------------------------------------------------------------
# commutator of covariant derivatives against the curvature action


def commutator_residual(model, curve_of, p_of, n: int) -> float:
    """Sup residual of (D_t D_x - D_x D_t) p - R(eta, xi) p at the mid level."""
    grid = Grid(n)
    x = grid.points()
    dt = grid.dx
    times = (-dt, 0.0, dt)
    curves = [curve_of(x, t) for t in times]
    samples = [sample_geometry(model, c) for c in curves]
    fields = [p_of(x, t) for t in times]
    xis, etas = [], []
    for k, t in enumerate(times):
        tangent = circ_diff(curves[k], grid.dx)
        velocity = (curve_of(x, t + dt) - curve_of(x, t - dt)) / (2.0 * dt)
        xis.append(frame_components(samples[k], tangent))
        etas.append(frame_components(samples[k], velocity))
    dx_levels = [
        cov_dx(fields[k], xis[k], samples[k], grid.dx) for k in range(3)
    ]
    dt_dx = (dx_levels[2] - dx_levels[0]) / (2.0 * dt) + apply_chris(
        samples[1].conn, etas[1], dx_levels[1]
    )
    dt_p = (fields[2] - fields[0]) / (2.0 * dt) + apply_chris(
        samples[1].conn, etas[1], fields[1]
    )
    dx_dt = cov_dx(dt_p, xis[1], samples[1], grid.dx)
    curv_term = apply_curv(samples[1].curv, etas[1], xis[1], fields[1])
    return m0(dt_dx - dx_dt - curv_term)


def smooth_probe(x, t):
    return np.column_stack(
        [np.cos(TWO_PI * x + 0.5 * t), np.sin(2.0 * TWO_PI * x - 0.3 * t)]
    )


def test_commutator_matches_curvature_hyperbolic():
    def curve(x, t):
        return np.column_stack(
            [0.3 * np.sin(TWO_PI * x) + 0.1 * t, 1.0 + 0.2 * np.cos(TWO_PI * x) + 0.05 * t]
        )

    sups = [
        commutator_residual(HyperbolicHalfPlaneModel(), curve, smooth_probe, n)
        for n in (32, 64, 128)
    ]
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


def test_commutator_matches_curvature_sphere():
    def curve(x, t):
        return np.column_stack(
            [
                0.4 * np.cos(TWO_PI * x) + 0.05 * t,
                0.4 * np.sin(TWO_PI * x) - 0.03 * t,
            ]
        )

    sups = [
        commutator_residual(SphereChartModel(2), curve, smooth_probe, n)
        for n in (32, 64, 128)
    ]
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


# ---------------------------------------------------------------------------
# pointwise algebra and norms


def test_perp_is_orthogonal_projection():
    grid = Grid(16)
    xi = unit_field(grid)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((16, 2))
    proj = perp(v, xi)
    assert np.max(np.abs(np.sum(proj * xi, axis=-1))) < EXACT_TOL
    assert np.max(np.abs(perp(xi, xi))) < EXACT_TOL
    assert np.max(np.abs(perp(proj, xi) - proj)) < EXACT_TOL


def test_norm_helpers():
    grid = Grid(8)
    ones = np.ones((8, 2))
    assert l2_inner(ones, ones, grid.dx) == pytest.approx(2.0)
    assert l2_norm(ones, grid.dx) == pytest.approx(math.sqrt(2.0))
    assert np.allclose(row_norms(ones), math.sqrt(2.0))
    assert m0(ones) == pytest.approx(math.sqrt(2.0))
    assert m0(np.array([-3.0, 1.0])) == 3.0
    assert constraint_drift(unit_field(grid)) < EXACT_TOL
    assert constraint_drift(2.0 * unit_field(grid)) == pytest.approx(3.0)


def test_composite_norms_on_constant_series():
    grid = Grid(16)
    dt = grid.dx
    series = np.broadcast_to(np.ones((16, 2)), (4, 16, 2)).copy()
    assert m0(series) == pytest.approx(math.sqrt(2.0))
    assert m01(series, dt) == pytest.approx(math.sqrt(2.0))
    assert m1(series, grid.dx, dt) == pytest.approx(math.sqrt(2.0))
