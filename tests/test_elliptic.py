"""Tests for the tension and bentness solves, and the bentness gate.

The dense oracle is checked against an index-by-index loop construction; the
block-tridiagonal operator and its cyclic-reduction solve against the dense
oracle and against conjugate
gradients on the unassembled operator, on every chart; and the solver
against closed-form solutions on the resting circle, where the wide composed
stencil has the exact symbol sin(2 pi dx) / dx on the lowest mode.  The
tension solve keeps only its own guards; the run gates it through
dynamics._gate, whose refusals are checked here too.
"""

import math

import numpy as np
import pytest

from elliptic_oracle import block_tridiagonal_to_dense, cg_solve, dense_operator, dense_solve
from geometry_oracle import dense_chris
from run_config import SOLVE_DEFAULTS, run_config
from elwire import elliptic
from elwire.dynamics import Level, _gate
from elwire.elliptic import _block_operator, _fold_order, _solve_system, bentness, solve_flux_form
from elwire.errors import ConstraintDriftError, NearGeodesicError, NumericalSolveError
from elwire.fields import (
    MIN_POINTS,
    Grid,
    circ_diff,
    constraint_drift,
    cov_dx,
    l2_norm,
    m0,
    perp,
    row_norms,
)
from elwire.geometry import (
    EuclideanModel,
    HyperbolicHalfPlaneModel,
    frame_components,
    make_manifold,
    sample_geometry,
    stack_samples,
)

SYMMETRY_TOL = 1e-10
ORACLE_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10
DENSE_CG_TOL = 1e-8
EXACT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def circle_tangent(grid: Grid) -> np.ndarray:
    x = grid.points()
    return np.column_stack([-np.sin(TWO_PI * x), np.cos(TWO_PI * x)])


def flat_setup(n: int):
    grid = Grid(n)
    model = EuclideanModel(2)
    samples = sample_geometry(model, np.zeros((n, 2)))
    return grid, samples


def hyperbolic_setup(n: int):
    grid = Grid(n)
    x = grid.points()
    curve = np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    samples = sample_geometry(HyperbolicHalfPlaneModel(), curve)
    tangent = frame_components(samples, circ_diff(curve, grid.dx))
    xi = tangent / row_norms(tangent)[:, None]
    return grid, samples, xi


# one closed curve inside each chart: (make_manifold keywords, centre, radii)
CHART_CURVES = {
    "euclidean": ({}, (0.2, -0.1), (0.5, 0.3)),
    "flat-torus": ({}, (0.5, 0.5), (0.3, 0.2)),
    "hyperbolic": ({}, (0.0, 1.0), (0.3, 0.2)),
    "sphere": ({}, (0.1, 0.2), (0.6, 0.4)),
    "conformal": ({"expression": "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"}, (0.1, 0.0), (0.5, 0.4)),
}
# N % 4 = 0, 1, 2 and 3: the last block row holds 4, 1, 2 and 3 slots; at
# n = 2, N = 180 reduces 45 -> 23 -> 12 -> 6 block rows, two stages of them odd
ORACLE_SIZES = (MIN_POINTS, 9, 10, 11, 33, 64, 180)


def chart_setup(name: str, n: int):
    """Grid, samples and unit tangent of a wobbly closed curve in a chart."""
    params, centre, radii = CHART_CURVES[name]
    grid = Grid(n)
    x = TWO_PI * grid.points()
    wobble = 1.0 + 0.1 * np.cos(3.0 * x)
    curve = np.column_stack(
        [centre[0] + radii[0] * wobble * np.sin(x), centre[1] + radii[1] * wobble * np.cos(x)]
    )
    samples = sample_geometry(make_manifold(name, 2, **params), curve)
    tangent = frame_components(samples, circ_diff(curve, grid.dx))
    return grid, samples, tangent / row_norms(tangent)[:, None]


def production_matrix(xi, samples, grid, kind):
    """The block operator of the production solve, unfolded to a dense matrix."""
    system = _block_operator(xi, samples, grid, kind)
    return block_tridiagonal_to_dense(system, _fold_order(len(xi)), xi.shape[1])


def random_unit_field(grid: Grid, rng) -> np.ndarray:
    x = grid.points()
    psi = TWO_PI * x.copy()
    for mode in (1, 2, 3):
        psi += rng.uniform(-0.3, 0.3) * np.sin(TWO_PI * mode * x + rng.uniform(0, TWO_PI))
    return np.column_stack([np.cos(psi), np.sin(psi)])


def naive_first_derivative_matrix(xi, samples, grid) -> np.ndarray:
    """Loop construction of the dense covariant difference matrix."""
    npts, n = xi.shape
    chris = dense_chris(samples, xi.shape)
    d = np.zeros((npts * n, npts * n))
    for k in range(npts):
        up = (k + 1) % npts
        dn = (k - 1) % npts
        for i in range(n):
            d[k * n + i, up * n + i] += 1.0 / (2.0 * grid.dx)
            d[k * n + i, dn * n + i] -= 1.0 / (2.0 * grid.dx)
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    d[k * n + i, k * n + j] += chris[k, a, i, j] * xi[k, a]
    return d


# ---------------------------------------------------------------------------
# operator assembly


def test_tension_matrix_is_symmetric():
    grid, samples = flat_setup(24)
    xi = circle_tangent(grid)
    matrix = production_matrix(xi, samples, grid, "perp")
    assert np.max(np.abs(matrix - matrix.T)) < SYMMETRY_TOL
    grid, samples, xi = hyperbolic_setup(24)
    matrix = production_matrix(xi, samples, grid, "perp")
    assert np.max(np.abs(matrix - matrix.T)) < SYMMETRY_TOL
    bent = production_matrix(xi, samples, grid, "identity")
    assert np.max(np.abs(bent - bent.T)) < SYMMETRY_TOL


@pytest.mark.parametrize("n_points", ORACLE_SIZES)
@pytest.mark.parametrize("chart", sorted(CHART_CURVES))
def test_dense_matrices_match_naive_loops(chart, n_points):
    grid, samples, xi = chart_setup(chart, n_points)
    d = naive_first_derivative_matrix(xi, samples, grid)
    npts, n = xi.shape
    perp_blocks = np.zeros((npts * n, npts * n))
    for k in range(npts):
        block = np.eye(n) - np.outer(xi[k], xi[k])
        perp_blocks[k * n : (k + 1) * n, k * n : (k + 1) * n] = block
    expected = {"perp": -d @ d + perp_blocks, "identity": -d @ d + np.eye(npts * n)}
    for kind, naive in expected.items():
        oracle = dense_operator(xi, samples, grid, kind)
        assert np.max(np.abs(oracle - naive)) < ORACLE_TOL
        production = production_matrix(xi, samples, grid, kind)
        assert np.max(np.abs(production - oracle)) < ORACLE_TOL


def test_assembled_system_solves_like_flux_form():
    grid, samples, xi = hyperbolic_setup(32)
    rng = np.random.default_rng(12)
    f = 0.1 * rng.standard_normal(xi.shape)
    h = rng.standard_normal(xi.shape)
    direct = dense_solve(xi, samples, grid, "perp", h + cov_dx(f, xi, samples, grid.dx))
    result = solve_flux_form(f, h, xi, samples, grid, **SOLVE_DEFAULTS)
    assert m0(result.u - direct) < 1e-9
    assert m0(result.flux - (cov_dx(result.u, xi, samples, grid.dx) + f)) < EXACT_TOL


def test_flux_form_solves_one_system(monkeypatch):
    # the tension solve takes no gate, so it solves no bentness system of
    # its own: one system per call, for a level and for a window series
    kinds = []
    real = elliptic._solve_system

    def counted(xi, samples, grid, kind, rhs):
        kinds.append(kind)
        return real(xi, samples, grid, kind, rhs)

    monkeypatch.setattr(elliptic, "_solve_system", counted)
    grid, samples, xi = hyperbolic_setup(32)
    h = np.ones_like(xi)
    solve_flux_form(np.zeros_like(xi), h, xi, samples, grid, **SOLVE_DEFAULTS)
    assert kinds == ["perp"]
    series, stacked = np.stack([xi, xi]), stack_samples([samples, samples])
    solve_flux_form(np.zeros_like(series), np.stack([h, h]), series, stacked, grid, **SOLVE_DEFAULTS)
    assert kinds == ["perp", "perp"]


# ---------------------------------------------------------------------------
# closed forms and solve paths


def test_closed_forms_on_rest_circle():
    grid, samples = flat_setup(256)
    xi = circle_tangent(grid)
    omega = math.sin(TWO_PI * grid.dx) / grid.dx
    zero = np.zeros_like(xi)

    result = solve_flux_form(zero, -omega * omega * xi, xi, samples, grid, **SOLVE_DEFAULTS)
    assert m0(result.u + xi) / m0(xi) < CLOSED_FORM_TOL

    result = solve_flux_form(zero, xi, xi, samples, grid, **SOLVE_DEFAULTS)
    assert m0(result.u - xi / omega**2) / m0(xi / omega**2) < CLOSED_FORM_TOL
    assert result.residual < 1e-8


@pytest.mark.parametrize("kind", ["perp", "identity"])
@pytest.mark.parametrize("n_points", ORACLE_SIZES)
@pytest.mark.parametrize("chart", sorted(CHART_CURVES))
def test_dense_and_cg_paths_agree(chart, n_points, kind):
    grid, samples, xi = chart_setup(chart, n_points)
    if kind == "perp":
        rhs = np.random.default_rng(3).standard_normal(xi.shape)
        reduced = solve_flux_form(np.zeros_like(xi), rhs, xi, samples, grid, **SOLVE_DEFAULTS).u
    else:
        rhs = xi
        reduced = _solve_system(xi, samples, grid, "identity", xi)
    assert m0(reduced - dense_solve(xi, samples, grid, kind, rhs)) < DENSE_CG_TOL
    assert m0(reduced - cg_solve(xi, samples, grid, kind, rhs)) < DENSE_CG_TOL


def test_solver_is_linear():
    grid, samples, xi = hyperbolic_setup(32)
    rng = np.random.default_rng(8)
    h1 = rng.standard_normal(xi.shape)
    h2 = rng.standard_normal(xi.shape)
    zero = np.zeros_like(xi)
    u1 = solve_flux_form(zero, h1, xi, samples, grid, **SOLVE_DEFAULTS).u
    u2 = solve_flux_form(zero, h2, xi, samples, grid, **SOLVE_DEFAULTS).u
    u12 = solve_flux_form(zero, h1 + 0.5 * h2, xi, samples, grid, **SOLVE_DEFAULTS).u
    assert m0(u12 - (u1 + 0.5 * u2)) < 1e-9


# ---------------------------------------------------------------------------
# bentness


def test_bentness_closed_form_on_circle():
    grid, samples = flat_setup(256)
    xi = circle_tangent(grid)
    omega = math.sin(TWO_PI * grid.dx) / grid.dx
    value = bentness(xi, samples, grid)
    assert abs(value - omega / math.sqrt(1.0 + omega * omega)) < CLOSED_FORM_TOL
    # the minimiser, solved as bentness solves it, and its optimality defect
    phi = _solve_system(xi, samples, grid, "identity", xi)
    assert m0(phi - xi / (1.0 + omega * omega)) < CLOSED_FORM_TOL
    dphi = cov_dx(phi, xi, samples, grid.dx)
    assert m0(-cov_dx(dphi, xi, samples, grid.dx) + phi - xi) < 1e-8
    # close to, but distinct from, the continuum value at this resolution
    continuum = TWO_PI / math.sqrt(1.0 + TWO_PI * TWO_PI)
    assert abs(value - continuum) < 1e-4


def test_bentness_range_on_random_unit_fields():
    grid, samples = flat_setup(48)
    rng = np.random.default_rng(21)
    for _ in range(20):
        xi = random_unit_field(grid, rng)
        assert 0.0 <= bentness(xi, samples, grid) <= 1.0 + 1e-10


def test_bentness_vanishes_on_constant_field():
    grid, samples = flat_setup(32)
    xi = np.broadcast_to(np.array([1.0, 0.0]), (32, 2)).copy()
    assert bentness(xi, samples, grid) < EXACT_TOL


def test_bentness_is_stable_under_field_perturbations():
    grid, samples = flat_setup(48)
    rng = np.random.default_rng(18)
    for _ in range(10):
        xi = random_unit_field(grid, rng)
        other = random_unit_field(grid, rng)
        delta = abs(bentness(xi, samples, grid) - bentness(other, samples, grid))
        assert delta <= l2_norm(xi - other, grid.dx) + 1e-8


# ---------------------------------------------------------------------------
# guards


def test_near_geodesic_refusal_and_report_reuse():
    # the run's gate (dynamics._gate) refuses a constant field below the
    # bentness floor; a healthy field passes with its fresh value, and a
    # carried value is returned as the same float object, unsolved, between
    # multiples of bentness_every and at the run's last level
    grid, samples = flat_setup(32)
    cfg = run_config(grid, 1)

    def level_of(xi, time=0.0):
        zero = np.zeros_like(xi)
        return Level.derive(zero, xi, zero, zero, samples, grid.dx, time=time)

    geodesic = level_of(np.broadcast_to(np.array([1.0, 0.0]), (32, 2)).copy())
    low = bentness(geodesic.xi, samples, grid)
    with pytest.raises(NearGeodesicError) as refused:
        _gate(geodesic, grid, cfg, 0, 1)
    assert str(refused.value) == (
        f"bentness {low:.3e} below floor 1.000e-03; tension operator is (near) singular"
    )

    bent = level_of(circle_tangent(grid))
    value = bentness(bent.xi, samples, grid)
    assert _gate(bent, grid, cfg, 0, 1) == value
    assert _gate(bent, grid, cfg, 1, 20, value) is value
    assert _gate(geodesic, grid, cfg, 1, 20, value) is value
    assert _gate(geodesic, grid, cfg, 10, 10, value) is value
    with pytest.raises(NearGeodesicError):
        _gate(geodesic, grid, cfg, 10, 20, value)

    # the unit tangent of a level a step is taken from is held to
    # constraint_tol whether the gate is fresh or carried; a level that only
    # ends a step passes with its defect, and its bentness is still held
    drifted = level_of(1.1 * bent.xi, time=0.25)
    message = (
        f"unit-tangent defect {constraint_drift(drifted.xi):.3e} exceeds tolerance "
        "1.0e-02 at t=0.250000"
    )
    for k, carried in ((0, None), (1, value), (1, None)):
        with pytest.raises(ConstraintDriftError) as refused:
            _gate(drifted, grid, cfg, k, 1, carried)
        assert str(refused.value) == message
    assert _gate(drifted, grid, cfg, 1, 1, value, steps_from=False) is value
    assert _gate(drifted, grid, cfg, 0, 1, steps_from=False) == bentness(drifted.xi, samples, grid)
    with pytest.raises(NearGeodesicError):
        _gate(level_of(1.1 * geodesic.xi), grid, cfg, 0, 1, steps_from=False)


def test_unit_drift_guard():
    grid, samples = flat_setup(32)
    xi = 2.0 * circle_tangent(grid)
    with pytest.raises(ConstraintDriftError, match="unit"):
        solve_flux_form(np.zeros_like(xi), np.ones_like(xi), xi, samples, grid, **SOLVE_DEFAULTS)


def test_unreachable_tolerance_raises():
    grid, samples = flat_setup(32)
    xi = circle_tangent(grid)
    with pytest.raises(NumericalSolveError):
        solve_flux_form(
            np.zeros_like(xi),
            np.ones_like(xi),
            xi,
            samples,
            grid,
            tol=1e-30,
        )


def test_nan_source_raises_solve_error():
    grid, samples, xi = hyperbolic_setup(32)
    h = np.ones_like(xi)
    h[5, 1] = np.nan
    with pytest.raises(NumericalSolveError):
        solve_flux_form(np.zeros_like(xi), h, xi, samples, grid, **SOLVE_DEFAULTS)


def test_factorisation_failure_raises_solve_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    # N = 64 reduces once, inverting blocks, before the dense solve of the
    # last rows; N = 32 goes to the dense solve at once
    for routine, n_points in (("inv", 64), ("solve", 32)):
        grid, samples, xi = hyperbolic_setup(n_points)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, routine, singular)
            with pytest.raises(NumericalSolveError, match="singular"):
                solve_flux_form(
                    np.zeros_like(xi), np.ones_like(xi), xi, samples, grid, **SOLVE_DEFAULTS
                )


def test_residual_is_checked_against_defect():
    grid, samples, xi = hyperbolic_setup(32)
    rng = np.random.default_rng(14)
    h = rng.standard_normal(xi.shape)
    result = solve_flux_form(np.zeros_like(xi), h, xi, samples, grid, **SOLVE_DEFAULTS)
    defect = (
        -cov_dx(result.flux, xi, samples, grid.dx) + perp(result.u, xi) - h
    )
    assert result.residual == pytest.approx(m0(defect), abs=EXACT_TOL)
