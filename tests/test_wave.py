"""Tests for the tangent wave solvers: integral representation, source
iteration, and the three-level leapfrog.

Exact discrete identities used as oracles: the standing-mode factor
cos(2 pi m dx) of the source-free representation, the quadratic ramp under a
constant source, the vanishing contribution of x-uniform characteristic
sources, exact translation transport of the leapfrog at dt = dx, and the
resting circle as a leapfrog equilibrium.  The recurrence and the running
characteristic sums are compared with the plain quadrature of wave_oracle.
"""

import math

import numpy as np
import pytest

from elwire.errors import CflError, NonContractionError
from elwire.fields import Grid, circ_diff, m0
from elwire.geometry import EuclideanModel, sample_geometry, stack_samples
from elwire.wave import _contract, leapfrog_step, picard_wave_solve, wave_series

from wave_oracle import characteristic_derivatives, characteristic_quadrature, triangle_series

EXACT_TOL = 1e-12
TRANSPORT_TOL = 1e-11
ORDER_MIN = 1.8
TWO_PI = 2.0 * math.pi


def rotation_field(grid: Grid) -> np.ndarray:
    x = grid.points()
    return np.column_stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)])


def flat_samples(npts: int):
    return sample_geometry(EuclideanModel(2), np.zeros((npts, 2)))


def frozen_flat(npts: int, steps: int) -> dict:
    """Resting flat curve over a window: zero velocity and flat samples series."""
    return {
        "eta_series": np.zeros((steps + 1, npts, 2)),
        "samples_series": stack_samples([flat_samples(npts)] * (steps + 1)),
    }


def translation_data(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Initial field and rate of a right-moving wave: (a, -a_x)."""
    a = rotation_field(grid)
    return a, -circ_diff(a, grid.dx)


# ---------------------------------------------------------------------------
# integral representation


def test_source_free_standing_mode_is_exact():
    grid = Grid(64)
    a = rotation_field(grid)
    zero = np.zeros_like(a)
    series = wave_series(a, zero, None, None, grid.dx, 128)
    # the periodic representation holds past one period of the grid
    for m in (0, 1, 5, 16, 32, 64, 80, 128):
        expected = math.cos(TWO_PI * m * grid.dx) * a
        assert m0(series[m] - expected) < EXACT_TOL
    # zero source series take both source branches and change no bit
    sources = np.zeros((129, 64, 2))
    assert np.array_equal(wave_series(a, zero, sources, sources, grid.dx, 128), series)


def test_constant_source_gives_quadratic_ramp():
    grid = Grid(64)
    a = np.broadcast_to(np.array([1.0, 0.0]), (64, 2)).copy()
    c = np.array([0.3, -0.2])
    f = np.broadcast_to(c, (13, 64, 2)).copy()
    series = wave_series(a, np.zeros_like(a), f, None, grid.dx, 12)
    for m in (1, 4, 12):
        t = m * grid.dx
        assert m0(series[m] - (a + 0.5 * c * t * t)) < EXACT_TOL


def test_x_uniform_characteristic_source_cancels():
    grid = Grid(64)
    a = np.broadcast_to(np.array([1.0, 0.0]), (64, 2)).copy()
    h = np.zeros((13, 64, 2))
    h[:, :, 0] = np.linspace(0.0, 1.0, 13)[:, None]
    series = wave_series(a, np.zeros_like(a), None, h, grid.dx, 12)
    for m in range(13):
        assert m0(series[m] - a) < EXACT_TOL


def test_translation_converges_at_second_order():
    errs = []
    for n in (64, 128, 256):
        grid = Grid(n)
        a, b = translation_data(grid)
        m = n // 4
        errs.append(m0(wave_series(a, b, None, None, grid.dx, m)[m] - np.roll(a, m, axis=0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


def test_wave_series_stacks_levels():
    grid = Grid(16)
    a, b = translation_data(grid)
    series = wave_series(a, b, None, None, grid.dx, 4)
    assert series.shape == (5, 16, 2)
    assert m0(series[0] - a) < EXACT_TOL


def random_data(npts, levels, seed):
    """Random (a, b, f, h, dx) with source series on levels 0..levels."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, npts, 2))
    f, h = rng.standard_normal((2, levels + 1, npts, 2))
    return a, b, f, h, Grid(npts).dx


@pytest.mark.parametrize("npts", [8, 9, 33, 64])
def test_recurrence_and_running_sums_match_the_quadrature(npts):
    for seed, levels in enumerate(sorted({2, 3, npts // 2, npts})):
        data = random_data(npts, levels, seed)
        expected = triangle_series(*data, levels)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(wave_series(*data, levels) - expected)) <= EXACT_TOL * scale
        fields = characteristic_derivatives(*data, n_levels=levels)
        oracle = characteristic_quadrature(*data, levels)
        for got, want in zip((fields.u_plus, fields.u_minus), oracle):
            assert np.max(np.abs(got - want)) <= EXACT_TOL * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# characteristic derivatives


def test_characteristic_derivatives_on_translation_data():
    grid = Grid(64)
    a, b = translation_data(grid)
    fields = characteristic_derivatives(a, b, None, None, grid.dx, n_levels=8)
    a_x = circ_diff(a, grid.dx)
    assert np.max(np.abs(fields.u_plus)) < EXACT_TOL
    for m in range(9):
        assert m0(fields.u_minus[m] - np.roll(2.0 * a_x, m, axis=0)) < EXACT_TOL


def test_linear_in_time_uniform_h_contribution_cancels():
    grid = Grid(64)
    a, b = translation_data(grid)
    h = np.zeros((9, 64, 2))
    for m in range(9):
        h[m] = m * grid.dx * np.array([0.4, 0.1])
    fields = characteristic_derivatives(a, b, None, h, grid.dx)
    assert np.max(np.abs(fields.u_plus)) < EXACT_TOL


def test_characteristic_derivatives_validation():
    grid = Grid(16)
    a, b = translation_data(grid)
    with pytest.raises(ValueError, match="n_levels"):
        characteristic_derivatives(a, b, None, None, grid.dx)
    h = np.zeros((2, 16, 2))
    with pytest.raises(ValueError, match="at least 3 levels"):
        characteristic_derivatives(a, b, None, h, grid.dx, n_levels=1)
    with pytest.raises(ValueError, match="cover levels"):
        characteristic_derivatives(a, b, None, h, grid.dx, n_levels=4)


# ---------------------------------------------------------------------------
# source iteration


def test_picard_contracts_near_the_resting_circle():
    grid = Grid(64)
    xi = rotation_field(grid)
    tangent = np.column_stack([-xi[:, 1], xi[:, 0]])
    steps = 8
    theta = np.tile(-tangent, (steps + 1, 1, 1))
    series, report = picard_wave_solve(
        tangent, np.zeros((64, 2)), theta, grid, **frozen_flat(64, steps)
    )
    assert report.converged
    assert report.ratios and max(report.ratios) < 1.0
    deviation = max(m0(series[m] - tangent) for m in range(steps + 1))
    assert deviation < 2e-3


def test_picard_window_validation():
    grid = Grid(16)
    xi = rotation_field(grid)
    with pytest.raises(ValueError, match="at least 2"):
        picard_wave_solve(xi, np.zeros((16, 2)), np.zeros((2, 16, 2)), grid, **frozen_flat(16, 1))


def test_picard_admits_only_unit_data_with_orthogonal_rate():
    grid = Grid(16)
    a = rotation_field(grid)
    zero = np.zeros_like(a)
    theta = np.zeros((5, 16, 2))
    for xi, xi_t in ((2.0 * a, zero), (a, a)):
        with pytest.raises(ValueError, match="admissible"):
            picard_wave_solve(xi, xi_t, theta, grid, **frozen_flat(16, 4))


def test_picard_reports_non_contraction():
    grid = Grid(32)
    xi = rotation_field(grid)
    runaway = 40.0 * np.column_stack([-xi[:, 1], xi[:, 0]])
    with pytest.raises(NonContractionError):
        picard_wave_solve(xi, runaway, np.zeros((17, 32, 2)), grid, **frozen_flat(32, 16))


def test_contraction_that_runs_out_of_sweeps_raises_with_its_report():
    # halving contracts, but three sweeps do not reach the tolerance
    halve = dict(distance=lambda new, old: abs(new - old), label="halving")
    with pytest.raises(NonContractionError, match="halving did not converge") as excinfo:
        _contract(lambda x: 0.5 * x, 1.0, max_iter=3, tol=1e-3, **halve)
    report = excinfo.value.report
    assert report.distances == (0.5, 0.25, 0.125)
    assert report.ratios == (0.5, 0.5)
    assert report.iterations == 3 and not report.converged
    value, report = _contract(lambda x: 0.5 * x, 1.0, max_iter=12, tol=1e-3, **halve)
    assert value == 0.5**10 and report.iterations == 10 and report.converged


# ---------------------------------------------------------------------------
# leapfrog


def test_leapfrog_transports_translation_data_exactly():
    grid = Grid(32)
    a = rotation_field(grid)
    prev = np.roll(a, -1, axis=0)
    curr = a
    zero = np.zeros_like(a)
    flat = flat_samples(32)
    for m in range(1, 9):
        curr, prev = leapfrog_step(prev, curr, zero, zero, grid.dx, grid, flat, eta_rate=zero), curr
        assert m0(curr - np.roll(a, m, axis=0)) < TRANSPORT_TOL


def test_leapfrog_keeps_the_resting_circle():
    grid = Grid(64)
    x = grid.points()
    xi = np.column_stack([-np.sin(TWO_PI * x), np.cos(TWO_PI * x)])
    prev = curr = xi
    zero = np.zeros_like(xi)
    flat = flat_samples(64)
    for _ in range(16):
        curr, prev = leapfrog_step(prev, curr, -xi, zero, grid.dx, grid, flat, eta_rate=zero), curr
    assert m0(curr - xi) < EXACT_TOL


def test_leapfrog_rejects_unstable_step():
    grid = Grid(16)
    a = rotation_field(grid)
    zero = np.zeros_like(a)
    with pytest.raises(CflError):
        leapfrog_step(a, a, zero, zero, 2.0 * grid.dx, grid, flat_samples(16), eta_rate=zero)
