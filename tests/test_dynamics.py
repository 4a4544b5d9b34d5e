"""Tests for initial data preparation, the marching integrator, and the
coupled window solver.

The resting circle supplies closed forms: the tension solve returns exactly
minus the tangent, the reconstructed multiplier equals the squared wide
stencil symbol, and the march leaves the state fixed.  The curvature sources
are checked against an index-loop oracle on the hyperbolic plane.
"""

import math

import numpy as np
import pytest

from elwire import initial
from elwire.diagnostics import energy
from elwire.dynamics import (
    Level,
    RunParams,
    assemble_sources,
    cov_dt_state,
    make_state,
    march,
    picard_coupled,
    prepare_initial,
    reconstruct_mu,
    step,
)
from elwire.elliptic import solve_theta
from elwire.errors import ConstraintDriftError, DegenerateCurveError, NearGeodesicError
from elwire.fields import Grid, constraint_drift, cov_dx, m0, row_norms
from elwire.geometry import (
    HyperbolicHalfPlaneModel,
    apply_chris,
    make_manifold,
    sample_geometry,
)
from residual_oracle import residual_base_single

EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
ORACLE_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def flat_state(n: int, name: str = "circle", params: dict | None = None):
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(name, manifold, grid, params or {})
    data, report = prepare_initial(curve, velocity, manifold, grid)
    return make_state(data), manifold, grid, report


def wide_symbol(grid: Grid) -> float:
    return math.sin(TWO_PI * grid.dx) / grid.dx


# ---------------------------------------------------------------------------
# initial data


def test_prepare_initial_produces_admissible_data():
    state, manifold, grid, report = flat_state(64)
    assert constraint_drift(state.xi) < EXACT_TOL
    assert np.max(np.abs(np.sum(state.xi * state.xi_t, axis=-1))) < EXACT_TOL
    assert report.projection_magnitude == 0.0
    assert report.min_tangent_norm > 0.9


def test_prepare_initial_orthogonalises_moving_data():
    manifold = make_manifold("euclidean")
    grid = Grid(64)
    curve, velocity = initial.generate(
        "circle", manifold, grid, {"velocity": {"name": "rotate", "omega": 1.0}}
    )
    data, report = prepare_initial(curve, velocity, manifold, grid)
    assert np.max(np.abs(np.sum(data.a_tilde * data.b_tilde, axis=-1))) < EXACT_TOL
    assert report.projection_magnitude >= 0.0


def test_prepare_initial_rejects_bad_shapes_and_degenerate_curves():
    manifold = make_manifold("euclidean")
    grid = Grid(16)
    with pytest.raises(ValueError, match="shape"):
        prepare_initial(np.zeros((8, 2)), np.zeros((8, 2)), manifold, grid)
    constant = np.broadcast_to(np.array([0.1, 0.2]), (16, 2)).copy()
    with pytest.raises(DegenerateCurveError):
        prepare_initial(constant, np.zeros((16, 2)), manifold, grid)


def test_initial_generators_validate_parameters():
    manifold = make_manifold("euclidean")
    grid = Grid(16)
    with pytest.raises(ValueError, match="unknown initial"):
        initial.generate("helix", manifold, grid, {})
    with pytest.raises(ValueError, match="unknown velocity"):
        initial.velocity_field(np.zeros((16, 2)), {"name": "spin"})
    with pytest.raises(ValueError, match="components"):
        initial.velocity_field(np.zeros((16, 2)), {"name": "translate", "vector": [1.0]})
    torus = make_manifold("flat-torus")
    with pytest.raises(ValueError, match="direction"):
        initial.torus_geodesic(grid, torus.dim, np.zeros(2), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# sources, tension, multiplier


def test_sources_match_index_loops_on_hyperbolic_plane():
    grid = Grid(24)
    x = grid.points()
    curve = np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    manifold = HyperbolicHalfPlaneModel()
    samples = sample_geometry(manifold, curve)
    rng = np.random.default_rng(17)
    data, _ = prepare_initial(curve, 0.1 * rng.standard_normal((24, 2)), manifold, grid)
    state = make_state(data)
    sources = assemble_sources(state, samples, grid)

    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    dtxi = cov_dt_state(state, samples)
    psi = np.zeros_like(state.xi)
    phi = np.zeros_like(state.xi)
    for p in range(24):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    r = samples.curv[p, i, j, k]
                    psi[p] += r * state.xi[p, i] * dxi[p, j] * state.xi[p, k]
                    psi[p] -= r * state.xi[p, i] * dtxi[p, j] * state.eta[p, k]
                    phi[p] -= r * state.xi[p, i] * state.eta[p, j] * state.eta[p, k]
        gap = dtxi[p] @ dtxi[p] - dxi[p] @ dxi[p]
        phi[p] += gap * state.xi[p]
    assert m0(sources.psi - psi) < ORACLE_TOL
    assert m0(sources.phi - phi) < ORACLE_TOL


def test_rest_circle_tension_and_multiplier_closed_forms():
    state, manifold, grid, _ = flat_state(128)
    samples = sample_geometry(manifold, state.gamma)
    sources = assemble_sources(state, samples, grid)
    omega_sq = wide_symbol(grid) ** 2
    assert m0(sources.psi) < EXACT_TOL
    assert m0(sources.phi + omega_sq * state.xi) < 1e-10

    solved = solve_theta(state, sources, samples, grid)
    assert m0(solved.u + state.xi) < CLOSED_FORM_TOL

    mu = reconstruct_mu(state.with_theta(solved.u), samples, grid)
    assert np.max(np.abs(mu - omega_sq)) < CLOSED_FORM_TOL
    with pytest.raises(ValueError, match="tension"):
        reconstruct_mu(state, samples, grid)


# ---------------------------------------------------------------------------
# stepping and marching


def test_rest_circle_is_a_discrete_equilibrium():
    state, manifold, grid, _ = flat_state(64)
    result = step(state, grid.dx, manifold, grid)
    assert m0(result.state.xi - state.xi) < EXACT_TOL
    assert m0(result.state.eta) < EXACT_TOL
    assert m0(result.state.gamma - state.gamma) < EXACT_TOL


def test_march_keeps_rest_circle_and_counts_levels():
    state, manifold, grid, _ = flat_state(64)
    levels = list(march(state, grid.dx, 12, manifold, grid, bentness_every=4))
    assert all(isinstance(level, Level) for level in levels)
    assert len(levels) == 13
    displacements = [m0(lv.state.gamma - state.gamma) for lv in levels]
    assert max(displacements) < 1e-10
    assert [lv.state.time for lv in levels] == [k * grid.dx for k in range(13)]
    assert all(lv.state.theta is not None for lv in levels)
    # fresh bentness gates at the configured cadence, carried reports between;
    # the final level carries the last report
    gate_ids = [id(lv.bentness) for lv in levels]
    assert len(set(gate_ids[0:4])) == 1
    assert len(set(gate_ids[4:8])) == 1
    assert len(set(gate_ids[8:13])) == 1
    assert gate_ids[0] != gate_ids[4] != gate_ids[8]


@pytest.mark.parametrize(
    "chart, dim, init, params",
    [
        ("euclidean", 2, "perturbed-circle", {"mode": 2, "amplitude": 0.01}),
        ("flat-torus", 2, "circle", {}),
        (
            "hyperbolic",
            2,
            "hyperbolic-circle",
            {"velocity": {"name": "translate", "vector": [0.1, 0.0]}},
        ),
        ("sphere", 3, "sphere-loop", {}),
        ("conformal", 2, "circle", {}),
    ],
)
def test_march_levels_carry_the_geometry_of_their_curve(chart, dim, init, params):
    extra = {"expression": "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"} if chart == "conformal" else {}
    manifold = make_manifold(chart, dim, **extra)
    grid = Grid(32)
    curve, velocity = initial.generate(init, manifold, grid, params)
    data, _ = prepare_initial(curve, velocity, manifold, grid)
    levels = list(march(make_state(data), grid.dx, 4, manifold, grid, bentness_every=2))
    assert len(levels) == 5
    for level in levels:
        fresh = sample_geometry(manifold, level.state.gamma)
        for field in ("frame", "frame_inv", "chris", "curv"):
            assert np.array_equal(getattr(level.samples, field), getattr(fresh, field))


def test_march_conserves_energy_on_perturbed_circle():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    states = [lv.state for lv in march(state, grid.dx, 16, manifold, grid)]
    samples0 = sample_geometry(manifold, states[0].gamma)
    e0, _ = energy(states[0], samples0, grid)
    worst = 0.0
    for s in states:
        total, _ = energy(s, sample_geometry(manifold, s.gamma), grid)
        worst = max(worst, abs(total - e0))
    assert worst / e0 < 1e-3
    assert constraint_drift(states[-1].xi) < 1e-4


def test_renormalize_pins_the_unit_constraint():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    params = RunParams(renormalize=True)
    levels = list(march(state, grid.dx, 16, manifold, grid, params))
    for lv in levels[1:]:
        assert constraint_drift(lv.state.xi) < 1e-13


def test_step_reads_the_previous_levels_samples():
    # the connection-rate difference takes the samples the previous level
    # carries; step never samples that curve again, so samples taken at a
    # shifted position must change the result (on the sphere the frame
    # connection varies along the chart; on the half-plane it is constant)
    manifold = make_manifold("sphere")
    grid = Grid(32)
    curve, velocity = initial.generate(
        "sphere-loop", manifold, grid, {"velocity": {"name": "translate", "vector": [0.2, 0.0]}}
    )
    data, _ = prepare_initial(curve, velocity, manifold, grid)
    first, second = list(march(make_state(data), grid.dx, 1, manifold, grid))
    state = second.state.with_theta(None)
    shifted = sample_geometry(manifold, first.state.gamma + np.array([0.05, 0.0]))
    carried = step(state, grid.dx, manifold, grid, prev=first)
    moved_prev = Level(first.state, shifted, first.bentness)
    moved = step(state, grid.dx, manifold, grid, prev=moved_prev)
    assert m0(carried.state.xi - moved.state.xi) > 1e-9


def test_step_rejects_drifted_tangent():
    state, manifold, grid, _ = flat_state(32)
    bad = state.with_theta(None)
    bad = type(state)(
        gamma=state.gamma, xi=1.02 * state.xi, xi_t=state.xi_t, eta=state.eta
    )
    with pytest.raises(ConstraintDriftError):
        step(bad, grid.dx, manifold, grid)


def test_step_refuses_geodesic_data():
    manifold = make_manifold("flat-torus")
    grid = Grid(32)
    curve, velocity = initial.generate("torus-geodesic", manifold, grid, {})
    data, _ = prepare_initial(curve, velocity, manifold, grid)
    with pytest.raises(NearGeodesicError):
        step(make_state(data), grid.dx, manifold, grid)


# ---------------------------------------------------------------------------
# coupled window solver


def test_picard_coupled_matches_march_on_a_short_window():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    steps = 4
    iterate, report = picard_coupled(state, manifold, grid, n_levels=steps)
    assert iterate.gamma.shape == (steps + 1, 64, 2)
    assert report.ratios and report.ratios[0] < 1.0
    marched = [lv.state for lv in march(state, grid.dx, steps, manifold, grid)]
    for m in range(steps + 1):
        assert m0(iterate.xi[m] - marched[m].xi) < 1e-3
        assert m0(iterate.gamma[m] - marched[m].gamma) < 1e-3
    assert m0(iterate.theta[0] - marched[0].theta) < 1e-3
    # the iterate carries the samples of its own curve
    assert len(iterate.samples) == steps + 1
    for m, samples in enumerate(iterate.samples):
        assert np.array_equal(samples.chris, sample_geometry(manifold, iterate.gamma[m]).chris)


def test_picard_coupled_window_validation():
    state, manifold, grid, _ = flat_state(32)
    with pytest.raises(ValueError, match="at least 2 steps"):
        picard_coupled(state, manifold, grid, n_levels=1)


# ---------------------------------------------------------------------------
# single-equation residual


def test_residual_report_on_marched_states():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(state, grid.dx, 8, manifold, grid))
    report = residual_base_single(levels, grid.dx, manifold, grid)
    assert report.times.shape == (7,)
    assert report.residual.shape == (7,)
    assert np.all(np.isfinite(report.residual))
    assert np.all(report.coherence >= 0.0)
    with pytest.raises(ValueError, match="3"):
        residual_base_single(levels[:2], grid.dx, manifold, grid)
    stripped = [Level(lv.state.with_theta(None), lv.samples, lv.bentness) for lv in levels]
    with pytest.raises(ValueError, match="tension"):
        residual_base_single(stripped, grid.dx, manifold, grid)
