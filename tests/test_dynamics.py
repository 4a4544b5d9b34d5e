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
    MarchResult,
    RunParams,
    assemble_sources,
    cov_dt_state,
    make_state,
    march,
    picard_coupled,
    prepare_initial,
    reconstruct_mu,
    residual_base_single,
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
    assert m0(solved.theta + state.xi) < CLOSED_FORM_TOL

    mu = reconstruct_mu(state.with_theta(solved.theta), samples, grid)
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
    seen = []
    result = march(
        state,
        grid.dx,
        12,
        manifold,
        grid,
        bentness_every=4,
        on_level=lambda level, s, r: seen.append((level, s, r)),
    )
    assert isinstance(result, MarchResult)
    assert len(result.states) == 13
    assert result.displacements.shape == (13,)
    assert result.max_displacement < 1e-10
    assert [entry[0] for entry in seen] == list(range(13))
    assert seen[-1][2] is None
    assert all(entry[1].theta is not None for entry in seen)
    # fresh bentness gates at the configured cadence, carried reports between
    gate_ids = [id(entry[2].bentness) for entry in seen[:-1]]
    assert len(set(gate_ids[0:4])) == 1
    assert len(set(gate_ids[4:8])) == 1
    assert len(set(gate_ids[8:12])) == 1
    assert gate_ids[0] != gate_ids[4] != gate_ids[8]


def test_march_conserves_energy_on_perturbed_circle():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    result = march(state, grid.dx, 16, manifold, grid)
    samples0 = sample_geometry(manifold, result.states[0].gamma)
    e0, _ = energy(result.states[0], samples0, grid)
    worst = 0.0
    for s in result.states:
        total, _ = energy(s, sample_geometry(manifold, s.gamma), grid)
        worst = max(worst, abs(total - e0))
    assert worst / e0 < 1e-3
    assert constraint_drift(result.states[-1].xi) < 1e-4


def test_renormalize_pins_the_unit_constraint():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    params = RunParams(renormalize=True)
    result = march(state, grid.dx, 16, manifold, grid, params)
    for s in result.states[1:]:
        assert constraint_drift(s.xi) < 1e-13


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
    marched = march(state, grid.dx, steps, manifold, grid)
    for m in range(steps + 1):
        assert m0(iterate.xi[m] - marched.states[m].xi) < 1e-3
        assert m0(iterate.gamma[m] - marched.states[m].gamma) < 1e-3
    assert m0(iterate.theta[0] - marched.states[0].theta) < 1e-3


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
    result = march(state, grid.dx, 8, manifold, grid)
    report = residual_base_single(result.states, grid.dx, manifold, grid)
    assert report.times.shape == (7,)
    assert report.residual.shape == (7,)
    assert np.all(np.isfinite(report.residual))
    assert np.all(report.coherence >= 0.0)
    with pytest.raises(ValueError, match="3"):
        residual_base_single(result.states[:2], grid.dx, manifold, grid)
    stripped = [s.with_theta(None) for s in result.states]
    with pytest.raises(ValueError, match="tension"):
        residual_base_single(stripped, grid.dx, manifold, grid)
