"""Tests for initial data preparation, the marching integrator, and the
coupled window solver.

The resting circle supplies closed forms: the tension solve returns exactly
minus the tangent, the reconstructed multiplier equals the squared wide
stencil symbol, and the march leaves the state fixed.  The curvature sources
are checked against an index-loop oracle on the hyperbolic plane.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from elwire import initial
from elwire.diagnostics import energy
from elwire.dynamics import (
    Level,
    assemble_sources,
    march,
    picard_coupled,
    prepare_initial,
    reconstruct_mu,
    step,
    tangent_derivatives,
)
from elwire.elliptic import solve_flux_form
from elwire.errors import CflError, ConstraintDriftError, DegenerateCurveError, NearGeodesicError
from elwire.fields import Grid, constraint_drift, cov_dx, m0, row_norms
from elwire.geometry import (
    HyperbolicHalfPlaneModel,
    apply_chris,
    make_manifold,
    sample_geometry,
    stack_samples,
)
from residual_oracle import residual_base_single
from run_config import SOLVE_DEFAULTS, run_config

EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
ORACLE_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def flat_state(n: int, name: str = "circle", params: dict | None = None):
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(name, manifold, grid, params or {})
    state, report = prepare_initial(curve, velocity, manifold, grid)
    return state, manifold, grid, report


def wide_symbol(grid: Grid) -> float:
    return math.sin(TWO_PI * grid.dx) / grid.dx


def unsolved_level(state, manifold, grid):
    """The level of ``state``: its samples and tangent derivatives, no tension."""
    samples = sample_geometry(manifold, state.gamma)
    return Level(state, samples, *tangent_derivatives(state, samples, grid.dx))


def solved_level(state, manifold, grid):
    """The level of ``state`` with its tension solved, and the tension flux."""
    level = unsolved_level(state, manifold, grid)
    psi, phi = assemble_sources(level)
    solved = solve_flux_form(psi, phi, state.xi, level.samples, grid, **SOLVE_DEFAULTS)
    solved_state = state.with_theta(solved.u)
    return replace(level, state=solved_state, bentness=solved.bentness), solved.flux


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
    state, report = prepare_initial(curve, velocity, manifold, grid)
    assert np.max(np.abs(np.sum(state.xi * state.xi_t, axis=-1))) < EXACT_TOL
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
    state, _ = prepare_initial(curve, 0.1 * rng.standard_normal((24, 2)), manifold, grid)
    sources_psi, sources_phi = assemble_sources(unsolved_level(state, manifold, grid))

    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    dtxi = state.xi_t + apply_chris(samples.chris, state.eta, state.xi)
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
    assert m0(sources_psi - psi) < ORACLE_TOL
    assert m0(sources_phi - phi) < ORACLE_TOL


def test_rest_circle_tension_and_multiplier_closed_forms():
    state, manifold, grid, _ = flat_state(128)
    level = unsolved_level(state, manifold, grid)
    psi, phi = assemble_sources(level)
    omega_sq = wide_symbol(grid) ** 2
    assert m0(psi) < EXACT_TOL
    assert m0(phi + omega_sq * state.xi) < 1e-10

    solved = solve_flux_form(psi, phi, state.xi, level.samples, grid, **SOLVE_DEFAULTS)
    assert m0(solved.u + state.xi) < CLOSED_FORM_TOL

    mu = reconstruct_mu(replace(level, state=state.with_theta(solved.u)))
    assert np.max(np.abs(mu - omega_sq)) < CLOSED_FORM_TOL
    with pytest.raises(ValueError, match="tension"):
        reconstruct_mu(level)


# ---------------------------------------------------------------------------
# stepping and marching


def test_rest_circle_is_a_discrete_equilibrium():
    state, manifold, grid, _ = flat_state(64)
    level, flux = solved_level(state, manifold, grid)
    advanced, _ = step(level, flux, manifold, grid, run_config(grid, 1))
    assert m0(advanced.xi - state.xi) < EXACT_TOL
    assert m0(advanced.eta) < EXACT_TOL
    assert m0(advanced.gamma - state.gamma) < EXACT_TOL


def test_march_keeps_rest_circle_and_counts_levels():
    state, manifold, grid, _ = flat_state(64)
    levels = list(march(state, manifold, grid, run_config(grid, 12, bentness_every=4)))
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
    state, _ = prepare_initial(curve, velocity, manifold, grid)
    levels = list(march(state, manifold, grid, run_config(grid, 4, bentness_every=2)))
    assert len(levels) == 5
    for level in levels:
        fresh = sample_geometry(manifold, level.state.gamma)
        for field in ("frame", "frame_inv", "chris", "curv"):
            carried, expected = getattr(level.samples, field), getattr(fresh, field)
            if expected is None:
                assert carried is None
            else:
                assert carried.tobytes() == expected.tobytes()
        # and the tangent derivatives of its state on that curve
        dxi, dtxi = tangent_derivatives(level.state, fresh, grid.dx)
        assert np.array_equal(level.dxi, dxi)
        assert np.array_equal(level.dtxi, dtxi)


def test_march_conserves_energy_on_perturbed_circle():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(state, manifold, grid, run_config(grid, 16)))
    e0, _ = energy(levels[0], grid)
    worst = 0.0
    for level in levels:
        total, _ = energy(level, grid)
        worst = max(worst, abs(total - e0))
    assert worst / e0 < 1e-3
    assert constraint_drift(levels[-1].state.xi) < 1e-4


def test_renormalize_pins_the_unit_constraint():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(state, manifold, grid, run_config(grid, 16, renormalize=True)))
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
    state, _ = prepare_initial(curve, velocity, manifold, grid)
    cfg = run_config(grid, 1)
    first, second = list(march(state, manifold, grid, cfg))
    level, flux = solved_level(second.state.with_theta(None), manifold, grid)
    shifted = sample_geometry(manifold, first.state.gamma + np.array([0.05, 0.0]))
    carried, _ = step(level, flux, manifold, grid, cfg, prev=first)
    moved_prev = replace(first, samples=shifted)
    moved, _ = step(level, flux, manifold, grid, cfg, prev=moved_prev)
    assert m0(carried.xi - moved.xi) > 1e-9


def test_step_rejects_drifted_tangent():
    # the march holds the unit tangent to constraint_tol before each step
    state, manifold, grid, _ = flat_state(32)
    bad = type(state)(
        gamma=state.gamma, xi=1.02 * state.xi, xi_t=state.xi_t, eta=state.eta
    )
    with pytest.raises(ConstraintDriftError, match="exceeds tolerance"):
        next(march(bad, manifold, grid, run_config(grid, 1)))


def test_step_refuses_geodesic_data():
    manifold = make_manifold("flat-torus")
    grid = Grid(32)
    curve, velocity = initial.generate("torus-geodesic", manifold, grid, {})
    state, _ = prepare_initial(curve, velocity, manifold, grid)
    with pytest.raises(NearGeodesicError):
        next(march(state, manifold, grid, run_config(grid, 1)))


def test_march_yields_a_level_only_after_its_step():
    # dt > dx breaks the leapfrog's CFL limit in the first step, so level 0,
    # though solved, is never yielded
    state, manifold, grid, _ = flat_state(32)
    levels = march(state, manifold, grid, run_config(grid, 3, dt=2.0 * grid.dx))
    with pytest.raises(CflError):
        next(levels)


# ---------------------------------------------------------------------------
# coupled window solver


def test_picard_coupled_matches_march_on_a_short_window():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    steps = 4
    cfg = run_config(grid, steps)
    iterate, report = picard_coupled(state, manifold, grid, cfg)
    assert iterate.state.gamma.shape == (steps + 1, 64, 2)
    assert report.ratios and report.ratios[0] < 1.0
    marched = [lv.state for lv in march(state, manifold, grid, cfg)]
    for m in range(steps + 1):
        assert m0(iterate.state.xi[m] - marched[m].xi) < 1e-3
        assert m0(iterate.state.gamma[m] - marched[m].gamma) < 1e-3
    assert m0(iterate.state.theta[0] - marched[0].theta) < 1e-3
    # the iterate carries the samples of its own curves, stacked
    assert len(iterate.samples.frame) == steps + 1
    fresh = [sample_geometry(manifold, gamma) for gamma in iterate.state.gamma]
    for name in ("frame", "frame_inv", "chris", "curv"):
        assert np.array_equal(getattr(iterate.samples, name), getattr(stack_samples(fresh), name))


def test_picard_coupled_window_validation():
    state, manifold, grid, _ = flat_state(32)
    with pytest.raises(ValueError, match="at least 2 steps"):
        picard_coupled(state, manifold, grid, run_config(grid, 1))


# ---------------------------------------------------------------------------
# single-equation residual


def test_residual_report_on_marched_states():
    state, manifold, grid, _ = flat_state(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(state, manifold, grid, run_config(grid, 8)))
    report = residual_base_single(levels, grid.dx, manifold, grid)
    assert report.times.shape == (7,)
    assert report.residual.shape == (7,)
    assert np.all(np.isfinite(report.residual))
    assert np.all(report.coherence >= 0.0)
    with pytest.raises(ValueError, match="3"):
        residual_base_single(levels[:2], grid.dx, manifold, grid)
    stripped = [replace(lv, state=lv.state.with_theta(None)) for lv in levels]
    with pytest.raises(ValueError, match="tension"):
        residual_base_single(stripped, grid.dx, manifold, grid)
