"""Tests for initial data preparation, the marching integrator, and the
coupled window solver.

The resting circle supplies closed forms: the tension solve returns exactly
minus the tangent, the reconstructed multiplier equals the squared wide
stencil symbol, and the march leaves the state fixed.  The curvature sources
are checked against an index-loop oracle on the hyperbolic plane.
"""

import math
import re
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
)
from elwire.elliptic import solve_flux_form
from elwire.errors import CflError, ConstraintDriftError, DegenerateCurveError, NearGeodesicError
from elwire.fields import Grid, constraint_drift, cov_dx, m0, row_norms
from elwire.geometry import (
    GeometrySamples,
    HyperbolicHalfPlaneModel,
    apply_chris,
    make_manifold,
    sample_geometry,
    stack_samples,
)
from geometry_oracle import dense_curv
from residual_oracle import residual_base_single
from run_config import SOLVE_DEFAULTS, run_config

EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
ORACLE_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def flat_start(n: int, name: str = "circle", params: dict | None = None):
    """The initial level of a flat-chart wire, with its chart, grid and
    preparation's projection magnitude."""
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(name, manifold, grid, params or {})
    start, projection = prepare_initial(curve, velocity, manifold, grid)
    return start, manifold, grid, projection


def wide_symbol(grid: Grid) -> float:
    return math.sin(TWO_PI * grid.dx) / grid.dx


def solved_level(level, grid):
    """``level`` with its tension solved afresh, and the tension flux."""
    psi, phi = assemble_sources(level)
    solved = solve_flux_form(psi, phi, level.xi, level.samples, grid, **SOLVE_DEFAULTS)
    return replace(level, theta=solved.u, bentness=solved.bentness), solved.flux


def test_level_derive_defaults_and_tangent_derivatives():
    # a level built from its fields is unsolved, at time 0, and carries
    # D_x xi and D_t xi = xi_t + Gamma(eta, xi) on the samples of its curve
    grid = Grid(16)
    x = grid.points()
    curve = np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    samples = sample_geometry(HyperbolicHalfPlaneModel(), curve)
    rng = np.random.default_rng(5)
    xi, xi_t, eta = rng.standard_normal((3, 16, 2))
    level = Level.derive(curve, xi, xi_t, eta, samples, grid.dx)
    assert level.theta is None and level.time == 0.0 and level.bentness is None
    assert np.array_equal(level.dxi, cov_dx(xi, xi, samples, grid.dx))
    assert np.array_equal(level.dtxi, xi_t + apply_chris(samples.conn, eta, xi))


# ---------------------------------------------------------------------------
# initial data


def test_prepare_initial_produces_admissible_data():
    start, manifold, grid, projection = flat_start(64)
    assert constraint_drift(start.xi) < EXACT_TOL
    assert np.max(np.abs(np.sum(start.xi * start.xi_t, axis=-1))) < EXACT_TOL
    assert projection == 0.0


def test_prepare_initial_orthogonalises_moving_data():
    manifold = make_manifold("euclidean")
    grid = Grid(64)
    curve, velocity = initial.generate(
        "circle", manifold, grid, {"velocity": {"name": "rotate", "omega": 1.0}}
    )
    start, projection = prepare_initial(curve, velocity, manifold, grid)
    assert np.max(np.abs(np.sum(start.xi * start.xi_t, axis=-1))) < EXACT_TOL
    assert projection >= 0.0


def test_prepare_initial_rejects_bad_shapes_and_degenerate_curves():
    manifold = make_manifold("euclidean")
    grid = Grid(16)
    with pytest.raises(ValueError, match="shape"):
        prepare_initial(np.zeros((8, 2)), np.zeros((8, 2)), manifold, grid)
    constant = np.broadcast_to(np.array([0.1, 0.2]), (16, 2)).copy()
    with pytest.raises(DegenerateCurveError):
        prepare_initial(constant, np.zeros((16, 2)), manifold, grid)


def test_initial_generators_validate_parameters():
    # the generators check nothing themselves: generate runs initial.check
    grid = Grid(16)
    euclid, torus = make_manifold("euclidean"), make_manifold("flat-torus")
    cases = [
        (euclid, "helix", {}, "initial.name: must be one of"),
        (euclid, "circle", {"velocity": {"name": "spin"}}, "initial.velocity.name: must be one of"),
        (
            euclid,
            "circle",
            {"velocity": {"name": "translate", "vector": [1.0]}},
            "initial.velocity.vector: must be a list of 2 numbers",
        ),
        (torus, "torus-geodesic", {"direction": [1.0, 1.0]}, "initial.direction: must be a list"),
    ]
    for manifold, name, params, problem in cases:
        with pytest.raises(ValueError, match=re.escape(problem)):
            initial.generate(name, manifold, grid, params)


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
    sources_psi, sources_phi = assemble_sources(state)

    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    dtxi = state.xi_t + apply_chris(samples.conn, state.eta, state.xi)
    curv = dense_curv(samples, state.xi.shape)
    psi = np.zeros_like(state.xi)
    phi = np.zeros_like(state.xi)
    for p in range(24):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    r = curv[p, i, j, k]
                    psi[p] += r * state.xi[p, i] * dxi[p, j] * state.xi[p, k]
                    psi[p] -= r * state.xi[p, i] * dtxi[p, j] * state.eta[p, k]
                    phi[p] -= r * state.xi[p, i] * state.eta[p, j] * state.eta[p, k]
        gap = dtxi[p] @ dtxi[p] - dxi[p] @ dxi[p]
        phi[p] += gap * state.xi[p]
    assert m0(sources_psi - psi) < ORACLE_TOL
    assert m0(sources_phi - phi) < ORACLE_TOL


def test_rest_circle_tension_and_multiplier_closed_forms():
    level, manifold, grid, _ = flat_start(128)
    psi, phi = assemble_sources(level)
    omega_sq = wide_symbol(grid) ** 2
    assert m0(psi) < EXACT_TOL
    assert m0(phi + omega_sq * level.xi) < 1e-10

    solved = solve_flux_form(psi, phi, level.xi, level.samples, grid, **SOLVE_DEFAULTS)
    assert m0(solved.u + level.xi) < CLOSED_FORM_TOL

    mu = reconstruct_mu(replace(level, theta=solved.u))
    assert np.max(np.abs(mu - omega_sq)) < CLOSED_FORM_TOL
    with pytest.raises(ValueError, match="tension"):
        reconstruct_mu(level)


# ---------------------------------------------------------------------------
# stepping and marching


def test_rest_circle_is_a_discrete_equilibrium():
    start, manifold, grid, _ = flat_start(64)
    level, flux = solved_level(start, grid)
    advanced = step(level, flux, manifold, grid, run_config(grid, 1))
    assert m0(advanced.xi - start.xi) < EXACT_TOL
    assert m0(advanced.eta) < EXACT_TOL
    assert m0(advanced.gamma - start.gamma) < EXACT_TOL


def test_march_keeps_rest_circle_and_counts_levels():
    start, manifold, grid, _ = flat_start(64)
    levels = list(march(start, manifold, grid, run_config(grid, 12, bentness_every=4)))
    assert all(isinstance(level, Level) for level in levels)
    assert len(levels) == 13
    displacements = [m0(lv.gamma - start.gamma) for lv in levels]
    assert max(displacements) < 1e-10
    assert [lv.time for lv in levels] == [k * grid.dx for k in range(13)]
    assert all(lv.theta is not None for lv in levels)
    # fresh bentness gates at the configured cadence, carried values between
    # (the same float object); the final level carries the last value
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
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    levels = list(march(start, manifold, grid, run_config(grid, 4, bentness_every=2)))
    assert len(levels) == 5
    for level in levels:
        fresh = sample_geometry(manifold, level.gamma)
        for field in ("scale", "conn", "curv"):
            carried, expected = getattr(level.samples, field), getattr(fresh, field)
            if expected is None:
                assert carried is None
            else:
                assert carried.tobytes() == expected.tobytes()
        # and the tangent derivatives of its fields on that curve
        derived = Level.derive(level.gamma, level.xi, level.xi_t, level.eta, fresh, grid.dx)
        assert np.array_equal(level.dxi, derived.dxi)
        assert np.array_equal(level.dtxi, derived.dtxi)


def test_march_conserves_energy_on_perturbed_circle():
    start, manifold, grid, _ = flat_start(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(start, manifold, grid, run_config(grid, 16)))
    e0, _ = energy(levels[0], grid)
    worst = 0.0
    for level in levels:
        total, _ = energy(level, grid)
        worst = max(worst, abs(total - e0))
    assert worst / e0 < 1e-3
    assert constraint_drift(levels[-1].xi) < 1e-4


def test_renormalize_pins_the_unit_constraint():
    start, manifold, grid, _ = flat_start(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(start, manifold, grid, run_config(grid, 16, renormalize=True)))
    for lv in levels[1:]:
        assert constraint_drift(lv.xi) < 1e-13


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
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    cfg = run_config(grid, 1)
    first, second = list(march(start, manifold, grid, cfg))
    level, flux = solved_level(second, grid)
    shifted = sample_geometry(manifold, first.gamma + np.array([0.05, 0.0]))
    carried = step(level, flux, manifold, grid, cfg, prev=first)
    moved_prev = replace(first, samples=shifted)
    moved = step(level, flux, manifold, grid, cfg, prev=moved_prev)
    assert m0(carried.xi - moved.xi) > 1e-9


def test_step_rejects_drifted_tangent():
    # the march holds the unit tangent to constraint_tol before each step;
    # a NaN in the tangent fails that gate too, before any solve sees it
    start, manifold, grid, _ = flat_start(32)
    bad = replace(start, xi=1.02 * start.xi)
    with pytest.raises(ConstraintDriftError, match="exceeds tolerance"):
        next(march(bad, manifold, grid, run_config(grid, 1)))
    xi = start.xi.copy()
    xi[3, 0] = np.nan
    bad = replace(start, xi=xi)
    gate = "unit-tangent defect nan exceeds tolerance 1.0e-02 at t=0.000000"
    with pytest.raises(ConstraintDriftError, match=gate):
        next(march(bad, manifold, grid, run_config(grid, 1)))


def test_step_refuses_geodesic_data():
    manifold = make_manifold("flat-torus")
    grid = Grid(32)
    curve, velocity = initial.generate("torus-geodesic", manifold, grid, {})
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    with pytest.raises(NearGeodesicError):
        next(march(start, manifold, grid, run_config(grid, 1)))


def test_march_yields_a_level_only_after_its_step():
    # dt > dx breaks the leapfrog's CFL limit in the first step, so level 0,
    # though solved, is never yielded
    start, manifold, grid, _ = flat_start(32)
    levels = march(start, manifold, grid, run_config(grid, 3, dt=2.0 * grid.dx))
    with pytest.raises(CflError):
        next(levels)


# ---------------------------------------------------------------------------
# coupled window solver


def test_picard_coupled_matches_march_on_a_short_window():
    start, manifold, grid, _ = flat_start(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    steps = 4
    cfg = run_config(grid, steps)
    iterate, report = picard_coupled(start, manifold, grid, cfg)
    assert iterate.gamma.shape == (steps + 1, 64, 2)
    assert report.ratios and report.ratios[0] < 1.0
    marched = list(march(start, manifold, grid, cfg))
    for m in range(steps + 1):
        assert m0(iterate.xi[m] - marched[m].xi) < 1e-3
        assert m0(iterate.gamma[m] - marched[m].gamma) < 1e-3
    assert m0(iterate.theta[0] - marched[0].theta) < 1e-3
    # the iterate carries the samples of its own curves, stacked: on this
    # flat chart, none
    fresh = stack_samples([sample_geometry(manifold, gamma) for gamma in iterate.gamma])
    assert iterate.samples == fresh == GeometrySamples(scale=None, conn=None, curv=None)


def test_curved_picard_iterate_carries_the_samples_of_its_own_curves():
    manifold = make_manifold("sphere")
    grid = Grid(32)
    curve, velocity = initial.generate("sphere-loop", manifold, grid, {})
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    iterate, _ = picard_coupled(start, manifold, grid, run_config(grid, 8))
    fresh = stack_samples([sample_geometry(manifold, gamma) for gamma in iterate.gamma])
    assert fresh.scale.shape == (9, 32)
    for name in ("scale", "conn", "curv"):
        assert getattr(iterate.samples, name).tobytes() == getattr(fresh, name).tobytes()


def test_picard_coupled_window_validation():
    start, manifold, grid, _ = flat_start(32)
    with pytest.raises(ValueError, match="at least 2 steps"):
        picard_coupled(start, manifold, grid, run_config(grid, 1))


# ---------------------------------------------------------------------------
# single-equation residual


def test_residual_report_on_marched_states():
    start, manifold, grid, _ = flat_start(
        64, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(start, manifold, grid, run_config(grid, 8)))
    report = residual_base_single(levels, grid.dx, manifold, grid)
    assert report.times.shape == (7,)
    assert report.residual.shape == (7,)
    assert np.all(np.isfinite(report.residual))
    assert np.all(report.coherence >= 0.0)
    with pytest.raises(ValueError, match="3"):
        residual_base_single(levels[:2], grid.dx, manifold, grid)
    stripped = [replace(lv, theta=None) for lv in levels]
    with pytest.raises(ValueError, match="tension"):
        residual_base_single(stripped, grid.dx, manifold, grid)
