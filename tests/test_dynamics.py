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
    _integrate_eta,
    _window_curve,
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
from geometry_oracle import apply_chris_einsum, dense_chris, dense_curv
from residual_oracle import residual_base_single
from run_config import SOLVE_DEFAULTS, run_config

EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
ORACLE_TOL = 1e-12
ORDER_MIN = 1.8
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
    return replace(level, theta=solved.u), solved.flux


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


def test_picard_window_refuses_a_geodesic_before_any_solve(monkeypatch):
    # level 0 passes the run's gate once, before the first sweep
    import elwire.dynamics

    solves = []
    real = elwire.dynamics._solve_level

    def counted(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(elwire.dynamics, "_solve_level", counted)
    manifold = make_manifold("flat-torus")
    grid = Grid(32)
    curve, velocity = initial.generate("torus-geodesic", manifold, grid, {})
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    with pytest.raises(NearGeodesicError, match="below floor"):
        picard_coupled(start, manifold, grid, run_config(grid, 4))
    assert solves == []


def test_march_solves_the_bentness_on_its_fresh_levels_only(monkeypatch):
    # with bentness_every = 3 over 7 steps the gate solves the bentness of
    # levels 0, 3 and 6 and carries each value on; the tension solve never
    # solves one of its own
    import elwire.elliptic

    solved, depth = [], [0]
    real_bentness, real_solve = elwire.elliptic.bentness, elwire.elliptic.solve_flux_form

    def counted_bentness(xi, samples, grid):
        solved.append((xi, depth[0]))
        return real_bentness(xi, samples, grid)

    def watched_solve(*args, **kwargs):
        depth[0] += 1
        try:
            return real_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(elwire.elliptic, "bentness", counted_bentness)
    monkeypatch.setattr(elwire.elliptic, "solve_flux_form", watched_solve)
    start, manifold, grid, _ = flat_start(
        32, "perturbed-circle", {"mode": 2, "amplitude": 0.01}
    )
    levels = list(march(start, manifold, grid, run_config(grid, 7, bentness_every=3)))
    assert len(levels) == 8
    assert [inside for _, inside in solved] == [0, 0, 0]
    fresh = [k for xi, _ in solved for k, lv in enumerate(levels) if np.array_equal(xi, lv.xi)]
    assert fresh == [0, 3, 6]
    gate_ids = [id(lv.bentness) for lv in levels]
    assert gate_ids == [gate_ids[0]] * 3 + [gate_ids[3]] * 3 + [gate_ids[6]] * 2
    for k in fresh:
        assert levels[k].bentness == real_bentness(levels[k].xi, levels[k].samples, grid)


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


def _translated_start(chart: str, curve: str, n: int):
    """The initial level of ``curve`` on ``chart``, translated at 0.1 along
    the first chart axis, with its chart and grid."""
    manifold = make_manifold(chart)
    grid = Grid(n)
    params = {"velocity": {"name": "translate", "vector": [0.1, 0.0]}}
    data, velocity = initial.generate(curve, manifold, grid, params)
    start, _ = prepare_initial(data, velocity, manifold, grid)
    return start, manifold, grid


def test_window_velocity_reads_the_connection_of_the_half_step_curve():
    # the window's velocity update is the march's midpoint rule: k1 with the
    # connection of the level's curve, k2 with that of the half-step curve
    # gamma_m + dt/2 e^{-lambda} eta_m that the curve update builds, and the
    # half-step force the mean of the two levels' flux plus D_x xi
    start, manifold, grid = _translated_start("sphere", "sphere-loop", 32)
    dt, shape = grid.dx, start.eta.shape
    rng = np.random.default_rng(0)
    eta_s = start.eta + 0.05 * rng.standard_normal((3,) + shape)
    flux_s, dxi_s = rng.standard_normal((2, 3) + shape)
    gammas, samples, halves = _window_curve(start.gamma, start.samples, eta_s, manifold, dt)
    got = _integrate_eta(start.eta, flux_s, dxi_s, samples, halves, dt)

    def rate(level_samples, v, force):
        return -apply_chris_einsum(dense_chris(level_samples, shape), v, v) + force

    v = start.eta
    for m in range(2):
        at_curve = sample_geometry(manifold, gammas[m])
        half_curve = gammas[m] + 0.5 * dt * at_curve.scale[:, None] * eta_s[m]
        k1 = rate(at_curve, v, flux_s[m] + dxi_s[m])
        force_half = 0.5 * (flux_s[m] + flux_s[m + 1] + dxi_s[m] + dxi_s[m + 1])
        v = v + dt * rate(sample_geometry(manifold, half_curve), v + 0.5 * dt * k1, force_half)
        assert m0(got[m + 1] - v) < ORACLE_TOL


@pytest.mark.parametrize(
    "chart, curve", [("sphere", "sphere-loop"), ("hyperbolic", "hyperbolic-circle")]
)
def test_curved_window_matches_the_march_at_second_order(chart, curve):
    # acceptance item 8 off the flat chart: the gap between a window of
    # N/16 + 1 steps and the march over its first N/16 steps, the largest
    # over gamma, xi and eta, falls at second order
    gaps = []
    for n in (64, 128, 256):
        start, manifold, grid = _translated_start(chart, curve, n)
        steps = n // 16
        iterate, report = picard_coupled(start, manifold, grid, run_config(grid, steps + 1))
        assert report.converged
        marched = list(march(start, manifold, grid, run_config(grid, steps)))
        gaps.append(max(
            m0(getattr(marched[m], name) - getattr(iterate, name)[m])
            for m in range(steps + 1)
            for name in ("gamma", "xi", "eta")
        ))
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert min(orders) >= ORDER_MIN, (gaps, orders)


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
