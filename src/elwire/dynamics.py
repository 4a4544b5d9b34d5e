"""Coupled motion of the closed elastic wire.

The state (gamma, xi, eta) evolves under a first-order system: the tension
theta solves an elliptic problem along the current curve (elliptic module),
the unit tangent xi obeys a semilinear wave equation driven by theta, the
velocity eta advances with the tension flux, and the curve integrates its
velocity.  This module provides

* tangent_derivatives D_x xi and D_t xi of a state or a window series,
* assemble_sources   curvature source terms (psi, phi) of a level or a series,
* prepare_initial    the initial state, admissible discrete data from raw
                     curve + velocity samples,
* march              the generator that solves each time level's tension once
                     (sources, then the gated flux-form solve; the window
                     shares this level solve) and yields the level with its
                     geometry, D_x xi, D_t xi and the bentness gate in force,
* step               the advance of a solved level: curve, tangent leapfrog and
                     velocity updates, returning the next state with the
                     samples of its curve,
* picard_coupled     the contraction-map alternative on a short time window,
                     whose iterate is a Level of series: each sweep solves
                     the tension of the whole window in one call, twice,
                     and moves its curves by the march's curve update,
* reconstruct_mu     the pointwise multiplier of the single-equation form.

The defect of a computed trajectory in the single equation is a test
oracle (tests/residual_oracle.py).

The marching step keeps xi, eta and gamma each second-order accurate: the
tangent uses the three-level wave leapfrog, the velocity a midpoint rule whose
half-time flux is extrapolated from the two most recent tension solves, and
the curve a midpoint rule through the half-step position.  The curve's update
never reads the tangent, so a step moves it first; the leapfrog's connection
rate and the next level share the next curve's samples.

The frame, connection and curvature at a level depend only on the curve
there, and D_x xi and D_t xi only on the state and those samples, so each is
formed once: a ``Level`` carries the samples of its ``gamma`` and both
derivatives (see tangent_derivatives) to the next step and every diagnostic.
A window iterate carries them as series, derived once per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from . import elliptic
from .config import RunConfig
from .elliptic import BentnessReport
from .errors import ConstraintDriftError, DegenerateCurveError
from .fields import (
    CurveState,
    Grid,
    circ_diff,
    constraint_drift,
    cov_dx,
    cov_dxx,
    m01,
    m1,
    perp,
    row_norms,
    sided_grad_sq,
    time_diff_series,
)
from .geometry import (
    GeometrySamples,
    ManifoldModel,
    apply_chris,
    apply_curv,
    sample_geometry,
    stack_samples,
)
from .wave import ContractionReport, _contract, leapfrog_step, picard_wave_solve

#: tangent samples shorter than this fraction of the mean abort preparation
MIN_TANGENT_NORM = 1e-6


@dataclass(frozen=True)
class PreparationReport:
    """How much prepare_initial had to adjust the raw data."""

    projection_magnitude: float
    min_tangent_norm: float


@dataclass(frozen=True)
class Level:
    """One time level: the state (with its tension once solved), the geometry
    samples of its curve, D_x xi and D_t xi from ``tangent_derivatives``, and
    the bentness report in force there (None before the level is solved).

    A Picard window iterate is a Level whose fields and samples are series
    over the window's levels 0..M (see _window_level); its bentness report
    is level 0's, which gates every level.
    """

    state: CurveState
    samples: GeometrySamples
    dxi: np.ndarray
    dtxi: np.ndarray
    bentness: Optional[BentnessReport] = None


# ---------------------------------------------------------------------------
# derived fields and sources


def tangent_derivatives(
    state: CurveState, samples: GeometrySamples, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """D_x xi and D_t xi = xi_t + Gamma(eta, xi) of a state, from the samples
    of its curve; the fields of ``state`` may also be window series."""
    return (
        cov_dx(state.xi, state.xi, samples, dx),
        state.xi_t + apply_chris(samples.chris, state.eta, state.xi),
    )


def assemble_sources(level: Level) -> tuple[np.ndarray, np.ndarray]:
    """Curvature sources (psi, phi) of a level or a window series: psi feeds
    the tension flux, phi the tension load."""
    state, curv, dxi, dtxi = level.state, level.samples.curv, level.dxi, level.dtxi
    psi = apply_curv(curv, state.xi, dxi, state.xi) - apply_curv(curv, state.xi, dtxi, state.eta)
    speed_gap = np.sum(dtxi * dtxi, axis=-1) - np.sum(dxi * dxi, axis=-1)
    phi = speed_gap[..., None] * state.xi - apply_curv(curv, state.xi, state.eta, state.eta)
    return psi, phi


def _solve_level(level: Level, grid: Grid, cfg: RunConfig, gate) -> tuple[Level, np.ndarray]:
    """The level with its tension theta and the bentness report in force
    attached, and its flux D theta + psi.  The solve is gated by the report
    ``gate``, or by a fresh one when ``gate`` is None; a window series is
    solved in one call and needs its gate."""
    psi, phi = assemble_sources(level)
    solved = elliptic.solve_flux_form(
        psi, phi, level.state.xi, level.samples, grid,
        tol=cfg.solver_tol, b_floor=cfg.b_floor, bentness_report=gate,
    )
    solved_state = level.state.with_theta(solved.u)
    return replace(level, state=solved_state, bentness=solved.bentness), solved.flux


def reconstruct_mu(level: Level) -> np.ndarray:
    """Pointwise multiplier ||D_x xi||^2 - ||D_t xi||^2 - <theta, xi> - 1.

    This is the multiplier of the single-equation form of the motion.
    """
    state, dxi, dtxi = level.state, level.dxi, level.dtxi
    if state.theta is None:
        raise ValueError("state carries no tension field; solve theta first")
    return (
        np.sum(dxi * dxi, axis=-1)
        - np.sum(dtxi * dtxi, axis=-1)
        - np.sum(state.theta * state.xi, axis=-1)
        - 1.0
    )


# ---------------------------------------------------------------------------
# initial data


def frame_tangent(
    gamma: np.ndarray, manifold: ManifoldModel, samples: GeometrySamples, grid: Grid
) -> np.ndarray:
    """Frame components of the curve's centred chart difference, taken with
    the model's wrap-around displacement (not normalised)."""
    tangent_chart = manifold.displacement(
        np.roll(gamma, 1, axis=0), np.roll(gamma, -1, axis=0)
    ) / (2.0 * grid.dx)
    return np.einsum("pij,pj->pi", samples.frame_inv, tangent_chart)


def prepare_initial(
    curve: np.ndarray,
    velocity_chart: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
) -> tuple[CurveState, PreparationReport]:
    """The initial state (tension unsolved, time 0) built as admissible
    discrete data from raw curve and chart-velocity samples.

    The discrete tangent is the centred chart difference (respecting the
    model's wrap-around displacement), converted to frame components and
    normalised to exactly unit rows (xi).  The tangent rate xi_t follows from
    differentiating the velocity along the curve with the connection
    correction for the moving frame, then an exact projection orthogonal to
    the tangent; the projection magnitude is reported, as it measures how
    compatible the supplied velocity was.
    """
    pts = np.asarray(curve, dtype=float)
    vel = np.asarray(velocity_chart, dtype=float)
    if pts.shape != (grid.n_points, manifold.dim) or vel.shape != pts.shape:
        raise ValueError(
            f"curve and velocity must have shape ({grid.n_points}, {manifold.dim}); "
            f"got {pts.shape} and {vel.shape}"
        )
    samples = sample_geometry(manifold, pts)
    a_raw = frame_tangent(pts, manifold, samples, grid)
    norms = row_norms(a_raw)
    min_norm = float(np.min(norms))
    if min_norm < MIN_TANGENT_NORM:
        k = int(np.argmin(norms))
        raise DegenerateCurveError(
            f"discrete tangent (nearly) vanishes at sample {k} (norm {min_norm:.3e}); "
            "the curve is not an admissible closed wire"
        )
    xi = a_raw / norms[:, None]
    eta = np.einsum("pij,pj->pi", samples.frame_inv, vel)
    xi_t_raw = (
        circ_diff(eta, grid.dx)
        + apply_chris(samples.chris, xi, eta)
        - apply_chris(samples.chris, eta, xi)
    )
    proj = np.sum(xi_t_raw * xi, axis=-1)
    xi_t = xi_t_raw - proj[:, None] * xi
    report = PreparationReport(
        projection_magnitude=float(np.max(np.abs(proj))), min_tangent_norm=min_norm
    )
    return CurveState(gamma=pts, xi=xi, xi_t=xi_t, eta=eta), report


# ---------------------------------------------------------------------------
# marching


def _eta_rate(flux: np.ndarray, level: Level) -> np.ndarray:
    """Plain time rate of eta: -Gamma(eta, eta) + flux + D_x xi."""
    eta = level.state.eta
    return -apply_chris(level.samples.chris, eta, eta) + flux + level.dxi


def _chart_velocity(frame: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.einsum("pij,pj->pi", frame, eta)


def _advance_curve(
    gamma: np.ndarray,
    samples: GeometrySamples,
    eta: np.ndarray,
    eta_half: np.ndarray,
    manifold: ManifoldModel,
    dt: float,
) -> tuple[GeometrySamples, np.ndarray, GeometrySamples]:
    """Midpoint update of gamma_t = frame * eta through the half-step curve.

    ``samples`` are those of ``gamma``, and ``eta_half`` is the velocity at
    the half step.  Returns the samples of the half-step curve (on a flat
    chart, whose frame does not vary, ``samples`` themselves), the next
    curve and its samples.  Each curve is sampled, and so checked against
    the chart, before its frame is used.
    """
    gamma_mid = gamma + 0.5 * dt * _chart_velocity(samples.frame, eta)
    samples_mid = samples if samples.chris is None else sample_geometry(manifold, gamma_mid)
    gamma_next = gamma + dt * _chart_velocity(samples_mid.frame, eta_half)
    return samples_mid, gamma_next, sample_geometry(manifold, gamma_next)


def _bootstrap_prev(
    level: Level,
    rate: np.ndarray,
    dt: float,
    samples_next: GeometrySamples,
    grid: Grid,
) -> np.ndarray:
    """Second-order backward level xi(t - dt) for the first leapfrog step.

    ``samples_next`` samples the next curve; on a flat model, where the
    connection terms vanish, they are not read.
    """
    dx = grid.dx
    state, samples, dtxi = level.state, level.samples, level.dtxi
    xi, eta = state.xi, state.eta
    d2xi = cov_dxx(xi, xi, samples, dx)
    coeff = sided_grad_sq(xi, xi, samples, dx) - np.sum(dtxi * dtxi, axis=-1)
    accel = d2xi + coeff[:, None] * xi + perp(state.theta, xi)
    if samples.chris is not None:
        # forward-difference estimate of the connection rate along the motion
        chris_rate = (samples_next.chris - samples.chris) / dt
        accel = accel - (
            apply_chris(chris_rate, eta, xi)
            + apply_chris(samples.chris, rate, xi)
            + apply_chris(samples.chris, eta, state.xi_t)
            + apply_chris(samples.chris, eta, dtxi)
        )
    return xi - dt * state.xi_t + 0.5 * dt * dt * accel


def step(
    level: Level,
    flux: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
    cfg: RunConfig,
    *,
    prev: Optional[Level] = None,
    flux_prev: Optional[np.ndarray] = None,
) -> tuple[CurveState, GeometrySamples]:
    """Advance a solved level, with its tension flux, by ``cfg.dt``; returns
    the next state and the geometry samples of its curve.

    Order of operations: curve midpoint update (gamma_t = h eta never reads
    the tangent, so the half-step and next curves are sampled first, each
    once), tangent leapfrog (bootstrapping a virtual previous level on the
    first step; rescaled to unit rows with ``cfg.renormalize``), velocity
    midpoint update with the half-time flux extrapolated from ``flux_prev``.
    ``prev`` is the previous level, whose samples are reused.
    """
    state, samples = level.state, level.samples
    dt, dx = cfg.dt, grid.dx
    flat = samples.chris is None
    rate = _eta_rate(flux, level)

    # curve: midpoint through the half-step position
    eta_half = state.eta + 0.5 * dt * rate
    samples_mid, gamma_next, samples_next = _advance_curve(
        state.gamma, samples, state.eta, eta_half, manifold, dt
    )

    chris_rate = None
    if prev is None:
        xi_prev = _bootstrap_prev(level, rate, dt, samples_next, grid)
        if not flat:
            # first step: the forward rate (next - curr) / dt, spelt as the
            # centred difference of curr and 2*next - curr, whose rounding
            # the outputs keep
            chris_rate = (2.0 * samples_next.chris - samples.chris - samples.chris) / (2.0 * dt)
    else:
        xi_prev = prev.state.xi
        if not flat:
            chris_rate = (samples_next.chris - prev.samples.chris) / (2.0 * dt)
    xi_next = leapfrog_step(
        xi_prev,
        state.xi,
        state.theta,
        state.eta,
        dt,
        grid,
        samples,
        chris_rate=chris_rate,
        eta_rate=rate,
    )
    if cfg.renormalize:
        xi_next = xi_next / row_norms(xi_next)[:, None]
    xi_t_next = (3.0 * xi_next - 4.0 * state.xi + xi_prev) / (2.0 * dt)

    # velocity: midpoint with flux extrapolated to the half step
    xi_half = 0.5 * (state.xi + xi_next)
    flux_half = flux if flux_prev is None else 1.5 * flux - 0.5 * flux_prev
    dxi_half = cov_dx(xi_half, xi_half, samples_mid, dx)
    k2 = -apply_chris(samples_mid.chris, eta_half, eta_half) + flux_half + dxi_half
    eta_next = state.eta + dt * k2

    next_state = CurveState(
        gamma=gamma_next, xi=xi_next, xi_t=xi_t_next, eta=eta_next, time=state.time + dt
    )
    return next_state, samples_next


def march(
    initial: CurveState, manifold: ManifoldModel, grid: Grid, cfg: RunConfig
) -> Iterator[Level]:
    """Run the marching integrator, yielding the levels 0..cfg.n_steps one by one.

    Each level's tension is solved once, and a level is yielded once the
    step from it has succeeded, so a consumer holds only the levels it keeps
    and never sees a level whose step failed.  Before each step the unit
    tangent is held to ``cfg.constraint_tol``.  The bentness gate is
    re-evaluated every ``cfg.bentness_every`` steps (and always at the
    first); between gates, and at the final level, the most recent report is
    reused and carried by the levels.  The final level gets a tension field
    too, so diagnostics cover [0, T].  Only the initial curve is sampled
    here; every later level takes the samples its step returned.
    """
    current, samples = initial, sample_geometry(manifold, initial.gamma)
    prev: Optional[Level] = None
    flux_prev: Optional[np.ndarray] = None
    gate: Optional[BentnessReport] = None
    for k in range(cfg.n_steps + 1):
        final = k == cfg.n_steps
        if not final:
            drift = constraint_drift(current.xi)
            if drift > cfg.constraint_tol:
                raise ConstraintDriftError(
                    f"unit-tangent defect {drift:.3e} exceeds tolerance "
                    f"{cfg.constraint_tol:.1e} at t={current.time:.6f}"
                )
        level = Level(current, samples, *tangent_derivatives(current, samples, grid.dx))
        fresh = not final and k % cfg.bentness_every == 0
        level, flux = _solve_level(level, grid, cfg, None if fresh else gate)
        gate = level.bentness
        if not final:
            current, samples = step(
                level, flux, manifold, grid, cfg, prev=prev, flux_prev=flux_prev
            )
        yield level
        prev, flux_prev = level, flux


# ---------------------------------------------------------------------------
# window Picard solver


def _window_level(
    gamma: np.ndarray,
    xi: np.ndarray,
    eta: np.ndarray,
    samples: GeometrySamples,
    grid: Grid,
    theta: Optional[np.ndarray] = None,
    gate: Optional[BentnessReport] = None,
) -> Level:
    """A window iterate: the Level of the series over levels 0..M (dt = dx)
    with the stacked ``samples`` of its curves.  xi_t comes from time
    differences of the xi series, and D_x xi and D_t xi are derived once."""
    state = CurveState(gamma=gamma, xi=xi, xi_t=time_diff_series(xi, grid.dx), eta=eta, theta=theta)
    return Level(state, samples, *tangent_derivatives(state, samples, grid.dx), gate)


def _window_curve(
    gamma0: np.ndarray,
    samples0: GeometrySamples,
    eta_s: np.ndarray,
    manifold: ManifoldModel,
    dt: float,
) -> tuple[np.ndarray, GeometrySamples]:
    """The curve series of gamma_t = frame * eta with a frozen eta series, by
    the march's curve update (the half-step velocity is the mean of two
    levels'), with the stacked samples of its curves."""
    gammas, samples = [gamma0], [samples0]
    for m in range(len(eta_s) - 1):
        eta_half = 0.5 * (eta_s[m] + eta_s[m + 1])
        _, gamma, sampled = _advance_curve(gammas[-1], samples[-1], eta_s[m], eta_half, manifold, dt)
        gammas.append(gamma)
        samples.append(sampled)
    return np.stack(gammas), stack_samples(samples)


def _integrate_eta(
    eta0: np.ndarray,
    flux_s: np.ndarray,
    dxi_s: np.ndarray,
    chris_s: Optional[np.ndarray],
    dt: float,
) -> np.ndarray:
    """Midpoint integration of eta_t = -Gamma(eta, eta) + flux + D_x xi with
    frozen flux, tangent-derivative and connection series (None on a flat
    chart)."""
    levels = flux_s.shape[0]
    out = [eta0]
    v = eta0
    chris_m = chris_half = None
    for m in range(levels - 1):
        if chris_s is not None:
            chris_m, chris_half = chris_s[m], 0.5 * (chris_s[m] + chris_s[m + 1])
        force_half = 0.5 * (flux_s[m] + dxi_s[m] + flux_s[m + 1] + dxi_s[m + 1])
        k1 = -apply_chris(chris_m, v, v) + flux_s[m] + dxi_s[m]
        v_half = v + 0.5 * dt * k1
        k2 = -apply_chris(chris_half, v_half, v_half) + force_half
        v = v + dt * k2
        out.append(v)
    return np.stack(out)


def window_distance(a: Level, b: Level, dx: float) -> float:
    """Composite distance between window iterates: sup norms of the curve and
    velocity with their time rates, plus the full first-order tangent norm."""
    a, b = a.state, b.state
    return (
        m01(a.gamma - b.gamma, dx)
        + m1(a.xi - b.xi, dx, dx)
        + m01(a.eta - b.eta, dx)
    )


def picard_coupled(
    state: CurveState, manifold: ManifoldModel, grid: Grid, cfg: RunConfig
) -> tuple[Level, ContractionReport]:
    """Solve the coupled system on a window [0, cfg.picard_window * dx] by
    contraction; the iterate is a Level of series (see _window_level).

    One sweep: solve the tension on the frozen iterate, advance the curve from
    the frozen velocity, run the full inner wave solve for the tangent, update
    the velocity from the frozen flux, then refresh tension and velocity once
    more on the new fields.  Each tension solve is one call on the whole
    series.  Distances between sweeps use the composite norm of
    window_distance; sweeps stop once one is within ``cfg.picard_tol``, and
    three consecutive non-decreasing distances, or ``cfg.picard_max_iter``
    sweeps without reaching the tolerance, raise NonContractionError.  Level
    0 is the fixed initial state, so its curve is sampled once, for all the
    start iterate's levels and every sweep's level 0, and its bentness is
    solved once and gates every level's tension solve.  A sweep's curve
    update samples each later curve of the window as it builds it, with the
    half-step curves on a curved chart, as the march does.
    """
    dt = grid.dx
    n_levels = cfg.picard_window
    levels = n_levels + 1
    if levels < 3:
        raise ValueError("picard window needs at least 2 steps (3 levels)")
    samples0 = sample_geometry(manifold, state.gamma)
    gate = elliptic.bentness(state.xi, samples0, grid)
    shape = (levels,) + state.gamma.shape
    start = _window_level(
        np.broadcast_to(state.gamma, shape).copy(),
        np.broadcast_to(state.xi, shape).copy(),
        np.broadcast_to(state.eta, shape).copy(),
        stack_samples([samples0] * levels),
        grid,
        gate=gate,
    )

    def sweep(current: Level) -> Level:
        solved, flux = _solve_level(current, grid, cfg, gate)
        eta = current.state.eta
        gamma_new, samples_new = _window_curve(state.gamma, samples0, eta, manifold, dt)
        xi_new, _ = picard_wave_solve(
            state,
            solved.state.theta,
            grid,
            n_levels=n_levels,
            eta_series=eta,
            samples_series=current.samples,
        )
        eta_mid = _integrate_eta(state.eta, flux, current.dxi, current.samples.chris, dt)
        # refresh tension and velocity on the advanced fields
        refreshed, flux_new = _solve_level(
            _window_level(gamma_new, xi_new, eta_mid, samples_new, grid), grid, cfg, gate
        )
        eta_new = _integrate_eta(state.eta, flux_new, refreshed.dxi, samples_new.chris, dt)
        return _window_level(
            gamma_new, xi_new, eta_new, samples_new, grid, refreshed.state.theta, gate
        )

    return _contract(
        sweep,
        start,
        lambda new, current: window_distance(new, current, grid.dx),
        max_iter=cfg.picard_max_iter,
        tol=cfg.picard_tol,
        label="coupled picard iteration",
    )
