"""Coupled motion of the closed elastic wire.

The state (gamma, xi, eta) evolves under a first-order system: the tension
theta solves an elliptic problem along the current curve (elliptic module),
the unit tangent xi obeys a semilinear wave equation driven by theta, the
velocity eta advances with the tension flux, and the curve integrates its
velocity.  This module provides

* Level              one time level: the unknowns (gamma, xi, xi_t, eta) with
                     the geometry samples of gamma, D_x xi and D_t xi, and
                     once solved the tension and the bentness value in force,
* assemble_sources   curvature source terms (psi, phi) of a level or a series,
* prepare_initial    the initial Level (tension unsolved), admissible
                     discrete data from raw curve + velocity samples,
* march              the generator of a run's levels, each held to the run's
                     one gate (_gate) and its tension solved once,
* step               the advance of a solved level: curve, tangent leapfrog and
                     velocity updates, returning the next (unsolved) Level,
* picard_coupled     the contraction-map alternative on a short time window,
                     whose iterate is a Level of series: each sweep solves
                     the tension of the whole window in one call, twice,
                     and moves its curves and velocities by the march's
                     half-step updates,
* window_rows        the generator of a converged window's levels, each gated,
* reconstruct_mu     the pointwise multiplier of the single-equation form.

The defect of a computed trajectory in the single equation is a test
oracle (tests/residual_oracle.py).

The marching step keeps xi, eta and gamma each second-order accurate: the
tangent uses the three-level wave leapfrog, the curve a midpoint rule through
the half-step curve.  The curve's update never reads the tangent, so a step
moves it first; the leapfrog's connection rate and the next level share the
next curve's samples.  The march and the window advance the velocity by one
half-step rule, eta_next = eta + dt R(c_half, eta + dt/2 R(c, eta, F), F_half)
with R(c, v, F) = -Gamma_c(v, v) + F (_eta_rate), F = flux + D_x xi, and c,
c_half the connections of the curve and of the half-step curve its update
samples.  Only F_half differs: the march extrapolates the flux from its two
latest tension solves and forms D_x xi at the half step; the window takes the
mean of two levels' flux and the mean of their D_x xi.

The frame scale, connection and curvature at a level depend only on the curve
there, and D_x xi and D_t xi only on the level's fields and those samples,
so each is formed once: a ``Level`` carries the samples of its ``gamma`` and
both derivatives (see Level.derive) to the next step and every diagnostic.
A window iterate carries them as series, derived once per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from . import elliptic
from .config import RunConfig
from .errors import ConstraintDriftError, DegenerateCurveError, NearGeodesicError
from .fields import (
    Grid,
    circ_diff,
    constraint_drift,
    cov_dx,
    cov_dxx,
    m01,
    m1,
    perp,
    row_norms,
    shift,
    sided_grad_sq,
    time_diff_series,
)
from .geometry import (
    GeometrySamples,
    ManifoldModel,
    apply_chris,
    apply_curv,
    dot,
    frame_components,
    sample_geometry,
    stack_samples,
)
from .wave import ContractionReport, _contract, leapfrog_step, picard_wave_solve

#: tangent samples shorter than this fraction of the mean abort preparation
MIN_TANGENT_NORM = 1e-6


@dataclass(frozen=True)
class Level:
    """One time level of the wire: chart positions ``gamma``, the unit
    tangent ``xi`` (frame components), its plain time rate ``xi_t`` and the
    velocity ``eta``, each (N, n); the geometry samples of ``gamma``; D_x xi
    and D_t xi = xi_t + Gamma(eta, xi) (see derive); and, once the level is
    solved, the tension ``theta`` and the bentness value in force there.

    A Picard window iterate is a Level of series over the window's levels
    0..M (dt = dx), with the stacked samples of its curves, xi_t the time
    difference of its xi series, and level 0's bentness.
    """

    gamma: np.ndarray
    xi: np.ndarray
    xi_t: np.ndarray
    eta: np.ndarray
    samples: GeometrySamples
    dxi: np.ndarray
    dtxi: np.ndarray
    theta: Optional[np.ndarray] = None
    time: float = 0.0
    bentness: Optional[float] = None

    @classmethod
    def derive(
        cls,
        gamma: np.ndarray,
        xi: np.ndarray,
        xi_t: np.ndarray,
        eta: np.ndarray,
        samples: GeometrySamples,
        dx: float,
        **rest,
    ) -> "Level":
        """The Level of these fields, with D_x xi and D_t xi derived from the
        samples of ``gamma``; the fields may also be window series.  ``rest``
        sets the fields that follow (theta, time, bentness)."""
        dxi = cov_dx(xi, xi, samples, dx)
        dtxi = xi_t + apply_chris(samples.conn, eta, xi)
        return cls(gamma, xi, xi_t, eta, samples, dxi, dtxi, **rest)


# ---------------------------------------------------------------------------
# sources


def assemble_sources(level: Level) -> tuple[np.ndarray, np.ndarray]:
    """Curvature sources (psi, phi) of a level or a window series: psi feeds
    the tension flux, phi the tension load."""
    xi, eta, curv, dxi, dtxi = level.xi, level.eta, level.samples.curv, level.dxi, level.dtxi
    psi = apply_curv(curv, xi, dxi, xi) - apply_curv(curv, xi, dtxi, eta)
    speed_gap = dot(dtxi, dtxi) - dot(dxi, dxi)
    phi = speed_gap[..., None] * xi - apply_curv(curv, xi, eta, eta)
    return psi, phi


def _gate(
    level: Level, grid: Grid, cfg: RunConfig, k: int, last: int, gate: Optional[float] = None,
    *, steps_from: bool = True,
) -> float:
    """The one gate of every level a run records, here level ``k`` of a run
    whose last level is ``last``.  A level the run ``steps_from`` (a march
    level before its last, a window's level 0) has its unit-tangent defect
    held to ``cfg.constraint_tol`` (ConstraintDriftError; a NaN defect fails
    too); other levels only report it.  Returns the bentness in force by the
    run's one cadence: fresh at a multiple of ``cfg.bentness_every`` before
    ``last``, held to ``cfg.b_floor`` (NearGeodesicError); else ``gate``."""
    drift = constraint_drift(level.xi) if steps_from else 0.0
    if not drift <= cfg.constraint_tol:
        raise ConstraintDriftError(
            f"unit-tangent defect {drift:.3e} exceeds tolerance "
            f"{cfg.constraint_tol:.1e} at t={level.time:.6f}"
        )
    if k % cfg.bentness_every or k == last:
        return gate
    gate = elliptic.bentness(level.xi, level.samples, grid)
    if gate < cfg.b_floor:
        raise NearGeodesicError(
            f"bentness {gate:.3e} below floor {cfg.b_floor:.3e}; "
            "tension operator is (near) singular"
        )
    return gate


def _solve_level(level: Level, grid: Grid, cfg: RunConfig, gate: float) -> tuple[Level, np.ndarray]:
    """The level, or window series, with its tension theta and the bentness
    value ``gate`` (see _gate) attached, and its flux D theta + psi."""
    psi, phi = assemble_sources(level)
    solved = elliptic.solve_flux_form(psi, phi, level.xi, level.samples, grid, tol=cfg.solver_tol)
    return replace(level, theta=solved.u, bentness=gate), solved.flux


def reconstruct_mu(level: Level) -> np.ndarray:
    """Pointwise multiplier ||D_x xi||^2 - ||D_t xi||^2 - <theta, xi> - 1.

    This is the multiplier of the single-equation form of the motion.
    """
    dxi, dtxi = level.dxi, level.dtxi
    if level.theta is None:
        raise ValueError("level carries no tension field; solve theta first")
    return dot(dxi, dxi) - dot(dtxi, dtxi) - dot(level.theta, level.xi) - 1.0


# ---------------------------------------------------------------------------
# initial data


def frame_tangent(
    gamma: np.ndarray, manifold: ManifoldModel, samples: GeometrySamples, grid: Grid
) -> np.ndarray:
    """Frame components of the curve's centred chart difference, taken with
    the model's wrap-around displacement (not normalised)."""
    tangent_chart = manifold.displacement(shift(gamma, 1), shift(gamma, -1)) / (2.0 * grid.dx)
    return frame_components(samples, tangent_chart)


def prepare_initial(
    curve: np.ndarray,
    velocity_chart: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
) -> tuple[Level, float]:
    """The initial Level (tension unsolved, time 0) built as admissible
    discrete data from raw curve and chart-velocity samples, and the
    magnitude of the projection that made its tangent rate admissible.

    The discrete tangent is the centred chart difference (respecting the
    model's wrap-around displacement), converted to frame components and
    normalised to exactly unit rows (xi).  The tangent rate xi_t follows from
    differentiating the velocity along the curve with the connection
    correction for the moving frame, then an exact projection orthogonal to
    the tangent; the projection magnitude is returned, as it measures how
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
    eta = frame_components(samples, vel)
    xi_t_raw = (
        circ_diff(eta, grid.dx)
        + apply_chris(samples.conn, xi, eta)
        - apply_chris(samples.conn, eta, xi)
    )
    proj = dot(xi_t_raw, xi)
    xi_t = xi_t_raw - proj[:, None] * xi
    level = Level.derive(pts, xi, xi_t, eta, samples, grid.dx)
    return level, float(np.max(np.abs(proj)))


# ---------------------------------------------------------------------------
# marching


def _eta_rate(
    conn: Optional[np.ndarray], eta: np.ndarray, flux: np.ndarray, dxi: np.ndarray
) -> np.ndarray:
    """Plain time rate of eta: -Gamma(eta, eta) + flux + D_x xi, with the
    connection ``conn`` of eta's points (None on a flat chart)."""
    return -apply_chris(conn, eta, eta) + flux + dxi


def _chart_velocity(samples: GeometrySamples, eta: np.ndarray) -> np.ndarray:
    """Chart components of the frame velocity ``eta`` at the sampled points."""
    # + 0.0 turns -0.0 into +0.0: the flat charts' output bytes keep that sign
    return (eta if samples.scale is None else samples.scale[:, None] * eta) + 0.0


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
    gamma_mid = gamma + 0.5 * dt * _chart_velocity(samples, eta)
    samples_mid = samples if samples.scale is None else sample_geometry(manifold, gamma_mid)
    gamma_next = gamma + dt * _chart_velocity(samples_mid, eta_half)
    return samples_mid, gamma_next, sample_geometry(manifold, gamma_next)


def _bootstrap_prev(
    level: Level,
    rate: np.ndarray,
    dt: float,
    conn_rate: Optional[np.ndarray],
    grid: Grid,
) -> np.ndarray:
    """Second-order backward level xi(t - dt) for the first leapfrog step.

    ``conn_rate`` is the forward-difference rate of the connection along the
    motion, None on a flat model, where the connection terms are exact zeros.
    """
    dx = grid.dx
    samples, dtxi = level.samples, level.dtxi
    xi, eta = level.xi, level.eta
    d2xi = cov_dxx(xi, xi, samples, dx)
    coeff = sided_grad_sq(xi, xi, samples, dx) - dot(dtxi, dtxi)
    accel = d2xi + coeff[:, None] * xi + perp(level.theta, xi) - (
        apply_chris(conn_rate, eta, xi)
        + apply_chris(samples.conn, rate, xi)
        + apply_chris(samples.conn, eta, level.xi_t)
        + apply_chris(samples.conn, eta, dtxi)
    )
    return xi - dt * level.xi_t + 0.5 * dt * dt * accel


def step(
    level: Level,
    flux: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
    cfg: RunConfig,
    *,
    prev: Optional[Level] = None,
    flux_prev: Optional[np.ndarray] = None,
) -> Level:
    """Advance a solved level, with its tension flux, by ``cfg.dt``; returns
    the next Level, its tension unsolved.

    Order of operations: curve midpoint update (gamma_t = h eta never reads
    the tangent, so the half-step and next curves are sampled first, each
    once), tangent leapfrog (bootstrapping a virtual previous level on the
    first step; rescaled to unit rows with ``cfg.renormalize``), velocity
    midpoint update with the half-time flux extrapolated from ``flux_prev``.
    ``prev`` is the previous level, whose samples are reused.
    """
    samples, xi, eta = level.samples, level.xi, level.eta
    dt, dx = cfg.dt, grid.dx
    flat = samples.conn is None
    rate = _eta_rate(samples.conn, eta, flux, level.dxi)

    # curve: midpoint through the half-step position
    eta_half = eta + 0.5 * dt * rate
    samples_mid, gamma_next, samples_next = _advance_curve(
        level.gamma, samples, eta, eta_half, manifold, dt
    )

    # the connection rate along the motion: forward on the first step, centred after
    if prev is None:
        conn_rate = None if flat else (samples_next.conn - samples.conn) / dt
        xi_prev = _bootstrap_prev(level, rate, dt, conn_rate, grid)
    else:
        conn_rate = None if flat else (samples_next.conn - prev.samples.conn) / (2.0 * dt)
        xi_prev = prev.xi
    xi_next = leapfrog_step(
        xi_prev, xi, level.theta, eta, dt, grid, samples, conn_rate=conn_rate, eta_rate=rate
    )
    if cfg.renormalize:
        xi_next = xi_next / row_norms(xi_next)[:, None]
    xi_t_next = (3.0 * xi_next - 4.0 * xi + xi_prev) / (2.0 * dt)

    # velocity: midpoint with flux extrapolated to the half step
    xi_half = 0.5 * (xi + xi_next)
    flux_half = flux if flux_prev is None else 1.5 * flux - 0.5 * flux_prev
    dxi_half = cov_dx(xi_half, xi_half, samples_mid, dx)
    eta_next = eta + dt * _eta_rate(samples_mid.conn, eta_half, flux_half, dxi_half)
    return Level.derive(
        gamma_next, xi_next, xi_t_next, eta_next, samples_next, dx, time=level.time + dt
    )


def march(
    initial: Level, manifold: ManifoldModel, grid: Grid, cfg: RunConfig
) -> Iterator[Level]:
    """Run the marching integrator, yielding the levels 0..cfg.n_steps one by one.

    Every level passes _gate, which holds the unit tangent of each level a
    step is taken from, and then has its tension solved once, so diagnostics
    cover [0, T]; a level is yielded once the step from it has succeeded, so
    a consumer holds only the levels it keeps and never sees a level whose
    step failed.  Every level after ``initial`` (see prepare_initial) is the
    one its step returned.
    """
    current = initial
    prev: Optional[Level] = None
    flux_prev: Optional[np.ndarray] = None
    gate: Optional[float] = None
    for k in range(cfg.n_steps + 1):
        gate = _gate(current, grid, cfg, k, cfg.n_steps, gate, steps_from=k < cfg.n_steps)
        level, flux = _solve_level(current, grid, cfg, gate)
        if k < cfg.n_steps:
            current = step(level, flux, manifold, grid, cfg, prev=prev, flux_prev=flux_prev)
        yield level
        prev, flux_prev = level, flux


# ---------------------------------------------------------------------------
# window Picard solver


def _window_curve(
    gamma0: np.ndarray,
    samples0: GeometrySamples,
    eta_s: np.ndarray,
    manifold: ManifoldModel,
    dt: float,
) -> tuple[np.ndarray, GeometrySamples, GeometrySamples]:
    """The curve series of gamma_t = frame * eta with a frozen eta series, by
    the march's curve update (the half-step velocity is the mean of two
    levels'), with the stacked samples of its curves and its half-step curves."""
    gammas, samples, halves = [gamma0], [samples0], []
    for m in range(len(eta_s) - 1):
        eta_half = 0.5 * (eta_s[m] + eta_s[m + 1])
        half, gamma, sampled = _advance_curve(gammas[-1], samples[-1], eta_s[m], eta_half, manifold, dt)
        gammas.append(gamma)
        samples.append(sampled)
        halves.append(half)
    return np.stack(gammas), stack_samples(samples), stack_samples(halves)


def _at(series, m: int):
    """Level m of a dataclass of series; None and scalars stay."""
    arrays = {k: v[m] for k, v in vars(series).items() if isinstance(v, np.ndarray)}
    return replace(series, **arrays)


def _integrate_eta(
    eta0: np.ndarray,
    flux_s: np.ndarray,
    dxi_s: np.ndarray,
    samples: GeometrySamples,
    halves: GeometrySamples,
    dt: float,
) -> np.ndarray:
    """Integrate eta_t = R(c, eta, flux + D_x xi) (R = _eta_rate) over the
    window with frozen flux and D_x xi series by the march's half-step rule,
    v_next = v + dt R(c_half, v + dt/2 R(c, v, F), F_half): c is read from
    the ``samples`` of the window's curves, c_half from the ``halves`` of its
    half-step curves (see _window_curve), and F_half is the mean of two
    levels' flux plus the mean of their D_x xi."""
    flux_half = 0.5 * (flux_s[:-1] + flux_s[1:])
    dxi_half = 0.5 * (dxi_s[:-1] + dxi_s[1:])
    out = [eta0]
    for m in range(len(flux_half)):
        v = out[-1]
        v_half = v + 0.5 * dt * _eta_rate(_at(samples, m).conn, v, flux_s[m], dxi_s[m])
        out.append(v + dt * _eta_rate(_at(halves, m).conn, v_half, flux_half[m], dxi_half[m]))
    return np.stack(out)


def window_distance(a: Level, b: Level, dx: float) -> float:
    """Composite distance between window iterates: sup norms of the curve and
    velocity with their time rates, plus the full first-order tangent norm."""
    return (
        m01(a.gamma - b.gamma, dx)
        + m1(a.xi - b.xi, dx, dx)
        + m01(a.eta - b.eta, dx)
    )


def picard_coupled(
    initial: Level, manifold: ManifoldModel, grid: Grid, cfg: RunConfig
) -> tuple[Level, ContractionReport]:
    """Solve the coupled system on a window [0, cfg.picard_window * dx] by
    contraction; the iterate is a Level of series (see Level).

    One sweep: solve the tension on the frozen iterate, advance the curve from
    the frozen velocity, run the full inner wave solve for the tangent, update
    the velocity from the frozen flux, then refresh tension and velocity once
    more on the new fields.  Each tension solve is one call on the whole
    series.  Distances between sweeps use the composite norm of
    window_distance; sweeps stop once one is within ``cfg.picard_tol``, and
    three consecutive non-decreasing distances, or ``cfg.picard_max_iter``
    sweeps without reaching the tolerance, raise NonContractionError.  Level
    0 is the fixed initial level: the start iterate repeats it on every
    level, its samples serve every sweep's level 0, and it passes _gate
    before any sweep, whose tension solves all carry its bentness; the later
    levels pass _gate in window_rows.  A sweep's curve update samples each
    later curve and each half-step curve once, as the march does, and both
    velocity updates run on those samples by the march's half-step rule
    eta_next = eta + dt R(c_half, eta + dt/2 R(c, eta, F), F_half), with
    F_half the mean of two levels' force (see _integrate_eta).
    """
    dt = grid.dx
    levels = cfg.picard_window + 1
    if levels < 3:
        raise ValueError("picard window needs at least 2 steps (3 levels)")
    gate = _gate(initial, grid, cfg, 0, cfg.picard_window)

    def constant(field: np.ndarray) -> np.ndarray:
        return np.broadcast_to(field, (levels,) + field.shape).copy()

    # every level of the start iterate is level 0; its xi_t is the time
    # difference of that constant series, not level 0's
    xi0 = constant(initial.xi)
    start = Level.derive(
        constant(initial.gamma), xi0, time_diff_series(xi0, dt), constant(initial.eta),
        stack_samples([initial.samples] * levels), dt, bentness=gate,
    )

    def sweep(current: Level) -> Level:
        solved, flux = _solve_level(current, grid, cfg, gate)
        eta = current.eta
        gamma_new, samples_new, halves = _window_curve(
            initial.gamma, initial.samples, eta, manifold, dt
        )
        xi_new, _ = picard_wave_solve(
            initial.xi, initial.xi_t, solved.theta, grid,
            eta_series=eta, samples_series=current.samples,
        )
        eta_mid = _integrate_eta(initial.eta, flux, current.dxi, samples_new, halves, dt)
        # refresh tension and velocity on the advanced fields
        xi_t = time_diff_series(xi_new, dt)
        refreshed, flux_new = _solve_level(
            Level.derive(gamma_new, xi_new, xi_t, eta_mid, samples_new, dt), grid, cfg, gate
        )
        eta_new = _integrate_eta(initial.eta, flux_new, refreshed.dxi, samples_new, halves, dt)
        return Level.derive(
            gamma_new, xi_new, xi_t, eta_new, samples_new, dt, theta=refreshed.theta, bentness=gate
        )

    return _contract(
        sweep,
        start,
        lambda new, current: window_distance(new, current, grid.dx),
        max_iter=cfg.picard_max_iter,
        tol=cfg.picard_tol,
        label="coupled picard iteration",
    )


def window_rows(iterate: Level, grid: Grid, cfg: RunConfig) -> Iterator[Level]:
    """Yield the levels 0..cfg.picard_window of a converged window iterate,
    each with its samples and time m * dx; each level after 0 passes _gate
    for its bentness, so a level below the floor raises after those before."""

    gate = iterate.bentness
    for m in range(cfg.picard_window + 1):
        level = replace(_at(iterate, m), samples=_at(iterate.samples, m), time=m * grid.dx)
        if m:
            gate = _gate(level, grid, cfg, m, cfg.picard_window, gate, steps_from=False)
        yield replace(level, bentness=gate)
