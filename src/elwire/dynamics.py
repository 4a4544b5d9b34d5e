"""Coupled motion of the closed elastic wire.

The state (gamma, xi, eta) evolves under a first-order system: the tension
theta solves an elliptic problem along the current curve (elliptic module),
the unit tangent xi obeys a semilinear wave equation driven by theta, the
velocity eta advances with the tension flux, and the curve integrates its
velocity.  This module provides

* assemble_sources   curvature source terms (psi, phi) of a state,
* prepare_initial    admissible discrete data from raw curve + velocity samples,
* step / march       one covariant leapfrog step of the full system, and the
                     generator that yields each time level with its geometry
                     and the bentness gate in force,
* picard_coupled     the contraction-map alternative on a short time window,
* reconstruct_mu     the pointwise multiplier of the single-equation form,
* residual_base_single  defect of a computed trajectory in the single equation.

The marching step keeps xi, eta and gamma each second-order accurate: the
tangent uses the three-level wave leapfrog, the velocity a midpoint rule whose
half-time flux is extrapolated from the two most recent tension solves, and
the curve a midpoint rule through a predicted half-step position.

The frame, connection and curvature at a level depend only on the curve
there, so each curve position is sampled once: a ``Level`` carries the
samples of its ``gamma`` to the next step and to every diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import elliptic
from .elliptic import BentnessReport
from .errors import ConstraintDriftError, DegenerateCurveError
from .fields import (
    CurveState,
    Grid,
    circ_diff,
    constraint_drift,
    cov_dx,
    cov_dxx,
    cov_dt,
    m0,
    m01,
    m1,
    perp,
    row_norms,
    sided_grad_sq,
    time_diff_series,
)
from .geometry import GeometrySamples, ManifoldModel, apply_chris, apply_curv, sample_geometry
from .wave import ContractionReport, _contract, leapfrog_step, picard_wave_solve

#: tangent samples shorter than this fraction of the mean abort preparation
MIN_TANGENT_NORM = 1e-6


@dataclass(frozen=True)
class SourceTerms:
    """Curvature sources of a state: psi (flux source) and phi (load)."""

    psi: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class InitialData:
    """Admissible discrete initial data.

    ``a`` curve samples (chart), ``b`` frame components of the velocity,
    ``a_tilde`` the exactly unit discrete tangent, ``b_tilde`` the plain
    initial rate of the tangent, exactly orthogonal to ``a_tilde``.
    """

    a: np.ndarray
    b: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray


@dataclass(frozen=True)
class PreparationReport:
    """How much prepare_initial had to adjust the raw data."""

    projection_magnitude: float
    min_tangent_norm: float


@dataclass(frozen=True)
class RunParams:
    """Numerical knobs shared by the stepper and the window solver."""

    solver_tol: float = 1e-8
    constraint_tol: float = 1e-2
    b_floor: float = 1e-3
    renormalize: bool = False


@dataclass(frozen=True)
class StepResult:
    """Next state plus what was solved and sampled at the departing level."""

    state: CurveState
    theta: np.ndarray
    flux: np.ndarray
    samples: GeometrySamples
    bentness: BentnessReport


@dataclass(frozen=True)
class Level:
    """One time level: the state with its tension attached, the geometry
    samples of its curve, and the bentness report in force there."""

    state: CurveState
    samples: GeometrySamples
    bentness: Optional[BentnessReport]


@dataclass(frozen=True)
class WindowIterate:
    """Field series over a Picard window (levels 0..M, dt = dx)."""

    gamma: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    samples: Optional[list] = None  # GeometrySamples of gamma per level, once solved


# ---------------------------------------------------------------------------
# sources and derived fields


def cov_dt_state(state: CurveState, samples: GeometrySamples) -> np.ndarray:
    """Covariant time rate of the tangent from the stored plain rate."""
    return state.xi_t + apply_chris(samples.chris, state.eta, state.xi)


def assemble_sources(state: CurveState, samples: GeometrySamples, grid: Grid) -> SourceTerms:
    """Curvature sources: psi feeds the tension flux, phi the tension load."""
    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    dtxi = cov_dt_state(state, samples)
    psi = apply_curv(samples.curv, state.xi, dxi, state.xi) - apply_curv(
        samples.curv, state.xi, dtxi, state.eta
    )
    speed_gap = np.sum(dtxi * dtxi, axis=-1) - np.sum(dxi * dxi, axis=-1)
    phi = speed_gap[:, None] * state.xi - apply_curv(samples.curv, state.xi, state.eta, state.eta)
    return SourceTerms(psi=psi, phi=phi)


def reconstruct_mu(state: CurveState, samples: GeometrySamples, grid: Grid) -> np.ndarray:
    """Pointwise multiplier ||D_x xi||^2 - ||D_t xi||^2 - <theta, xi> - 1.

    This is the multiplier of the single-equation form of the motion.
    """
    if state.theta is None:
        raise ValueError("state carries no tension field; solve theta first")
    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    dtxi = cov_dt_state(state, samples)
    return (
        np.sum(dxi * dxi, axis=-1)
        - np.sum(dtxi * dtxi, axis=-1)
        - np.sum(state.theta * state.xi, axis=-1)
        - 1.0
    )


# ---------------------------------------------------------------------------
# initial data


def prepare_initial(
    curve: np.ndarray,
    velocity_chart: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
) -> tuple[InitialData, PreparationReport]:
    """Build admissible discrete data from raw curve and chart-velocity samples.

    The discrete tangent is the centred chart difference (respecting the
    model's wrap-around displacement), converted to frame components and
    normalised to exactly unit rows.  The tangent rate b_tilde follows from
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
    tangent_chart = manifold.displacement(np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)) / (
        2.0 * grid.dx
    )
    a_raw = np.einsum("pij,pj->pi", samples.frame_inv, tangent_chart)
    norms = row_norms(a_raw)
    min_norm = float(np.min(norms))
    if min_norm < MIN_TANGENT_NORM:
        k = int(np.argmin(norms))
        raise DegenerateCurveError(
            f"discrete tangent (nearly) vanishes at sample {k} (norm {min_norm:.3e}); "
            "the curve is not an admissible closed wire"
        )
    a_tilde = a_raw / norms[:, None]
    b = np.einsum("pij,pj->pi", samples.frame_inv, vel)
    b_raw = (
        circ_diff(b, grid.dx)
        + apply_chris(samples.chris, a_tilde, b)
        - apply_chris(samples.chris, b, a_tilde)
    )
    proj = np.sum(b_raw * a_tilde, axis=-1)
    b_tilde = b_raw - proj[:, None] * a_tilde
    data = InitialData(a=pts, b=b, a_tilde=a_tilde, b_tilde=b_tilde)
    report = PreparationReport(
        projection_magnitude=float(np.max(np.abs(proj))), min_tangent_norm=min_norm
    )
    return data, report


def make_state(data: InitialData) -> CurveState:
    """Initial wire state from prepared data (tension left unsolved)."""
    return CurveState(
        gamma=data.a, xi=data.a_tilde, xi_t=data.b_tilde, eta=data.b, theta=None, time=0.0
    )


# ---------------------------------------------------------------------------
# marching


def _eta_rate(flux: np.ndarray, state: CurveState, samples: GeometrySamples, grid: Grid) -> np.ndarray:
    """Plain time rate of eta: -Gamma(eta, eta) + flux + D_x xi."""
    dxi = cov_dx(state.xi, state.xi, samples, grid.dx)
    return -apply_chris(samples.chris, state.eta, state.eta) + flux + dxi


def _chart_velocity(frame: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.einsum("pij,pj->pi", frame, eta)


def _bootstrap_prev(
    state: CurveState,
    theta: np.ndarray,
    rate: np.ndarray,
    dt: float,
    samples: GeometrySamples,
    samples_next: Optional[GeometrySamples],
    grid: Grid,
) -> np.ndarray:
    """Second-order backward level xi(t - dt) for the first leapfrog step.

    ``samples_next`` samples the predicted next curve position; it is None on
    a flat model, where the connection terms vanish.
    """
    dx = grid.dx
    xi, eta = state.xi, state.eta
    d2xi = cov_dxx(xi, xi, samples, dx)
    dtxi = cov_dt_state(state, samples)
    coeff = sided_grad_sq(xi, xi, samples, dx) - np.sum(dtxi * dtxi, axis=-1)
    accel = d2xi + coeff[:, None] * xi + perp(theta, xi)
    if samples_next is not None:
        # forward-difference estimate of the connection rate along the motion
        chris_rate = (samples_next.chris - samples.chris) / dt
        accel = accel - (
            apply_chris(chris_rate, eta, xi)
            + apply_chris(samples.chris, rate, xi)
            + apply_chris(samples.chris, eta, state.xi_t)
            + apply_chris(samples.chris, eta, dtxi)
        )
    return xi - dt * state.xi_t + 0.5 * dt * dt * accel


def _predict_position(
    state: CurveState,
    rate: np.ndarray,
    dt: float,
    manifold: ManifoldModel,
    samples: GeometrySamples,
) -> np.ndarray:
    """Midpoint predictor of the curve one step ahead (third-order accurate)."""
    gamma_mid = state.gamma + 0.5 * dt * _chart_velocity(samples.frame, state.eta)
    frame_mid = manifold.frame(gamma_mid)
    eta_mid = state.eta + 0.5 * dt * rate
    return state.gamma + dt * _chart_velocity(frame_mid, eta_mid)


def step(
    state: CurveState,
    dt: float,
    manifold: ManifoldModel,
    grid: Grid,
    params: RunParams = RunParams(),
    *,
    prev: Optional[Level] = None,
    flux_prev: Optional[np.ndarray] = None,
    bentness_report: Optional[BentnessReport] = None,
) -> StepResult:
    """Advance the full wire state by one step of size dt.

    Order of operations: tension solve at the current level, tangent leapfrog
    (bootstrapping a virtual previous level on the first step), velocity
    midpoint update with the extrapolated half-time flux, curve midpoint
    update.  ``prev`` is the previous level, whose samples are reused; the
    samples of the current curve are returned for the next step.  Aborts
    with the dedicated error types on chart exit, constraint drift,
    near-geodesic tangents, or a failed linear solve.
    """
    dx = grid.dx
    drift = constraint_drift(state.xi)
    if drift > params.constraint_tol:
        raise ConstraintDriftError(
            f"unit-tangent defect {drift:.3e} exceeds tolerance {params.constraint_tol:.1e} "
            f"at t={state.time:.6f}"
        )
    samples = sample_geometry(manifold, state.gamma)
    solved = elliptic.solve_theta(
        state,
        assemble_sources(state, samples, grid),
        samples,
        grid,
        tol=params.solver_tol,
        b_floor=params.b_floor,
        bentness_report=bentness_report,
    )
    theta, flux = solved.u, solved.flux
    rate = _eta_rate(flux, state, samples, grid)

    flat = getattr(manifold, "is_flat", False)
    samples_prev = samples_next = None
    if not flat:
        gamma_pred = _predict_position(state, rate, dt, manifold, samples)
        samples_next = sample_geometry(manifold, gamma_pred)
    if prev is None:
        xi_prev = _bootstrap_prev(state, theta, rate, dt, samples, samples_next, grid)
        if not flat:
            # first step: no previous level, so doctor the pair handed to the
            # centred connection-rate difference into the forward rate
            # (2*next - curr - curr) / (2 dt) = (next - curr) / dt
            samples_prev = samples
            samples_next = GeometrySamples(
                frame=samples_next.frame,
                frame_inv=samples_next.frame_inv,
                chris=2.0 * samples_next.chris - samples.chris,
                curv=samples_next.curv,
            )
    else:
        xi_prev = prev.state.xi
        if not flat:
            samples_prev = prev.samples
    xi_next = leapfrog_step(
        xi_prev,
        state.xi,
        theta,
        state.eta,
        dt,
        grid,
        samples,
        samples_prev=samples_prev,
        samples_next=samples_next,
        eta_rate=rate,
    )
    if params.renormalize:
        xi_next = xi_next / row_norms(xi_next)[:, None]
    xi_t_next = (3.0 * xi_next - 4.0 * state.xi + xi_prev) / (2.0 * dt)

    # velocity: midpoint with flux extrapolated to the half step
    eta_half = state.eta + 0.5 * dt * rate
    gamma_mid = state.gamma + 0.5 * dt * _chart_velocity(samples.frame, state.eta)
    samples_mid = samples if flat else sample_geometry(manifold, gamma_mid)
    xi_half = 0.5 * (state.xi + xi_next)
    flux_half = flux if flux_prev is None else 1.5 * flux - 0.5 * flux_prev
    dxi_half = cov_dx(xi_half, xi_half, samples_mid, dx)
    k2 = -apply_chris(samples_mid.chris, eta_half, eta_half) + flux_half + dxi_half
    eta_next = state.eta + dt * k2

    # curve: midpoint through the predicted half-step position
    gamma_next = state.gamma + dt * _chart_velocity(samples_mid.frame, eta_half)

    next_state = CurveState(
        gamma=gamma_next,
        xi=xi_next,
        xi_t=xi_t_next,
        eta=eta_next,
        theta=None,
        time=state.time + dt,
    )
    return StepResult(
        state=next_state, theta=theta, flux=flux, samples=samples, bentness=solved.bentness
    )


def march(
    initial: CurveState,
    dt: float,
    n_steps: int,
    manifold: ManifoldModel,
    grid: Grid,
    params: RunParams = RunParams(),
    *,
    bentness_every: int = 10,
) -> Iterator[Level]:
    """Run the marching integrator, yielding the levels 0..n_steps one by one.

    Each level is yielded once its tension is solved, before the next step
    runs, so a consumer holds only the levels it keeps.  The bentness gate is
    re-evaluated every ``bentness_every`` steps (and always at the first);
    between gates the most recent report is reused and carried by the
    levels.  The final level gets a tension field too, so diagnostics cover
    [0, T].
    """
    current = initial
    prev: Optional[Level] = None
    flux_prev: Optional[np.ndarray] = None
    carried: Optional[BentnessReport] = None
    for k in range(n_steps):
        fresh_gate = k % max(1, bentness_every) == 0
        result = step(
            current,
            dt,
            manifold,
            grid,
            params,
            prev=prev,
            flux_prev=flux_prev,
            bentness_report=None if fresh_gate else carried,
        )
        carried = result.bentness
        prev = Level(current.with_theta(result.theta), result.samples, carried)
        yield prev
        flux_prev = result.flux
        current = result.state
    samples = sample_geometry(manifold, current.gamma)
    solved = elliptic.solve_theta(
        current,
        assemble_sources(current, samples, grid),
        samples,
        grid,
        tol=params.solver_tol,
        b_floor=params.b_floor,
        bentness_report=carried,
        check_bentness=False,
    )
    yield Level(current.with_theta(solved.u), samples, carried)


# ---------------------------------------------------------------------------
# window Picard solver


def _theta_series(
    gamma_s: np.ndarray,
    xi_s: np.ndarray,
    eta_s: np.ndarray,
    manifold: ManifoldModel,
    grid: Grid,
    params: RunParams,
) -> tuple[np.ndarray, np.ndarray, list[GeometrySamples]]:
    """Per-level tension solves on a frozen window iterate.

    Returns (theta series, flux series, samples per level).  The plain tangent
    rate entering the sources comes from time differences of the xi series.
    """
    levels = xi_s.shape[0]
    xi_t_s = time_diff_series(xi_s, grid.dx)
    thetas, fluxes, samples_list = [], [], []
    for m in range(levels):
        samples = sample_geometry(manifold, gamma_s[m])
        level_state = CurveState(
            gamma=gamma_s[m], xi=xi_s[m], xi_t=xi_t_s[m], eta=eta_s[m], theta=None, time=m * grid.dx
        )
        sources = assemble_sources(level_state, samples, grid)
        solved = elliptic.solve_theta(
            level_state,
            sources,
            samples,
            grid,
            tol=params.solver_tol,
            b_floor=params.b_floor,
            check_bentness=(m == 0),
        )
        thetas.append(solved.u)
        fluxes.append(solved.flux)
        samples_list.append(samples)
    return np.stack(thetas), np.stack(fluxes), samples_list


def _integrate_curve(
    gamma0: np.ndarray,
    eta_s: np.ndarray,
    manifold: ManifoldModel,
    dt: float,
) -> np.ndarray:
    """Midpoint integration of gamma_t = frame * eta with a frozen eta series."""
    levels = eta_s.shape[0]
    out = [gamma0]
    g = gamma0
    for m in range(levels - 1):
        frame = manifold.frame(g)
        g_mid = g + 0.5 * dt * _chart_velocity(frame, eta_s[m])
        eta_mid = 0.5 * (eta_s[m] + eta_s[m + 1])
        g = g + dt * _chart_velocity(manifold.frame(g_mid), eta_mid)
        out.append(g)
    return np.stack(out)


def _integrate_eta(
    eta0: np.ndarray,
    flux_s: np.ndarray,
    dxi_s: np.ndarray,
    chris_s: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Midpoint integration of eta_t = -Gamma(eta, eta) + flux + D_x xi with
    frozen flux, tangent-derivative and connection series."""
    levels = flux_s.shape[0]
    out = [eta0]
    v = eta0
    for m in range(levels - 1):
        chris_half = 0.5 * (chris_s[m] + chris_s[m + 1])
        force_half = 0.5 * (flux_s[m] + dxi_s[m] + flux_s[m + 1] + dxi_s[m + 1])
        k1 = -apply_chris(chris_s[m], v, v) + flux_s[m] + dxi_s[m]
        v_half = v + 0.5 * dt * k1
        k2 = -apply_chris(chris_half, v_half, v_half) + force_half
        v = v + dt * k2
        out.append(v)
    return np.stack(out)


def window_distance(a: WindowIterate, b: WindowIterate, dx: float) -> float:
    """Composite distance between window iterates: sup norms of the curve and
    velocity with their time rates, plus the full first-order tangent norm."""
    return (
        m01(a.gamma - b.gamma, dx)
        + m1(a.xi - b.xi, dx, dx)
        + m01(a.eta - b.eta, dx)
    )


def picard_coupled(
    state: CurveState,
    manifold: ManifoldModel,
    grid: Grid,
    params: RunParams = RunParams(),
    *,
    n_levels: int,
    max_iter: int = 30,
    tol: float = 1e-10,
    wave_max_iter: int = 30,
    wave_tol: float = 1e-11,
) -> tuple[WindowIterate, ContractionReport]:
    """Solve the coupled system on a window [0, n_levels * dx] by contraction.

    One sweep: solve the tension on the frozen iterate, advance the curve from
    the frozen velocity, run the full inner wave solve for the tangent, update
    the velocity from the frozen flux, then refresh tension and velocity once
    more on the new fields.  Distances between sweeps use the composite norm
    of window_distance; three consecutive non-decreasing distances raise
    NonContractionError.  The returned iterate carries the geometry samples
    of its curve, taken by that last tension refresh.
    """
    dt = grid.dx
    levels = n_levels + 1
    if levels < 3:
        raise ValueError("picard window needs at least 2 steps (3 levels)")
    shape = (levels,) + state.gamma.shape
    start = WindowIterate(
        gamma=np.broadcast_to(state.gamma, shape).copy(),
        xi=np.broadcast_to(state.xi, shape).copy(),
        eta=np.broadcast_to(state.eta, shape).copy(),
        theta=np.zeros(shape),
    )

    def sweep(current: WindowIterate) -> WindowIterate:
        theta_s, flux_s, samples_list = _theta_series(
            current.gamma, current.xi, current.eta, manifold, grid, params
        )
        chris_s = np.stack([s.chris for s in samples_list])
        dxi_s = np.stack(
            [
                cov_dx(current.xi[m], current.xi[m], samples_list[m], grid.dx)
                for m in range(levels)
            ]
        )
        gamma_new = _integrate_curve(state.gamma, current.eta, manifold, dt)
        xi_new, _ = picard_wave_solve(
            state,
            theta_s,
            grid,
            n_levels=n_levels,
            max_iter=wave_max_iter,
            tol=wave_tol,
            eta_series=current.eta,
            chris_series=chris_s,
        )
        eta_mid = _integrate_eta(state.eta, flux_s, dxi_s, chris_s, dt)
        # refresh tension and velocity on the advanced fields
        theta_new, flux_new, samples_new = _theta_series(
            gamma_new, xi_new, eta_mid, manifold, grid, params
        )
        chris_new = np.stack([s.chris for s in samples_new])
        dxi_new = np.stack(
            [cov_dx(xi_new[m], xi_new[m], samples_new[m], grid.dx) for m in range(levels)]
        )
        eta_new = _integrate_eta(state.eta, flux_new, dxi_new, chris_new, dt)
        return WindowIterate(
            gamma=gamma_new, xi=xi_new, eta=eta_new, theta=theta_new, samples=samples_new
        )

    return _contract(
        sweep,
        start,
        lambda new, current: window_distance(new, current, grid.dx),
        max_iter=max_iter,
        tol=tol,
        label="coupled picard iteration",
    )


# ---------------------------------------------------------------------------
# single-equation residual


@dataclass(frozen=True)
class ResidualReport:
    """Interior-level defect of a trajectory in the single-equation form."""

    times: np.ndarray
    residual: np.ndarray       # m0 of the defect per interior level
    coherence: np.ndarray      # m0 of (frame^-1 gamma_x - xi) per interior level


def residual_base_single(
    levels: list,
    dt: float,
    manifold: ManifoldModel,
    grid: Grid,
) -> ResidualReport:
    """Defect of computed levels in the single governing equation.

    Uses three consecutive levels for every covariant time derivative, the
    composed covariant difference for all spatial derivatives, and the
    reconstructed multiplier on the right-hand side.  ``levels`` are
    ``Level`` objects as march yields them: states carrying their tension
    fields plus the geometry samples of their curves.  Needs at least three
    levels.
    """
    if len(levels) < 3:
        raise ValueError("residual evaluation needs at least 3 consecutive levels")
    dx = grid.dx
    times, defects, coherences = [], [], []
    for i in range(1, len(levels) - 1):
        lp, lc, ln = levels[i - 1], levels[i], levels[i + 1]
        sp, sc, sn = lp.state, lc.state, ln.state
        samples_c = lc.samples
        if sc.theta is None:
            raise ValueError("states must carry tension fields (run march or solve theta)")
        # covariant velocity rate
        dteta = cov_dt(sp.eta, sn.eta, sc.eta, dt, samples_c)
        # covariant second time rate of the tangent
        conn_p = apply_chris(lp.samples.chris, sp.eta, sp.xi)
        conn_n = apply_chris(ln.samples.chris, sn.eta, sn.xi)
        conn_rate = (conn_n - conn_p) / (2.0 * dt)
        dtxi = (sn.xi - sp.xi) / (2.0 * dt) + apply_chris(samples_c.chris, sc.eta, sc.xi)
        dt2xi = (sn.xi - 2.0 * sc.xi + sp.xi) / (dt * dt) + conn_rate + apply_chris(
            samples_c.chris, sc.eta, dtxi
        )
        # spatial pieces at the centre
        dxi = cov_dx(sc.xi, sc.xi, samples_c, dx)
        d2xi = cov_dx(dxi, sc.xi, samples_c, dx)
        d3xi = cov_dx(d2xi, sc.xi, samples_c, dx)
        sources = assemble_sources(sc, samples_c, grid)
        mu = reconstruct_mu(sc, samples_c, grid)
        lhs = -dteta + cov_dx(dt2xi, sc.xi, samples_c, dx) - d3xi + sources.psi
        rhs = cov_dx(mu[:, None] * sc.xi, sc.xi, samples_c, dx)
        defects.append(m0(lhs - rhs))
        tangent_chart = manifold.displacement(
            np.roll(sc.gamma, 1, axis=0), np.roll(sc.gamma, -1, axis=0)
        ) / (2.0 * dx)
        frame_tangent = np.einsum("pij,pj->pi", samples_c.frame_inv, tangent_chart)
        coherences.append(m0(frame_tangent - sc.xi))
        times.append(sc.time)
    return ResidualReport(
        times=np.asarray(times),
        residual=np.asarray(defects),
        coherence=np.asarray(coherences),
    )
