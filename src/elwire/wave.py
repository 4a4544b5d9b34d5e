"""Two independent solvers for the tangent wave equation on the periodic wire.

The unit tangent field obeys a semilinear wave equation whose plain-coordinate
form is

    u_tt - u_xx = f(u, u_x, u_t, x, t) + d/dx h(u, x, t),

with all connection and tension contributions collected in the local sources f
and h (assemble_wave_sources).  Two routes are implemented and cross-checked:

* an integral characteristic representation (wave_integral) built from the
  classical averaging kernel, evaluated on the grid with the time step locked
  to dx so characteristics pass exactly through grid points, plus a Picard
  iteration (picard_wave_solve) that feeds the solution back into the sources
  over a short time window;
* an explicit three-level covariant leapfrog (leapfrog_step) used by the
  marching integrator.

First derivatives along characteristics (characteristic_derivatives) come from
a closed formula that never differentiates h in space: the h-contribution uses
only h values and time differences of h.  That structure is what makes the
representation usable when h carries one derivative less smoothness than the
solution, and the tests enforce it behaviourally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CflError, NonContractionError
from .fields import Grid, circ_diff, compact_second, m0, m1, time_diff_series
from .geometry import GeometrySamples, apply_chris

#: default number of time levels in a Picard window (t = n_levels * dx)
DEFAULT_WINDOW_LEVELS = 16
GRID_TIME_TOL = 1e-9
UNIT_DATA_TOL = 1e-8
#: sweeps and relative tolerance of the leapfrog's inner fixed-point iteration
INNER_ITER = 8
INNER_TOL = 1e-14


@dataclass(frozen=True)
class WaveData:
    """Initial data and source series for the integral solver.

    ``a`` is the initial field (unit rows), ``b`` its plain initial time
    derivative (orthogonal to ``a`` row by row); ``f`` and ``h`` are source
    series of shape (M+1, N, n) on the window grid with dt = dx, or None for
    a source-free problem.  ``unit_data=False`` skips the unit/orthogonality
    admissibility check for synthetic forcing studies where the data is not a
    tangent field.
    """

    a: np.ndarray
    b: np.ndarray
    f: Optional[np.ndarray]
    h: Optional[np.ndarray]
    grid: Grid
    unit_data: bool = True

    def __post_init__(self):
        npts = self.grid.n_points
        if self.a.shape != self.b.shape or self.a.ndim != 2 or self.a.shape[0] != npts:
            raise ValueError(
                f"initial fields must share shape ({npts}, n); got {self.a.shape} and {self.b.shape}"
            )
        if self.unit_data:
            unit = np.max(np.abs(np.sum(self.a * self.a, axis=-1) - 1.0))
            ortho = np.max(np.abs(np.sum(self.a * self.b, axis=-1)))
            if unit > UNIT_DATA_TOL or ortho > UNIT_DATA_TOL:
                raise ValueError(
                    f"wave data not admissible: max | ||a||^2 - 1 | = {unit:.3e}, "
                    f"max |<a, b>| = {ortho:.3e}"
                )
        for name, series in (("f", self.f), ("h", self.h)):
            if series is not None and (
                series.ndim != 3 or series.shape[1:] != self.a.shape
            ):
                raise ValueError(
                    f"source series {name} must have shape (M+1, {npts}, n); got {series.shape}"
                )

    @property
    def n_levels(self) -> Optional[int]:
        """Highest level index covered by the source series (None if source-free)."""
        lengths = [s.shape[0] - 1 for s in (self.f, self.h) if s is not None]
        return min(lengths) if lengths else None


@dataclass(frozen=True)
class CharacteristicFields:
    """Characteristic first derivatives u_x + u_t and u_x - u_t as series."""

    u_plus: np.ndarray   # (M+1, N, n)
    u_minus: np.ndarray  # (M+1, N, n)


@dataclass(frozen=True)
class ContractionReport:
    """Per-iteration distances and ratios of a Picard iteration."""

    distances: tuple
    ratios: tuple
    converged: bool
    iterations: int


def _level_of(t: float, dx: float) -> int:
    m = int(round(t / dx))
    if m < 0 or abs(t - m * dx) > GRID_TIME_TOL * max(1.0, abs(t)):
        raise ValueError(
            f"integral solver evaluates only at grid times t = m*dx >= 0; got t={t!r}"
        )
    return m


def _window_weighted_sum(v: np.ndarray, half_width: int) -> np.ndarray:
    """Trapezoid-weighted sum of v over the index window [k-m, k+m] for all k.

    Returns W with W[k] = sum_{j=k-m}^{k+m} w_j v_j, endpoint weights 1/2,
    periodic indices; W has the shape of v.  Zero for half_width 0.
    """
    npts = v.shape[0]
    if half_width == 0:
        return np.zeros_like(v)
    if half_width > npts:
        raise ValueError(
            f"characteristic window half-width {half_width} exceeds one period ({npts})"
        )
    ext = np.concatenate([v, v, v], axis=0)
    csum = np.concatenate([np.zeros((1,) + v.shape[1:]), np.cumsum(ext, axis=0)], axis=0)
    centre = npts + np.arange(npts)
    lo = centre - half_width
    hi = centre + half_width
    return (csum[hi + 1] - csum[lo]) - 0.5 * (ext[lo] + ext[hi])


def _tau_weights(m: int, dt: float) -> np.ndarray:
    """Trapezoid weights for the time integral over [0, m*dt] at levels 0..m."""
    w = np.full(m + 1, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def wave_integral(data: WaveData, t: float) -> np.ndarray:
    """Evaluate the characteristic-average representation at grid time t.

    Combines the averaged initial field, the integrated initial rate over the
    dependence interval, the source integral over the dependence triangle, and
    the end-point characteristic values of h.  All quadrature is trapezoidal
    on the grid; characteristics hit grid points exactly because dt = dx.
    """
    grid = data.grid
    dx = grid.dx
    m = _level_of(t, dx)
    limit = data.n_levels
    if limit is not None and m > limit:
        raise ValueError(f"source series cover levels 0..{limit}, requested level {m}")
    u = 0.5 * (np.roll(data.a, -m, axis=0) + np.roll(data.a, m, axis=0))
    u += 0.5 * dx * _window_weighted_sum(data.b, m)
    if m > 0 and data.f is not None:
        wt = _tau_weights(m, dx)
        acc = np.zeros_like(u)
        for j in range(m):  # level m contributes a zero-width window
            acc += wt[j] * dx * _window_weighted_sum(data.f[j], m - j)
        u += 0.5 * acc
    if m > 0 and data.h is not None:
        wt = _tau_weights(m, dx)
        acc = np.zeros_like(u)
        for j in range(m):
            s = m - j
            acc += wt[j] * (np.roll(data.h[j], -s, axis=0) - np.roll(data.h[j], s, axis=0))
        u += 0.5 * acc
    return u


def wave_series(data: WaveData, n_levels: int) -> np.ndarray:
    """Stack wave_integral over levels 0..n_levels."""
    dx = data.grid.dx
    return np.stack([wave_integral(data, m * dx) for m in range(n_levels + 1)])


def characteristic_derivatives(data: WaveData, n_levels: Optional[int] = None) -> CharacteristicFields:
    """Closed-form characteristic derivatives u_x +/- u_t of the representation.

    The h-contribution is the end-point difference {h(x +/- t, 0) - h(x, t)}
    plus the time-derivative integral along the characteristic; h is never
    differentiated in space.  Time derivatives of h are centred inside the
    window and one-sided second order at the ends.
    """
    grid = data.grid
    dx = grid.dx
    if n_levels is None:
        n_levels = data.n_levels
        if n_levels is None:
            raise ValueError("n_levels is required for source-free data")
    limit = data.n_levels
    if limit is not None and n_levels > limit:
        raise ValueError(f"source series cover levels 0..{limit}, requested {n_levels}")
    a_x = circ_diff(data.a, dx)
    h_t = None
    if data.h is not None and n_levels >= 1:
        if n_levels < 2:
            raise ValueError("need at least 3 levels of h to form its time derivative")
        h_t = time_diff_series(data.h[: n_levels + 1], dx)
    out = {}
    for sign in (+1, -1):
        levels = []
        for m in range(n_levels + 1):
            u = np.roll(a_x, -sign * m, axis=0) + sign * np.roll(data.b, -sign * m, axis=0)
            if m > 0 and data.f is not None:
                wt = _tau_weights(m, dx)
                acc = np.zeros_like(u)
                for j in range(m + 1):
                    acc += wt[j] * np.roll(data.f[j], -sign * (m - j), axis=0)
                u += sign * acc
            if m > 0 and data.h is not None:
                u += np.roll(data.h[0], -sign * m, axis=0) - data.h[m]
                wt = _tau_weights(m, dx)
                acc = np.zeros_like(u)
                for j in range(m + 1):
                    acc += wt[j] * np.roll(h_t[j], -sign * (m - j), axis=0)
                u += acc
            levels.append(u)
        out[sign] = np.stack(levels)
    return CharacteristicFields(u_plus=out[+1], u_minus=out[-1])


def assemble_wave_sources(
    u_series: np.ndarray,
    theta_series: np.ndarray,
    eta_series: np.ndarray,
    chris_series: Optional[np.ndarray],
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """Local sources (f, h) of the tangent wave equation for a given iterate.

    ``u_series`` is the current tangent iterate over the window; theta, eta
    and the connection samples along the (frozen) curve are known series.
    Includes the time derivative of the connection term through differences of
    the assembled product series, so only connection values are needed.
    """
    dx = grid.dx
    m_levels = u_series.shape[0]
    u_t = time_diff_series(u_series, dx)
    if chris_series is None:
        conn = None
    else:
        conn = np.stack(
            [apply_chris(chris_series[m], eta_series[m], u_series[m]) for m in range(m_levels)]
        )
        conn_t = time_diff_series(conn, dx)
    f = np.empty_like(u_series)
    h = np.zeros_like(u_series)
    for m in range(m_levels):
        u = u_series[m]
        theta = theta_series[m]
        if conn is None:
            du = circ_diff(u, dx)
            conn_uu = 0.0
            dtu = u_t[m]
        else:
            conn_uu = apply_chris(chris_series[m], u, u)
            du = circ_diff(u, dx) + conn_uu
            dtu = u_t[m] + conn[m]
        fwd = (np.roll(u, -1, axis=0) - u) / dx + conn_uu
        bwd = (u - np.roll(u, 1, axis=0)) / dx + conn_uu
        coeff = 0.5 * (np.sum(fwd * fwd, axis=-1) + np.sum(bwd * bwd, axis=-1))
        coeff = coeff - np.sum(dtu * dtu, axis=-1)
        fm = coeff[:, None] * u + theta - np.sum(theta * u, axis=-1, keepdims=True) * u
        if conn is not None:
            fm = fm - conn_t[m] - apply_chris(chris_series[m], eta_series[m], dtu)
            fm = fm + apply_chris(chris_series[m], u, du)
            h[m] = apply_chris(chris_series[m], u, u)
        f[m] = fm
    return f, h


def picard_wave_solve(
    state,
    theta_series: np.ndarray,
    grid: Grid,
    *,
    n_levels: int = DEFAULT_WINDOW_LEVELS,
    max_iter: int = 30,
    tol: float = 1e-10,
    eta_series: Optional[np.ndarray] = None,
    chris_series: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, ContractionReport]:
    """Solve the tangent wave equation over a window by source iteration.

    theta (and optionally eta and connection samples along the curve) are
    frozen series on levels 0..n_levels with dt = dx.  Starting from the
    source-free solution, each sweep reassembles (f, h) from the current
    iterate and re-evaluates the integral representation on every level.
    Distances between consecutive iterates are measured in the composite
    first-order norm; three consecutive non-decreasing distances raise
    NonContractionError.
    """
    dx = grid.dx
    if n_levels < 2:
        raise ValueError("picard window needs at least 2 time levels")
    theta_series = np.asarray(theta_series, dtype=float)
    if theta_series.shape[0] < n_levels + 1:
        raise ValueError(
            f"theta series covers {theta_series.shape[0]} levels, window needs {n_levels + 1}"
        )
    if eta_series is None:
        eta_series = np.broadcast_to(state.eta, (n_levels + 1,) + state.eta.shape)
    base = WaveData(a=state.xi, b=state.xi_t, f=None, h=None, grid=grid)
    current = wave_series(base, n_levels)
    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        f, h = assemble_wave_sources(
            current, theta_series[: n_levels + 1], eta_series, chris_series, grid
        )
        data = WaveData(a=state.xi, b=state.xi_t, f=f, h=h, grid=grid)
        new = wave_series(data, n_levels)
        dist = m1(new - current, dx, dx)
        if distances:
            ratio = dist / distances[-1] if distances[-1] > 0 else 0.0
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= 3:
                raise NonContractionError(
                    "picard iteration stopped contracting: last ratios "
                    f"{[f'{r:.3f}' for r in ratios[-3:]]}"
                )
        distances.append(dist)
        current = new
        if dist <= tol:
            converged = True
            break
    report = ContractionReport(
        distances=tuple(distances),
        ratios=tuple(ratios),
        converged=converged,
        iterations=len(distances),
    )
    return current, report


def leapfrog_step(
    xi_prev: np.ndarray,
    xi_curr: np.ndarray,
    theta: np.ndarray,
    eta: np.ndarray,
    dt: float,
    grid: Grid,
    samples: Optional[GeometrySamples] = None,
    *,
    samples_prev: Optional[GeometrySamples] = None,
    samples_next: Optional[GeometrySamples] = None,
    eta_rate: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One explicit three-level step of the covariant tangent wave equation.

    The covariant second time difference is expanded around the central level:
    plain second difference plus the connection terms G(eta, D_t xi) and the
    time derivative of G(eta, xi).  The latter splits into a connection-rate
    part (centred difference of the samples at the previous and predicted next
    curve positions), a G(eta_t, xi) part using the supplied velocity rate,
    and a G(eta, xi_t) part.  Because xi_t at the centre is itself centred
    over the unknown next level, a short inner fixed-point iteration resolves
    the implicitness (the quadratic speed term converges at rate O(dt)).

    The plain spatial part uses the compact (1, -2, 1) stencil, and the speed
    coefficient averages the squared one-sided differences in both space and
    time.  With that pairing the defect s = ||xi||^2 - 1 obeys a homogeneous
    discrete wave equation in the flat case: starting from unit data it stays
    at the level seeded by the first-step bootstrap (O(dt^3)) instead of
    accumulating an O(dx^2) secular drift.

    On a flat model (samples None or zero connection) only the plain terms
    survive.  dt must satisfy the stability bound dt <= dx.
    """
    dx = grid.dx
    if dt > dx * (1.0 + 1e-12):
        raise CflError(f"leapfrog requires dt <= dx; got dt={dt!r}, dx={dx!r}")
    chris = samples.chris if samples is not None else None
    if chris is not None:
        conn_xi_xi = apply_chris(chris, xi_curr, xi_curr)
        conn_eta_xi = apply_chris(chris, eta, xi_curr)
        d2u = (
            compact_second(xi_curr, dx)
            + apply_chris(chris, xi_curr, circ_diff(xi_curr, dx))
            + circ_diff(conn_xi_xi, dx)
            + apply_chris(chris, xi_curr, conn_xi_xi)
        )
        chris_rate = None
        if samples_prev is not None and samples_next is not None:
            chris_rate = (samples_next.chris - samples_prev.chris) / (2.0 * dt)
    else:
        conn_xi_xi = np.zeros_like(xi_curr)
        conn_eta_xi = np.zeros_like(xi_curr)
        d2u = compact_second(xi_curr, dx)
        chris_rate = None
    theta_perp = theta - np.sum(theta * xi_curr, axis=-1, keepdims=True) * xi_curr
    fwd = (np.roll(xi_curr, -1, axis=0) - xi_curr) / dx + conn_xi_xi
    bwd = (xi_curr - np.roll(xi_curr, 1, axis=0)) / dx + conn_xi_xi
    du_sq = 0.5 * (np.sum(fwd * fwd, axis=-1) + np.sum(bwd * bwd, axis=-1))
    xi_t = (xi_curr - xi_prev) / dt  # first guess, refined below
    xi_next = xi_curr
    bwd_t = (xi_curr - xi_prev) / dt + conn_eta_xi
    bwd_t_sq = np.sum(bwd_t * bwd_t, axis=-1)
    for _ in range(INNER_ITER):
        dtu = xi_t + conn_eta_xi
        fwd_t = (xi_next - xi_curr) / dt + conn_eta_xi
        coeff = du_sq - 0.5 * (np.sum(fwd_t * fwd_t, axis=-1) + bwd_t_sq)
        accel = d2u + coeff[:, None] * xi_curr + theta_perp
        if chris is not None:
            correction = apply_chris(chris, eta, xi_t) + apply_chris(chris, eta, dtu)
            if eta_rate is not None:
                correction += apply_chris(chris, eta_rate, xi_curr)
            if chris_rate is not None:
                correction += apply_chris(chris_rate, eta, xi_curr)
            accel = accel - correction
        xi_next = 2.0 * xi_curr - xi_prev + dt * dt * accel
        new_t = (xi_next - xi_prev) / (2.0 * dt)
        if m0(new_t - xi_t) <= INNER_TOL * (1.0 + m0(new_t)):
            xi_t = new_t
            break
        xi_t = new_t
    return xi_next
