"""Two independent solvers for the tangent wave equation on the periodic wire.

The unit tangent field obeys a semilinear wave equation whose plain-coordinate
form is

    u_tt - u_xx = f(u, u_x, u_t, x, t) + d/dx h(u, x, t),

with all connection and tension contributions collected in the local sources f
and h (assemble_wave_sources).  Two routes are implemented and cross-checked:

* the characteristic (d'Alembert) representation on the grid with the time
  step locked to dx, so characteristics pass exactly through grid points.
  Its trapezoid quadrature over the dependence triangle obeys an exact
  three-level recurrence, which wave_series evaluates in O(N) per level
  (the plain quadrature is kept as a test oracle in tests/wave_oracle.py).
  A Picard iteration (picard_wave_solve) feeds the solution back into the
  sources over a short time window;
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
from typing import Callable, Optional

import numpy as np

from .errors import CflError, NonContractionError
from .fields import Grid, circ_diff, compact_second, m0, m1, time_diff_series
from .geometry import GeometrySamples, apply_chris

#: default number of time levels in a Picard window (t = n_levels * dx)
DEFAULT_WINDOW_LEVELS = 16
UNIT_DATA_TOL = 1e-8
#: sweeps and relative tolerance of the leapfrog's inner fixed-point iteration
INNER_ITER = 8
INNER_TOL = 1e-14


@dataclass(frozen=True)
class WaveData:
    """Initial data and source series for the integral solver.

    ``a`` is the initial field, ``b`` its plain initial time derivative;
    ``f`` and ``h`` are source series of shape (M+1, N, n) on the window grid
    with dt = dx, or None for a source-free problem.
    """

    a: np.ndarray
    b: np.ndarray
    f: Optional[np.ndarray]
    h: Optional[np.ndarray]
    grid: Grid

    def __post_init__(self):
        npts = self.grid.n_points
        if self.a.shape != self.b.shape or self.a.ndim != 2 or self.a.shape[0] != npts:
            raise ValueError(
                f"initial fields must share shape ({npts}, n); got {self.a.shape} and {self.b.shape}"
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

    def _check_levels(self, n_levels: int) -> None:
        limit = self.n_levels
        if limit is not None and n_levels > limit:
            raise ValueError(f"source series cover levels 0..{limit}, requested {n_levels}")


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


def _neighbours(v: np.ndarray) -> np.ndarray:
    """v[k-1] + v[k+1] along the grid axis (axis -2), periodic."""
    return np.roll(v, 1, axis=-2) + np.roll(v, -1, axis=-2)


def wave_series(data: WaveData, n_levels: int) -> np.ndarray:
    """The characteristic-average representation at levels 0..n_levels.

    Level m averages a at the characteristic feet k -/+ m and adds the
    trapezoid integrals of b over [k-m, k+m], of f over the dependence
    triangle and of the end-point differences of h.  With dt = dx those
    integrals V obey V[m+1][k] = V[m][k-1] + V[m][k+1] - V[m-1][k] plus the
    sources of level m over half-width 1, time-weighted dx/2 at level 0 and
    dx after; V[1] is the quadrature itself.  The average of a is taken
    directly, so the recurrence rounds at the size of the integrals only.
    The periodic representation holds for windows of any length.
    """
    data._check_levels(n_levels)
    dx = data.grid.dx
    a = data.a
    npts = a.shape[0]
    shift = np.arange(n_levels + 1)[:, None]
    points = np.arange(npts)
    feet = 0.5 * (a[(points + shift) % npts] + a[(points - shift) % npts])
    if n_levels == 0:
        return feet
    kick = np.zeros((n_levels,) + a.shape)
    if data.f is not None:
        kick += dx * (data.f[:n_levels] + 0.5 * _neighbours(data.f[:n_levels]))
    if data.h is not None:
        kick += np.roll(data.h[:n_levels], -1, axis=1) - np.roll(data.h[:n_levels], 1, axis=1)
    kick *= 0.5 * dx
    kick[0] *= 0.5
    integral = np.zeros_like(feet)
    integral[1] = 0.5 * dx * (data.b + 0.5 * _neighbours(data.b)) + kick[0]
    for m in range(1, n_levels):
        integral[m + 1] = _neighbours(integral[m]) - integral[m - 1] + kick[m]
    return feet + integral


def characteristic_derivatives(data: WaveData, n_levels: Optional[int] = None) -> CharacteristicFields:
    """Closed-form characteristic derivatives u_x +/- u_t of the representation.

    The h-contribution is the end-point difference {h(x +/- t, 0) - h(x, t)}
    plus the time-derivative integral along the characteristic; h is never
    differentiated in space.  Time derivatives of h are centred inside the
    window and one-sided second order at the ends.  Each characteristic
    integral is one running trapezoid sum: a step moves the sum by one point,
    raises its old endpoint's weight from dx/2 to dx and adds the new
    endpoint at dx/2.
    """
    dx = data.grid.dx
    if n_levels is None:
        n_levels = data.n_levels
        if n_levels is None:
            raise ValueError("n_levels is required for source-free data")
    data._check_levels(n_levels)
    a_x = circ_diff(data.a, dx)
    h_t = None
    if data.h is not None and n_levels >= 1:
        if n_levels < 2:
            raise ValueError("need at least 3 levels of h to form its time derivative")
        h_t = time_diff_series(data.h[: n_levels + 1], dx)
    out = {}
    for sign in (+1, -1):
        g = np.zeros((n_levels + 1,) + a_x.shape)
        carried = a_x + sign * data.b
        if data.f is not None:
            g += sign * data.f[: n_levels + 1]
        if h_t is not None:
            g += h_t
            carried += data.h[0]
        run = np.empty_like(g)
        run[0] = carried
        for m in range(n_levels):
            run[m + 1] = np.roll(run[m] + 0.5 * dx * g[m], -sign, axis=0) + 0.5 * dx * g[m + 1]
        if h_t is not None:
            run -= data.h[: n_levels + 1]
        out[sign] = run
    return CharacteristicFields(u_plus=out[+1], u_minus=out[-1])


def _contract(
    sweep: Callable, start, distance: Callable, *, max_iter: int, tol: float, label: str
) -> tuple:
    """Apply ``sweep`` from ``start`` until two iterates are within ``tol``.

    Returns the last iterate and its ContractionReport; three consecutive
    distance ratios >= 1 raise NonContractionError naming ``label``.
    """
    current = start
    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        new = sweep(current)
        dist = distance(new, current)
        if distances:
            ratio = dist / distances[-1] if distances[-1] > 0 else 0.0
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= 3:
                raise NonContractionError(
                    f"{label} stopped contracting: last ratios "
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
    frozen series on levels 0..n_levels with dt = dx.  The initial tangent
    must be a unit field and its rate orthogonal to it, point by point.
    Starting from the source-free solution, each sweep reassembles (f, h)
    from the current iterate and re-evaluates the integral representation on
    every level.  Distances between consecutive iterates are measured in the
    composite first-order norm; three consecutive non-decreasing distances
    raise NonContractionError.
    """
    dx = grid.dx
    if n_levels < 2:
        raise ValueError("picard window needs at least 2 time levels")
    theta_series = np.asarray(theta_series, dtype=float)
    if theta_series.shape[0] < n_levels + 1:
        raise ValueError(
            f"theta series covers {theta_series.shape[0]} levels, window needs {n_levels + 1}"
        )
    unit = np.max(np.abs(np.sum(state.xi * state.xi, axis=-1) - 1.0))
    ortho = np.max(np.abs(np.sum(state.xi * state.xi_t, axis=-1)))
    if unit > UNIT_DATA_TOL or ortho > UNIT_DATA_TOL:
        raise ValueError(
            f"wave data not admissible: max | ||a||^2 - 1 | = {unit:.3e}, "
            f"max |<a, b>| = {ortho:.3e}"
        )
    if eta_series is None:
        eta_series = np.broadcast_to(state.eta, (n_levels + 1,) + state.eta.shape)
    theta_series = theta_series[: n_levels + 1]

    def sweep(current):
        f, h = assemble_wave_sources(current, theta_series, eta_series, chris_series, grid)
        return wave_series(WaveData(a=state.xi, b=state.xi_t, f=f, h=h, grid=grid), n_levels)

    base = WaveData(a=state.xi, b=state.xi_t, f=None, h=None, grid=grid)
    return _contract(
        sweep,
        wave_series(base, n_levels),
        lambda new, current: m1(new - current, dx, dx),
        max_iter=max_iter,
        tol=tol,
        label="picard iteration",
    )


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
