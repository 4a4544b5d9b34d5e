"""The tangent wave equation on the periodic wire: window solve and leapfrog.

The unit tangent field obeys a semilinear wave equation whose plain-coordinate
form is

    u_tt - u_xx = f(u, u_x, u_t, x, t) + d/dx h(u, x, t),

with all connection and tension contributions collected in the local sources f
and h (assemble_wave_sources, whole window series at once).  Production uses
one route per job:

* the Picard window evaluates the characteristic (d'Alembert)
  representation (wave_series) with the time step locked to dx, so
  characteristics pass exactly through grid points.  Its trapezoid
  quadrature over the dependence triangle obeys an exact three-level
  recurrence, evaluated in O(N) per level.  Each coupled sweep of the window
  (dynamics.picard_coupled) takes one such series, with the sources of the
  current iterate, under its one contraction loop (_contract);
* the marching integrator takes the three-level covariant leapfrog
  (leapfrog_step), whose implicit next level is solved in closed form.

The other routes are oracles under tests/: the plain triangle quadrature,
the characteristic derivatives, whose h-contribution never differentiates h
in space, the wave-only source iteration and the leapfrog's fixed-point sweep
are in tests/wave_oracle.py, and the tests check the window solve against the
leapfrog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CflError, NonContractionError, NumericalSolveError
from .fields import Grid, cov_dx, cov_dxx, perp, sided_grad_sq, time_diff_series
from .fields import shift as grid_shift
from .geometry import GeometrySamples, apply_chris, dot


@dataclass(frozen=True)
class ContractionReport:
    """Per-iteration distances and ratios of a Picard iteration.

    ``converged`` is True on the report of an iteration that returned, False
    on the one a NonContractionError carries.
    """

    distances: tuple
    ratios: tuple
    converged: bool
    iterations: int


def _neighbours(v: np.ndarray) -> np.ndarray:
    """v[k-1] + v[k+1] along the grid axis (axis -2), periodic."""
    return grid_shift(v, 1) + grid_shift(v, -1)


def wave_series(
    a: np.ndarray,
    b: np.ndarray,
    f: np.ndarray,
    h: np.ndarray,
    dx: float,
    n_levels: int,
) -> np.ndarray:
    """The characteristic-average representation at levels 0..n_levels.

    ``a`` is the initial field and ``b`` its plain initial rate, both (N, n);
    ``f`` and ``h`` are source series on the window grid with dt = dx (zeros
    for a source-free problem), of which only levels 0..n_levels-1 are read.
    Level m averages a at the characteristic feet k -/+ m and adds the
    trapezoid integrals of b over [k-m, k+m], of f over the dependence
    triangle and of the end-point differences of h.  With dt = dx those
    integrals V obey V[m+1][k] = V[m][k-1] + V[m][k+1] - V[m-1][k] plus the
    sources of level m over half-width 1, time-weighted dx/2 at level 0 and
    dx after; V[1] is the quadrature itself.  The average of a is taken
    directly, so the recurrence rounds at the size of the integrals only.
    The periodic representation holds for windows of any length.
    """
    npts = a.shape[0]
    shift = np.arange(n_levels + 1)[:, None]
    points = np.arange(npts)
    feet = 0.5 * (a[(points + shift) % npts] + a[(points - shift) % npts])
    if n_levels == 0:
        return feet
    kick = np.zeros((n_levels,) + a.shape)
    kick += dx * (f[:n_levels] + 0.5 * _neighbours(f[:n_levels]))
    kick += grid_shift(h[:n_levels], -1) - grid_shift(h[:n_levels], 1)
    kick *= 0.5 * dx
    kick[0] *= 0.5
    integral = np.zeros_like(feet)
    integral[1] = 0.5 * dx * (b + 0.5 * _neighbours(b)) + kick[0]
    for m in range(1, n_levels):
        integral[m + 1] = _neighbours(integral[m]) - integral[m - 1] + kick[m]
    return feet + integral


def _contract(
    sweep: Callable, start, distance: Callable, *, max_iter: int, tol: float, label: str
) -> tuple:
    """Apply ``sweep`` from ``start`` until two iterates are within ``tol``.

    Returns the last iterate and its ContractionReport.  Three consecutive
    distance ratios >= 1, or ``max_iter`` sweeps that end above ``tol``,
    raise NonContractionError naming ``label``, with the report up to the
    failure.
    """
    current = start
    distances: list[float] = []
    ratios: list[float] = []
    rising = 0

    def report(converged: bool = False) -> ContractionReport:
        return ContractionReport(
            distances=tuple(distances),
            ratios=tuple(ratios),
            converged=converged,
            iterations=len(distances),
        )

    for _ in range(max_iter):
        new = sweep(current)
        dist = distance(new, current)
        if distances:
            ratio = dist / distances[-1] if distances[-1] > 0 else 0.0
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= 3:
                distances.append(dist)
                raise NonContractionError(
                    f"{label} stopped contracting: last ratios {[float(r) for r in ratios[-3:]]}",
                    report(),
                )
        distances.append(dist)
        current = new
        if dist <= tol:
            return current, report(converged=True)
    raise NonContractionError(
        f"{label} did not converge: distance {float(distances[-1])!r} after {max_iter} sweeps, "
        f"tolerance {tol!r}",
        report(),
    )


def assemble_wave_sources(
    u_series: np.ndarray,
    theta_series: np.ndarray,
    eta_series: np.ndarray,
    samples_series: GeometrySamples,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """Local sources (f, h) of the tangent wave equation for a given iterate.

    ``u_series`` is the current tangent iterate over the window; theta, eta
    and the geometry samples along the (frozen) curve are known series.
    Includes the time derivative of the connection term through differences of
    the assembled product series, so only connection values are needed.
    """
    dx = grid.dx
    c = samples_series.conn
    conn = apply_chris(c, eta_series, u_series)
    dtu = time_diff_series(u_series, dx) + conn
    du = cov_dx(u_series, u_series, samples_series, dx)
    coeff = sided_grad_sq(u_series, u_series, samples_series, dx) - dot(dtu, dtu)
    # theta's projection off u is summed term by term: perp() groups the sum
    # otherwise and moves the window iterates in their last digits
    f = (
        coeff[..., None] * u_series
        + theta_series
        - dot(theta_series, u_series)[..., None] * u_series
        - time_diff_series(conn, dx)
        - apply_chris(c, eta_series, dtu)
        + apply_chris(c, u_series, du)
    )
    return f, apply_chris(c, u_series, u_series)


def leapfrog_step(
    xi_prev: np.ndarray,
    xi_curr: np.ndarray,
    theta: np.ndarray,
    eta: np.ndarray,
    dt: float,
    grid: Grid,
    samples: GeometrySamples,
    *,
    eta_rate: np.ndarray,
    conn_rate: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One three-level step of the covariant tangent wave equation.

    The covariant second time difference is expanded around the central level
    xi: plain second difference plus G(eta, D_t xi) and the time derivative of
    G(eta, xi), which splits into a part using the supplied ``conn_rate`` (the
    caller's difference of the connection samples along the curve's motion),
    one using the supplied velocity rate ``eta_rate``, and G(eta, xi_t), with
    xi_t centred over the next level y.  Through that term and the speed
    coefficient kappa = c0 - |(y - xi)/dt + G(eta, xi)|^2 / 2, where c0 holds
    the spatial and the backward time differences, y solves

        (I + dt G) y = R + dt^2 kappa xi,   G v = eta <c, v> - <eta, v> c,

    with R every term that does not read y and c the connection samples.
    I + dt G has determinant 1 + dt^2 (|c|^2 |eta|^2 - <c, eta>^2) >= 1: a
    2 x 2 solve per sample gives (a, b) = (I + dt G)^-1 (R, dt^2 xi), and
    y = a + kappa b.  With p = (a - xi)/dt + G(eta, xi) and q = b/dt, kappa
    is the root of |q|^2 kappa^2 / 2 + (1 + <p, q>) kappa + |p|^2 / 2 - c0
    that stays finite as dt -> 0; a negative (or NaN) discriminant leaves no
    real next level and raises NumericalSolveError.

    The compact (1, -2, 1) spatial stencil pairs with the speed coefficient's
    averaged squared one-sided differences, in space and time, so that on a
    flat model the defect ||xi||^2 - 1 obeys a homogeneous discrete wave
    equation and stays at the O(dt^3) its first-step bootstrap seeds.  There
    ``conn_rate`` is None, every connection term is an exact +0.0 field and
    I + dt G is the identity.  dt must satisfy the stability bound dt <= dx.
    """
    dx = grid.dx
    if dt > dx * (1.0 + 1e-12):
        raise CflError(f"leapfrog requires dt <= dx; got dt={dt!r}, dx={dx!r}")
    conn = samples.conn
    conn_eta_xi = apply_chris(conn, eta, xi_curr)
    bwd_t = (xi_curr - xi_prev) / dt + conn_eta_xi
    base = sided_grad_sq(xi_curr, xi_curr, samples, dx) - 0.5 * dot(bwd_t, bwd_t)
    accel = (
        cov_dxx(xi_curr, xi_curr, samples, dx)
        + perp(theta, xi_curr)
        - apply_chris(conn, eta, conn_eta_xi)
        - apply_chris(conn, eta_rate, xi_curr)
        - apply_chris(conn_rate, eta, xi_curr)
    )
    # dt^2 terms (balanced at rest) are summed apart so their rounding does not seed the defect
    free = 2.0 * xi_curr - xi_prev + dt * apply_chris(conn, eta, xi_prev)
    rhs = np.stack([free, accel, xi_curr])
    if conn is not None:  # y = rhs - dt G y, where G y = <c, y> eta - <eta, y> c
        ce, cc, ee = dot(conn, eta), dot(conn, conn), dot(eta, eta)
        det = 1.0 + dt * dt * (cc * ee - ce * ce)
        rhs_c, rhs_eta = dot(conn, rhs), dot(eta, rhs)
        y_c = ((1.0 - dt * ce) * rhs_c + dt * cc * rhs_eta) / det
        y_eta = ((1.0 + dt * ce) * rhs_eta - dt * ee * rhs_c) / det
        rhs = rhs - dt * (y_c[..., None] * eta - y_eta[..., None] * conn)
    free, forced, along = rhs
    p, q = (free - xi_curr) / dt + dt * forced + conn_eta_xi, dt * along
    quad, lin, const = 0.5 * dot(q, q), 1.0 + dot(p, q), 0.5 * dot(p, p) - base
    disc = lin * lin - 4.0 * quad * const
    if not np.all(disc >= 0.0):
        k = int(np.argmin(disc))
        raise NumericalSolveError(
            f"leapfrog step has no real next level: discriminant {float(disc[k])!r} at grid index {k}"
        )
    kappa = -2.0 * const / (lin + np.sqrt(disc))
    return free + dt * dt * (forced + kappa[:, None] * along)
