"""The tangent wave equation on the periodic wire: window solve and leapfrog.

The unit tangent field obeys a semilinear wave equation whose plain-coordinate
form is

    u_tt - u_xx = f(u, u_x, u_t, x, t) + d/dx h(u, x, t),

with all connection and tension contributions collected in the local sources f
and h (assemble_wave_sources, whole window series at once).  Production uses
one route per job:

* the Picard window (picard_wave_solve) evaluates the characteristic
  (d'Alembert) representation with the time step locked to dx, so
  characteristics pass exactly through grid points.  Its trapezoid
  quadrature over the dependence triangle obeys an exact three-level
  recurrence, which wave_series evaluates in O(N) per level, and a source
  iteration feeds the solution back into the sources over the window;
* the marching integrator takes the explicit three-level covariant leapfrog
  (leapfrog_step).

The other routes are oracles under tests/: the plain triangle quadrature
and the characteristic derivatives, whose h-contribution never
differentiates h in space, are in tests/wave_oracle.py, and the tests check
the window solve against the leapfrog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CflError, NonContractionError
from .fields import Grid, cov_dx, cov_dxx, m0, m1, perp, sided_grad_sq, time_diff_series
from .fields import shift as grid_shift
from .geometry import GeometrySamples, apply_chris, dot

UNIT_DATA_TOL = 1e-8
#: sweeps and relative tolerance of the leapfrog's inner fixed-point iteration
INNER_ITER = 8
INNER_TOL = 1e-14
#: sweep cap and tolerance of the window's source iteration (picard_wave_solve)
WAVE_MAX_ITER = 30
WAVE_TOL = 1e-11


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
    f: Optional[np.ndarray],
    h: Optional[np.ndarray],
    dx: float,
    n_levels: int,
) -> np.ndarray:
    """The characteristic-average representation at levels 0..n_levels.

    ``a`` is the initial field and ``b`` its plain initial rate, both (N, n);
    ``f`` and ``h`` are source series on the window grid with dt = dx, or None
    for a source-free problem, of which only levels 0..n_levels-1 are read.
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
    if f is not None:
        kick += dx * (f[:n_levels] + 0.5 * _neighbours(f[:n_levels]))
    if h is not None:
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
    raise NonContractionError naming ``label``; one raised inside a sweep
    (an inner iteration) is raised again with the sweep's number in front.
    Each carries the report up to the failure.
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

    for index in range(max_iter):
        try:
            new = sweep(current)
        except NonContractionError as exc:
            raise NonContractionError(f"{label} sweep {index + 1}: {exc}", report()) from exc
        dist = distance(new, current)
        if distances:
            ratio = dist / distances[-1] if distances[-1] > 0 else 0.0
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= 3:
                distances.append(dist)
                raise NonContractionError(
                    f"{label} stopped contracting: last ratios "
                    f"{[f'{r:.3f}' for r in ratios[-3:]]}",
                    report(),
                )
        distances.append(dist)
        current = new
        if dist <= tol:
            return current, report(converged=True)
    raise NonContractionError(
        f"{label} did not converge: distance {distances[-1]:.3e} after {max_iter} sweeps, "
        f"tolerance {tol:.1e}",
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


def picard_wave_solve(
    a: np.ndarray,
    b: np.ndarray,
    theta_series: np.ndarray,
    grid: Grid,
    *,
    eta_series: np.ndarray,
    samples_series: GeometrySamples,
) -> tuple[np.ndarray, ContractionReport]:
    """Solve the tangent wave equation over a window by source iteration.

    theta, eta and the geometry samples along the curve (``stack_samples``)
    are frozen series on the window's levels 0..M with dt = dx, M read from
    the eta series.  The initial tangent ``a`` must be a unit field and its
    plain rate ``b`` orthogonal to it, point by point.  Starting from the
    source-free series wave_series(a, b, None, None, dx, M), each sweep
    reassembles (f, h) from the current iterate and returns
    wave_series(a, b, f, h, dx, M).  Distances between consecutive iterates
    are measured in the composite first-order norm; the iteration stops at
    WAVE_TOL, and three consecutive non-decreasing distances or WAVE_MAX_ITER
    sweeps without reaching it raise NonContractionError.
    """
    dx = grid.dx
    n_levels = len(eta_series) - 1
    if n_levels < 2:
        raise ValueError("picard window needs at least 2 time levels")
    unit = np.max(np.abs(dot(a, a) - 1.0))
    ortho = np.max(np.abs(dot(a, b)))
    if unit > UNIT_DATA_TOL or ortho > UNIT_DATA_TOL:
        raise ValueError(
            f"wave data not admissible: max | ||a||^2 - 1 | = {unit:.3e}, "
            f"max |<a, b>| = {ortho:.3e}"
        )

    def sweep(current):
        f, h = assemble_wave_sources(current, theta_series, eta_series, samples_series, grid)
        return wave_series(a, b, f, h, dx, n_levels)

    return _contract(
        sweep,
        wave_series(a, b, None, None, dx, n_levels),
        lambda new, current: m1(new - current, dx, dx),
        max_iter=WAVE_MAX_ITER,
        tol=WAVE_TOL,
        label="picard iteration",
    )


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
    """One explicit three-level step of the covariant tangent wave equation.

    The covariant second time difference is expanded around the central level:
    plain second difference plus the connection terms G(eta, D_t xi) and the
    time derivative of G(eta, xi).  The latter splits into a connection-rate
    part using the supplied ``conn_rate`` (the caller's difference of the
    connection samples along the curve's motion), a G(eta_t, xi) part using
    the supplied velocity rate ``eta_rate``, and a G(eta, xi_t) part.
    Because xi_t at the centre is itself centred over the unknown next level,
    a short inner fixed-point iteration resolves the implicitness (the
    quadratic speed term converges at rate O(dt)).

    The plain spatial part uses the compact (1, -2, 1) stencil, and the speed
    coefficient averages the squared one-sided differences in both space and
    time.  With that pairing the defect s = ||xi||^2 - 1 obeys a homogeneous
    discrete wave equation in the flat case: starting from unit data it stays
    at the level seeded by the first-step bootstrap (O(dt^3)) instead of
    accumulating an O(dx^2) secular drift.

    On a flat model ``conn_rate`` is None and, like every connection term
    there, the connection rate term is an exact +0.0 field.  dt must satisfy
    the stability bound dt <= dx.
    """
    dx = grid.dx
    if dt > dx * (1.0 + 1e-12):
        raise CflError(f"leapfrog requires dt <= dx; got dt={dt!r}, dx={dx!r}")
    conn = samples.conn
    conn_eta_xi = apply_chris(conn, eta, xi_curr)
    d2u = cov_dxx(xi_curr, xi_curr, samples, dx)
    du_sq = sided_grad_sq(xi_curr, xi_curr, samples, dx)
    theta_perp = perp(theta, xi_curr)
    xi_t = (xi_curr - xi_prev) / dt  # first guess, refined below
    xi_next = xi_curr
    bwd_t = xi_t + conn_eta_xi
    bwd_t_sq = dot(bwd_t, bwd_t)
    # the rate terms do not read the iterate; the loop adds them one at a time,
    # since their pre-summed array would round differently
    eta_rate_term = apply_chris(conn, eta_rate, xi_curr)
    conn_rate_term = apply_chris(conn_rate, eta, xi_curr)
    for _ in range(INNER_ITER):
        dtu = xi_t + conn_eta_xi
        fwd_t = (xi_next - xi_curr) / dt + conn_eta_xi
        coeff = du_sq - 0.5 * (dot(fwd_t, fwd_t) + bwd_t_sq)
        accel = d2u + coeff[:, None] * xi_curr + theta_perp
        correction = apply_chris(conn, eta, xi_t) + apply_chris(conn, eta, dtu)
        correction += eta_rate_term
        correction += conn_rate_term
        accel = accel - correction
        xi_next = 2.0 * xi_curr - xi_prev + dt * dt * accel
        new_t = (xi_next - xi_prev) / (2.0 * dt)
        if m0(new_t - xi_t) <= INNER_TOL * (1.0 + m0(new_t)):
            xi_t = new_t
            break
        xi_t = new_t
    return xi_next
