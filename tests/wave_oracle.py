"""Reference routes of the tangent wave solvers.

Production evaluates the representation level by level through its exact
three-level recurrence (``wave.wave_series``).  The tests check it against
the plain quadrature here, which redoes the whole dependence triangle at
every level: trapezoid weights in space over [k - s, k + s] and in time
over [0, m * dt], with dt = dx so that characteristics hit grid points
exactly.  The characteristic derivatives u_x +/- u_t of the representation
come two ways, as running trapezoid sums and as sums redone afresh at every
level; the tests compare them with each other and with centred differences
of wave_series.

The wave-only route, ``picard_wave_solve``, solves the tangent wave equation
over a window with the curve, tension and velocity frozen, by source
iteration over ``wave.wave_series`` run to its own tolerance; the tests
compare it with the leapfrog and the closed-form solutions.

The march's leapfrog step is solved in closed form (``wave.leapfrog_step``);
the fixed-point sweep of its implicit equation, run to convergence, is the
reference here.
"""

from dataclasses import dataclass

import numpy as np

from elwire.fields import circ_diff, cov_dxx, m0, m1, perp, sided_grad_sq, time_diff_series
from elwire.geometry import apply_chris, dot
from elwire.wave import _contract, assemble_wave_sources, wave_series

#: admissibility tolerance of the initial tangent data (picard_wave_solve)
UNIT_DATA_TOL = 1e-8
#: sweep cap and tolerance of the source iteration (picard_wave_solve)
WAVE_MAX_ITER = 30
WAVE_TOL = 1e-11


@dataclass(frozen=True)
class CharacteristicFields:
    """Characteristic first derivatives u_x + u_t and u_x - u_t as series."""

    u_plus: np.ndarray   # (M+1, N, n)
    u_minus: np.ndarray  # (M+1, N, n)


def window_weighted_sum(v, half_width):
    """Trapezoid-weighted sum of v over the index window [k-s, k+s] for all k.

    Endpoint weights 1/2, periodic indices; zero for half_width 0.  The
    window may not exceed one period.
    """
    npts = v.shape[0]
    if half_width == 0:
        return np.zeros_like(v)
    if half_width > npts:
        raise ValueError(f"window half-width {half_width} exceeds one period ({npts})")
    ext = np.concatenate([v, v, v], axis=0)
    csum = np.concatenate([np.zeros((1,) + v.shape[1:]), np.cumsum(ext, axis=0)], axis=0)
    centre = npts + np.arange(npts)
    lo = centre - half_width
    hi = centre + half_width
    return (csum[hi + 1] - csum[lo]) - 0.5 * (ext[lo] + ext[hi])


def tau_weights(m, dt):
    """Trapezoid weights for the time integral over [0, m*dt] at levels 0..m."""
    w = np.full(m + 1, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def triangle_level(a, b, f, h, dx, m):
    """The representation at level m: averaged initial field, integrated
    initial rate, source integral over the dependence triangle and the
    end-point characteristic values of h."""
    u = 0.5 * (np.roll(a, -m, axis=0) + np.roll(a, m, axis=0))
    u += 0.5 * dx * window_weighted_sum(b, m)
    wt = tau_weights(m, dx)
    for j in range(m):  # level m contributes a zero-width window
        if f is not None:
            u += 0.5 * wt[j] * dx * window_weighted_sum(f[j], m - j)
        if h is not None:
            s = m - j
            u += 0.5 * wt[j] * (np.roll(h[j], -s, axis=0) - np.roll(h[j], s, axis=0))
    return u


def triangle_series(a, b, f, h, dx, n_levels):
    """triangle_level stacked over levels 0..n_levels."""
    return np.stack([triangle_level(a, b, f, h, dx, m) for m in range(n_levels + 1)])


def characteristic_quadrature(a, b, f, h, dx, n_levels):
    """u_x + u_t and u_x - u_t at levels 0..n_levels, each level summed
    afresh along its characteristic (h differentiated in time only)."""
    a_x = circ_diff(a, dx)
    h_t = None if h is None else time_diff_series(h[: n_levels + 1], dx)
    out = []
    for sign in (+1, -1):
        levels = []
        for m in range(n_levels + 1):
            u = np.roll(a_x, -sign * m, axis=0) + sign * np.roll(b, -sign * m, axis=0)
            if m > 0:
                wt = tau_weights(m, dx)
                if f is not None:
                    for j in range(m + 1):
                        u += sign * wt[j] * np.roll(f[j], -sign * (m - j), axis=0)
                if h is not None:
                    u += np.roll(h[0], -sign * m, axis=0) - h[m]
                    for j in range(m + 1):
                        u += wt[j] * np.roll(h_t[j], -sign * (m - j), axis=0)
            levels.append(u)
        out.append(np.stack(levels))
    return out[0], out[1]


def characteristic_derivatives(a, b, f, h, dx, n_levels=None):
    """Closed-form characteristic derivatives u_x +/- u_t of the representation.

    ``f`` and ``h`` are source series, or None, read at levels 0..n_levels;
    n_levels defaults to the last level they both cover.
    The h-contribution is the end-point difference {h(x +/- t, 0) - h(x, t)}
    plus the time-derivative integral along the characteristic; h is never
    differentiated in space.  Time derivatives of h are centred inside the
    window and one-sided second order at the ends.  Each characteristic
    integral is one running trapezoid sum: a step moves the sum by one point,
    raises its old endpoint's weight from dx/2 to dx and adds the new
    endpoint at dx/2.
    """
    lengths = [s.shape[0] - 1 for s in (f, h) if s is not None]
    if n_levels is None:
        if not lengths:
            raise ValueError("n_levels is required for source-free data")
        n_levels = min(lengths)
    if lengths and n_levels > min(lengths):
        raise ValueError(f"source series cover levels 0..{min(lengths)}, requested {n_levels}")
    a_x = circ_diff(a, dx)
    h_t = None
    if h is not None and n_levels >= 1:
        if n_levels < 2:
            raise ValueError("need at least 3 levels of h to form its time derivative")
        h_t = time_diff_series(h[: n_levels + 1], dx)
    out = {}
    for sign in (+1, -1):
        g = np.zeros((n_levels + 1,) + a_x.shape)
        carried = a_x + sign * b
        if f is not None:
            g += sign * f[: n_levels + 1]
        if h_t is not None:
            g += h_t
            carried += h[0]
        run = np.empty_like(g)
        run[0] = carried
        for m in range(n_levels):
            run[m + 1] = np.roll(run[m] + 0.5 * dx * g[m], -sign, axis=0) + 0.5 * dx * g[m + 1]
        if h_t is not None:
            run -= h[: n_levels + 1]
        out[sign] = run
    return CharacteristicFields(u_plus=out[+1], u_minus=out[-1])


def leapfrog_sweep(guess, xi_prev, xi_curr, theta, eta, dt, grid, samples, *, eta_rate, conn_rate=None):
    """One sweep of the leapfrog's fixed-point form from a guess y of the
    next level, with the arguments of ``wave.leapfrog_step``.

    The centred rate (y - xi_prev) / (2 dt) enters the connection terms of
    the covariant second difference, and the forward rate
    (y - xi_curr) / dt + Gamma(eta, xi_curr) the speed coefficient, beside
    the backward one; the sweep returns 2 xi_curr - xi_prev plus dt^2 times
    the acceleration.  Its fixed points are the next levels of the step, so
    sweep(y) - y is the residual of the step's equation at y.
    """
    dx = grid.dx
    conn = samples.conn
    conn_eta_xi = apply_chris(conn, eta, xi_curr)
    xi_t = (guess - xi_prev) / (2.0 * dt)
    fwd_t = (guess - xi_curr) / dt + conn_eta_xi
    bwd_t = (xi_curr - xi_prev) / dt + conn_eta_xi
    coeff = sided_grad_sq(xi_curr, xi_curr, samples, dx) - 0.5 * (dot(fwd_t, fwd_t) + dot(bwd_t, bwd_t))
    accel = (
        cov_dxx(xi_curr, xi_curr, samples, dx)
        + coeff[:, None] * xi_curr
        + perp(theta, xi_curr)
        - apply_chris(conn, eta, xi_t)
        - apply_chris(conn, eta, xi_t + conn_eta_xi)
        - apply_chris(conn, eta_rate, xi_curr)
        - apply_chris(conn_rate, eta, xi_curr)
    )
    return 2.0 * xi_curr - xi_prev + dt * dt * accel


def leapfrog_sweeps(xi_prev, xi_curr, *args, **kwargs):
    """The leapfrog's next level by leapfrog_sweep, run to convergence.

    Sweeps start from the current level and go on, with no cap, while the
    sup change between iterates shrinks; the last iterate is returned.  The
    map contracts at a rate of order dt, so the change stops shrinking at the
    rounding floor; a last change above 1e-12 relative means the sweeps did
    not converge and fails the caller.  Where the step's quadratic has two
    real roots, this start settles on the one the step takes (from
    2 xi_curr - xi_prev the sweeps reach the other on the resting circle
    with xi_prev = -xi).
    """
    guess = xi_curr
    change = np.inf
    while True:
        new = leapfrog_sweep(guess, xi_prev, xi_curr, *args, **kwargs)
        step = m0(new - guess)
        guess = new
        if not step < change:
            break
        change = step
    assert step <= 1e-12 * (1.0 + m0(guess)), f"leapfrog sweeps stopped at a change of {step:.3e}"
    return guess


def picard_wave_solve(a, b, theta_series, grid, *, eta_series, samples_series):
    """Solve the tangent wave equation over a window by source iteration.

    theta, eta and the geometry samples along the curve (``stack_samples``)
    are frozen series on the window's levels 0..M with dt = dx, M read from
    the eta series.  The initial tangent ``a`` must be a unit field and its
    plain rate ``b`` orthogonal to it, point by point.  Starting from the
    series with zero sources f and h, each sweep
    reassembles (f, h) from the current iterate and returns
    wave_series(a, b, f, h, dx, M).  Distances between consecutive iterates
    are measured in the composite first-order norm; the iteration stops at
    WAVE_TOL, and three consecutive non-decreasing distances or WAVE_MAX_ITER
    sweeps without reaching it raise NonContractionError.  Returns the
    series and its ContractionReport.
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

    zero = np.zeros((n_levels,) + a.shape)

    def sweep(current):
        f, h = assemble_wave_sources(current, theta_series, eta_series, samples_series, grid)
        return wave_series(a, b, f, h, dx, n_levels)

    return _contract(
        sweep,
        wave_series(a, b, zero, zero, dx, n_levels),
        lambda new, current: m1(new - current, dx, dx),
        max_iter=WAVE_MAX_ITER,
        tol=WAVE_TOL,
        label="picard iteration",
    )
