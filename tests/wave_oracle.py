"""Reference routes of the characteristic (d'Alembert) representation.

Production evaluates the representation level by level through its exact
three-level recurrence (``wave.wave_series``).  The tests check it against
the plain quadrature here, which redoes the whole dependence triangle at
every level: trapezoid weights in space over [k - s, k + s] and in time
over [0, m * dt], with dt = dx so that characteristics hit grid points
exactly.  The characteristic derivatives u_x +/- u_t of the representation
come two ways, as running trapezoid sums and as sums redone afresh at every
level; the tests compare them with each other and with centred differences
of wave_series.
"""

from dataclasses import dataclass

import numpy as np

from elwire.fields import circ_diff, time_diff_series


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


def triangle_level(data, m):
    """The representation at level m: averaged initial field, integrated
    initial rate, source integral over the dependence triangle and the
    end-point characteristic values of h."""
    dx = data.grid.dx
    u = 0.5 * (np.roll(data.a, -m, axis=0) + np.roll(data.a, m, axis=0))
    u += 0.5 * dx * window_weighted_sum(data.b, m)
    wt = tau_weights(m, dx)
    for j in range(m):  # level m contributes a zero-width window
        if data.f is not None:
            u += 0.5 * wt[j] * dx * window_weighted_sum(data.f[j], m - j)
        if data.h is not None:
            s = m - j
            u += 0.5 * wt[j] * (np.roll(data.h[j], -s, axis=0) - np.roll(data.h[j], s, axis=0))
    return u


def triangle_series(data, n_levels):
    """triangle_level stacked over levels 0..n_levels."""
    return np.stack([triangle_level(data, m) for m in range(n_levels + 1)])


def characteristic_quadrature(data, n_levels):
    """u_x + u_t and u_x - u_t at levels 0..n_levels, each level summed
    afresh along its characteristic (h differentiated in time only)."""
    dx = data.grid.dx
    a_x = circ_diff(data.a, dx)
    h_t = None if data.h is None else time_diff_series(data.h[: n_levels + 1], dx)
    out = []
    for sign in (+1, -1):
        levels = []
        for m in range(n_levels + 1):
            u = np.roll(a_x, -sign * m, axis=0) + sign * np.roll(data.b, -sign * m, axis=0)
            if m > 0:
                wt = tau_weights(m, dx)
                if data.f is not None:
                    for j in range(m + 1):
                        u += sign * wt[j] * np.roll(data.f[j], -sign * (m - j), axis=0)
                if data.h is not None:
                    u += np.roll(data.h[0], -sign * m, axis=0) - data.h[m]
                    for j in range(m + 1):
                        u += wt[j] * np.roll(h_t[j], -sign * (m - j), axis=0)
            levels.append(u)
        out.append(np.stack(levels))
    return out[0], out[1]


def characteristic_derivatives(data, n_levels=None):
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
        lengths = [s.shape[0] - 1 for s in (data.f, data.h) if s is not None]
        if not lengths:
            raise ValueError("n_levels is required for source-free data")
        n_levels = min(lengths)
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
