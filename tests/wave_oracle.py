"""Reference quadrature of the characteristic (d'Alembert) representation.

Production evaluates the representation level by level through its exact
three-level recurrence and the characteristic derivatives as running
trapezoid sums.  The tests check both against the plain quadrature here,
which redoes the whole dependence triangle (or characteristic) at every
level: trapezoid weights in space over [k - s, k + s] and in time over
[0, m * dt], with dt = dx so that characteristics hit grid points exactly.
"""

import numpy as np

from elwire.fields import circ_diff, time_diff_series


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
