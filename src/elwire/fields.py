"""Periodic grid fields along the wire and the covariant calculus on them.

The wire is parametrised by arc length on the unit circle R/Z, discretised by
N equispaced samples (dx = 1/N, indices wrap mod N).  A "field" is a plain
float array of shape (..., N, n), grid on axis -2, holding frame components
of a vector field along the curve: one level (N, n) or a window series
(M+1, N, n), on which every helper here acts level by level.  Scalar fields
have shape (N,).  Derivatives are second-order centred differences; the
covariant versions add the pointwise connection action with the appropriate
direction vector:

    cov_dx(p) = dp/dx + Gamma(xi, p)        (xi = unit tangent, frame comps)
    D_t p     = dp/dt + Gamma(eta, p)       (eta = velocity, frame comps)

Because the centred difference matrix is antisymmetric and Gamma(v, .) is
pointwise antisymmetric, cov_dx satisfies exact discrete summation by parts:
l2_inner(cov_dx(p), q) == -l2_inner(p, cov_dx(q)) to roundoff.  Downstream
solvers rely on that identity, so no one-sided or spectral variants are used
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometrySamples, apply_chris, dot

MIN_POINTS = 8


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on R/Z with N >= 8 samples."""

    n_points: int

    def __post_init__(self):
        if int(self.n_points) != self.n_points or self.n_points < MIN_POINTS:
            raise ValueError(f"grid needs an integer n_points >= {MIN_POINTS}, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def dx(self) -> float:
        return 1.0 / self.n_points

    def points(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx


# ---------------------------------------------------------------------------
# derivatives


def shift(v: np.ndarray, k: int, axis: int = -2) -> np.ndarray:
    """Periodic shift along ``axis``: out[i] = v[i - k] (indices mod the axis
    length), the values of ``np.roll(v, k, axis)`` from two slice copies."""
    v = np.asarray(v)
    k %= v.shape[axis]
    rest = (slice(None),) * (v.ndim - 1 - axis % v.ndim)
    out = np.empty_like(v)
    out[(..., slice(k, None), *rest)] = v[(..., slice(None, v.shape[axis] - k), *rest)]
    out[(..., slice(None, k), *rest)] = v[(..., slice(v.shape[axis] - k, None), *rest)]
    return out


def circ_diff(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order centred difference with periodic wrap (grid axis -2)."""
    return (shift(values, -1) - shift(values, 1)) / (2.0 * dx)


def cov_dx(p: np.ndarray, xi: np.ndarray, samples: GeometrySamples, dx: float) -> np.ndarray:
    """Covariant arc-length derivative of p along the curve with tangent xi."""
    return circ_diff(p, dx) + apply_chris(samples.conn, xi, p)


def compact_second(values: np.ndarray, dx: float) -> np.ndarray:
    """Symmetric (1, -2, 1)/dx^2 second difference with periodic wrap."""
    v = np.asarray(values, dtype=float)
    return (shift(v, -1) - 2.0 * v + shift(v, 1)) / (dx * dx)


def cov_dxx(p: np.ndarray, xi: np.ndarray, samples: GeometrySamples, dx: float) -> np.ndarray:
    """Covariant second arc-length derivative with the compact plain stencil.

    Expanding D_x(D_x p) gives the plain second derivative plus three
    connection terms; those are kept exactly as in the composition of two
    ``cov_dx`` calls, while the doubly centred plain part (an effectively
    2*dx stencil) is replaced by the compact symmetric second difference.
    Both forms are second order; the compact one pairs with
    ``sided_grad_sq`` so that the unit-tangent defect produced by the wave
    step stays at the time-discretization level.
    """
    conn = apply_chris(samples.conn, xi, p)
    return (
        compact_second(p, dx)
        + apply_chris(samples.conn, xi, circ_diff(p, dx))
        + circ_diff(conn, dx)
        + apply_chris(samples.conn, xi, conn)
    )


def sided_grad_sq(p: np.ndarray, xi: np.ndarray, samples: GeometrySamples, dx: float) -> np.ndarray:
    """Averaged squared forward/backward covariant difference of p.

    Second-order accurate for ||D_x p||^2.  On a pointwise-unit field the
    combination g(cov_dxx(xi), xi) + sided_grad_sq(xi) cancels identically
    when the connection vanishes, which is what pins ||xi|| = 1 during
    marching; the centred form leaves an O(dx^2) remainder instead.
    """
    conn = apply_chris(samples.conn, xi, p)
    fwd = (shift(p, -1) - p) / dx + conn
    bwd = (p - shift(p, 1)) / dx + conn
    return 0.5 * (dot(fwd, fwd) + dot(bwd, bwd))


def time_diff_series(series: np.ndarray, dt: float) -> np.ndarray:
    """Plain time derivative of a field series (M+1, N, n), centred inside,
    one-sided second order at both ends."""
    s = np.asarray(series, dtype=float)
    if s.shape[0] < 3:
        raise ValueError("need at least 3 time levels for a second-order time derivative")
    out = np.empty_like(s)
    out[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * s[0] + 4.0 * s[1] - s[2]) / (2.0 * dt)
    out[-1] = (3.0 * s[-1] - 4.0 * s[-2] + s[-3]) / (2.0 * dt)
    return out


# ---------------------------------------------------------------------------
# pointwise algebra and norms


def perp(v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to xi at each sample: v - <v, xi> xi."""
    return v - dot(v, xi)[..., None] * xi


def l2_inner(p: np.ndarray, q: np.ndarray, dx: float) -> float:
    """Trapezoid (here: exact periodic) L2 pairing dx * sum_k <p_k, q_k>."""
    return float(dx * np.sum(p * q))

def l2_norm(p: np.ndarray, dx: float) -> float:
    return float(np.sqrt(max(l2_inner(p, p, dx), 0.0)))


def row_norms(p: np.ndarray) -> np.ndarray:
    return np.sqrt(dot(p, p))


def m0(p: np.ndarray) -> float:
    """Sup norm of the pointwise Euclidean norm over the samples of a field,
    and over its levels too for a series; max |p| for a scalar field."""
    if p.ndim == 1:
        return float(np.max(np.abs(p)))
    return float(np.max(row_norms(p)))


def m1(series: np.ndarray, dx: float, dt: float) -> float:
    """Sup over a time window of m0 of the field and of its plain x and t
    derivatives (first-order composite norm of a field series)."""
    s = np.asarray(series, dtype=float)
    return m0(s) + m0(circ_diff(s, dx)) + m0(time_diff_series(s, dt))


def m01(series: np.ndarray, dt: float) -> float:
    """Sup-norm of a series plus sup-norm of its plain time derivative."""
    return m0(series) + m0(time_diff_series(series, dt))


def constraint_drift(xi: np.ndarray) -> float:
    """max_k | ||xi_k||^2 - 1 |, the discrete unit-tangent defect."""
    return float(np.max(np.abs(dot(xi, xi) - 1.0)))
