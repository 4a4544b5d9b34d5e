"""Defect of a computed trajectory in the single governing equation.

Production marches the split system (tension solve, tangent wave, velocity
and curve updates).  The tests check its levels against the single
equation of the motion,

    -D_t eta + D_x D_t D_t xi - D_x D_x D_x xi + psi = D_x(mu xi),

with the time derivatives centred over three consecutive levels, the
spatial ones composed from cov_dx, and the reconstructed multiplier mu.
The marcher uses none of these stencils.
"""

from dataclasses import dataclass

import numpy as np

from elwire.dynamics import Level, assemble_sources, frame_tangent, reconstruct_mu
from elwire.fields import cov_dx, m0
from elwire.geometry import apply_chris


def cov_dt(p_prev, p_next, eta, dt, samples):
    """Covariant time derivative from two bracketing levels.

    Centred difference in time plus Gamma(eta, .) acting on the level average;
    ``samples`` and ``eta`` belong to the central level.
    """
    mid = 0.5 * (p_prev + p_next)
    return (p_next - p_prev) / (2.0 * dt) + apply_chris(samples.conn, eta, mid)


@dataclass(frozen=True)
class ResidualReport:
    """Interior-level defect of a trajectory in the single-equation form."""

    times: np.ndarray
    residual: np.ndarray   # m0 of the defect per interior level
    coherence: np.ndarray  # m0 of (frame^-1 gamma_x - xi) per interior level


def residual_base_single(levels, dt, manifold, grid):
    """Defect of computed levels in the single governing equation.

    Uses three consecutive levels for every covariant time derivative, the
    composed covariant difference for all spatial derivatives, and the
    reconstructed multiplier on the right-hand side.  ``levels`` are
    ``Level`` objects as march yields them: fields carrying their tension
    plus the geometry samples of their curves; the tangent derivatives
    entering psi and mu are derived afresh from each level's fields, not
    read from the level.  Needs at least three levels.
    """
    if len(levels) < 3:
        raise ValueError("residual evaluation needs at least 3 consecutive levels")
    dx = grid.dx
    times, defects, coherences = [], [], []
    for i in range(1, len(levels) - 1):
        lp, lc, ln = levels[i - 1], levels[i], levels[i + 1]
        samples_c = lc.samples
        if lc.theta is None:
            raise ValueError("levels must carry tension fields (run march or solve theta)")
        # covariant velocity rate
        dteta = cov_dt(lp.eta, ln.eta, lc.eta, dt, samples_c)
        # covariant second time rate of the tangent
        conn_p = apply_chris(lp.samples.conn, lp.eta, lp.xi)
        conn_n = apply_chris(ln.samples.conn, ln.eta, ln.xi)
        conn_rate = (conn_n - conn_p) / (2.0 * dt)
        dtxi = (ln.xi - lp.xi) / (2.0 * dt) + apply_chris(samples_c.conn, lc.eta, lc.xi)
        dt2xi = (ln.xi - 2.0 * lc.xi + lp.xi) / (dt * dt) + conn_rate + apply_chris(
            samples_c.conn, lc.eta, dtxi
        )
        # spatial pieces at the centre
        dxi = cov_dx(lc.xi, lc.xi, samples_c, dx)
        d2xi = cov_dx(dxi, lc.xi, samples_c, dx)
        d3xi = cov_dx(d2xi, lc.xi, samples_c, dx)
        centre = Level.derive(lc.gamma, lc.xi, lc.xi_t, lc.eta, samples_c, dx, theta=lc.theta)
        psi, _ = assemble_sources(centre)
        mu = reconstruct_mu(centre)
        lhs = -dteta + cov_dx(dt2xi, lc.xi, samples_c, dx) - d3xi + psi
        rhs = cov_dx(mu[:, None] * lc.xi, lc.xi, samples_c, dx)
        defects.append(m0(lhs - rhs))
        coherences.append(m0(frame_tangent(lc.gamma, manifold, samples_c, grid) - lc.xi))
        times.append(lc.time)
    return ResidualReport(
        times=np.asarray(times),
        residual=np.asarray(defects),
        coherence=np.asarray(coherences),
    )
