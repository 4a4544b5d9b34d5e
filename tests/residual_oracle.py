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

from elwire.dynamics import (
    Level,
    assemble_sources,
    frame_tangent,
    reconstruct_mu,
    tangent_derivatives,
)
from elwire.fields import cov_dx, m0
from elwire.geometry import apply_chris


def cov_dt(p_prev, p_next, eta, dt, samples):
    """Covariant time derivative from two bracketing levels.

    Centred difference in time plus Gamma(eta, .) acting on the level average;
    ``samples`` and ``eta`` belong to the central level.
    """
    mid = 0.5 * (p_prev + p_next)
    return (p_next - p_prev) / (2.0 * dt) + apply_chris(samples.chris, eta, mid)


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
    ``Level`` objects as march yields them: states carrying their tension
    fields plus the geometry samples of their curves; the tangent
    derivatives entering psi and mu are derived afresh from each state, not
    read from the level.  Needs at least three levels.
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
        centre = Level(sc, samples_c, *tangent_derivatives(sc, samples_c, dx))
        psi, _ = assemble_sources(centre)
        mu = reconstruct_mu(centre)
        lhs = -dteta + cov_dx(dt2xi, sc.xi, samples_c, dx) - d3xi + psi
        rhs = cov_dx(mu[:, None] * sc.xi, sc.xi, samples_c, dx)
        defects.append(m0(lhs - rhs))
        coherences.append(m0(frame_tangent(sc.gamma, manifold, samples_c, grid) - sc.xi))
        times.append(sc.time)
    return ResidualReport(
        times=np.asarray(times),
        residual=np.asarray(defects),
        coherence=np.asarray(coherences),
    )
