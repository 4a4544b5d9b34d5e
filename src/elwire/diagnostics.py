"""Pure run diagnostics: energy split, drifts, bentness, transport identity.

Every quantity here is a pure function of the supplied levels (states with
their geometry samples, D_x xi and D_t xi, see dynamics.Level), so
recomputing a record from a stored trajectory is bit-identical to the one
produced during the run.  Nothing here samples the geometry or derives those
derivatives again, and nothing renders plots; the command line writes the
records to CSV and leaves presentation to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Level, frame_tangent, reconstruct_mu
from .fields import CurveState, Grid, constraint_drift, l2_norm, m0, perp
from .geometry import GeometrySamples, ManifoldModel


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row.

    ``energy`` is always the sum of the three parts (squared L2 norms of the
    covariant tangent rate, the velocity, and the covariant tangent
    derivative).  ``bentness`` is the value of the gate in force at the level
    (NaN if none ran); ``transport_residual`` is None when the check does not
    apply (time step not locked to dx, or too few levels retained).
    """

    time: float
    energy: float
    energy_tangent_rate: float
    energy_velocity: float
    energy_bending: float
    constraint_drift: float
    bentness: float
    mu_min: float
    mu_max: float
    gamma_xi_drift: float
    transport_residual: Optional[float]


def energy(level: Level, grid: Grid) -> tuple[float, tuple[float, float, float]]:
    """Total conserved energy and its three squared-L2 parts."""
    parts = (
        l2_norm(level.dtxi, grid.dx) ** 2,
        l2_norm(level.state.eta, grid.dx) ** 2,
        l2_norm(level.dxi, grid.dx) ** 2,
    )
    return parts[0] + parts[1] + parts[2], parts


def gamma_xi_drift(state: CurveState, manifold: ManifoldModel, samples: GeometrySamples, grid: Grid) -> float:
    """Sup distance between the discrete curve tangent and the stored xi."""
    return m0(frame_tangent(state.gamma, manifold, samples, grid) - state.xi)


def transport_check(levels: list, dt: float, grid: Grid) -> float:
    """Residual of the characteristic transport identity on a level window.

    Along left/right characteristics the shifted combinations
    (D_x xi +/- D_t xi)(x -/+ t, t) change their squared length at the rate
    +/- 2 <combo, perp(theta)> evaluated at the same shifted point.  Requires
    dt == dx (characteristics through grid points) and three consecutive
    levels whose states carry tension fields: the centred difference of the
    outer two levels' squared lengths meets the rate at the middle one.
    Returns the sup residual.
    """
    if abs(dt - grid.dx) > 1e-12 * max(1.0, dt):
        raise ValueError("transport identity check requires dt == dx")
    if len(levels) != 3:
        raise ValueError("transport identity check needs exactly 3 levels")
    if any(level.state.theta is None for level in levels):
        raise ValueError("states must carry tension fields")
    theta_perp = perp(levels[1].state.theta, levels[1].state.xi)
    worst = 0.0
    for sign in (+1, -1):
        before, hat, after = (
            np.roll(level.dxi + sign * level.dtxi, sign * m, axis=0)
            for m, level in enumerate(levels)
        )
        rate = (np.sum(after * after, axis=-1) - np.sum(before * before, axis=-1)) / (2.0 * dt)
        target = 2.0 * sign * np.sum(hat * np.roll(theta_perp, sign, axis=0), axis=-1)
        worst = max(worst, float(np.max(np.abs(rate - target))))
    return worst


def make_record(
    level: Level,
    manifold: ManifoldModel,
    grid: Grid,
    *,
    transport_residual: Optional[float] = None,
) -> DiagnosticsRecord:
    """Assemble one diagnostics row for a level (state, samples, bentness)."""
    state = level.state
    total, parts = energy(level, grid)
    if state.theta is not None:
        mu = reconstruct_mu(level)
        mu_min, mu_max = float(np.min(mu)), float(np.max(mu))
    else:
        mu_min = mu_max = math.nan
    return DiagnosticsRecord(
        time=float(state.time),
        energy=total,
        energy_tangent_rate=parts[0],
        energy_velocity=parts[1],
        energy_bending=parts[2],
        constraint_drift=constraint_drift(state.xi),
        bentness=math.nan if level.bentness is None else float(level.bentness.b_value),
        mu_min=mu_min,
        mu_max=mu_max,
        gamma_xi_drift=gamma_xi_drift(state, manifold, level.samples, grid),
        transport_residual=transport_residual,
    )
