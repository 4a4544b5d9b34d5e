"""Pure run diagnostics: energy split, drifts, bentness, transport identity.

Every quantity here is a pure function of the supplied levels (fields with
their geometry samples, D_x xi and D_t xi, see dynamics.Level), so
recomputing a record from a stored trajectory is bit-identical to the one
produced during the run.  Nothing here samples the geometry or derives those
derivatives again, and nothing renders plots; the command line writes the
records to CSV and leaves presentation to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Level, frame_tangent, reconstruct_mu
from .fields import Grid, constraint_drift, l2_norm, m0, perp, shift
from .geometry import ManifoldModel, dot


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row.

    ``energy`` is always the sum of the three parts (squared L2 norms of the
    covariant tangent rate, the velocity, and the covariant tangent
    derivative).  ``bentness`` is the value in force at the level, in a
    march and a window alike: the one solved at the latest multiple of
    ``bentness_every`` levels, up to and including this one (see
    dynamics._gate).
    ``transport_residual`` is None when the check does not apply (too few
    levels retained).
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
        l2_norm(level.eta, grid.dx) ** 2,
        l2_norm(level.dxi, grid.dx) ** 2,
    )
    return parts[0] + parts[1] + parts[2], parts


def gamma_xi_drift(level: Level, manifold: ManifoldModel, grid: Grid) -> float:
    """Sup distance between the discrete curve tangent and the stored xi."""
    return m0(frame_tangent(level.gamma, manifold, level.samples, grid) - level.xi)


def transport_check(levels: list, grid: Grid) -> float:
    """Residual of the characteristic transport identity on a level window.

    Along left/right characteristics the shifted combinations
    (D_x xi +/- D_t xi)(x -/+ t, t) change their squared length at the rate
    +/- 2 <combo, perp(theta)> evaluated at the same shifted point.  The
    levels are three consecutive ones, a step dt = dx apart (characteristics
    through grid points), that carry tension fields: the centred difference
    of the outer two levels' squared lengths meets the rate at the middle
    one.  Returns the sup residual.
    """
    if len(levels) != 3:
        raise ValueError("transport identity check needs exactly 3 levels")
    if any(level.theta is None for level in levels):
        raise ValueError("levels must carry tension fields")
    theta_perp = perp(levels[1].theta, levels[1].xi)
    worst = 0.0
    for sign in (+1, -1):
        before, hat, after = (
            shift(level.dxi + sign * level.dtxi, sign * m)
            for m, level in enumerate(levels)
        )
        rate = (dot(after, after) - dot(before, before)) / (2.0 * grid.dx)
        target = 2.0 * sign * dot(hat, shift(theta_perp, sign))
        worst = max(worst, float(np.max(np.abs(rate - target))))
    return worst


def make_record(
    level: Level,
    manifold: ManifoldModel,
    grid: Grid,
    *,
    transport_residual: Optional[float] = None,
) -> DiagnosticsRecord:
    """Assemble one diagnostics row for a solved level: its fields with the
    tension, samples and the bentness value in force."""
    total, parts = energy(level, grid)
    mu = reconstruct_mu(level)
    return DiagnosticsRecord(
        time=float(level.time),
        energy=total,
        energy_tangent_rate=parts[0],
        energy_velocity=parts[1],
        energy_bending=parts[2],
        constraint_drift=constraint_drift(level.xi),
        bentness=float(level.bentness),
        mu_min=float(np.min(mu)),
        mu_max=float(np.max(mu)),
        gamma_xi_drift=gamma_xi_drift(level, manifold, grid),
        transport_residual=transport_residual,
    )
