"""Tests for run diagnostics: energy split, drifts, and the characteristic
transport identity.

The resting circle again supplies closed forms: all energy sits in the
bending part and equals the squared wide stencil symbol, the reconstructed
multiplier is constant, and the transport identity holds to roundoff.  On
perturbed trajectories the transport residual must shrink at second order
and must blow up under a deliberate corruption of the tension field.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from elwire import initial
from elwire.diagnostics import (
    DiagnosticsRecord,
    energy,
    gamma_xi_drift,
    make_record,
    transport_check,
)
from elwire.dynamics import (
    Level,
    assemble_sources,
    march,
    prepare_initial,
    tangent_derivatives,
)
from elwire.elliptic import BentnessReport, bentness, solve_flux_form
from elwire.fields import Grid, m0
from elwire.geometry import make_manifold, sample_geometry
from run_config import SOLVE_DEFAULTS, run_config

EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
ORDER_MIN = 1.5
TWO_PI = 2.0 * math.pi


def rest_level(n: int, with_theta: bool = True):
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate("circle", manifold, grid, {})
    state, _ = prepare_initial(curve, velocity, manifold, grid)
    samples = sample_geometry(manifold, state.gamma)
    level = Level(state, samples, *tangent_derivatives(state, samples, grid.dx))
    if with_theta:
        psi, phi = assemble_sources(level)
        solved = solve_flux_form(psi, phi, state.xi, samples, grid, **SOLVE_DEFAULTS)
        level = replace(level, state=state.with_theta(solved.u))
    return replace(level, bentness=bentness(state.xi, samples, grid)), manifold, grid


def marched_levels(n: int, levels: int = 3):
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(
        "perturbed-circle", manifold, grid, {"mode": 2, "amplitude": 0.01}
    )
    state, _ = prepare_initial(curve, velocity, manifold, grid)
    marched = list(march(state, manifold, grid, run_config(grid, levels - 1)))
    return marched[:levels], manifold, grid


# ---------------------------------------------------------------------------
# energy and drifts


def test_rest_energy_is_pure_bending():
    level, _, grid = rest_level(64, with_theta=False)
    omega_sq = (math.sin(TWO_PI * grid.dx) / grid.dx) ** 2
    total, parts = energy(level, grid)
    assert parts[0] < EXACT_TOL
    assert parts[1] < EXACT_TOL
    assert abs(parts[2] - omega_sq) < CLOSED_FORM_TOL
    assert total == pytest.approx(sum(parts))


def test_gamma_xi_drift_closed_form_and_convergence():
    values = []
    for n in (64, 128):
        level, manifold, grid = rest_level(n, with_theta=False)
        drift = gamma_xi_drift(level.state, manifold, level.samples, grid)
        expected = abs(1.0 - math.sin(TWO_PI * grid.dx) / (TWO_PI * grid.dx))
        assert abs(drift - expected) < CLOSED_FORM_TOL
        values.append(drift)
    assert math.log2(values[0] / values[1]) > ORDER_MIN


def test_make_record_fills_every_column():
    level, manifold, grid = rest_level(64)
    omega_sq = (math.sin(TWO_PI * grid.dx) / grid.dx) ** 2
    gate = BentnessReport(b_value=0.5, phi=level.state.xi, residual=0.0)
    gated = replace(level, bentness=gate)
    record = make_record(gated, manifold, grid, transport_residual=1e-9)
    assert isinstance(record, DiagnosticsRecord)
    assert record.time == 0.0
    assert record.energy == pytest.approx(omega_sq)
    assert record.constraint_drift < EXACT_TOL
    assert record.bentness == 0.5
    assert record.mu_min == pytest.approx(omega_sq)
    assert record.mu_max == pytest.approx(omega_sq)
    assert record.transport_residual == 1e-9

    plain = make_record(
        replace(level, state=level.state.with_theta(None), bentness=None), manifold, grid
    )
    assert math.isnan(plain.bentness)
    assert math.isnan(plain.mu_min)
    assert plain.transport_residual is None


# ---------------------------------------------------------------------------
# transport identity


def test_transport_identity_holds_on_rest_window():
    level, _, grid = rest_level(64)
    residual = transport_check([level, level, level], grid.dx, grid)
    # roundoff in the pointwise squared norms is amplified by 1 / (2 dt)
    assert residual < 1e-9


def test_transport_check_validates_inputs():
    level, _, grid = rest_level(32)
    with pytest.raises(ValueError, match="dt == dx"):
        transport_check([level, level, level], 0.5 * grid.dx, grid)
    with pytest.raises(ValueError, match="3 levels"):
        transport_check([level, level], grid.dx, grid)
    with pytest.raises(ValueError, match="3 levels"):
        transport_check([level] * 4, grid.dx, grid)
    naked = replace(level, state=level.state.with_theta(None))
    with pytest.raises(ValueError, match="tension"):
        transport_check([naked, naked, naked], grid.dx, grid)


def test_transport_residual_refines_at_second_order():
    residuals = []
    for n in (32, 64, 128):
        levels, _, grid = marched_levels(n)
        residuals.append(transport_check(levels, grid.dx, grid))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) > ORDER_MIN


def test_transport_detects_corrupted_tension():
    levels, _, grid = marched_levels(64)
    healthy = transport_check(levels, grid.dx, grid)
    corrupted = []
    for lv in levels:
        s = lv.state
        perp_field = np.column_stack([-s.xi[:, 1], s.xi[:, 0]])
        corrupted.append(replace(lv, state=s.with_theta(s.theta + perp_field)))
    broken = transport_check(corrupted, grid.dx, grid)
    assert broken > 10.0 * healthy
