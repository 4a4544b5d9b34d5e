"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single [PASS]/[FAIL] line on the terminal, bypassing
capture, so a full run reads as a checklist.  Convergence items share the
module-scoped resting and perturbed marches at N = 64, 128, 256 with dt = dx
and horizon 1.  A refinement sequence that sits at rounding level is treated
as converged outright: no order is measurable below the floor.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from elliptic_oracle import block_tridiagonal_to_dense, cg_solve, dense_solve
from elwire import initial
from elwire.cli import main
from elwire.diagnostics import energy
from elwire.dynamics import (
    march,
    picard_coupled,
    prepare_initial,
    reconstruct_mu,
)
from elwire.elliptic import _block_operator, _fold_order, bentness, solve_flux_form
from elwire.fields import (
    Grid,
    circ_diff,
    compact_second,
    constraint_drift,
    cov_dx,
    l2_inner,
    l2_norm,
    m0,
    row_norms,
)
from elwire.geometry import (
    EuclideanModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    frame_components,
    make_manifold,
    sample_geometry,
    stack_samples,
)
from elwire.wave import leapfrog_step, picard_wave_solve, wave_series
from geometry_oracle import dense_chris
from residual_oracle import residual_base_single
from run_config import SOLVE_DEFAULTS, run_config
from wave_oracle import characteristic_derivatives

TWO_PI = 2.0 * math.pi
RESOLUTIONS = (64, 128, 256)
PERTURBATION = {"mode": 2, "amplitude": 0.01}
ORDER_MIN = 1.8
ORDER_MIN_RESIDUAL = 1.0
ROUNDING_FLOOR = 1e-9
LIPSCHITZ_SLACK = 1e-8


def _orders(values):
    return [math.log2(values[i] / values[i + 1]) for i in range(len(values) - 1)]


def _converged(values, floor=0.0, order_min=ORDER_MIN):
    if max(values) <= floor:
        return True
    return min(_orders(values)) >= order_min


def _fmt(values):
    return "/".join(f"{v:.2e}" for v in values)


def _fmt_floored(values):
    """``_fmt`` for figures that exact arithmetic would make 0.

    Below ROUNDING_FLOOR a figure is rounding noise, which any change to the
    order of the arithmetic reshuffles; it prints as the floor, so the line
    stays comparable across solver changes.
    """
    if max(values) < ROUNDING_FLOOR:
        return "< 1e-9 (rounding floor)"
    return "/".join(f"{v:.2e}" if v >= ROUNDING_FLOOR else "< 1e-9" for v in values)


def _fmt_orders(orders):
    return ", ".join(f"{o:.2f}" for o in orders)


def _verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def _circle_tangent(grid):
    x = grid.points()
    return np.column_stack([-np.sin(TWO_PI * x), np.cos(TWO_PI * x)])


def _random_unit_field(grid, rng):
    psi = TWO_PI * grid.points().copy()
    for mode in (1, 2, 3):
        psi += rng.uniform(-0.3, 0.3) * np.sin(TWO_PI * mode * grid.points() + rng.uniform(0, TWO_PI))
    return np.column_stack([np.cos(psi), np.sin(psi)])


def _flat_samples(n):
    return sample_geometry(EuclideanModel(2), np.zeros((n, 2)))


def _hyperbolic_setup(n):
    grid = Grid(n)
    x = grid.points()
    curve = np.column_stack([0.3 * np.sin(TWO_PI * x), 1.0 + 0.2 * np.cos(TWO_PI * x)])
    samples = sample_geometry(HyperbolicHalfPlaneModel(), curve)
    tangent = frame_components(samples, circ_diff(curve, grid.dx))
    return grid, samples, tangent / row_norms(tangent)[:, None]


def _prepared_start(n, name, params):
    manifold = make_manifold("euclidean")
    grid = Grid(n)
    curve, velocity = initial.generate(name, manifold, grid, params)
    start, _ = prepare_initial(curve, velocity, manifold, grid)
    return start, manifold, grid


def _march_summary(n, name, params):
    start, manifold, grid = _prepared_start(n, name, params)
    box = {"drift": 0.0, "constraint": 0.0, "displacement": 0.0}
    for level in march(start, manifold, grid, run_config(grid, n)):
        total, _ = energy(level, grid)
        box.setdefault("e0", total)
        box["drift"] = max(box["drift"], abs(total - box["e0"]))
        box["constraint"] = max(box["constraint"], constraint_drift(level.xi))
        box["displacement"] = max(
            box["displacement"], m0(manifold.displacement(start.gamma, level.gamma))
        )
    return {
        "displacement": box["displacement"],
        "energy_drift": box["drift"],
        "relative_drift": box["drift"] / box["e0"],
        "constraint": box["constraint"],
    }


@pytest.fixture(scope="module")
def rest_runs():
    return {n: _march_summary(n, "circle", {}) for n in RESOLUTIONS}


@pytest.fixture(scope="module")
def perturbed_runs():
    return {n: _march_summary(n, "perturbed-circle", PERTURBATION) for n in RESOLUTIONS}


def test_01_rest_circle_equilibrium(rest_runs, capsys):
    displacement = [rest_runs[n]["displacement"] for n in RESOLUTIONS]
    drift = [rest_runs[n]["energy_drift"] for n in RESOLUTIONS]
    ok = (
        _converged(displacement, floor=ROUNDING_FLOOR)
        and _converged(drift, floor=ROUNDING_FLOOR)
        and displacement[-1] <= 1e-3
    )
    _verdict(
        capsys,
        ok,
        "rest circle equilibrium",
        f"displacement {_fmt_floored(displacement)}, energy drift {_fmt_floored(drift)}",
    )
    assert _converged(displacement, floor=ROUNDING_FLOOR)
    assert _converged(drift, floor=ROUNDING_FLOOR)
    assert displacement[-1] <= 1e-3


def test_02_energy_conservation(perturbed_runs, capsys):
    drift = [perturbed_runs[n]["relative_drift"] for n in RESOLUTIONS]
    orders = _orders(drift)
    ok = drift[-1] <= 1e-3 and min(orders) >= ORDER_MIN
    _verdict(
        capsys,
        ok,
        "energy conservation",
        f"relative drift {_fmt(drift)}, orders {_fmt_orders(orders)}",
    )
    assert drift[-1] <= 1e-3
    assert min(orders) >= ORDER_MIN


def test_03_unit_tangent_preservation(perturbed_runs, capsys):
    # renormalization is off by default, so this measures the scheme itself
    drift = [perturbed_runs[n]["constraint"] for n in RESOLUTIONS]
    orders = _orders(drift)
    ok = drift[-1] <= 1e-4 and min(orders) >= ORDER_MIN
    _verdict(
        capsys,
        ok,
        "unit tangent preservation",
        f"max |norm^2 - 1| {_fmt(drift)}, orders {_fmt_orders(orders)}",
    )
    assert drift[-1] <= 1e-4
    assert min(orders) >= ORDER_MIN


def test_04_bentness_closed_form_and_range(capsys):
    grid = Grid(256)
    target = TWO_PI / math.sqrt(1.0 + TWO_PI**2)
    closed_err = abs(bentness(_circle_tangent(grid), _flat_samples(256), grid) - target)

    small = Grid(64)
    flat = _flat_samples(64)
    rng = np.random.default_rng(11)
    top = max(bentness(_random_unit_field(small, rng), flat, small) for _ in range(100))

    torus = make_manifold("flat-torus")
    line = small.points()[:, None] * np.array([1.0, 0.0])
    geodesic_b = bentness(np.tile([1.0, 0.0], (64, 1)), sample_geometry(torus, line), small)

    ok = closed_err <= 1e-4 and top <= 1.0 + 1e-12 and geodesic_b <= 1e-12
    _verdict(
        capsys,
        ok,
        "bentness closed form and range",
        f"circle error {closed_err:.2e}, max over random fields {top:.4f}, "
        f"geodesic value {geodesic_b:.2e}",
    )
    assert closed_err <= 1e-4
    assert top <= 1.0 + 1e-12
    assert geodesic_b <= 1e-12


def test_05_bentness_lipschitz(capsys):
    grid = Grid(64)
    flat = _flat_samples(64)
    rng = np.random.default_rng(18)
    field_margin = -math.inf
    for _ in range(100):
        xi = _random_unit_field(grid, rng)
        other = _random_unit_field(grid, rng)
        delta = abs(bentness(xi, flat, grid) - bentness(other, flat, grid))
        field_margin = max(field_margin, delta - l2_norm(xi - other, grid.dx))

    # curve clause on the sphere chart, where the sampled connection varies;
    # the half-plane frame connection is constant and would make this vacuous
    sphere = SphereChartModel(2)
    x = grid.points()

    def wobbly_loop():
        radius = 0.3 + rng.uniform(-0.05, 0.05) + rng.uniform(-0.05, 0.05) * np.sin(
            2.0 * TWO_PI * x + rng.uniform(0, TWO_PI)
        )
        center = rng.uniform(-0.1, 0.1, size=2)
        return center + radius[:, None] * np.column_stack(
            [np.cos(TWO_PI * x), np.sin(TWO_PI * x)]
        )

    curve_margin = -math.inf
    for _ in range(100):
        xi = _random_unit_field(grid, rng)
        first = sample_geometry(sphere, wobbly_loop())
        second = sample_geometry(sphere, wobbly_loop())
        delta = abs(bentness(xi, first, grid) - bentness(xi, second, grid))
        gap = np.max(np.sqrt(np.sum((dense_chris(first, xi.shape) - dense_chris(second, xi.shape)) ** 2, axis=(1, 2, 3))))
        curve_margin = max(curve_margin, delta - 3.0 * gap)

    ok = field_margin <= LIPSCHITZ_SLACK and curve_margin <= LIPSCHITZ_SLACK
    _verdict(
        capsys,
        ok,
        "bentness lipschitz bounds",
        f"worst field margin {field_margin:.2e}, worst curve margin {curve_margin:.2e}",
    )
    assert field_margin <= LIPSCHITZ_SLACK
    assert curve_margin <= LIPSCHITZ_SLACK


def test_06_tension_solver_oracles(capsys):
    def symmetry_gap(xi, samples, grid):
        system = _block_operator(xi, samples, grid, "perp")
        matrix = block_tridiagonal_to_dense(system, _fold_order(len(xi)), xi.shape[1])
        return np.max(np.abs(matrix - matrix.T))

    grid = Grid(256)
    flat = _flat_samples(256)
    xi = _circle_tangent(grid)
    zero = np.zeros_like(xi)
    sym_flat = symmetry_gap(xi, flat, grid)
    grid_h, samples_h, xi_h = _hyperbolic_setup(96)
    sym_hyp = symmetry_gap(xi_h, samples_h, grid_h)

    # the stencil symbol stands in for the continuum 4 pi^2 of the two
    # closed-form solutions xi / (4 pi^2) and -xi
    omega_sq = (math.sin(TWO_PI * grid.dx) / grid.dx) ** 2
    pulled = solve_flux_form(zero, xi, xi, flat, grid, **SOLVE_DEFAULTS).u
    err_pull = m0(pulled - xi / omega_sq) / m0(xi / omega_sq)
    negated = solve_flux_form(zero, -omega_sq * xi, xi, flat, grid, **SOLVE_DEFAULTS).u
    err_neg = m0(negated + xi) / m0(xi)

    # the production solve (block cyclic reduction) against two routes that
    # share none of its assembly: a dense matrix and conjugate gradients on
    # cov_dx applied twice
    rng = np.random.default_rng(3)
    source = rng.standard_normal(xi_h.shape)
    reduced = solve_flux_form(
        np.zeros_like(xi_h), source, xi_h, samples_h, grid_h, **SOLVE_DEFAULTS
    ).u
    dense_gap = m0(reduced - dense_solve(xi_h, samples_h, grid_h, "perp", source))
    cg_gap = m0(reduced - cg_solve(xi_h, samples_h, grid_h, "perp", source))
    path_gap = max(dense_gap, cg_gap)

    ok = (
        max(sym_flat, sym_hyp) <= 1e-10
        and max(err_pull, err_neg) <= 1e-8
        and path_gap <= 1e-8
    )
    _verdict(
        capsys,
        ok,
        "tension solver oracles",
        f"symmetry {max(sym_flat, sym_hyp):.2e}, closed forms "
        f"{_fmt_floored([err_pull, err_neg])}, cyclic reduction vs dense/cg "
        f"{_fmt_floored([dense_gap, cg_gap])}",
    )
    assert sym_flat <= 1e-10
    assert sym_hyp <= 1e-10
    assert err_pull <= 1e-8
    assert err_neg <= 1e-8
    assert path_gap <= 1e-8


def test_07_wave_route_cross_validation(capsys):
    # integral-representation route vs the three-level leapfrog on the free
    # tangent wave, started from the same data with a Taylor second level
    route_sups = []
    for n in RESOLUTIONS:
        grid = Grid(n)
        dx = grid.dx
        x = grid.points()
        psi = TWO_PI * x + 0.3 * np.sin(2.0 * TWO_PI * x)
        a = np.column_stack([np.cos(psi), np.sin(psi)])
        aperp = np.column_stack([-np.sin(psi), np.cos(psi)])
        b = 0.2 * np.cos(TWO_PI * x)[:, None] * aperp
        steps = n // 4
        flat = _flat_samples(n)
        series, _ = picard_wave_solve(
            a,
            b,
            np.zeros((steps + 1, n, 2)),
            grid,
            eta_series=np.zeros((steps + 1, n, 2)),
            samples_series=stack_samples([flat] * (steps + 1)),
        )
        forward = (np.roll(a, -1, 0) - a) / dx
        backward = (a - np.roll(a, 1, 0)) / dx
        coeff = 0.5 * (np.sum(forward**2, 1) + np.sum(backward**2, 1)) - np.sum(b * b, 1)
        acceleration = compact_second(a, dx) + coeff[:, None] * a
        prev, curr = a - dx * b + 0.5 * dx * dx * acceleration, a
        zero = np.zeros_like(a)
        sup = 0.0
        for m in range(1, steps + 1):
            curr, prev = leapfrog_step(prev, curr, zero, zero, dx, grid, flat, eta_rate=zero), curr
            sup = max(sup, np.max(np.abs(series[m] - curr)))
        route_sups.append(sup)
    route_orders = _orders(route_sups)

    # characteristic combinations vs centered differences of the levels
    char_errs = []
    for n in RESOLUTIONS:
        grid = Grid(n)
        x = grid.points()
        a = np.column_stack([np.sin(TWO_PI * x), np.cos(TWO_PI * x)])
        b = np.column_stack([0.3 * np.cos(TWO_PI * x), 0.1 * np.sin(2.0 * TWO_PI * x)])
        steps = n // 4
        tgrid = np.arange(steps + 1) * grid.dx
        f = 0.2 * np.einsum(
            "m,pj->mpj",
            np.cos(TWO_PI * tgrid),
            np.column_stack([np.sin(2.0 * TWO_PI * x), np.cos(2.0 * TWO_PI * x)]),
        )
        h = 0.1 * np.einsum(
            "m,pj->mpj",
            1.0 + tgrid,
            np.column_stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)]),
        )
        levels = wave_series(a, b, f, h, grid.dx, steps)
        chars = characteristic_derivatives(a, b, f, h, grid.dx, n_levels=steps)
        mid = steps // 2
        u_x = circ_diff(levels[mid], grid.dx)
        u_t = (levels[mid + 1] - levels[mid - 1]) / (2.0 * grid.dx)
        char_errs.append(
            max(m0(chars.u_plus[mid] - (u_x + u_t)), m0(chars.u_minus[mid] - (u_x - u_t)))
        )
    char_orders = _orders(char_errs)

    ok = min(route_orders) >= ORDER_MIN and min(char_orders) >= ORDER_MIN
    _verdict(
        capsys,
        ok,
        "wave route cross-validation",
        f"route sups {_fmt(route_sups)} orders {_fmt_orders(route_orders)}; "
        f"characteristic orders {_fmt_orders(char_orders)}",
    )
    assert min(route_orders) >= ORDER_MIN
    assert min(char_orders) >= ORDER_MIN


def test_08_window_iteration_contraction(capsys):
    start, manifold, grid = _prepared_start(128, "perturbed-circle", PERTURBATION)
    _, report = picard_coupled(start, manifold, grid, run_config(grid, 8))
    ratios_ok = report.converged and all(r < 1.0 for r in report.ratios)

    errs = []
    for n in RESOLUTIONS:
        st, manifold, g = _prepared_start(n, "perturbed-circle", PERTURBATION)
        steps = n // 16
        iterate, _ = picard_coupled(st, manifold, g, run_config(g, steps + 1))
        levels = list(march(st, manifold, g, run_config(g, steps)))
        errs.append(max(np.max(np.abs(levels[m].xi - iterate.xi[m])) for m in range(steps + 1)))
    orders = _orders(errs)

    ok = ratios_ok and min(orders) >= ORDER_MIN
    _verdict(
        capsys,
        ok,
        "window iteration contraction",
        f"ratios {_fmt(report.ratios[:3])}, march gap {_fmt(errs)} "
        f"orders {_fmt_orders(orders)}",
    )
    assert report.converged
    assert all(r < 1.0 for r in report.ratios)
    assert min(orders) >= ORDER_MIN


def test_09_multiplier_and_residual(capsys):
    start, manifold, grid = _prepared_start(256, "circle", {})
    rest = list(march(start, manifold, grid, run_config(grid, 2)))
    mu = reconstruct_mu(rest[0])
    mu_err = float(np.max(np.abs(mu - 4.0 * math.pi**2)))

    sups = []
    for n in RESOLUTIONS:
        st, manifold, g = _prepared_start(n, "perturbed-circle", PERTURBATION)
        marched = list(march(st, manifold, g, run_config(g, n // 8)))
        report = residual_base_single(marched, g.dx, manifold, g)
        sups.append(float(np.max(report.residual)))
    orders = _orders(sups)

    scaled = [dataclasses.replace(lv, xi=1.05 * lv.xi) for lv in rest]
    control = float(np.max(residual_base_single(scaled, grid.dx, manifold, grid).residual))

    ok = (
        mu_err <= 1e-2
        and min(orders) >= ORDER_MIN_RESIDUAL
        and control >= 1.0
        and control >= 10.0 * sups[-1]
    )
    _verdict(
        capsys,
        ok,
        "multiplier value and equation residual",
        f"|mu - 4 pi^2| {mu_err:.2e}, residual sups {_fmt(sups)} "
        f"orders {_fmt_orders(orders)}, scaled control {control:.1f}",
    )
    assert mu_err <= 1e-2
    assert min(orders) >= ORDER_MIN_RESIDUAL
    assert control >= 1.0
    assert control >= 10.0 * sups[-1]


def _commutator_residual(model, curve_of, probe_of, n):
    grid = Grid(n)
    x = grid.points()
    dt = grid.dx
    times = (-dt, 0.0, dt)
    curves = [curve_of(x, t) for t in times]
    samples = [sample_geometry(model, c) for c in curves]
    fields = [probe_of(x, t) for t in times]
    xis, etas = [], []
    for k, t in enumerate(times):
        tangent = circ_diff(curves[k], grid.dx)
        velocity = (curve_of(x, t + dt) - curve_of(x, t - dt)) / (2.0 * dt)
        xis.append(frame_components(samples[k], tangent))
        etas.append(frame_components(samples[k], velocity))
    dx_levels = [cov_dx(fields[k], xis[k], samples[k], grid.dx) for k in range(3)]
    dt_dx = (dx_levels[2] - dx_levels[0]) / (2.0 * dt) + apply_chris(
        samples[1].conn, etas[1], dx_levels[1]
    )
    dt_p = (fields[2] - fields[0]) / (2.0 * dt) + apply_chris(
        samples[1].conn, etas[1], fields[1]
    )
    dx_dt = cov_dx(dt_p, xis[1], samples[1], grid.dx)
    return m0(dt_dx - dx_dt - apply_curv(samples[1].curv, etas[1], xis[1], fields[1]))


def test_10_commutator_curvature_convention(capsys):
    def probe(x, t):
        return np.column_stack(
            [np.cos(TWO_PI * x + 0.5 * t), np.sin(2.0 * TWO_PI * x - 0.3 * t)]
        )

    def hyperbolic_curve(x, t):
        return np.column_stack(
            [0.3 * np.sin(TWO_PI * x) + 0.1 * t, 1.0 + 0.2 * np.cos(TWO_PI * x) + 0.05 * t]
        )

    def sphere_curve(x, t):
        return np.column_stack(
            [0.4 * np.cos(TWO_PI * x) + 0.05 * t, 0.4 * np.sin(TWO_PI * x) - 0.03 * t]
        )

    hyp = [
        _commutator_residual(HyperbolicHalfPlaneModel(), hyperbolic_curve, probe, n)
        for n in (32, 64, 128)
    ]
    sph = [
        _commutator_residual(SphereChartModel(2), sphere_curve, probe, n)
        for n in (32, 64, 128)
    ]
    hyp_orders = _orders(hyp)
    sph_orders = _orders(sph)
    ok = min(hyp_orders) >= ORDER_MIN_RESIDUAL and min(sph_orders) >= ORDER_MIN_RESIDUAL
    _verdict(
        capsys,
        ok,
        "commutator curvature convention",
        f"half-plane orders {_fmt_orders(hyp_orders)}, sphere orders {_fmt_orders(sph_orders)}",
    )
    assert min(hyp_orders) >= ORDER_MIN_RESIDUAL
    assert min(sph_orders) >= ORDER_MIN_RESIDUAL


def test_11_structural_identities_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(2)
    grid, samples, xi = _hyperbolic_setup(64)
    p = rng.standard_normal((64, 2))
    q = rng.standard_normal((64, 2))
    plain = abs(
        l2_inner(circ_diff(p, grid.dx), q, grid.dx)
        + l2_inner(p, circ_diff(q, grid.dx), grid.dx)
    )
    curved = abs(
        l2_inner(cov_dx(p, xi, samples, grid.dx), q, grid.dx)
        + l2_inner(p, cov_dx(q, xi, samples, grid.dx), grid.dx)
    )

    x = grid.points()
    sphere_loop = 0.4 * np.column_stack([np.cos(TWO_PI * x), np.sin(TWO_PI * x)])
    antisymmetry = max(
        float(np.max(np.abs(c + c.swapaxes(-1, -2))))
        for s in (samples, sample_geometry(SphereChartModel(2), sphere_loop))
        for c in [dense_chris(s, xi.shape)]
    )

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "grid": {"n": 32},
                "time": {"horizon": 0.25},
                "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
            }
        )
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b), "--quiet"]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in (
            "diagnostics.csv",
            "metadata.json",
            "snapshot_000000.json",
            "snapshot_000008.json",
        )
    )

    ok = plain <= 1e-12 and curved <= 1e-12 and antisymmetry <= 1e-12 and identical
    _verdict(
        capsys,
        ok,
        "structural identities and determinism",
        f"summation by parts {max(plain, curved):.2e}, connection antisymmetry "
        f"{antisymmetry:.2e}, reruns identical {identical}",
    )
    assert plain <= 1e-12
    assert curved <= 1e-12
    assert antisymmetry <= 1e-12
    assert identical
