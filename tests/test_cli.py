"""Tests for the command line driver: exit codes, output files, determinism."""

import dataclasses
import errno
import gc
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from elliptic_oracle import FOURIER_TOL

import elwire
from elwire.cli import CSV_COLUMNS, main, run, write_json
from elwire.config import RunConfig

REST_CONFIG = {
    "grid": {"n": 16},
    "time": {"horizon": 0.25},
    "initial": {"name": "circle"},
}


def config_file(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [line.split(",") for line in rows]


def test_check_reports_config(tmp_path, capsys):
    path = config_file(tmp_path, REST_CONFIG)
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("config ok:")
    assert "mode=march" in out
    assert "manifold=euclidean" in out
    assert "n=16" in out


def test_check_quiet_prints_nothing(tmp_path, capsys):
    path = config_file(tmp_path, REST_CONFIG)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_config_file(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_invalid_config_lists_each_problem(tmp_path, capsys):
    path = config_file(tmp_path, {"grid": {"n": 4}, "time": {"horizon": -1.0}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
    assert all(l.startswith("config error:") for l in err_lines)
    assert any("grid.n" in l for l in err_lines)
    assert any("time.horizon" in l for l in err_lines)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"grid": None}, "grid: must be an object"),
        (
            {"initial": {"velocity": {"name": "rotate", "omega": 1, "centre": [0.5, 0.5]}}},
            "initial.velocity.centre: unknown field; velocity 'rotate' takes omega, center",
        ),
    ],
    ids=["null-section", "misspelt-velocity-key"],
)
def test_config_problem_is_one_line_and_exit_2(tmp_path, capsys, data, problem):
    # a null section used to end in an AttributeError traceback, and the
    # misspelt centre to turn the curve about the origin
    path = config_file(tmp_path, data)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert not (tmp_path / "out").exists()


def test_a_directly_built_config_runs_on_its_own_grid(tmp_path, capsys):
    # dt follows grid_n, so the step is characteristic and the transport
    # check runs; a dt left at the default grid's 1/64 made the check raise
    out = tmp_path / "out"
    assert run(RunConfig(grid_n=32, horizon=0.1, out_dir=str(out))) == 0
    header, rows = read_csv(out / "diagnostics.csv")
    residuals = [row[header.split(",").index("transport_residual")] for row in rows]
    assert len(rows) == 4 and residuals[:2] == ["", ""]
    assert all(float(r) < 1e-8 for r in residuals[2:])
    assert f"-> {out}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "settings, problem",
    [
        ({"initial_name": "hyperbolic-circle"}, "initial.name: 'hyperbolic-circle' runs on"),
        (
            {"initial_params": {"centre": [1, 0], "velocity": {"name": "none"}}},
            "initial.centre: unknown field; curve 'circle' takes center, velocity",
        ),
        (
            {"manifold_name": "sphere", "dim": 1, "initial_name": "sphere-loop"},
            "manifold.dim: curve 'sphere-loop' needs two dimensions, got 1",
        ),
        (
            {"manifold_name": "hyperbolic", "dim": 3, "initial_name": "hyperbolic-circle"},
            "manifold.dim: hyperbolic model is two-dimensional, got 3",
        ),
        ({"conformal_expression": "x"}, "manifold.expression: unknown field; chart 'euclidean'"),
    ],
    ids=[
        "curve-off-its-chart",
        "misspelt-centre",
        "planar-curve-in-1d",
        "hyperbolic-3d",
        "stray-expression",
    ],
)
def test_a_directly_built_config_is_held_to_the_catalogue_rules(tmp_path, settings, problem):
    # a RunConfig built in code skips parse_config; its run refuses the same
    # settings before any level is computed or any output written
    out = tmp_path / "out"
    cfg = RunConfig(grid_n=16, horizon=0.125, out_dir=str(out), **settings)
    with pytest.raises(ValueError, match=re.escape(problem)):
        run(cfg)
    assert list(out.iterdir()) == []


def test_march_outputs(tmp_path, capsys):
    path = config_file(tmp_path, REST_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "marched 4 steps" in capsys.readouterr().out

    header, rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 5
    transport_col = CSV_COLUMNS.index("transport_residual")
    for level, row in enumerate(rows):
        assert len(row) == len(CSV_COLUMNS)
        assert float(row[0]) == level / 16
        for i, cell in enumerate(row):
            if i == transport_col and level < 2:
                assert cell == ""
            else:
                assert cell == repr(float(cell))

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "march"
    assert meta["status"] == "completed"
    assert meta["n_steps"] == 4
    assert meta["effective_horizon"] == 0.25
    assert meta["summary"]["levels_recorded"] == 5
    assert meta["summary"]["max_displacement"] < 1e-10
    assert meta["summary"]["max_relative_energy_drift"] < 1e-10
    assert meta["prepared"]["projection_magnitude"] < 1e-12
    assert meta["config"]["grid_n"] == 16

    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    assert snapshots == ["snapshot_000000.json", "snapshot_000004.json"]
    payload = json.loads((out / "snapshot_000004.json").read_text())
    assert set(payload) == {"time", "gamma", "xi", "xi_t", "eta", "theta"}
    assert np.asarray(payload["gamma"]).shape == (16, 2)
    assert payload["time"] == 0.25


def put_nan(monkeypatch, at_level, field):
    """Make the march of the CLI yield level ``at_level`` with a NaN at grid
    index 5 of its ``field``."""
    real_march = elwire.cli.march

    def march_with_nan(*args, **kwargs):
        for index, level in enumerate(real_march(*args, **kwargs)):
            if index == at_level:
                values = getattr(level, field).copy()
                values[5, 0] = np.nan
                level = dataclasses.replace(level, **{field: values})
            yield level

    monkeypatch.setattr("elwire.cli.march", march_with_nan)


def test_non_finite_snapshot_aborts_with_report(tmp_path, monkeypatch, capsys):
    # JSON has no NaN: a non-finite value due in a snapshot is a numerical
    # abort, the snapshot is not written and the level is not recorded, so
    # the last good row is level 2's
    put_nan(monkeypatch, 3, "theta")
    data = dict(REST_CONFIG, output={"snapshot_every": 3})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    reason = "snapshot field theta is not finite at grid index 5"
    assert capsys.readouterr().err == f"aborted: NumericalAbort: {reason}\n"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["reason"] == reason
    assert meta["failure"]["last_good"]["time"] == 2 / 16
    _header, rows = read_csv(out / "diagnostics.csv")
    assert [float(row[0]) for row in rows] == [0.0, 1 / 16, 2 / 16]
    assert "NaN" not in (out / "metadata.json").read_text()
    assert sorted(p.name for p in out.glob("snapshot_*.json")) == ["snapshot_000000.json"]


def test_non_finite_diagnostics_row_aborts_with_report(tmp_path, monkeypatch, capsys):
    # level 2 takes no snapshot; its NaN velocity makes its energy NaN, which
    # the summary's maxima would drop, so the row is refused and the last
    # good row is level 1's
    put_nan(monkeypatch, 2, "eta")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, REST_CONFIG)), "--out", str(out)]) == 3
    reason = "diagnostics column energy is not finite at t=0.125000"
    assert capsys.readouterr().err == f"aborted: NumericalAbort: {reason}\n"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["reason"] == reason
    assert meta["failure"]["last_good"]["time"] == 1 / 16
    assert meta["summary"]["levels_recorded"] == 2
    _header, rows = read_csv(out / "diagnostics.csv")
    assert [float(row[0]) for row in rows] == [0.0, 1 / 16]
    assert "NaN" not in (out / "metadata.json").read_text()


def test_march_snapshot_cadence(tmp_path):
    data = dict(REST_CONFIG)
    data["output"] = {"snapshot_every": 2}
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    assert snapshots == [
        "snapshot_000000.json",
        "snapshot_000002.json",
        "snapshot_000004.json",
    ]


def test_quiet_run_prints_nothing(tmp_path, capsys):
    path = config_file(tmp_path, REST_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_geodesic_start_aborts(tmp_path, capsys):
    data = {
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic", "direction": [1, 0]},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: NearGeodesicError" in capsys.readouterr().err

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "NearGeodesicError"
    assert "last_good" not in meta["failure"]
    header, rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert rows == []


def test_constraint_gate_abort_keeps_last_good(tmp_path, capsys):
    data = {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 1.0},
        "initial": {"name": "hyperbolic-circle"},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: ConstraintDriftError" in capsys.readouterr().err

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failure"]["type"] == "ConstraintDriftError"
    last_good = meta["failure"]["last_good"]
    assert set(last_good) == set(CSV_COLUMNS)
    _header, rows = read_csv(out / "diagnostics.csv")
    assert len(rows) >= 1
    assert float(rows[-1][0]) == last_good["time"]
    # what was known before the abort is kept: the initial projection and
    # the displacement of the levels marched
    assert meta["prepared"]["projection_magnitude"] >= 0.0
    assert 0.0 < meta["summary"]["max_displacement"] < 1.0


def test_leapfrog_without_a_real_next_level_aborts_with_last_good(tmp_path, monkeypatch, capsys):
    # the third step's previous tangent is replaced by xi - 3 xi, for which
    # the step's quadratic in the speed coefficient has no real root; the
    # march aborts after the two levels whose steps held
    import elwire.dynamics

    real, calls = elwire.dynamics.leapfrog_step, []

    def broken(xi_prev, xi_curr, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            xi_prev = xi_curr - 3.0 * xi_curr
        return real(xi_prev, xi_curr, *args, **kwargs)

    monkeypatch.setattr(elwire.dynamics, "leapfrog_step", broken)
    data = {
        "grid": {"n": 32},
        "time": {"horizon": 0.25},
        "initial": {"name": "circle", "velocity": {"name": "rotate", "omega": 0.5}},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "aborted: NumericalSolveError: leapfrog step has no real next level: discriminant" in err

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "NumericalSolveError"
    _header, rows = read_csv(out / "diagnostics.csv")
    assert [float(row[0]) for row in rows] == [0.0, 1 / 32]
    last_good = meta["failure"]["last_good"]
    assert last_good["time"] == 1 / 32
    cells = ["" if last_good[name] is None else repr(last_good[name]) for name in CSV_COLUMNS]
    assert rows[-1] == cells


@pytest.mark.parametrize(
    "curve, failure",
    [
        # a cusp: the speed vanishes where cos(4 pi u) = -amplitude
        ({"mode": 2, "amplitude": 1}, "DegenerateCurveError"),
        ({"mode": 2, "amplitude": -1}, "DegenerateCurveError"),
        # forty lobes on 64 samples: the arc length cannot be inverted
        ({"mode": 40, "amplitude": 0.5}, "DegenerateCurveError"),
    ],
)
def test_degenerate_perturbed_circle_aborts_with_report(tmp_path, capsys, curve, failure):
    data = {
        "grid": {"n": 64},
        "time": {"horizon": 0.25},
        "initial": {"name": "perturbed-circle", **curve},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert f"aborted: {failure}" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert (meta["status"], meta["failure"]["type"]) == ("aborted", failure)
    # refused before any step: no row, and so no last good one
    assert "last_good" not in meta["failure"]
    assert read_csv(out / "diagnostics.csv")[1] == []
    cusp = {1: "cusp at u = 0.250000", -1: "cusp at u = 0.000000"}.get(curve["amplitude"])
    reason = cusp or "arc length not inverted"
    assert meta["failure"]["reason"].startswith(f"perturbed-circle: {reason}")


@pytest.mark.parametrize(
    "constraint, reason, times",
    [
        # the bootstrap leaves the first step's tangent 6e-2 off unit length
        (None, "unit-tangent defect 0.0595740974219211 exceeds tolerance 0.01 at t=0.062500", [0.0]),
        # past a loose gate, the tension solve's own guard refuses the next level
        (0.9, "unit-tangent defect 0.11914819484384198 exceeds 0.1; refusing tension solve", [0.0, 1 / 16]),
    ],
    ids=["default-gate", "loose-gate"],
)
def test_coarse_bent_wire_steps_until_a_constraint_gate_refuses(tmp_path, capsys, constraint, reason, times):
    # sixteen samples of a mode-3 wire: every step has its exact next level,
    # and the run ends on the unit-tangent gates, not in the leapfrog
    data = {
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "perturbed-circle", "amplitude": 0.2, "mode": 3},
    }
    if constraint is not None:
        data["tolerances"] = {"constraint": constraint, "bentness_floor": 1e-6}
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    assert f"aborted: ConstraintDriftError: {reason}\n" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert (meta["failure"]["type"], meta["failure"]["reason"]) == ("ConstraintDriftError", reason)
    _header, rows = read_csv(out / "diagnostics.csv")
    assert [float(row[0]) for row in rows] == times
    assert meta["failure"]["last_good"]["time"] == times[-1]


def test_solver_drift_guard_aborts_with_report(tmp_path, capsys):
    # a loose constraint gate lets the tangent drift until the tension solve
    # itself refuses; that is a numerical abort, not a config error.  On the
    # half-plane the defect grows over the leapfrog's exact steps and passes
    # 0.1 near t = 0.53
    data = {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 1.0},
        "initial": {"name": "hyperbolic-circle"},
        "tolerances": {"constraint": 0.9, "bentness_floor": 1e-6},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "aborted: ConstraintDriftError" in err
    defect = re.search(r"unit-tangent defect (\S+) exceeds 0\.1; refusing tension solve\n", err)
    assert defect and float(defect[1]) > 0.1 and repr(float(defect[1])) == defect[1]
    assert "config error" not in err

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "ConstraintDriftError"
    _header, rows = read_csv(out / "diagnostics.csv")
    assert len(rows) >= 1
    assert float(rows[-1][0]) == meta["failure"]["last_good"]["time"]


def test_non_finite_geometry_aborts_as_a_chart_error(tmp_path, capsys):
    # check cannot tell that this factor is complex everywhere on the curve
    data = dict(REST_CONFIG, manifold={"name": "conformal", "expression": "sqrt(-1 - x**2)"})
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: ChartDomainError" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "ChartDomainError"
    assert "not finite at grid index 0" in meta["failure"]["reason"]
    header, rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert rows == []


def test_chart_exit_at_the_half_step_names_the_point(tmp_path, capsys):
    # the half-step curve of the first step leaves the half-plane; it is
    # sampled, and so checked, before the curve update evaluates its frame
    data = {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 1},
        "initial": {
            "name": "hyperbolic-circle",
            "center": [0, 0.1],
            "velocity": {"name": "translate", "vector": [0, -10]},
        },
        "tolerances": {"constraint": 0.9, "bentness_floor": 1e-9},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: ChartDomainError" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failure"]["type"] == "ChartDomainError"
    reason = meta["failure"]["reason"]
    assert "curve left the chart" in reason
    coords = reason.rsplit("coordinates", 1)[1].strip(" []").split()
    assert len(coords) == 2 and all(np.isfinite(float(c)) for c in coords)
    assert "nan" not in reason


def test_window_chart_exit_names_the_point(tmp_path, capsys):
    # the window's curve update samples each curve, half steps included,
    # before it evaluates its frame, so a window whose half-step curve
    # leaves the half-plane aborts as a chart error naming a finite point
    data = {
        "mode": "picard",
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "picard": {"window": 8},
        "initial": {
            "name": "hyperbolic-circle",
            "center": [0, 0.1],
            "velocity": {"name": "translate", "vector": [0, -10]},
        },
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: ChartDomainError" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failure"]["type"] == "ChartDomainError"
    reason = meta["failure"]["reason"]
    assert "curve left the chart" in reason
    coords = reason.rsplit("coordinates", 1)[1].strip(" []").split()
    assert len(coords) == 2 and all(np.isfinite(float(c)) for c in coords)


def test_bad_generator_parameters_exit_code(tmp_path, capsys):
    data = {
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic", "direction": [1, 1]},
    }
    path = config_file(tmp_path, data)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "direction" in err


#: a circle rotating rigidly at n = 16: its window moves, so its sweeps
#: contract over several iterations (a resting circle's window is its start)
ROTATING_CONFIG = dict(
    REST_CONFIG,
    initial={"name": "circle", "velocity": {"name": "rotate", "omega": 1}},
    mode="picard",
    picard={"window": 8},
)


def test_picard_run_outputs(tmp_path, capsys):
    path = config_file(tmp_path, ROTATING_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "picard window of 8 steps converged in 11 sweeps" in capsys.readouterr().out

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "picard"
    assert meta["window_steps"] == 8
    assert meta["status"] == "completed"
    assert meta["prepared"]["projection_magnitude"] < 1e-12
    assert meta["contraction"]["converged"] is True
    assert len(meta["contraction"]["ratios"]) == 10
    header, rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 9
    drift = CSV_COLUMNS.index("constraint_drift")
    assert max(float(row[drift]) for row in rows) <= 1e-15
    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    assert snapshots == ["snapshot_000000.json", "snapshot_000008.json"]


def test_picard_window_longer_than_the_grid_holds_the_resting_circle(tmp_path):
    # the periodic representation holds for any window length: at n=8 a
    # window of 12 steps, one and a half periods, keeps the circle at rest,
    # so the first sweep returns the start iterate to rounding
    data = {
        "grid": {"n": 8},
        "mode": "picard",
        "picard": {"window": 12},
        "output": {"snapshot_every": 1},
    }
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    contraction = meta["contraction"]
    assert contraction["converged"] is True and contraction["iterations"] == 1
    assert contraction["distances"][0] < 1e-13
    first, *later = (
        json.loads((out / f"snapshot_{m:06d}.json").read_text()) for m in range(13)
    )
    assert len(later) == 12
    for level in later:
        assert level["gamma"] == first["gamma"]
        for key in ("xi", "eta"):
            assert np.max(np.abs(np.subtract(level[key], first[key]))) <= 2.6e-15


def test_picard_abort_keeps_the_sweep_record(tmp_path):
    # a bent wire rotating fast at n=16: the coupled sweeps stop contracting,
    # and the abort keeps the distances and ratios of every sweep
    data = {
        "grid": {"n": 16},
        "mode": "picard",
        "picard": {"window": 12},
        "initial": {
            "name": "perturbed-circle",
            "mode": 3,
            "amplitude": 0.05,
            "velocity": {"name": "rotate", "omega": 2},
        },
    }
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failure"]["type"] == "NonContractionError"
    contraction = meta["contraction"]
    # the reason prints the recorded ratios in full
    assert meta["failure"]["reason"] == (
        f"coupled picard iteration stopped contracting: last ratios {contraction['ratios'][-3:]}"
    )
    assert contraction["converged"] is False and contraction["iterations"] == 4
    assert len(contraction["distances"]) == len(contraction["ratios"]) + 1 == 4
    assert [f"{r:.3f}" for r in contraction["ratios"]] == ["2.093", "1.241", "1.149"]
    assert set(contraction) == {"distances", "ratios", "converged", "iterations"}


def test_unconverged_picard_run_aborts_with_its_sweeps(tmp_path, capsys):
    # two sweeps end far above picard.tol: the run is a numerical abort, not
    # a completed run of the unconverged iterate
    data = {
        "mode": "picard",
        "grid": {"n": 128},
        "picard": {"window": 32, "max_iter": 2},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    assert "aborted: NonContractionError" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "NonContractionError"
    contraction = meta["contraction"]
    assert meta["failure"]["reason"] == (
        f"coupled picard iteration did not converge: distance {contraction['distances'][-1]!r} "
        f"after 2 sweeps, tolerance {RunConfig().picard_tol!r}"
    )
    assert contraction["iterations"] == 2
    assert contraction["converged"] is False
    assert "inner" not in contraction
    assert not list(out.glob("snapshot_*.json"))


def test_picard_run_solves_level_zero_bentness_once(tmp_path, monkeypatch):
    # level 0 of the window is the fixed initial state: its bentness is in
    # force in every sweep's tension solves and is the first level's value in
    # the output; each later level passes dynamics._gate, which solves a fresh
    # value every bentness_every levels, the last level included.
    # A sweep solves the tension twice, each time on the whole window series.
    # Each window curve is sampled once, as it is built: prepare_initial
    # samples the initial curve, whose samples serve the start iterate and
    # level 0 of every sweep's new curve, and each sweep samples the later
    # levels of its new curve and, on a curved chart, the half-step curves
    # between them, as the march does.
    import elwire.elliptic
    from elwire.geometry import sample_geometry

    calls = {"bentness": 0, "solve_flux_form": 0, "sample_geometry": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("bentness", "solve_flux_form"):
        monkeypatch.setattr(elwire.elliptic, name, counted(name, getattr(elwire.elliptic, name)))
    for name, module in list(sys.modules.items()):
        if name.startswith("elwire") and hasattr(module, "sample_geometry"):
            monkeypatch.setattr(module, "sample_geometry", counted("sample_geometry", sample_geometry))
    every = 2
    rotate = {"name": "rotate", "omega": 1}
    cases = [
        ({"name": "euclidean"}, {"name": "circle", "velocity": rotate}, 16, 8, 1),
        ({"name": "sphere"}, {"name": "sphere-loop", "velocity": rotate}, 32, 8, 2),
    ]
    for index, (manifold, initial, n, window, per_step) in enumerate(cases):
        calls.update(dict.fromkeys(calls, 0))
        data = dict(
            ROTATING_CONFIG,
            manifold=manifold,
            initial=initial,
            grid={"n": n},
            picard={"window": window},
            diagnostics={"bentness_every": every},
        )
        out = tmp_path / f"out{index}"
        path = config_file(tmp_path, data, name=f"config{index}.json")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        sweeps = json.loads((out / "metadata.json").read_text())["contraction"]["iterations"]
        assert sweeps > 1
        assert calls["bentness"] == 1 + window // every
        assert calls["solve_flux_form"] == 2 * sweeps
        assert calls["sample_geometry"] == 1 + per_step * window * sweeps


def test_study_outputs(tmp_path, capsys):
    data = {
        "mode": "convergence-study",
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
        "tolerances": {"constraint": 0.5},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "observed orders" in capsys.readouterr().out

    study = json.loads((out / "study.json").read_text())
    assert study["status"] == "completed"
    assert study["resolutions"] == [16, 32, 64]
    values = study["energy_drift"]["values"]
    assert values[0] > values[1] > values[2] > 0
    for order in study["energy_drift"]["orders"]:
        assert order is not None
        assert order > 1.0
    for n in study["resolutions"]:
        sub = json.loads((out / f"n{n:04d}" / "metadata.json").read_text())
        assert sub["status"] == "completed"
        assert sub["config"]["grid_n"] == n


def test_rerun_is_byte_identical(tmp_path):
    data = {
        "grid": {"n": 32},
        "time": {"horizon": 0.25},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
    }
    path = config_file(tmp_path, data)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b), "--quiet"]) == 0
    for name in ("diagnostics.csv", "metadata.json", "snapshot_000000.json", "snapshot_000008.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def run_in_subprocess(code, **env):
    """Run Python ``code`` in a fresh interpreter that imports elwire from
    this tree; return its standard output."""
    src = str(Path(elwire.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_path_modules(tmp_path, data):
    """Exit code of a quiet ``elwire run`` of ``data`` in a fresh interpreter,
    and which of scipy, numpy.fft, numpy.polynomial and orjson (each with its
    submodules) are loaded after ``import elwire.cli`` and after the run."""
    path = config_file(tmp_path, data)
    code = f"""
import json, sys
roots = ("scipy", "numpy.fft", "numpy.polynomial", "orjson")
def loaded():
    return [r for r in roots if any(m == r or m.startswith(r + ".") for m in sys.modules)]
import elwire.cli
stages = [loaded()]
exit_code = elwire.cli.main(["run", "--config", {str(path)!r}, "--out", {str(tmp_path / "out")!r}, "--quiet"])
stages.append(loaded())
print(json.dumps({{"exit": exit_code, "loaded": stages}}))
"""
    return json.loads(run_in_subprocess(code).splitlines()[-1])


def test_run_path_loads_no_scipy(tmp_path):
    # importing scipy.linalg once cost more start-up time than a short run,
    # and numpy.polynomial costs about as much as placing a perturbed
    # circle's samples; numpy.fft (a flat chart's bentness sum) is loaded by
    # a flat run's first bentness, and orjson (the snapshot number encoder)
    # by the first snapshot, neither by the import of the CLI
    data = {"grid": {"n": 16}, "time": {"horizon": 2 / 16}, "initial": {"name": "perturbed-circle"}}
    report = run_path_modules(tmp_path, data)
    assert report == {"exit": 0, "loaded": [[], ["numpy.fft", "orjson"]]}
    out = tmp_path / "out"
    assert len(read_csv(out / "diagnostics.csv")[1]) == 3
    assert sorted(p.name for p in out.glob("snapshot_*.json")) == [
        "snapshot_000000.json",
        "snapshot_000002.json",
    ]


def test_curved_run_path_loads_no_fft(tmp_path):
    # a curved chart's bentness is a block reduction, so its run loads no numpy.fft
    data = {
        "manifold": {"name": "sphere"},
        "grid": {"n": 16},
        "time": {"horizon": 2 / 16},
        "initial": {"name": "sphere-loop"},
    }
    assert run_path_modules(tmp_path, data) == {"exit": 0, "loaded": [[], ["orjson"]]}


def component_reductions(source: str) -> list[str]:
    """The component-axis reductions in Python source: a sum, any or all
    with axis -1 (keyword or positional) and an einsum of two operands with
    the same subscripts whose output drops their last index, such as
    ``"pi,pi->p"``; reductions over other axes, and einsums that keep the
    last index or drop another (``"pij,pj->pi"``), are not counted."""
    import ast

    def minus_one(node):
        return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and (
            isinstance(node.operand, ast.Constant) and node.operand.value == 1
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("sum", "any", "all"):
            # np.sum(x, axis) has the axis second, x.sum(axis) first
            method = isinstance(node.func, ast.Attribute) and getattr(
                node.func.value, "id", None
            ) not in ("np", "numpy")
            axes = [k.value for k in node.keywords if k.arg == "axis"]
            axes += node.args[:1] if method else node.args[1:2]
            if any(minus_one(axis) for axis in axes):
                found.append(ast.unparse(node))
        elif name == "einsum" and node.args and isinstance(node.args[0], ast.Constant):
            inputs, _, output = str(node.args[0].value).replace(" ", "").partition("->")
            operands = inputs.split(",")
            if len(set(operands)) == 1 and output == operands[0][:-1]:
                found.append(ast.unparse(node))
    return found


def test_run_path_has_no_component_axis_reduction():
    # a numpy reduction over a length-2 or 3 component axis costs about
    # 25 ns per row; every pointwise inner product is geometry.dot instead
    caught = component_reductions(
        "np.sum(p * q, axis=-1)\n"
        "np.sum(v * xi, axis=-1, keepdims=True)\n"
        "np.all(np.isfinite(c), axis=-1)\n"
        "np.isfinite(c).all(axis=-1)\n"
        "x.sum(-1)\n"
        "np.any(x, -1)\n"
        'np.einsum("pi,pi->p", a, b)\n'
        'np.einsum("...i,...i->...", a, b)\n'
    )
    assert len(caught) == 8
    allowed = (
        "np.max(np.abs(drift), axis=-1)\n"
        "np.sum(p * q)\n"
        "np.isfinite(x).all()\n"
        "x.all(1)\n"
        "np.sum(x, axis=0)\n"
        'np.einsum("pij,pj->pi", p, w)\n'
    )
    assert component_reductions(allowed) == []
    source = Path(elwire.__file__).parent
    found = {
        path.name: hits
        for path in sorted(source.glob("*.py"))
        if (hits := component_reductions(path.read_text()))
    }
    assert found == {}


def bentness_uses(source: str) -> list[str]:
    """The innermost function around each use of ``bentness`` in Python
    source, "<module>" outside any: a bare name, an ``elliptic.bentness``
    attribute or an import of it; a field such as ``level.bentness``, its
    declaration ``bentness: float`` and ``def bentness`` are not uses."""
    import ast

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id == "bentness" and isinstance(node.ctx, ast.Load):
            found.append(where)
        elif isinstance(node, ast.Attribute) and node.attr == "bentness":
            if isinstance(node.value, ast.Name) and node.value.id == "elliptic":
                found.append(where)
        elif isinstance(node, ast.ImportFrom):
            found.extend(where for alias in node.names if alias.name == "bentness")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_bentness_is_solved_only_by_the_run_gate():
    # dynamics._gate holds the one bentness cadence of both modes; the CLI
    # only consumes gated levels and imports nothing from elliptic
    import ast

    assert bentness_uses(
        "from .elliptic import bentness\n"
        "def f(level):\n"
        "    return elliptic.bentness(level.xi) + bentness(level.xi) + level.bentness\n"
        "def bentness(xi):\n"
        "    return 1.0\n"
        "class Record:\n"
        "    bentness: float\n"
    ) == ["<module>", "f", "f"]
    source = Path(elwire.__file__).parent
    found = {
        path.name: uses
        for path in sorted(source.glob("*.py"))
        if (uses := bentness_uses(path.read_text()))
    }
    assert found == {"dynamics.py": ["_gate"]}

    imported = []
    for node in ast.walk(ast.parse((source / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "elliptic" in name]


def test_conformal_charts_load_no_sympy(tmp_path):
    # the conformal factor is checked and differentiated by one walk of its
    # syntax tree; no symbolic algebra package is imported for it
    manifold = {"name": "conformal", "expression": "0.1*x*y + sin(x)**2"}
    path = config_file(tmp_path, {"manifold": manifold})
    code = f"""
import json, sys
import elwire.cli
from elwire.geometry import make_manifold
make_manifold("conformal", 3, expression="exp(z) / (1 + x**2) - log(2 + y**2)")
exit_code = elwire.cli.main(["check", "--config", {str(path)!r}, "--quiet"])
print(json.dumps({{"exit": exit_code, "sympy": "sympy" in sys.modules}}))
"""
    assert json.loads(run_in_subprocess(code).splitlines()[-1]) == {"exit": 0, "sympy": False}


BLAS_THREAD_CONFIGS = {
    # N = 256: three reduction levels of the elliptic solve before its dense solve
    "flat": {
        "grid": {"n": 256},
        "time": {"horizon": 3 / 256},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
        "output": {"snapshot_every": 1},
    },
    "sphere": {
        "manifold": {"name": "sphere"},
        "grid": {"n": 64},
        "time": {"horizon": 4 / 64},
        "initial": {"name": "sphere-loop"},
        "output": {"snapshot_every": 2},
    },
}


@pytest.mark.parametrize("name", sorted(BLAS_THREAD_CONFIGS))
def test_outputs_do_not_depend_on_blas_threads(tmp_path, name):
    path = config_file(tmp_path, BLAS_THREAD_CONFIGS[name])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        code = (
            "import sys, elwire.cli; "
            f"sys.exit(elwire.cli.main(['run', '--config', {str(path)!r}, "
            f"'--out', {str(out)!r}, '--quiet']))"
        )
        run_in_subprocess(code, OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "diagnostics.csv" in outputs["1"]
    assert sum(name.startswith("snapshot_") for name in outputs["1"]) >= 3
    assert outputs["1"] == outputs["2"]


def test_outputs_match_their_digests():
    # every output byte, exit code and stderr line of a fixed set of small
    # runs (tests/output_digests.py, which also rewrites the digests)
    script = Path(__file__).with_name("output_digests.py")
    code = f"import runpy; runpy.run_path({str(script)!r}, run_name='__main__')"
    got = json.loads(run_in_subprocess(code, OPENBLAS_NUM_THREADS="1"))
    want = json.loads(script.with_suffix(".json").read_text())
    changed = []
    for name in sorted(set(want["runs"]) | set(got["runs"])):
        old, new = want["runs"].get(name, {}), got["runs"].get(name, {})
        changed += [f"{name}: {key}" for key in ("exit", "stderr") if old.get(key) != new.get(key)]
        old_files, new_files = old.get("files", {}), new.get("files", {})
        changed += [
            f"{name}/{file}"
            for file in sorted(set(old_files) | set(new_files))
            if old_files.get(file) != new_files.get(file)
        ]
    assert not changed, (
        f"outputs differ from their digests (made with numpy {want['numpy']}, "
        f"running numpy {got['numpy']}): {', '.join(changed)}"
    )


def test_digest_compare_names_what_changed_shape():
    # a file whose shape moved is described by what it gained or lost, and
    # the values both versions hold are still compared
    from output_digests import _difference

    old_csv = "time,energy\n0.0,1.5\n0.25,1.5\n0.5,1.5\n"
    new_csv = "time,energy,mu\n0.0,1.5,0\n0.25,1.75,0\n"
    assert _difference(old_csv, new_csv, ".csv") == "rows 3 → 2; added column mu; 0.25 at energy (row 1)"
    old_json = json.dumps({"status": "completed", "summary": {"max": 1.0}, "ratios": [0.5, 0.25]})
    new_json = json.dumps({
        "status": "aborted", "summary": {"max": 2.0}, "ratios": [0.5], "failure": {"type": "X"},
    })
    assert _difference(old_json, new_json, ".json") == (
        "added failure; ratios length 2 → 1; 1 at summary.max; status: 'completed' -> 'aborted'"
    )
    assert _difference(old_json, old_json.replace("1.0", "1.00"), ".json") == "bytes differ, values equal"


def test_out_flag_overrides_config_directory(tmp_path):
    data = dict(REST_CONFIG)
    data["output"] = {"directory": str(tmp_path / "from_config")}
    path = config_file(tmp_path, data)
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "from_config" / "metadata.json").exists()

    override = tmp_path / "override"
    assert main(["run", "--config", str(path), "--out", str(override), "--quiet"]) == 0
    assert (override / "metadata.json").exists()
    assert not (override / "from_config").exists()


def test_study_abort_records_resolution(tmp_path, capsys):
    data = {
        "mode": "convergence-study",
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic", "direction": [1, 0]},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    study = json.loads((out / "study.json").read_text())
    assert study["status"] == "aborted"
    assert study["resolution"] == 16


def strict_json(path):
    """The JSON document in ``path``, refusing the NaN and infinity tokens
    that strict JSON parsers reject."""

    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("mode", ["march", "convergence-study"], ids=["run", "study"])
def test_zero_energy_run_writes_strict_json(tmp_path, capsys, mode):
    # a straight geodesic at rest has no energy and so no relative energy
    # drift: the summaries hold null there, not a bare NaN, and the printed
    # lines and the study's orders show it as "-".  Its bentness is exactly
    # 0 on the flat torus, which only a floor of 0 admits
    data = {
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic"},
        "tolerances": {"bentness_floor": 0},
        "mode": mode,
    }
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 0
    assert "energy drift -," in capsys.readouterr().out
    metadata = [out / "metadata.json"] if mode == "march" else sorted(out.glob("n*/metadata.json"))
    assert len(metadata) == (1 if mode == "march" else 3)
    for path in metadata:
        summary = strict_json(path)["summary"]
        assert summary["initial_energy"] == 0.0
        assert summary["max_relative_energy_drift"] is None
    if mode == "convergence-study":
        study = strict_json(out / "study.json")
        assert study["energy_drift"] == {"values": [None] * 3, "orders": [None, None]}
    # the writer refuses a non-finite value outright
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"drift": float("nan")})
    assert not (tmp_path / "nan.json").exists()


@pytest.mark.parametrize("mode", ["march", "convergence-study"], ids=["run", "study"])
def test_unusable_output_directory_exits_2_before_computing(tmp_path, monkeypatch, capsys, mode):
    # an output path that is a file, or lies below one, is refused with one
    # line naming it and the OS error, before the chart is even built; a
    # study makes the directory of each resolution up front too
    def unreached(*args, **kwargs):
        raise AssertionError("the run started computing")

    monkeypatch.setattr("elwire.cli.build_manifold", unreached)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cases = [(blocker, blocker, errno.EEXIST), (blocker / "sub", blocker / "sub", errno.ENOTDIR)]
    if mode == "convergence-study":
        (tmp_path / "study").mkdir()
        (tmp_path / "study" / "n0032").write_text("")
        cases.append((tmp_path / "study", tmp_path / "study" / "n0032", errno.EEXIST))
    path = config_file(tmp_path, dict(REST_CONFIG, mode=mode))
    for out, named, code in cases:
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"cannot make output directory {named}: {os.strerror(code)}"]


@pytest.mark.parametrize(
    "initial, field",
    [
        ({"name": "torus-geodesic", "direction": [1, 1]}, "initial.direction"),
        (
            {"name": "torus-geodesic", "velocity": {"name": "translate", "vector": [0.1]}},
            "initial.velocity.vector",
        ),
        ({"name": "circle", "center": [0.5, 0.5, 0.5]}, "initial.center"),
    ],
    ids=["direction", "translate-vector", "center"],
)
def test_check_rejects_generator_parameters(tmp_path, capsys, initial, field):
    # run used to reject these only once the generator raised
    data = {"manifold": {"name": "flat-torus"}, "grid": {"n": 16}, "initial": initial}
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")


def test_runtime_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken_march(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("elwire.cli.march", broken_march)
    path = config_file(tmp_path, REST_CONFIG)
    with pytest.raises(ValueError, match="broadcast"):
        main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["march", "picard"])
def test_json_outputs_are_canonical_indented_json(tmp_path, mode):
    # shortest round-trip floats read back exactly, so re-encoding what was
    # written must give the same bytes: orjson's indented layout for the
    # snapshots, json.dumps's for metadata.json.  The half-plane march's last
    # level is refused by the unit-tangent gate, so its metadata carries the
    # failure and its last good row, and level 8's snapshot is not written
    import orjson

    snapshot_options = (
        orjson.OPT_INDENT_2
        | orjson.OPT_SORT_KEYS
        | orjson.OPT_SERIALIZE_NUMPY
        | orjson.OPT_APPEND_NEWLINE
    )
    data = {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 0.25},
        "initial": {
            "name": "hyperbolic-circle",
            "velocity": {"name": "translate", "vector": [0.1, 0.0]},
        },
        "output": {"snapshot_every": 3},
    }
    if mode == "picard":
        data = dict(REST_CONFIG, grid={"n": 32}, mode="picard", picard={"window": 4})
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == (3 if mode == "march" else 0)
    snapshots = sorted(out.glob("snapshot_*.json"))
    assert [file.name[9:15] for file in snapshots] == (
        ["000000", "000003", "000006"] if mode == "march" else ["000000", "000004"]
    )
    for file in snapshots:
        text = file.read_bytes()
        assert orjson.dumps(json.loads(text), option=snapshot_options) == text
    text = (out / "metadata.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert ("failure" in json.loads(text)) == (mode == "march")


def test_check_never_runs_the_conformal_expression(tmp_path, capsys):
    # the expression is parsed against a whitelist, never evaluated as Python
    marker = tmp_path / "created"
    # at the parent this ran the call and simplified to plain x
    expression = f"x + 0*len(__import__('pathlib').Path({str(marker)!r}).touch().__repr__())"
    data = {"manifold": {"name": "conformal", "expression": expression}}
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: manifold.expression:")
    assert not marker.exists()


@pytest.mark.parametrize("expression", ["1/0", "I*x", "x**y"])
def test_check_rejects_conformal_factors_it_cannot_evaluate(tmp_path, capsys, expression):
    data = {"manifold": {"name": "conformal", "expression": expression}}
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: manifold.expression:")


@pytest.mark.parametrize(
    "manifold, initial, steps, per_step, code",
    [
        ({"name": "euclidean"}, {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01}, 16, 1, 0),
        ({"name": "sphere"}, {"name": "sphere-loop"}, 16, 2, 0),
        # the half-plane circle's last level is 1.16e-2 off unit length, so
        # the unit-tangent gate refuses it and levels 0..7 are recorded
        ({"name": "hyperbolic"}, {"name": "hyperbolic-circle"}, 8, 2, 3),
    ],
    ids=["euclidean", "sphere", "hyperbolic"],
)
def test_march_samples_each_curve_position_once(
    tmp_path, monkeypatch, manifold, initial, steps, per_step, code
):
    # a step samples the curve it moves to, which the next level takes over;
    # curved charts also sample the half-step position.  The extra one is
    # prepare_initial's, which level 0 takes over.  Each recorded level's
    # tension is solved once, and the bentness gate is fresh every
    # bentness_every steps, the final level included.  D_x xi and D_t xi are
    # derived once per level; the diagnostics and the velocity rate read them.
    import elwire.cli
    import elwire.dynamics
    import elwire.elliptic
    import elwire.fields
    from elwire.geometry import sample_geometry

    calls = []

    def counting(model, points):
        calls.append(1)
        return sample_geometry(model, points)

    readers = ("energy", "reconstruct_mu", "transport_check", "_eta_rate")
    inside, stray = [0], []
    real_cov_dx = elwire.fields.cov_dx

    def watched_cov_dx(*args, **kwargs):
        stray.extend([1] if inside[0] else [])
        return real_cov_dx(*args, **kwargs)

    def reading(real):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("elwire") and hasattr(module, "sample_geometry"):
            monkeypatch.setattr(module, "sample_geometry", counting)
        if name.startswith("elwire") and hasattr(module, "cov_dx"):
            monkeypatch.setattr(module, "cov_dx", watched_cov_dx)
        for reader in readers:
            if name.startswith("elwire") and hasattr(module, reader):
                monkeypatch.setattr(module, reader, reading(getattr(module, reader)))

    derived = []
    real_derive = elwire.dynamics.Level.derive

    def counting_derive(cls, *args, **kwargs):
        derived.append(1)
        return real_derive(*args, **kwargs)

    monkeypatch.setattr(elwire.dynamics.Level, "derive", classmethod(counting_derive))

    solves = {"solve_flux_form": 0, "bentness": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            solves[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in solves:
        monkeypatch.setattr(elwire.elliptic, name, counted(name, getattr(elwire.elliptic, name)))

    # the output loop holds at most three levels between two steps
    refs, alive = [], []
    real_march = elwire.dynamics.march

    def watched_march(*args, **kwargs):
        for level in real_march(*args, **kwargs):
            refs.append(weakref.ref(level))
            yield level
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(elwire.cli, "march", watched_march)
    data = {
        "manifold": manifold,
        "grid": {"n": 32},
        "time": {"horizon": steps / 32},
        "initial": initial,
        "diagnostics": {"bentness_every": 4},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == code
    recorded = steps if code else steps + 1
    assert len(calls) == per_step * steps + 1
    assert len(refs) == recorded
    assert max(alive) <= 3
    assert solves == {"solve_flux_form": recorded, "bentness": -(-recorded // 4)}
    assert len(derived) == steps + 1
    assert stray == []
    _header, rows = read_csv(out / "diagnostics.csv")
    assert [float(row[0]) for row in rows] == [k / 32 for k in range(recorded)]
    if code:
        meta = json.loads((out / "metadata.json").read_text())
        last_good = meta["failure"]["last_good"]
        assert rows[-1] == ["" if last_good[name] is None else repr(last_good[name]) for name in CSV_COLUMNS]


def test_flat_march_contracts_no_connection(tmp_path, monkeypatch):
    # a flat chart samples nothing: no connection or curvature sample is
    # contracted (geometry, elliptic), and its tension solve inverts no block
    # matrix, while a curved run contracts them and reduces its blocks
    calls = {"einsum": [], "inv": []}
    real = {"einsum": np.einsum, "inv": np.linalg.inv}

    def counted(name, caller):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            calls[name].append(caller(frame))
            return real[name](*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "einsum", counted("einsum", lambda f: f.f_globals["__name__"]))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", lambda f: f.f_code.co_name))
    data = {
        "grid": {"n": 128},
        "time": {"horizon": 4 / 128},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
    }
    path = config_file(tmp_path, data)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert calls["inv"] == []
    assert [c for c in calls["einsum"] if c in ("elwire.geometry", "elwire.elliptic")] == []
    # and they see the contractions and the block inverses of a curved run
    # (N = 64 gives 16 block rows of 8 x 8, so one stage reduces before the
    # dense solve)
    curved = {"manifold": {"name": "sphere"}, "grid": {"n": 64}, "time": {"horizon": 2 / 64}}
    path = config_file(tmp_path, dict(curved, initial={"name": "sphere-loop"}), name="curved.json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "curved"), "--quiet"]) == 0
    assert "elwire.geometry" in calls["einsum"]
    assert "_cyclic_reduction" in calls["inv"]


@pytest.mark.parametrize(
    "mode, section",
    [
        ("march", {"grid": {"n": 256}, "time": {"horizon": 16 / 256}}),
        ("picard", {"grid": {"n": 64}, "picard": {"window": 12}}),
    ],
)
def test_flat_fast_path_matches_the_general_path(tmp_path, mode, section):
    # the conformal metric exp(2 * 0) * delta is flat but takes the general
    # path, which samples and contracts the zero connection and curvature and
    # solves the folded block system; the euclidean chart leaves them out,
    # solves its step-2 strands and sums the bentness in Fourier modes.  The
    # start state takes no tension solve, so its fields, its diagnostics and
    # every time and non-array field are equal.  The two tension solves round
    # apart, so what passed through them agrees within 10 times the largest
    # gap seen over both modes (relative to max(1, |value|)); the bentness
    # within FOURIER_TOL, as the two bentness routes do
    outputs, tables = {}, {}
    for name, manifold in [
        ("general", {"name": "conformal", "expression": "0"}),
        ("flat", {"name": "euclidean"}),
    ]:
        data = dict(
            section,
            mode=mode,
            manifold=manifold,
            initial={"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
            output={"snapshot_every": 4},
        )
        out = tmp_path / name
        path = config_file(tmp_path, data, name=f"{name}.json")
        assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        outputs[name] = {f.name: json.loads(f.read_text()) for f in sorted(out.glob("snapshot_*.json"))}
        tables[name] = read_csv(out / "diagnostics.csv")
    assert len(outputs["flat"]) == (5 if mode == "march" else 4)
    # largest gaps seen: theta 7.3e-13, xi_t 3.8e-13, eta 3.7e-15, xi 1.0e-15
    # and gamma 2.2e-16
    field_bounds = {"theta": 8e-12, "xi_t": 4e-12, "eta": 4e-14, "xi": 1e-14, "gamma": 3e-15}
    # transport_residual 2.8e-10, mu_min 2.0e-14, mu_max 4.6e-15,
    # gamma_xi_drift 2.0e-15, constraint_drift 4.4e-16, energy and
    # energy_bending 3.6e-16, energy_tangent_rate 2.8e-16, energy_velocity 2.1e-17
    column_bounds = {
        "transport_residual": 3e-9,
        "mu_min": 2e-13,
        "mu_max": 5e-14,
        "gamma_xi_drift": 2e-14,
        "constraint_drift": 5e-15,
        "energy": 4e-15,
        "energy_bending": 4e-15,
        "energy_tangent_rate": 3e-15,
        "energy_velocity": 3e-16,
        "bentness": FOURIER_TOL,
    }
    start_fields = ("gamma", "xi", "eta")
    start_columns = ("energy", "energy_velocity", "energy_bending", "constraint_drift", "gamma_xi_drift")

    def close(a, b, bound):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= bound * max(1.0, np.max(np.abs(a)))

    assert outputs["general"].keys() == outputs["flat"].keys()
    for name, general in outputs["general"].items():
        flat = outputs["flat"][name]
        assert general.keys() == flat.keys()
        for key, value in general.items():
            if not isinstance(value, list) or (name == "snapshot_000000.json" and key in start_fields):
                assert value == flat[key], (name, key)
            else:
                assert close(value, flat[key], field_bounds[key]), (name, key)
    (header, general), (flat_header, flat) = tables["general"], tables["flat"]
    assert header == flat_header and len(general) == len(flat)
    for column, name in enumerate(header.split(",")):
        values = [row[column] for row in general]
        others = [row[column] for row in flat]
        if name == "time":
            assert values == others
            continue
        if name in start_columns:
            assert values[0] == others[0], name
        assert [v == "" for v in values] == [v == "" for v in others], name
        bound = column_bounds[name]
        assert close([float(v) for v in values if v], [float(v) for v in others if v], bound), name


@pytest.mark.parametrize(
    "data",
    [
        {
            "grid": {"n": 1024},
            "time": {"horizon": 8 / 1024},
            "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
        },
        {
            "manifold": {"name": "sphere"},
            "grid": {"n": 64},
            "time": {"horizon": 16 / 64},
            "initial": {"name": "sphere-loop"},
            "diagnostics": {"bentness_every": 3},
        },
    ],
    ids=["flat", "sphere"],
)
def test_diagnostics_rows_recompute_from_the_marched_states(tmp_path, monkeypatch, data):
    # a row is a pure function of its level's fields, the geometry of its
    # curve and the bentness gate in force, with the two levels before it for
    # the transport check: rebuilt from the kept fields, with samples and
    # tangent derivatives derived afresh, every row repeats the written one
    import elwire.cli
    import elwire.dynamics
    from elwire.config import parse_config
    from elwire.diagnostics import make_record, transport_check
    from elwire.dynamics import Level
    from elwire.fields import Grid
    from elwire.geometry import sample_geometry

    kept = []
    real_march = elwire.dynamics.march

    def keeping(*args, **kwargs):
        for level in real_march(*args, **kwargs):
            kept.append(level)
            yield level

    monkeypatch.setattr(elwire.cli, "march", keeping)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 0

    cfg = parse_config(json.dumps(data))
    manifold, grid = elwire.cli.build_manifold(cfg), Grid(cfg.grid_n)
    rebuilt = []
    for level in kept:
        samples = sample_geometry(manifold, level.gamma)
        fields = (level.gamma, level.xi, level.xi_t, level.eta, samples, grid.dx)
        rebuilt.append(
            Level.derive(*fields, theta=level.theta, time=level.time, bentness=level.bentness)
        )
    rows = []
    for k, level in enumerate(rebuilt):
        residual = transport_check(rebuilt[k - 2 : k + 1], grid) if k >= 2 else None
        record = dataclasses.asdict(make_record(level, manifold, grid, transport_residual=residual))
        rows.append(["" if record[c] is None else repr(float(record[c])) for c in CSV_COLUMNS])
    _header, written = read_csv(out / "diagnostics.csv")
    assert len(rows) == cfg.n_steps + 1
    assert written == rows


def test_picard_honours_diagnostics_and_snapshot_cadence(tmp_path):
    data = dict(
        REST_CONFIG,
        grid={"n": 32},
        mode="picard",
        picard={"window": 5},
        diagnostics={"every": 2},
        output={"snapshot_every": 4},
    )
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    _header, rows = read_csv(out / "diagnostics.csv")
    # every second level, plus the last one
    assert [float(row[0]) for row in rows] == [m / 32 for m in (0, 2, 4, 5)]
    transport_col = CSV_COLUMNS.index("transport_residual")
    assert [row[transport_col] == "" for row in rows] == [True, False, False, False]
    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    assert snapshots == ["snapshot_000000.json", "snapshot_000004.json", "snapshot_000005.json"]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["summary"]["levels_recorded"] == 4
