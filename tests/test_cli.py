"""Tests for the command line driver: exit codes, output files, determinism."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import elwire
from elwire.cli import CSV_COLUMNS, main

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


def test_non_finite_snapshot_aborts_with_report(tmp_path, monkeypatch, capsys):
    # JSON has no NaN: a non-finite value due in a snapshot is a numerical
    # abort, the snapshot is not written and the level is not recorded, so
    # the last good row is level 2's
    real_march = elwire.cli.march

    def march_with_nan(*args, **kwargs):
        for index, level in enumerate(real_march(*args, **kwargs)):
            if index == 3:
                theta = level.state.theta.copy()
                theta[5, 0] = np.nan
                state = dataclasses.replace(level.state, theta=theta)
                level = dataclasses.replace(level, state=state)
            yield level

    monkeypatch.setattr("elwire.cli.march", march_with_nan)
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


def test_solver_drift_guard_aborts_with_report(tmp_path, capsys):
    # a loose constraint gate lets the tangent drift until the tension solve
    # itself refuses; that is a numerical abort, not a config error
    data = {
        "grid": {"n": 16},
        "time": {"horizon": 3},
        "initial": {"name": "perturbed-circle", "amplitude": 0.2, "mode": 3},
        "tolerances": {"constraint": 0.9, "bentness_floor": 1e-6},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "aborted: ConstraintDriftError" in err
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


def test_picard_run_outputs(tmp_path, capsys):
    # n=16 is too coarse here: the window iterate drifts past the unit-length
    # guard on the tension solve, so the smallest healthy resolution is used.
    data = dict(REST_CONFIG)
    data["grid"] = {"n": 32}
    data["mode"] = "picard"
    data["picard"] = {"window": 4}
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "picard window of 4 steps" in capsys.readouterr().out

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "picard"
    assert meta["window_steps"] == 4
    assert meta["status"] == "completed"
    assert meta["prepared"]["projection_magnitude"] < 1e-12
    assert meta["contraction"]["converged"] is True
    assert len(meta["contraction"]["ratios"]) >= 1
    header, rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 5
    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    assert snapshots == ["snapshot_000000.json", "snapshot_000004.json"]


def test_picard_window_longer_than_the_grid_aborts_with_report(tmp_path, capsys):
    # the periodic representation holds for any window length.  At n=8 the
    # circle's window iteration does not contract (neither does a window of
    # one period), so the run ends as a numerical abort with its report.
    data = {"grid": {"n": 8}, "mode": "picard", "picard": {"window": 12}}
    path = config_file(tmp_path, data)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "aborted: NonContractionError" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "aborted"
    assert meta["failure"]["type"] == "NonContractionError"
    header, _rows = read_csv(out / "diagnostics.csv")
    assert header == ",".join(CSV_COLUMNS)


def test_picard_abort_keeps_the_sweep_record(tmp_path):
    # the first coupled sweep's inner wave solve stops contracting; the abort
    # names that sweep and keeps the distances of both iterations
    data = {"grid": {"n": 8}, "mode": "picard", "picard": {"window": 12}}
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file(tmp_path, data)), "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    reason = meta["failure"]["reason"]
    assert reason.startswith("coupled picard iteration sweep 1: picard iteration stopped")
    contraction = meta["contraction"]
    assert contraction["distances"] == [] and contraction["converged"] is False
    inner = contraction["inner"]
    assert len(inner["distances"]) == len(inner["ratios"]) + 1 == 4
    assert [f"{r:.3f}" for r in inner["ratios"]] == ["4.130", "95.556", "1982.623"]
    assert "'4.130', '95.556', '1982.623'" in reason


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
    assert "did not converge" in meta["failure"]["reason"]
    contraction = meta["contraction"]
    assert contraction["iterations"] == 2
    assert contraction["converged"] is False
    assert "inner" not in contraction
    assert not list(out.glob("snapshot_*.json"))


def test_picard_run_solves_level_zero_bentness_once(tmp_path, monkeypatch):
    # level 0 of the window is the fixed initial state: its bentness gates
    # every sweep's tension solves and is the first level's gate in the
    # output; the output loop adds a fresh gate every bentness_every levels.
    # A sweep solves the tension twice, each time on the whole window series.
    # Each window curve is sampled once, as it is built: prepare_initial and
    # the start iterate sample the initial curve, which is level 0 of every
    # sweep's new curve, and each sweep samples the later levels of its new
    # curve and, on a curved chart, the half-step curves between them, as the
    # march does.
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
    cases = [
        ({"name": "euclidean"}, {"name": "circle"}, 5, 1),
        ({"name": "sphere"}, {"name": "sphere-loop"}, 8, 2),
    ]
    for index, (manifold, initial, window, per_step) in enumerate(cases):
        calls.update(dict.fromkeys(calls, 0))
        data = dict(
            REST_CONFIG,
            manifold=manifold,
            initial=initial,
            grid={"n": 32},
            mode="picard",
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
        assert calls["sample_geometry"] == 2 + per_step * window * sweeps


def test_study_outputs(tmp_path, capsys):
    data = {
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
        "tolerances": {"constraint": 0.5},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["study", "--config", str(path), "--out", str(out)]) == 0
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


def test_run_path_loads_no_scipy(tmp_path):
    # importing scipy.linalg once cost more start-up time than a short run;
    # orjson (the snapshot number encoder) is loaded by the first snapshot,
    # not by the import of the CLI
    path = config_file(tmp_path, {"grid": {"n": 16}, "time": {"horizon": 2 / 16}})
    out = tmp_path / "out"
    code = f"""
import json, sys
import elwire.cli
orjson = ["orjson" in sys.modules]
exit_code = elwire.cli.main(["run", "--config", {str(path)!r}, "--out", {str(out)!r}, "--quiet"])
orjson.append("orjson" in sys.modules)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({{"exit": exit_code, "scipy": loaded, "orjson": orjson}}))
"""
    report = json.loads(run_in_subprocess(code).splitlines()[-1])
    assert report == {"exit": 0, "scipy": [], "orjson": [False, True]}
    assert len(read_csv(out / "diagnostics.csv")[1]) == 3
    assert sorted(p.name for p in out.glob("snapshot_*.json")) == [
        "snapshot_000000.json",
        "snapshot_000002.json",
    ]


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
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic", "direction": [1, 0]},
    }
    path = config_file(tmp_path, data)
    out = tmp_path / "out"
    assert main(["study", "--config", str(path), "--out", str(out)]) == 3
    study = json.loads((out / "study.json").read_text())
    assert study["status"] == "aborted"
    assert study["resolution"] == 16


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
    # snapshots, json.dumps's for metadata.json
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
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    snapshots = sorted(out.glob("snapshot_*.json"))
    assert len(snapshots) == (4 if mode == "march" else 2)
    for file in snapshots:
        text = file.read_bytes()
        assert orjson.dumps(json.loads(text), option=snapshot_options) == text
    text = (out / "metadata.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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
    "manifold, initial, steps, per_step",
    [
        ({"name": "euclidean"}, {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01}, 16, 1),
        ({"name": "sphere"}, {"name": "sphere-loop"}, 16, 2),
        ({"name": "hyperbolic"}, {"name": "hyperbolic-circle"}, 8, 2),
    ],
    ids=["euclidean", "sphere", "hyperbolic"],
)
def test_march_samples_each_curve_position_once(
    tmp_path, monkeypatch, manifold, initial, steps, per_step
):
    # a step samples the curve it moves to, which the next level takes over;
    # curved charts also sample the half-step position.  The extra two are
    # prepare_initial and the march's initial level.  Each level's tension
    # is solved once, and the bentness gate is fresh every bentness_every
    # steps; the final level, here a multiple of it, carries the last gate.
    # D_x xi and D_t xi are derived once per level; the diagnostics and the
    # velocity rate read them.
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
    real_derive = elwire.dynamics.tangent_derivatives

    def counting_derive(*args, **kwargs):
        derived.append(1)
        return real_derive(*args, **kwargs)

    monkeypatch.setattr(elwire.dynamics, "tangent_derivatives", counting_derive)

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
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == per_step * steps + 2
    assert len(refs) == steps + 1
    assert max(alive) <= 3
    assert solves == {"solve_flux_form": steps + 1, "bentness": -(-steps // 4)}
    assert len(derived) == steps + 1
    assert stray == []


def test_flat_march_contracts_no_connection(tmp_path, monkeypatch):
    # a flat chart samples only its identity frame: no connection or
    # curvature coefficients are contracted (geometry, elliptic) and the
    # frame is not inverted
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
    # the counters see the run: frame_tangent's einsum, the block reduction's inverses
    assert "elwire.dynamics" in calls["einsum"] and "_cyclic_reduction" in calls["inv"]
    assert [c for c in calls["einsum"] if c in ("elwire.geometry", "elwire.elliptic")] == []
    assert "sample_geometry" not in calls["inv"]


@pytest.mark.parametrize(
    "mode, section",
    [
        ("march", {"grid": {"n": 256}, "time": {"horizon": 16 / 256}}),
        ("picard", {"grid": {"n": 64}, "picard": {"window": 12}}),
    ],
)
def test_flat_fast_path_matches_the_general_path(tmp_path, mode, section):
    # the conformal metric exp(2 * 0) * delta is flat but takes the general
    # path, which samples and contracts the zero connection and curvature;
    # the euclidean chart leaves them out.  Both write the same bytes.
    outputs = {}
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
        files = sorted(out.glob("snapshot_*.json")) + [out / "diagnostics.csv"]
        outputs[name] = {f.name: f.read_bytes() for f in files}
    assert len(outputs["flat"]) == (6 if mode == "march" else 5)
    assert outputs["general"] == outputs["flat"]


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
    # a row is a pure function of its level's state, the geometry of its
    # curve and the bentness gate in force, with the two levels before it for
    # the transport check: rebuilt from the kept states, with samples and
    # tangent derivatives derived afresh, every row repeats the written one
    import elwire.cli
    import elwire.dynamics
    from elwire.config import parse_config
    from elwire.diagnostics import make_record, transport_check
    from elwire.dynamics import Level, tangent_derivatives
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
        samples = sample_geometry(manifold, level.state.gamma)
        derivatives = tangent_derivatives(level.state, samples, grid.dx)
        rebuilt.append(Level(level.state, samples, *derivatives, level.bentness))
    rows = []
    for k, level in enumerate(rebuilt):
        residual = transport_check(rebuilt[k - 2 : k + 1], cfg.dt, grid) if k >= 2 else None
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
