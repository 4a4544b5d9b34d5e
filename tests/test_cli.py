"""Tests for the command line driver: exit codes, output files, determinism."""

import gc
import json
import sys
import weakref

import numpy as np
import pytest

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
    # the snapshot writer lays out json by hand; repr floats round-trip, so
    # re-encoding what it wrote must give the same bytes
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
    files = sorted(out.glob("snapshot_*.json")) + [out / "metadata.json"]
    assert len(files) == (5 if mode == "march" else 3)
    for file in files:
        text = file.read_text()
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
        ({"name": "sphere"}, {"name": "sphere-loop"}, 16, 3),
        ({"name": "hyperbolic"}, {"name": "hyperbolic-circle"}, 8, 3),
    ],
    ids=["euclidean", "sphere", "hyperbolic"],
)
def test_march_samples_each_curve_position_once(
    tmp_path, monkeypatch, manifold, initial, steps, per_step
):
    # one geometry evaluation per level on flat charts; curved charts add the
    # predicted and half-step positions.  The extra two are prepare_initial
    # and the final level.
    import elwire.cli
    import elwire.dynamics
    from elwire.geometry import sample_geometry

    calls = []

    def counting(model, points):
        calls.append(1)
        return sample_geometry(model, points)

    for name, module in list(sys.modules.items()):
        if name.startswith("elwire") and hasattr(module, "sample_geometry"):
            monkeypatch.setattr(module, "sample_geometry", counting)

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
    }
    path = config_file(tmp_path, data)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    if per_step == 1:
        assert len(calls) == steps + 2
    else:
        assert len(calls) <= per_step * steps + 2
    assert len(refs) == steps + 1
    assert max(alive) <= 3


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
