"""Tests for configuration parsing: defaults, validation paths, dt rules."""

import json

import pytest

from elwire.config import RunConfig, parse_config
from elwire.errors import ConfigError


def problems_of(text: str) -> list:
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.problems


def test_empty_document_yields_defaults():
    cfg = parse_config("{}")
    assert cfg.initial_params == {"velocity": {"name": "none"}}
    assert cfg.manifold_name == "euclidean"
    assert cfg.grid_n == 64
    assert cfg.dt == pytest.approx(1.0 / 64)
    assert cfg.dt_characteristic
    assert cfg.mode == "march"
    assert cfg.initial_name == "circle"
    assert cfg.picard_window == 16
    assert not cfg.renormalize


def test_empty_document_parses_to_the_field_defaults():
    assert parse_config("{}") == RunConfig()


def test_invalid_json_and_wrong_top_level():
    assert any("not valid JSON" in p for p in problems_of("{"))
    assert any("JSON object" in p for p in problems_of("[1, 2]"))


def test_every_problem_is_collected_with_its_path():
    text = json.dumps(
        {
            "grid": {"n": 4},
            "time": {"horizon": -1.0, "dt": 0.5},
            "mode": "dance",
            "tolerances": {"solver": -1e-8},
            "renormalize": "yes",
        }
    )
    problems = problems_of(text)
    paths = {p.split(":")[0] for p in problems}
    expected = {"grid.n", "time.horizon", "time.dt", "mode", "tolerances.solver", "renormalize"}
    assert expected <= paths


def test_unknown_fields_are_rejected():
    problems = problems_of(json.dumps({"gird": {}, "grid": {"m": 3}}))
    paths = {p.split(":")[0] for p in problems}
    assert {"gird", "grid.m"} <= paths


def test_dt_rules():
    cfg = parse_config(json.dumps({"grid": {"n": 32}, "time": {"dt": "characteristic"}}))
    assert cfg.dt == pytest.approx(1.0 / 32)
    assert cfg.dt_characteristic

    cfg = parse_config(json.dumps({"grid": {"n": 32}, "time": {"dt": 1.0 / 32}}))
    assert cfg.dt_characteristic

    cfg = parse_config(json.dumps({"grid": {"n": 32}, "time": {"dt": 1.0 / 64}}))
    assert not cfg.dt_characteristic
    assert cfg.dt == pytest.approx(1.0 / 64)

    problems = problems_of(json.dumps({"grid": {"n": 32}, "time": {"dt": 1.0 / 16}}))
    assert any("stability bound" in p for p in problems)

    problems = problems_of(
        json.dumps({"mode": "picard", "grid": {"n": 32}, "time": {"dt": 1.0 / 64}})
    )
    assert any("picard mode requires the characteristic step" in p for p in problems)


def test_manifold_rules():
    problems = problems_of(json.dumps({"manifold": {"name": "poincare"}}))
    assert any(p.startswith("manifold.name") for p in problems)

    problems = problems_of(json.dumps({"manifold": {"name": "conformal"}}))
    assert any(p.startswith("manifold.expression") for p in problems)

    problems = problems_of(
        json.dumps(
            {
                "manifold": {"name": "hyperbolic", "dim": 3},
                "initial": {"name": "hyperbolic-circle"},
            }
        )
    )
    assert any("two-dimensional" in p for p in problems)

    cfg = parse_config(
        json.dumps({"manifold": {"name": "conformal", "expression": "-log(y)"}})
    )
    assert cfg.conformal_expression == "-log(y)"
    # the expression is dropped when another manifold is selected
    cfg = parse_config(json.dumps({"manifold": {"name": "euclidean", "expression": "x"}}))
    assert cfg.conformal_expression is None


def test_initial_condition_compatibility():
    problems = problems_of(json.dumps({"initial": {"name": "sphere-loop"}}))
    assert any("sphere" in p and p.startswith("initial.name") for p in problems)

    cfg = parse_config(
        json.dumps({"manifold": {"name": "sphere"}, "initial": {"name": "sphere-loop"}})
    )
    assert cfg.initial_name == "sphere-loop"

    problems = problems_of(
        json.dumps(
            {
                "manifold": {"name": "hyperbolic"},
                "initial": {"name": "hyperbolic-circle", "center": [0.0, -1.0]},
            }
        )
    )
    assert any(p.startswith("initial.center") for p in problems)

    problems = problems_of(
        json.dumps({"initial": {"name": "perturbed-circle", "mode": 0, "amplitude": "x"}})
    )
    paths = {p.split(":")[0] for p in problems}
    assert {"initial.mode", "initial.amplitude"} <= paths


def test_velocity_rules():
    problems = problems_of(json.dumps({"initial": {"velocity": {"name": "translate"}}}))
    assert any(p.startswith("initial.velocity.vector") for p in problems)
    problems = problems_of(json.dumps({"initial": {"velocity": {"name": "rotate"}}}))
    assert any(p.startswith("initial.velocity.omega") for p in problems)
    problems = problems_of(json.dumps({"initial": {"velocity": {"name": "drift"}}}))
    assert any(p.startswith("initial.velocity.name") for p in problems)
    cfg = parse_config(
        json.dumps({"initial": {"velocity": {"name": "rotate", "omega": 0.5}}})
    )
    assert cfg.initial_params["velocity"]["omega"] == 0.5


def test_booleans_are_not_accepted_as_integers():
    problems = problems_of(json.dumps({"grid": {"n": True}, "diagnostics": {"every": False}}))
    paths = {p.split(":")[0] for p in problems}
    assert {"grid.n", "diagnostics.every"} <= paths


def test_picard_window_counts_steps():
    problems = problems_of(json.dumps({"picard": {"window": 1}}))
    assert any("time steps" in p for p in problems)
    cfg = parse_config(json.dumps({"picard": {"window": 8, "max_iter": 5, "tol": 1e-9}}))
    assert cfg.picard_window == 8
    assert cfg.picard_max_iter == 5
    assert cfg.picard_tol == 1e-9


def test_step_count_rounds_horizon():
    cfg = parse_config(json.dumps({"grid": {"n": 64}, "time": {"horizon": 0.5}}))
    assert cfg.n_steps == 32
    cfg = parse_config(json.dumps({"grid": {"n": 8}, "time": {"horizon": 0.01}}))
    assert cfg.n_steps == 1


def test_output_and_diagnostics_sections():
    cfg = parse_config(
        json.dumps(
            {
                "output": {"directory": "runs/a", "snapshot_every": 4},
                "diagnostics": {"every": 2, "bentness_every": 5},
                "renormalize": True,
            }
        )
    )
    assert cfg.out_dir == "runs/a"
    assert cfg.snapshot_every == 4
    assert cfg.diag_every == 2
    assert cfg.bentness_every == 5
    assert cfg.renormalize
    problems = problems_of(json.dumps({"output": {"snapshot_every": -1}}))
    assert any(p.startswith("output.snapshot_every") for p in problems)
    # no generator is random, so there is no seed to set
    assert problems_of(json.dumps({"seed": 3})) == ["seed: unknown field"]


def test_config_round_trips_to_dict():
    cfg = parse_config(json.dumps({"grid": {"n": 32}}))
    payload = cfg.to_dict()
    assert payload["grid_n"] == 32
    assert set(payload) == {f.name for f in cfg.__dataclass_fields__.values()}


def test_generator_parameters_are_checked_against_dim():
    torus = {"manifold": {"name": "flat-torus", "dim": 3}}
    cases = [
        ({"name": "torus-geodesic", "direction": [0, 1]}, "initial.direction"),
        ({"name": "torus-geodesic", "direction": [0, 2, 0]}, "initial.direction"),
        ({"name": "torus-geodesic", "direction": [0.5, 0.5, 0]}, "initial.direction"),
        ({"name": "torus-geodesic", "origin": [0.1, 0.2]}, "initial.origin"),
        ({"name": "circle", "center": [0.0, 0.0]}, "initial.center"),
        ({"name": "perturbed-circle", "center": [0.0, "x", 0.0]}, "initial.center"),
        ({"velocity": {"name": "translate", "vector": [1.0, 0.0]}}, "initial.velocity.vector"),
        (
            {"velocity": {"name": "rotate", "omega": 1.0, "center": [0, 0]}},
            "initial.velocity.center",
        ),
    ]
    for initial, field in cases:
        problems = problems_of(json.dumps(dict(torus, initial=initial)))
        assert [p.split(":")[0] for p in problems] == [field], initial

    cfg = parse_config(
        json.dumps(
            dict(
                torus,
                initial={
                    "name": "torus-geodesic",
                    "direction": [0, -1.0, 0],
                    "origin": [0.1, 0.2, 0.3],
                    "velocity": {"name": "rotate", "omega": 1.0, "center": [0, 0, 1]},
                },
            )
        )
    )
    assert cfg.initial_params["direction"] == [0, -1.0, 0]


def test_planar_generators_need_two_dimensions():
    problems = problems_of(json.dumps({"manifold": {"dim": 1}}))
    assert [p.split(":")[0] for p in problems] == ["manifold.dim"]
    problems = problems_of(
        json.dumps(
            {
                "manifold": {"name": "flat-torus", "dim": 1},
                "initial": {"name": "torus-geodesic", "velocity": {"name": "rotate", "omega": 1}},
            }
        )
    )
    assert [p.split(":")[0] for p in problems] == ["initial.velocity.name"]


def test_hyperbolic_centre_must_be_numeric():
    data = {"manifold": {"name": "hyperbolic"}, "initial": {"name": "hyperbolic-circle"}}
    data["initial"]["center"] = ["a", 1.0]
    assert [p.split(":")[0] for p in problems_of(json.dumps(data))] == ["initial.center"]


def test_non_finite_numbers_are_rejected():
    text = '{"time": {"horizon": Infinity}, "tolerances": {"solver": NaN, "constraint": 1%s}}'
    problems = problems_of(text % ("0" * 400))
    paths = {p.split(":")[0] for p in problems}
    assert paths == {"time.horizon", "tolerances.solver", "tolerances.constraint"}


def test_conformal_expression_must_parse_with_chart_coordinates():
    for expression, message in (
        ("x + q", "unknown symbols"),
        ("x**", "cannot parse"),
        ("[x, y]", "not a scalar expression"),
        ("I*x", "unknown symbols"),
        ("x^2", "not a scalar expression"),
        ("exp(x, y)", "not a scalar expression"),
        ("x.conjugate()", "not a scalar expression"),
        ("1/0", "not finite and real"),
        ("log(0) + x", "not finite and real"),
        ("sqrt(-1)*x", "not finite and real"),
    ):
        manifold = {"name": "conformal", "expression": expression}
        problems = problems_of(json.dumps({"manifold": manifold}))
        assert len(problems) == 1
        assert problems[0].startswith("manifold.expression:")
        assert message in problems[0]
