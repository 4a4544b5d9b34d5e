"""Tests for configuration parsing: defaults, validation paths, the time step."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

from elwire.config import RunConfig, parse_config
from elwire.errors import ConfigError
from elwire.initial import CURVES, VELOCITIES


def problems_of(text: str) -> list:
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.problems


def test_empty_document_yields_defaults():
    cfg = parse_config("{}")
    assert cfg.initial_params == {"velocity": {"name": "none"}}
    assert cfg.manifold_name == "euclidean"
    assert cfg.grid_n == 64
    assert cfg.dt == 1.0 / 64
    assert cfg.mode == "march"
    assert cfg.initial_name == "circle"
    assert cfg.picard_window == 16
    assert not cfg.renormalize


def test_empty_document_parses_to_the_field_defaults():
    assert parse_config("{}") == RunConfig()


def test_a_directly_built_config_steps_with_its_grid():
    assert RunConfig(grid_n=32).dt == 1 / 32
    assert dataclasses.replace(RunConfig(), grid_n=32).dt == 1 / 32
    # the step is no setting: a config has no dt field to set or echo
    assert "dt" not in {f.name for f in dataclasses.fields(RunConfig)}
    with pytest.raises(TypeError):
        RunConfig(grid_n=32, dt=1 / 64)


def test_the_readme_example_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```json\n")[1:]]
    assert blocks
    for block in blocks:
        parse_config(block)


def test_the_readme_curve_table_matches_the_catalogue():
    # each row names its curve, the charts it runs on and its parameters
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    head = "| `initial.name` | charts | parameters |\n| --- | --- | --- |\n"
    rows = readme.split(head, 1)[1].split("\n\n", 1)[0].splitlines()
    table = {}
    for row in rows:
        name, charts, parameters = (cell.strip() for cell in row.strip("|").split("|"))
        table[name.strip("`")] = (
            tuple(re.findall(r"`([^`]+)`", charts)),
            tuple(re.findall(r"`([^`]+)` \(", parameters)),
        )
    assert table == {name: (charts, tuple(takes)) for name, (_, charts, _, takes) in CURVES.items()}


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


def test_a_bentness_floor_may_be_zero_and_no_tolerance_less():
    # a floor of 0 admits a geodesic, whose flat-chart bentness is exactly 0;
    # every other float setting must exceed its least value
    assert parse_config(json.dumps({"tolerances": {"bentness_floor": 0}})).b_floor == 0.0
    text = json.dumps({"tolerances": {"bentness_floor": -1e-300, "constraint": 0, "solver": 0}})
    assert sorted(problems_of(text)) == [
        "tolerances.bentness_floor: must be a number >= 0, got -1e-300",
        "tolerances.constraint: must be a number > 0, got 0",
        "tolerances.solver: must be a number > 0, got 0",
    ]


def test_unknown_fields_are_rejected():
    problems = problems_of(json.dumps({"gird": {}, "grid": {"m": 3}}))
    paths = {p.split(":")[0] for p in problems}
    assert {"gird", "grid.m"} <= paths
    # a key path is not a top-level key
    assert problems_of(json.dumps({"grid.n": 16})) == ["grid.n: unknown field"]


SECTIONS = ("manifold", "grid", "time", "initial", "tolerances", "picard", "output", "diagnostics")


@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("value", [None, 3, [1]])
def test_a_section_must_be_an_object(section, value):
    assert problems_of(json.dumps({section: value})) == [f"{section}: must be an object"]


def test_output_directory_null_is_the_default_and_empty_is_refused():
    cfg = parse_config(json.dumps({"output": {"directory": None}}))
    assert cfg.out_dir == RunConfig().out_dir == "elwire-out"
    problems = problems_of(json.dumps({"output": {"directory": ""}}))
    assert problems == ["output.directory: must be a path, got ''"]


#: curve -> a key, with a value, that another curve takes and it does not
STRAY_CURVE_KEY = {
    "circle": ("amplitude", 0.5),
    "perturbed-circle": ("origin", [0.25, 0.25]),
    "hyperbolic-circle": ("direction", [1, 0]),
    "sphere-loop": ("center", [0.5, 0.5]),
    "torus-geodesic": ("mode", 3),
}
#: velocity -> (a valid spec, a key, with a value, that the spec does not take)
STRAY_VELOCITY_KEY = {
    "none": ({"name": "none"}, "vector", [1.0, 0.0]),
    "translate": ({"name": "translate", "vector": [0.1, 0.0]}, "omega", 1.0),
    "rotate": ({"name": "rotate", "omega": 1.0}, "centre", [0.5, 0.5]),
}


@pytest.mark.parametrize(
    "kind, name",
    [("curve", name) for name in CURVES] + [("velocity", name) for name in VELOCITIES],
)
def test_a_parameter_nothing_reads_is_refused(kind, name):
    if kind == "curve":
        chart = CURVES[name][1][0]
        key, value = STRAY_CURVE_KEY[name]
        block = initial = {"name": name}
        path = f"initial.{key}"
    else:
        chart = "euclidean"
        spec, key, value = STRAY_VELOCITY_KEY[name]
        block = dict(spec)
        initial = {"name": "circle", "velocity": block}
        path = f"initial.velocity.{key}"
    data = {"manifold": {"name": chart}, "initial": initial}
    parse_config(json.dumps(data))
    block[key] = value
    problems = problems_of(json.dumps(data))
    assert len(problems) == 1
    assert problems[0].startswith(f"{path}: unknown field; {kind} {name!r} takes ")


@pytest.mark.parametrize("dt", [0.01, "characteristic"])
def test_time_dt_is_refused_as_an_unknown_field(dt):
    # the step is the grid spacing; nothing reads a time.dt
    assert problems_of(json.dumps({"time": {"dt": dt}})) == ["time.dt: unknown field"]


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
    # only a conformal chart reads an expression
    problems = problems_of(json.dumps({"manifold": {"name": "euclidean", "expression": "x"}}))
    assert problems == ["manifold.expression: unknown field; chart 'euclidean' takes dim"]


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
    assert problems == ["picard.window: must be an integer >= 2, got 1"]
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
    payload = dataclasses.asdict(cfg)
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
    assert [p.split(":")[0] for p in problems] == ["manifold.dim"]


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
        ("x/0", "not finite and real"),
        ("x/(1 - 1)", "not finite and real"),
        ("0*log(0)*x", "not finite and real"),
        ("9**9**9*x", "not finite and real"),
        ("(-8)**(1/3)*x", "not finite and real"),
        ("1" + "0" * 400 + "*x", "not finite and real"),
        ("x**y", "whose exponent is not a number"),
    ):
        manifold = {"name": "conformal", "expression": expression}
        problems = problems_of(json.dumps({"manifold": manifold}))
        assert len(problems) == 1
        assert problems[0].startswith("manifold.expression:")
        assert message in problems[0]


@pytest.mark.parametrize(
    "template, path",
    [
        ('{"grid": {"n": 16}, "initial": {"name": "perturbed-circle", "mode": 1%s}}', "initial.mode"),
        ('{"grid": {"n": 1%s}}', "grid.n"),
    ],
    ids=["curve-parameter", "setting"],
)
def test_an_integer_beyond_the_float_range_is_refused(tmp_path, capsys, template, path):
    # an integer no float holds would overflow in the generator or in dt = 1/n
    from elwire.cli import main

    text = template % ("0" * 400)
    assert [p.split(":")[0] for p in problems_of(text)] == [path]
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2, 3])
def test_a_grid_no_numpy_array_can_hold_is_refused(tmp_path, capsys, dim):
    # a float holds 1e300, but no (n, dim) float64 field of that many rows
    # can be addressed; the largest n whose field can be is accepted
    from elwire.cli import main

    largest = sys.maxsize // (8 * dim)
    for n in (10**300, largest + 1):
        text = json.dumps({"manifold": {"dim": dim}, "grid": {"n": n}})
        problems = problems_of(text)
        assert len(problems) == 1 and problems[0].startswith("grid.n: must be at most")
    text = json.dumps({"manifold": {"dim": dim}, "grid": {"n": largest}})
    assert parse_config(text).grid_n == largest
    config = tmp_path / "config.json"
    config.write_text('{"grid": {"n": 1%s}}' % ("0" * 300))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: grid.n: must be at most")
    assert not (tmp_path / "out").exists()
