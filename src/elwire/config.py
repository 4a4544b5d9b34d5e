"""Run configuration: JSON parsing with per-field validation paths.

A config document is a JSON object with the sections below (all optional
unless noted; defaults in parentheses):

    manifold     {"name": "euclidean" (default), "dim": 2, "expression": ...}
    grid         {"n": 64}            n >= 8
    time         {"dt": "characteristic", "horizon": 1.0}   dt <= 1/n
    mode         "march" | "picard" | "convergence-study"   (march)
    initial      {"name": "circle", ..., "velocity": {"name": "none", ...}}
    tolerances   {"solver": 1e-8, "constraint": 1e-2, "bentness_floor": 1e-3}
    picard       {"window": 16, "max_iter": 30, "tol": 1e-10}
                 window counts steps: the solve covers [0, window * dt],
                 which may be longer than one period of the grid
    output       {"directory": "elwire-out", "snapshot_every": 0}
    diagnostics  {"every": 1, "bentness_every": 10}
    renormalize  false

The chart names are the keys of ``geometry.BUILTIN``; the curves, the
charts each runs on and the parameters each takes, and the velocities with
theirs, are declared in ``initial`` (``CURVES``, ``PLANAR_CURVES``,
``VELOCITIES``).  ``"characteristic"`` locks the time step to the grid
spacing, which is what the integral wave solver and the transport
diagnostic require.  Validation collects every problem (not just the
first) and reports each with its JSON path, e.g. ``grid.n: must be an
integer >= 8, got 4``.  It covers everything a run builds from the
document: a key that nothing reads is refused, in every section and in
``initial`` and its ``velocity`` alike; numbers must be finite, generator
vectors (centre, origin, direction, velocity vector and centre) must have
``manifold.dim`` entries, and a conformal expression must be plain
arithmetic in the chart coordinates with bounded powers (checked without
running it, see geometry.ConformalModel) whose value and first two
derivatives sympy cannot show to be infinite or complex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .geometry import BUILTIN, ConformalModel
from .initial import CURVES, PLANAR_CURVES, VELOCITIES

MODES = ("march", "picard", "convergence-study")

#: JSON path -> (RunConfig field, least value) of each scalar setting; the
#: least value's type gives the kind: an integer >= an int, a finite number
#: > a float, a boolean for None
_SCALARS = {
    "manifold.dim": ("dim", 1),
    "grid.n": ("grid_n", 8),
    "time.horizon": ("horizon", 0.0),
    "tolerances.solver": ("solver_tol", 0.0),
    "tolerances.constraint": ("constraint_tol", 0.0),
    "tolerances.bentness_floor": ("b_floor", 0.0),
    "picard.window": ("picard_window", 2),
    "picard.max_iter": ("picard_max_iter", 1),
    "picard.tol": ("picard_tol", 0.0),
    "output.snapshot_every": ("snapshot_every", 0),
    "diagnostics.every": ("diag_every", 1),
    "diagnostics.bentness_every": ("bentness_every", 1),
    "renormalize": ("renormalize", None),
}
#: every key a document may hold outside ``initial``, by JSON path
_PATHS = {*_SCALARS, "manifold.name", "manifold.expression", "time.dt", "mode", "output.directory"}
#: the sections, each an object; the keys of ``initial`` are its curve's
_SECTIONS = {path.split(".")[0] for path in _PATHS if "." in path} | {"initial"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    The field defaults are the one home of the run settings' defaults: an
    empty config document parses to ``RunConfig()``, and the solvers read
    their tolerances, caps and cadences from the instance they are given.
    The fields are independent settings.  ``dt`` left out (None) becomes
    the characteristic step ``1 / grid_n``; ``dataclasses.replace(cfg,
    grid_n=...)`` keeps the old ``dt``, so pass the new one with it.
    """

    manifold_name: str = "euclidean"
    dim: int = 2
    conformal_expression: Optional[str] = None
    grid_n: int = 64
    dt: Optional[float] = None
    horizon: float = 1.0
    mode: str = "march"
    initial_name: str = "circle"
    initial_params: dict = field(default_factory=lambda: {"velocity": {"name": "none"}})
    solver_tol: float = 1e-8
    constraint_tol: float = 1e-2
    b_floor: float = 1e-3
    picard_window: int = 16
    picard_max_iter: int = 30
    picard_tol: float = 1e-10
    out_dir: str = "elwire-out"
    snapshot_every: int = 0
    diag_every: int = 1
    bentness_every: int = 10
    renormalize: bool = False

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", 1.0 / self.grid_n)

    @property
    def dt_characteristic(self) -> bool:
        """Whether the step is the grid spacing, as the picard window and
        the transport diagnostic require."""
        return abs(self.dt - 1.0 / self.grid_n) <= 1e-12

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


def _number(value) -> Optional[float]:
    """The value as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return number if math.isfinite(number) else None


def _vector(value, length: int) -> bool:
    """Whether the value is a list of ``length`` finite numbers."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == length
        and all(_number(x) is not None for x in value)
    )


def _integer(value, least: int) -> bool:
    """Whether the value is a JSON integer (not a boolean) >= ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _kind(value, least) -> Optional[str]:
    """None if the value is a setting of the kind ``least`` gives (see
    ``_SCALARS``), else the wording of that kind."""
    if least is None:
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(least, int):
        return None if _integer(value, least) else f"an integer >= {least}"
    number = _number(value)
    return None if number is not None and number > least else f"a number > {least:g}"


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document; raises ConfigError."""
    problems: list[str] = []
    default = RunConfig()
    values = {}  # RunConfig field -> the document's valid setting

    def err(path: str, msg: str):
        problems.append(f"{path}: {msg}")

    def choose(path: str, value, options):
        """The value if it names one of the options, else None."""
        if isinstance(value, str) and value in options:
            return value
        err(path, f"must be one of {list(options)}, got {value!r}")
        return None

    def must(path: str, ok: bool, kind: str, value):
        if not ok:
            err(path, f"must be {kind}, got {value!r}")

    def unknown(path: str, block: dict, takes, owner: str):
        for key in sorted(set(block) - {"name", *takes}):
            names = ", ".join(takes) or "no parameters"
            err(f"{path}.{key}", f"unknown field; {owner} takes {names}")

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(document): not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["(document): top level must be a JSON object"])

    for key in sorted(data):
        if key not in _SECTIONS:
            if "." in key or key not in _PATHS:
                err(key, "unknown field")
        elif not isinstance(data[key], dict):
            err(key, "must be an object")
            data[key] = {}
        elif key != "initial":
            for inner in sorted(data[key]):
                if f"{key}.{inner}" not in _PATHS:
                    err(f"{key}.{inner}", "unknown field")

    for path, (name, least) in _SCALARS.items():
        section, _, key = path.rpartition(".")
        block = data.get(section, {}) if section else data
        if key in block:
            wrong = _kind(block[key], least)
            if wrong:
                err(path, f"must be {wrong}, got {block[key]!r}")
            else:
                values[name] = float(block[key]) if isinstance(least, float) else block[key]
    dim = values.get("dim", default.dim)
    n = values.get("grid_n", default.grid_n)

    man = data.get("manifold", {})
    manifold_name = choose("manifold.name", man.get("name", default.manifold_name), BUILTIN)
    manifold_name = values["manifold_name"] = manifold_name or default.manifold_name
    if manifold_name == "hyperbolic" and dim != 2:
        err("manifold.dim", f"hyperbolic model is two-dimensional, got {dim!r}")
        dim = 2
    expression = man.get("expression")
    if manifold_name == "conformal" and not isinstance(expression, str):
        err("manifold.expression", f"conformal model needs an expression, got {expression!r}")
    elif manifold_name == "conformal":
        try:
            ConformalModel(dim, expression)
        except ValueError as exc:
            err("manifold.expression", str(exc))
        values["conformal_expression"] = expression

    raw_dt = data.get("time", {}).get("dt", "characteristic")
    if raw_dt != "characteristic":
        dt = _number(raw_dt)
        if dt is None or dt <= 0.0:
            err("time.dt", f'must be a positive number or "characteristic", got {raw_dt!r}')
        elif dt > 1.0 / n + 1e-12:
            err("time.dt", f"violates the stability bound dt <= 1/n = {1.0 / n:.6g}, got {dt!r}")
        else:
            values["dt"] = dt

    if mode := choose("mode", data.get("mode", default.mode), MODES):
        values["mode"] = mode

    init = data.get("initial", {})
    initial_name = choose("initial.name", init.get("name", default.initial_name), CURVES)
    given = {}  # the parameters the curve takes
    if initial_name is not None:
        values["initial_name"] = initial_name
        charts, takes = CURVES[initial_name]
        unknown("initial", init, (*takes, "velocity"), f"curve {initial_name!r}")
        given = {k: v for k, v in init.items() if k in takes}
        if manifold_name not in charts:
            err("initial.name", f"{initial_name!r} runs on {list(charts)}, not {manifold_name!r}")
        if initial_name in PLANAR_CURVES and dim < 2:
            err("manifold.dim", f"{initial_name!r} lies in the first two coordinates, got {dim}")
    # generator parameters left out take the generator's defaults (initial.generate)
    points = f"a list of {dim} numbers"
    if "center" in given and initial_name == "hyperbolic-circle":
        center = given["center"]
        in_chart = _vector(center, 2) and center[1] > 0.0
        must("initial.center", in_chart, "a point of the chart (y > 0)", center)
    elif "center" in given:
        must("initial.center", _vector(given["center"], dim), points, given["center"])
    if "origin" in given:
        must("initial.origin", _vector(given["origin"], dim), points, given["origin"])
    if "direction" in given:
        axis = given["direction"]
        is_axis = _vector(axis, dim) and sorted(abs(x) for x in axis) == [0] * (dim - 1) + [1]
        must("initial.direction", is_axis, f"{points}, one 1 or -1 and the rest 0", axis)
    if "mode" in given:
        must("initial.mode", _integer(given["mode"], 1), "a positive integer", given["mode"])
    if "amplitude" in given:
        amplitude = given["amplitude"]
        must("initial.amplitude", _number(amplitude) is not None, "a number", amplitude)
    velocity = init.get("velocity", default.initial_params["velocity"])
    if not isinstance(velocity, dict):
        err("initial.velocity", f"must be an object, got {velocity!r}")
    elif vname := choose("initial.velocity.name", velocity.get("name", "none"), VELOCITIES):
        unknown("initial.velocity", velocity, VELOCITIES[vname], f"velocity {vname!r}")
        # translate needs its vector and rotate its omega; rotate's centre is optional
        if vname == "translate":
            vector = velocity.get("vector")
            must("initial.velocity.vector", _vector(vector, dim), points, vector)
        elif vname == "rotate":
            omega = velocity.get("omega")
            must("initial.velocity.omega", _number(omega) is not None, "a number", omega)
            if dim < 2:
                err("initial.velocity.name", f"rotate turns two coordinates, got dim {dim}")
            if "center" in velocity:
                center = velocity["center"]
                must("initial.velocity.center", _vector(center, dim), points, center)
    values["initial_params"] = {k: v for k, v in init.items() if k != "name"}
    values["initial_params"]["velocity"] = velocity

    out_dir = data.get("output", {}).get("directory")
    if out_dir is not None:
        must("output.directory", isinstance(out_dir, str) and out_dir != "", "a path", out_dir)
        values["out_dir"] = out_dir

    cfg = RunConfig(**values)
    if cfg.mode == "picard" and not cfg.dt_characteristic:
        err("time.dt", f"picard mode requires the characteristic step 1/n, got {cfg.dt!r}")
    if problems:
        raise ConfigError(problems)
    return cfg
