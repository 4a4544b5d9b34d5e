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
    output       {"directory": null, "snapshot_every": 0}
    diagnostics  {"every": 1, "bentness_every": 10}
    renormalize  false

``"characteristic"`` locks the time step to the grid spacing, which is what
the integral wave solver and the transport diagnostic require.  Validation
collects every problem (not just the first) and reports each with its JSON
path, e.g. ``grid.n: must be an integer >= 8``.  It covers everything a run
builds from the document: numbers must be finite, generator vectors (centre,
origin, direction, velocity vector and centre) must have ``manifold.dim``
entries, and a conformal expression must be plain arithmetic in the chart
coordinates with bounded powers (checked without running it, see
geometry.ConformalModel) whose value and first two derivatives sympy cannot
show to be infinite or complex.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .errors import ConfigError
from .geometry import ConformalModel

MANIFOLDS = ("euclidean", "flat-torus", "hyperbolic", "sphere", "conformal")
MODES = ("march", "picard", "convergence-study")
INITIALS = ("circle", "perturbed-circle", "hyperbolic-circle", "sphere-loop", "torus-geodesic")
VELOCITIES = ("none", "translate", "rotate")

#: initial conditions tied to a particular manifold (chart circles also run on
#: conformal charts, which share the flat chart topology)
_INITIAL_REQUIRES = {
    "hyperbolic-circle": ("hyperbolic",),
    "sphere-loop": ("sphere",),
    "torus-geodesic": ("flat-torus",),
    "circle": ("euclidean", "flat-torus", "conformal"),
    "perturbed-circle": ("euclidean", "flat-torus", "conformal"),
}

#: initial curves drawn in the first two coordinates
_PLANAR_INITIALS = ("circle", "perturbed-circle", "sphere-loop")

_SECTION_KEYS = {
    "manifold": {"name", "dim", "expression"},
    "grid": {"n"},
    "time": {"dt", "horizon"},
    "initial": {"name", "center", "mode", "amplitude", "origin", "direction", "velocity"},
    "tolerances": {"solver", "constraint", "bentness_floor"},
    "picard": {"window", "max_iter", "tol"},
    "output": {"directory", "snapshot_every"},
    "diagnostics": {"every", "bentness_every"},
}
_TOP_KEYS = set(_SECTION_KEYS) | {"mode", "renormalize"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    The field defaults are the one home of the run settings' defaults: an
    empty config document parses to ``RunConfig()``, and the solvers read
    their tolerances, caps and cadences from the instance they are given.
    """

    manifold_name: str = "euclidean"
    dim: int = 2
    conformal_expression: Optional[str] = None
    grid_n: int = 64
    dt: float = 1.0 / 64
    dt_characteristic: bool = True
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
    out_dir: Optional[str] = None
    snapshot_every: int = 0
    diag_every: int = 1
    bentness_every: int = 10
    renormalize: bool = False

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    def to_dict(self) -> dict:
        return asdict(self)


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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document; raises ConfigError."""
    problems: list[str] = []
    default = RunConfig()

    def err(path: str, msg: str):
        problems.append(f"{path}: {msg}")

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(document): not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["(document): top level must be a JSON object"])

    for key in sorted(set(data) - _TOP_KEYS):
        err(key, "unknown field")
    for section, allowed in _SECTION_KEYS.items():
        block = data.get(section)
        if block is None:
            continue
        if not isinstance(block, dict):
            err(section, "must be an object")
            data[section] = {}
            continue
        for key in sorted(set(block) - allowed):
            err(f"{section}.{key}", "unknown field")

    man = data.get("manifold", {})
    manifold_name = man.get("name", default.manifold_name)
    if manifold_name not in MANIFOLDS:
        err("manifold.name", f"must be one of {list(MANIFOLDS)}, got {manifold_name!r}")
        manifold_name = default.manifold_name
    dim = man.get("dim", default.dim)
    if not _integer(dim, 1):
        err("manifold.dim", f"must be a positive integer, got {dim!r}")
        dim = default.dim
    if manifold_name == "hyperbolic" and dim != 2:
        err("manifold.dim", "hyperbolic model is two-dimensional")
        dim = 2
    expression = man.get("expression")
    if manifold_name == "conformal" and not isinstance(expression, str):
        err("manifold.expression", "conformal model needs a closed-form expression string")
        expression = "0"
    elif manifold_name == "conformal":
        try:
            ConformalModel(dim, expression)
        except ValueError as exc:
            err("manifold.expression", str(exc))

    grid = data.get("grid", {})
    n = grid.get("n", default.grid_n)
    if not _integer(n, 8):
        err("grid.n", f"must be an integer >= 8, got {n!r}")
        n = default.grid_n

    time_block = data.get("time", {})
    horizon = _number(time_block.get("horizon", default.horizon))
    if horizon is None or horizon <= 0.0:
        err("time.horizon", f"must be a positive number, got {time_block.get('horizon')!r}")
    raw_dt = time_block.get("dt", "characteristic")
    if raw_dt == "characteristic":
        dt = 1.0 / n
        dt_characteristic = True
    else:
        dt = _number(raw_dt)
        dt_characteristic = False
        if dt is None or dt <= 0.0:
            err("time.dt", f'must be a positive number or "characteristic", got {raw_dt!r}')
        elif dt > 1.0 / n + 1e-12:
            err("time.dt", f"violates the stability bound dt <= 1/n = {1.0 / n:.6g}, got {dt!r}")
        else:
            dt_characteristic = abs(dt - 1.0 / n) <= 1e-12

    mode = data.get("mode", default.mode)
    if mode not in MODES:
        err("mode", f"must be one of {list(MODES)}, got {mode!r}")
    if mode == "picard" and not dt_characteristic:
        err("time.dt", 'picard mode requires the characteristic step (dt = 1/n or "characteristic")')

    init = data.get("initial", {})
    initial_name = init.get("name", default.initial_name)
    if initial_name not in INITIALS:
        err("initial.name", f"must be one of {list(INITIALS)}, got {initial_name!r}")
        initial_name = default.initial_name
    allowed_manifolds = _INITIAL_REQUIRES[initial_name]
    if manifold_name not in allowed_manifolds:
        err(
            "initial.name",
            f"{initial_name!r} runs on manifold(s) {list(allowed_manifolds)}, "
            f"config selects {manifold_name!r}",
        )
    if initial_name in _PLANAR_INITIALS and dim < 2:
        err("manifold.dim", f"{initial_name!r} lies in the first two coordinates, needs dim >= 2")
    # generator parameters left out take the generator's defaults (initial.generate)
    if "center" in init and initial_name == "hyperbolic-circle":
        if not _vector(init["center"], 2) or init["center"][1] <= 0.0:
            err(
                "initial.center",
                f"hyperbolic circle centre must lie in the chart (y > 0), got {init['center']!r}",
            )
    elif "center" in init and initial_name in ("circle", "perturbed-circle"):
        if not _vector(init["center"], dim):
            err("initial.center", f"must be a list of {dim} numbers, got {init['center']!r}")
    if initial_name == "torus-geodesic":
        if "origin" in init and not _vector(init["origin"], dim):
            err("initial.origin", f"must be a list of {dim} numbers, got {init['origin']!r}")
        direction = init.get("direction")
        if direction is not None and not (
            _vector(direction, dim) and sorted(abs(x) for x in direction) == [0] * (dim - 1) + [1]
        ):
            err(
                "initial.direction",
                f"must be a coordinate direction ({dim} entries: one 1 or -1, the rest 0), "
                f"got {direction!r}",
            )
    if initial_name == "perturbed-circle":
        if "mode" in init and not _integer(init["mode"], 1):
            err(
                "initial.mode",
                f"perturbation mode must be a positive integer, got {init['mode']!r}",
            )
        if "amplitude" in init and _number(init["amplitude"]) is None:
            err("initial.amplitude", f"must be a number, got {init['amplitude']!r}")
    velocity = init.get("velocity", default.initial_params["velocity"])
    if not isinstance(velocity, dict):
        err("initial.velocity", "must be an object")
    elif (vname := velocity.get("name", "none")) not in VELOCITIES:
        err("initial.velocity.name", f"must be one of {list(VELOCITIES)}, got {vname!r}")
    elif vname == "translate" and not _vector(velocity.get("vector"), dim):
        err(
            "initial.velocity.vector",
            f"translate velocity needs a vector of {dim} numbers, got {velocity.get('vector')!r}",
        )
    elif vname == "rotate":
        if _number(velocity.get("omega")) is None:
            err("initial.velocity.omega", "rotate velocity needs a numeric omega")
        if dim < 2:
            err("initial.velocity.name", "rotate turns the first two coordinates, needs dim >= 2")
        if "center" in velocity and not _vector(velocity["center"], dim):
            err(
                "initial.velocity.center",
                f"must be a list of {dim} numbers, got {velocity['center']!r}",
            )
    initial_params = {k: v for k, v in init.items() if k != "name"}
    initial_params["velocity"] = velocity

    tols = data.get("tolerances", {})
    solver_tol = _number(tols.get("solver", default.solver_tol))
    constraint_tol = _number(tols.get("constraint", default.constraint_tol))
    b_floor = _number(tols.get("bentness_floor", default.b_floor))
    for label, value in (
        ("tolerances.solver", solver_tol),
        ("tolerances.constraint", constraint_tol),
        ("tolerances.bentness_floor", b_floor),
    ):
        if value is None or value <= 0.0:
            err(label, "must be a positive number")

    pic = data.get("picard", {})
    window = pic.get("window", default.picard_window)
    if not _integer(window, 2):
        err("picard.window", f"must be an integer >= 2 (time steps), got {window!r}")
    max_iter = pic.get("max_iter", default.picard_max_iter)
    if not _integer(max_iter, 1):
        err("picard.max_iter", f"must be a positive integer, got {max_iter!r}")
    picard_tol = _number(pic.get("tol", default.picard_tol))
    if picard_tol is None or picard_tol <= 0:
        err("picard.tol", "must be a positive number")

    out = data.get("output", {})
    out_dir = out.get("directory", default.out_dir)
    if out_dir is not None and not isinstance(out_dir, str):
        err("output.directory", f"must be a string path, got {out_dir!r}")
    snapshot_every = out.get("snapshot_every", default.snapshot_every)
    if not _integer(snapshot_every, 0):
        err("output.snapshot_every", f"must be an integer >= 0, got {snapshot_every!r}")

    diag = data.get("diagnostics", {})
    diag_every = diag.get("every", default.diag_every)
    if not _integer(diag_every, 1):
        err("diagnostics.every", f"must be a positive integer, got {diag_every!r}")
    bentness_every = diag.get("bentness_every", default.bentness_every)
    if not _integer(bentness_every, 1):
        err("diagnostics.bentness_every", f"must be a positive integer, got {bentness_every!r}")

    renormalize = data.get("renormalize", default.renormalize)
    if not isinstance(renormalize, bool):
        err("renormalize", f"must be a boolean, got {renormalize!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        manifold_name=manifold_name,
        dim=dim,
        conformal_expression=expression if manifold_name == "conformal" else None,
        grid_n=n,
        dt=dt,
        dt_characteristic=dt_characteristic,
        horizon=horizon,
        mode=mode,
        initial_name=initial_name,
        initial_params=initial_params,
        solver_tol=solver_tol,
        constraint_tol=constraint_tol,
        b_floor=b_floor,
        picard_window=window,
        picard_max_iter=max_iter,
        picard_tol=picard_tol,
        out_dir=out_dir,
        snapshot_every=snapshot_every,
        diag_every=diag_every,
        bentness_every=bentness_every,
        renormalize=renormalize,
    )
