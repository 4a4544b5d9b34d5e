"""Run configuration: JSON parsing with per-field validation paths.

A config document is a JSON object with the sections below (all optional
unless noted; defaults in parentheses):

    manifold     {"name": "euclidean" (default), "dim": 2, "expression": ...}
    grid         {"n": 64}            n >= 8
    time         {"horizon": 1.0}
    mode         "march" | "picard" | "convergence-study"   (march)
    initial      {"name": "circle", ..., "velocity": {"name": "none", ...}}
    tolerances   {"solver": 1e-8, "constraint": 1e-2, "bentness_floor": 1e-3}
    picard       {"window": 16, "max_iter": 30, "tol": 1e-10}
                 window counts steps: the solve covers [0, window * dt],
                 which may be longer than one period of the grid
    output       {"directory": "elwire-out", "snapshot_every": 0}
    diagnostics  {"every": 1, "bentness_every": 10}
    renormalize  false

The time step is the grid spacing 1/n, on which the integral wave solver
and the transport diagnostic rest; no setting changes it, and a
``time.dt`` is refused as an unknown field.  Both modes read the
tolerances alike (see dynamics._gate): ``constraint`` holds the
unit-tangent defect of every recorded level, the last included;
``bentness_floor`` holds the bentness solved every ``bentness_every``
levels (a floor of 0 admits a geodesic).  ``renormalize`` rescales the
march's tangent to unit rows after each step; a picard window always
projects its tangent.
Validation collects every problem (not just the first) with its JSON path,
e.g. ``grid.n: must be an integer >= 8, got 4``: a key that nothing reads,
in any section, and a number that is not finite are refused.  This module
holds the document's shape, its scalar settings and ``mode``;
the ``manifold`` and ``initial`` sections are held to the rules declared
beside what they describe, by the one check that ``make_manifold`` and
``initial.generate`` run too (``geometry.build_chart``, ``initial.check``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import initial
from .errors import ConfigError
from .geometry import build_chart
from .initial import _integer, _number

MODES = ("march", "picard", "convergence-study")

#: JSON path -> (RunConfig field, least value) of each scalar setting; the
#: least value's type gives the kind: an integer >= an int, a finite number
#: > a float (>= for the paths of _CLOSED), a boolean for None
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
#: the float settings that may equal their least value: a bentness floor of 0
#: admits a geodesic, whose bentness on a flat chart is exactly 0
_CLOSED = {"tolerances.bentness_floor"}
#: every key a document may hold outside ``initial``, by JSON path; the other
#: keys of ``manifold`` are its chart's settings (geometry.build_chart), those
#: of ``initial`` its curve's (initial.check)
_PATHS = {*_SCALARS, "manifold.name", "mode", "output.directory"}
#: the sections, each an object
_SECTIONS = {path.split(".")[0] for path in _PATHS if "." in path} | {"initial"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    The field defaults are the one home of the run settings' defaults: an
    empty config document parses to ``RunConfig()``, and the solvers read
    their tolerances, caps and cadences from the instance they are given.
    The fields are independent settings; the time step ``dt`` is not one of
    them but the grid spacing ``1 / grid_n``.
    """

    manifold_name: str = "euclidean"
    dim: int = 2
    conformal_expression: Optional[str] = None
    grid_n: int = 64
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

    @property
    def dt(self) -> float:
        return 1.0 / self.grid_n

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


def _kind(value, least, closed: bool) -> Optional[str]:
    """None if the value is a setting of the kind ``least`` and ``closed``
    give (see ``_SCALARS``), else the wording of that kind."""
    if least is None:
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(least, int):
        return None if _integer(value, least) else f"an integer >= {least}"
    number = _number(value)
    if number is not None and (number >= least if closed else number > least):
        return None
    return f"a number {'>=' if closed else '>'} {least:g}"


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document; raises ConfigError."""
    problems: list[str] = []
    default = RunConfig()
    values = {}  # RunConfig field -> the document's valid setting

    def err(path: str, msg: str):
        problems.append(f"{path}: {msg}")

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
        elif key not in ("manifold", "initial"):
            for inner in sorted(data[key]):
                if f"{key}.{inner}" not in _PATHS:
                    err(f"{key}.{inner}", "unknown field")

    for path, (name, least) in _SCALARS.items():
        section, _, key = path.rpartition(".")
        block = data.get(section, {}) if section else data
        if key in block:
            wrong = _kind(block[key], least, path in _CLOSED)
            if wrong:
                err(path, f"must be {wrong}, got {block[key]!r}")
            else:
                values[name] = float(block[key]) if isinstance(least, float) else block[key]
    dim = values.get("dim", default.dim)
    n = values.get("grid_n", default.grid_n)
    if n * dim * 8 > sys.maxsize:  # the bytes of an (n, dim) float64 field
        err("grid.n", f"must be at most {sys.maxsize // (8 * dim)}: a ({n:.3g}, {dim}) float64 "
            f"field exceeds the {sys.maxsize} bytes numpy can address")

    man = data.get("manifold", {})
    values["manifold_name"] = man.get("name", default.manifold_name)
    settings = {k: v for k, v in man.items() if k not in ("name", "dim")}
    values["conformal_expression"] = settings.get("expression")
    problems += build_chart(values["manifold_name"], dim, settings)[1]

    mode = data.get("mode", default.mode)
    if isinstance(mode, str) and mode in MODES:
        values["mode"] = mode
    else:
        err("mode", f"must be one of {list(MODES)}, got {mode!r}")

    init = data.get("initial", {})
    values["initial_name"] = init.get("name", default.initial_name)
    params = values["initial_params"] = {k: v for k, v in init.items() if k != "name"}
    params.setdefault("velocity", default.initial_params["velocity"])
    problems += initial.check(values["initial_name"], values["manifold_name"], dim, params)

    out_dir = data.get("output", {}).get("directory")
    if out_dir is not None and not (isinstance(out_dir, str) and out_dir != ""):
        err("output.directory", f"must be a path, got {out_dir!r}")
    elif out_dir is not None:
        values["out_dir"] = out_dir

    if problems:
        raise ConfigError(problems)
    return RunConfig(**values)
