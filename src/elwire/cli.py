"""Command line driver: ``elwire run|check --config FILE [--out DIR]``.

``run`` executes the configured mode (march, picard, or convergence-study,
which reruns the march at the configured resolution and its two
refinements); ``check`` only validates the config.

March and picard runs share one output loop.  Each mode is a producer of
time levels (``dynamics.Level``: fields with tension, geometry samples,
bentness value in force); the loop streams them, keeping only the last three
for the transport check, and writes:

* ``diagnostics.csv``   one row every ``diagnostics.every`` levels plus the
                        last level (see diagnostics module); a row with a
                        non-finite value aborts the run;
* ``snapshot_*.json``   full state dumps (first, last, every
                        ``output.snapshot_every`` levels) in orjson's
                        indented layout; every double reads back bit for
                        bit, and a non-finite value aborts the run;
* ``metadata.json``     config echo, status, summary, failure report if any;
* ``study.json``        resolutions, drift measures and observed orders
                        (convergence-study only).

Exit codes: 0 success, 2 configuration problem or an output directory that
cannot be made, 3 numerical abort; any other exception is a bug and
propagates with its traceback.  A run that aborts still writes the
diagnostics gathered so far plus a failure report naming the reason and the
last good row, so partial results remain inspectable.  With a fixed config the output bytes are reproducible run to
run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import deque
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .diagnostics import DiagnosticsRecord, make_record, transport_check
from .dynamics import Level, march, picard_coupled, prepare_initial
from .errors import ConfigError, ElwireError, NonContractionError, NumericalAbort
from .fields import Grid, m0
from .geometry import make_manifold
from . import elliptic, initial

CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(DiagnosticsRecord))


def build_manifold(cfg: RunConfig):
    return make_manifold(cfg.manifold_name, cfg.dim, expression=cfg.conformal_expression)


def build_initial_state(cfg: RunConfig, manifold, grid: Grid):
    curve, velocity = initial.generate(cfg.initial_name, manifold, grid, cfg.initial_params)
    return prepare_initial(curve, velocity, manifold, grid)


# ---------------------------------------------------------------------------
# output writers (deterministic byte-for-byte for fixed inputs)


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _row(record: DiagnosticsRecord) -> tuple:
    """The record's fields in CSV_COLUMNS order."""
    return tuple(getattr(record, name) for name in CSV_COLUMNS)


def write_csv(path: Path, records: list[DiagnosticsRecord]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_cell(value) for value in _row(rec)))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: a NaN or infinity in ``payload`` is a bug, and
    raises ValueError instead of writing a token JSON parsers reject."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_snapshot(path: Path, level: Level) -> None:
    """Dump a level's fields and time as indented JSON from which
    ``json.loads`` reads every double back bit for bit.

    orjson lays it out as ``json.dumps(indent=2, sort_keys=True)`` does
    (sorted keys, two-space nesting, one number per line) and writes each
    float's shortest round-trip digits in its own spelling (``6e-8``,
    ``0.000015``, ``4e16``).  JSON has no NaN or infinity, so a non-finite
    value raises ``NumericalAbort`` before any byte is written.
    """
    # imported here: its own imports cost start-up time that a run which
    # writes no snapshot would pay for nothing
    import orjson

    if not math.isfinite(level.time):
        raise NumericalAbort(f"snapshot time {level.time} is not finite")
    payload = {"time": level.time}
    for key in ("gamma", "xi", "xi_t", "eta", "theta"):
        value = getattr(level, key)
        if value is None:
            continue
        # orjson encodes only C-contiguous arrays
        value = np.ascontiguousarray(value, dtype=np.float64)
        finite = np.isfinite(value)
        if not finite.all():  # the bad grid index is looked for only on failure
            k = np.nonzero(~finite)[0][0]
            raise NumericalAbort(f"snapshot field {key} is not finite at grid index {k}")
        payload[key] = value
    options = (
        orjson.OPT_INDENT_2
        | orjson.OPT_SORT_KEYS
        | orjson.OPT_SERIALIZE_NUMPY
        | orjson.OPT_APPEND_NEWLINE
    )
    path.write_bytes(orjson.dumps(payload, option=options))


def _record_summary(records: list[DiagnosticsRecord]) -> dict:
    if not records:
        return {}
    e0 = records[0].energy
    drift = max(abs(r.energy - e0) for r in records)
    return {
        "initial_energy": e0,
        "final_energy": records[-1].energy,
        "max_energy_drift": drift,
        # JSON has no NaN: a run without energy has no relative drift
        "max_relative_energy_drift": drift / e0 if e0 > 0 else None,
        "max_constraint_drift": max(r.constraint_drift for r in records),
        "levels_recorded": len(records),
    }


# ---------------------------------------------------------------------------
# level producers: each yields the levels of its mode and adds its own
# entries to the metadata


def _march_levels(cfg: RunConfig, manifold, grid: Grid, meta: dict) -> Iterator[Level]:
    meta["n_steps"] = cfg.n_steps
    meta["effective_horizon"] = cfg.n_steps * cfg.dt
    initial, projection = build_initial_state(cfg, manifold, grid)
    meta["prepared"] = {"projection_magnitude": projection}
    summary = meta["summary"]
    for level in march(initial, manifold, grid, cfg):
        displacement = m0(manifold.displacement(initial.gamma, level.gamma))
        summary["max_displacement"] = max(summary.get("max_displacement", 0.0), displacement)
        yield level


def _level_of(series, m: int):
    """Level m of a dataclass of window series; None and scalars are kept."""
    arrays = {f.name: getattr(series, f.name) for f in dataclasses.fields(series)}
    return dataclasses.replace(
        series, **{k: v[m] for k, v in arrays.items() if isinstance(v, np.ndarray)}
    )


def _picard_levels(cfg: RunConfig, manifold, grid: Grid, meta: dict) -> Iterator[Level]:
    meta["window_steps"] = cfg.picard_window
    initial, projection = build_initial_state(cfg, manifold, grid)
    meta["prepared"] = {"projection_magnitude": projection}
    try:
        iterate, report = picard_coupled(initial, manifold, grid, cfg)
    except NonContractionError as exc:
        # the sweeps up to the failure, and those of a failed inner wave
        # solve, are part of the abort report
        meta["contraction"] = dataclasses.asdict(exc.report)
        if isinstance(exc.__cause__, NonContractionError):
            meta["contraction"]["inner"] = dataclasses.asdict(exc.__cause__.report)
        raise
    meta["contraction"] = dataclasses.asdict(report)
    gate = iterate.bentness  # level 0's, from picard_coupled's one _gate call
    for m in range(cfg.picard_window + 1):
        level = _level_of(iterate, m)
        samples = _level_of(iterate.samples, m)
        if m > 0 and m % cfg.bentness_every == 0:
            gate = elliptic.bentness(level.xi, samples, grid)
        yield dataclasses.replace(level, samples=samples, time=m * grid.dx, bentness=gate)


def _run_into(cfg: RunConfig, out: Path, quiet: bool) -> tuple[int, dict]:
    """Run the configured march or picard window, writing outputs into the
    directory ``out``.

    One loop consumes the levels: it keeps the last three for the transport
    check, records diagnostics every ``diagnostics.every`` levels and writes
    snapshots at level 0, every ``output.snapshot_every`` levels and at the
    last level, which is always recorded too.
    """
    manifold = build_manifold(cfg)
    grid = Grid(cfg.grid_n)
    picard = cfg.mode == "picard"
    config = dataclasses.asdict(cfg)
    meta = {"version": __version__, "config": config, "mode": cfg.mode, "summary": {}}
    levels = (_picard_levels if picard else _march_levels)(cfg, manifold, grid, meta)
    last = cfg.picard_window if picard else cfg.n_steps
    window: deque[Level] = deque(maxlen=3)
    records: list[DiagnosticsRecord] = []
    failure: Optional[dict] = None
    try:
        for index, level in enumerate(levels):
            window.append(level)
            final = index == last
            # the snapshot first: a level it refuses is not recorded as good
            if final or index == 0 or (cfg.snapshot_every and index % cfg.snapshot_every == 0):
                write_snapshot(out / f"snapshot_{index:06d}.json", level)
            if final or index % cfg.diag_every == 0:
                residual = None
                if cfg.dt_characteristic and len(window) == 3:
                    residual = transport_check(list(window), cfg.dt, grid)
                record = make_record(level, manifold, grid, transport_residual=residual)
                # refused before it is recorded: the summary's maxima skip a NaN
                for name, value in zip(CSV_COLUMNS, _row(record)):
                    if value is not None and not math.isfinite(value):
                        raise NumericalAbort(
                            f"diagnostics column {name} is not finite at t={record.time:.6f}"
                        )
                records.append(record)
    except NumericalAbort as exc:
        failure = {"type": type(exc).__name__, "reason": str(exc)}
    write_csv(out / "diagnostics.csv", records)
    meta["status"] = "aborted" if failure else "completed"
    meta["summary"].update(_record_summary(records))
    if failure is not None:
        meta["failure"] = failure
        if records:
            meta["failure"]["last_good"] = dataclasses.asdict(records[-1])
    write_json(out / "metadata.json", meta)
    if failure is not None:
        print(f"aborted: {failure['type']}: {failure['reason']}", file=sys.stderr)
        return 3, meta
    if quiet:
        return 0, meta
    if picard:
        contraction = meta["contraction"]
        ratios = ", ".join(f"{r:.3f}" for r in contraction["ratios"][:6])
        print(
            f"picard window of {cfg.picard_window} steps converged "
            f"in {contraction['iterations']} sweeps "
            f"(ratios: {ratios}) -> {out}"
        )
    else:
        s = meta["summary"]
        print(
            f"marched {cfg.n_steps} steps to t={meta['effective_horizon']:.6g}; "
            f"energy drift {_shown(s['max_relative_energy_drift'], '.3e')}, "
            f"constraint drift {s['max_constraint_drift']:.3e} -> {out}"
        )
    return 0, meta


def _shown(value: Optional[float], spec: str) -> str:
    return "-" if value is None else format(value, spec)


def _order(coarse: Optional[float], fine: Optional[float]) -> Optional[float]:
    if coarse is None or fine is None or coarse <= 1e-14 or fine <= 1e-14:
        return None
    return math.log2(coarse / fine)


def _study_dirs(cfg: RunConfig, out: Path) -> dict[int, Path]:
    """The output directory of each resolution of a convergence study."""
    return {n: out / f"n{n:04d}" for n in (cfg.grid_n, 2 * cfg.grid_n, 4 * cfg.grid_n)}


def _study_into(cfg: RunConfig, out: Path, quiet: bool) -> tuple[int, dict]:
    dirs = _study_dirs(cfg, out)
    resolutions = list(dirs)
    runs = []
    for n, sub_out in dirs.items():
        sub = dataclasses.replace(
            cfg,
            grid_n=n,
            dt=(1.0 / n) if cfg.dt_characteristic else cfg.dt * cfg.grid_n / n,
            mode="march",
        )
        code, meta = _run_into(sub, sub_out, quiet=True)
        if code != 0:
            write_json(out / "study.json", {"status": "aborted", "resolution": n, "detail": meta})
            return code, meta
        runs.append(meta["summary"])
    energy = [r["max_relative_energy_drift"] for r in runs]
    constraint = [r["max_constraint_drift"] for r in runs]
    study = {
        "resolutions": resolutions,
        "energy_drift": {
            "values": energy,
            "orders": [_order(energy[0], energy[1]), _order(energy[1], energy[2])],
        },
        "constraint_drift": {
            "values": constraint,
            "orders": [_order(constraint[0], constraint[1]), _order(constraint[1], constraint[2])],
        },
        "status": "completed",
    }
    write_json(out / "study.json", study)
    if not quiet:
        for i, n in enumerate(resolutions):
            print(
                f"n={n}: energy drift {_shown(energy[i], '.3e')}, "
                f"constraint drift {constraint[i]:.3e}"
            )
        print(
            "observed orders: energy "
            + ", ".join(_shown(o, ".2f") for o in study["energy_drift"]["orders"])
            + "; constraint "
            + ", ".join(_shown(o, ".2f") for o in study["constraint_drift"]["orders"])
        )
    return 0, study


def run(cfg: RunConfig, out_dir: Optional[str] = None, quiet: bool = False) -> int:
    """Execute a validated config; returns the process exit code."""
    out = Path(out_dir or cfg.out_dir)
    study = cfg.mode == "convergence-study"
    try:  # every output directory, before any computation
        for path in [out, *(_study_dirs(cfg, out).values() if study else ())]:
            path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path, or a parent of it, is a file
        print(f"cannot make output directory {path}: {exc.strerror}", file=sys.stderr)
        return 2
    return (_study_into if study else _run_into)(cfg, out, quiet)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elwire",
        description="march, window-solve or convergence-study a closed elastic wire",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the mode selected in the config"),
        ("check", "validate the config and exit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    if args.command == "check":
        if not args.quiet:
            print(f"config ok: mode={cfg.mode}, manifold={cfg.manifold_name}, n={cfg.grid_n}")
        return 0
    try:
        return run(cfg, out_dir=args.out, quiet=args.quiet)
    except ElwireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
