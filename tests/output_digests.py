"""sha256 digests of every output file of a fixed set of small runs.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/output_digests.py          # print them as JSON
    PYTHONPATH=src python tests/output_digests.py --write  # rewrite output_digests.json
    PYTHONPATH=src python tests/output_digests.py --compare OTHER/src

Every config of CONFIGS runs once, in this one process, through
``elwire.cli.main`` into a temporary directory (``--out DIR`` keeps the
outputs under DIR/<config>).  The record of a run is its exit code, its
standard-error lines and the sha256 of each file it wrote, keyed by the
file's path under the run's output directory.  OpenBLAS is pinned to one
thread, as the outputs are compared byte for byte.  The numpy version is
recorded beside the digests, since another numpy may round differently.

``tests/test_cli.py::test_outputs_match_their_digests`` compares a fresh
record with ``output_digests.json``.  A change that means to move outputs
regenerates that file with ``--write`` and lists the files that changed.

``--compare SRC`` makes that list: it runs every config under this tree
and, in a child process, under the ``src`` directory SRC of another
checkout, then prints one line per difference.  A file whose bytes moved
gets what a change of shape added or removed (a CSV's row count and
columns, a JSON file's keys and list lengths), then the largest absolute
difference of the numbers both versions hold and where it is: the
snapshot key or metadata path (``xi[12][0]``, ``contraction.ratios[4]``)
or the CSV column and row; a changed text value is named too.  Changed
exit codes and standard-error lines, and files written by one side only,
are listed as such.  It exits 1 if anything moved, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).with_name("output_digests.json")

_PERTURBED = {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01}
_CADENCE = {"output": {"snapshot_every": 4}, "diagnostics": {"bentness_every": 3}}
#: the hyperbolic circle pushed out of the half-plane within its first step
_CHART_EXIT = {
    "name": "hyperbolic-circle",
    "center": [0, 0.1],
    "velocity": {"name": "translate", "vector": [0, -10]},
}

#: name -> config of an ``elwire run``; every run is small (n <= 64), and
#: ``config-errors`` pins the wording and order of config problems
CONFIGS = {
    "march-flat": {"grid": {"n": 32}, "time": {"horizon": 12 / 32}, "initial": _PERTURBED, **_CADENCE},
    "march-sphere": {
        "manifold": {"name": "sphere"},
        "grid": {"n": 32},
        "time": {"horizon": 12 / 32},
        "initial": {"name": "sphere-loop"},
        **_CADENCE,
    },
    "march-sphere-3d": {
        "manifold": {"name": "sphere", "dim": 3},
        "grid": {"n": 32},
        "time": {"horizon": 6 / 32},
        "initial": {"name": "sphere-loop", "velocity": {"name": "translate", "vector": [0, 0, 0.2]}},
    },
    "march-torus-3d": {
        "manifold": {"name": "flat-torus", "dim": 3},
        "grid": {"n": 32},
        "time": {"horizon": 6 / 32},
        "initial": {"name": "circle", "velocity": {"name": "rotate", "omega": 0.5}},
    },
    "march-hyperbolic-translate": {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 8 / 32},
        "initial": {
            "name": "hyperbolic-circle",
            "velocity": {"name": "translate", "vector": [0.1, 0.0]},
        },
        "output": {"snapshot_every": 3},
    },
    "march-conformal-renormalized": {
        "manifold": {"name": "conformal", "expression": "0.1*x*y"},
        "grid": {"n": 32},
        "time": {"horizon": 8 / 32},
        "initial": _PERTURBED,
        "renormalize": True,
        "output": {"snapshot_every": 4},
    },
    "picard-flat": {"mode": "picard", "grid": {"n": 32}, "picard": {"window": 6}, "initial": _PERTURBED},
    "picard-sphere": {
        "mode": "picard",
        "manifold": {"name": "sphere"},
        "grid": {"n": 32},
        "picard": {"window": 8},
        "initial": {"name": "sphere-loop"},
        **_CADENCE,
    },
    "picard-hyperbolic": {
        "mode": "picard",
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "picard": {"window": 8},
        "initial": {"name": "hyperbolic-circle"},
    },
    "picard-conformal": {
        "mode": "picard",
        "manifold": {"name": "conformal", "expression": "0.1*x*y"},
        "grid": {"n": 32},
        "picard": {"window": 8},
        "initial": {"name": "circle"},
    },
    "abort-geodesic-start": {
        "manifold": {"name": "flat-torus"},
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": {"name": "torus-geodesic", "direction": [1, 0]},
    },
    "abort-constraint-gate": {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 1.0},
        "initial": {"name": "hyperbolic-circle"},
    },
    "abort-chart-exit": {
        "manifold": {"name": "hyperbolic"},
        "grid": {"n": 32},
        "time": {"horizon": 1.0},
        "initial": _CHART_EXIT,
        "tolerances": {"constraint": 0.9, "bentness_floor": 1e-9},
    },
    "abort-unconverged-picard": {
        "mode": "picard",
        "grid": {"n": 64},
        "picard": {"window": 16, "max_iter": 2},
        "initial": _PERTURBED,
    },
    # the wire's bentness falls as its mode-2 bend relaxes: levels 0 and 2
    # pass (fresh bentness 0.98797, 0.98765), and level 4's 0.98746 falls
    # below the floor, after the snapshots of levels 0-3
    "abort-window-gate": {
        "mode": "picard",
        "grid": {"n": 32},
        "picard": {"window": 8},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.3},
        "tolerances": {"bentness_floor": 0.9876},
        "output": {"snapshot_every": 1},
        "diagnostics": {"bentness_every": 2},
    },
    # a circle in rigid rotation: its window contracts in 11 sweeps at n = 16
    "picard-rotating": {
        "mode": "picard",
        "grid": {"n": 16},
        "picard": {"window": 8},
        "initial": {"name": "circle", "velocity": {"name": "rotate", "omega": 1}},
    },
    # a bent wire rotating fast: the sweeps stop contracting after 4
    "abort-noncontracting-window": {
        "mode": "picard",
        "grid": {"n": 16},
        "picard": {"window": 12},
        "initial": {
            "name": "perturbed-circle",
            "mode": 3,
            "amplitude": 0.05,
            "velocity": {"name": "rotate", "omega": 2},
        },
    },
    "config-errors": {
        "grid": None,
        "time": {"horizon": 0, "dt": "fast"},
        "initial": {
            "name": "circle",
            "amplitude": 0.5,
            "velocity": {"name": "rotate", "omega": 1, "centre": [0.5, 0.5]},
        },
        "picard": {"window": 1},
        "output": {"directory": ""},
        "renormalize": "yes",
        "seed": 3,
    },
    "study": {
        "mode": "convergence-study",
        "grid": {"n": 16},
        "time": {"horizon": 0.25},
        "initial": _PERTURBED,
        "tolerances": {"constraint": 0.5},
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(root: Path) -> dict:
    """Run every config, each into ``root/<name>``, and return the record of
    each, with numpy's version."""
    import numpy

    import elwire.cli

    runs = {}
    root.mkdir(parents=True, exist_ok=True)
    for name, data in CONFIGS.items():
        config = root / f"{name}.json"
        config.write_text(json.dumps(data))
        out = root / name
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = elwire.cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"])
        files = sorted(p for p in out.rglob("*") if p.is_file())
        runs[name] = {
            "exit": code,
            "stderr": stderr.getvalue().splitlines(),
            "files": {p.relative_to(out).as_posix(): _sha256(p) for p in files},
        }
    return {"numpy": numpy.__version__, "runs": runs}


def _parse(text: str, suffix: str):
    """An output file's content: a CSV as (header, rows), else its JSON value."""
    if suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return header, rows
    return json.loads(text)


def _leaves(content, suffix: str):
    """(location, value) of every value of a parsed output file: each number
    or string of a JSON file by its key path, each CSV cell by column and row."""
    if suffix == ".csv":
        header, rows = content
        for r, row in enumerate(rows):
            for column, cell in zip(header, row):
                yield f"{column} (row {r})", cell
        return
    stack = [("", content)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, dict):
            stack += [(f"{where}.{k}" if where else k, v) for k, v in value.items()]
        elif isinstance(value, list):
            stack += [(f"{where}[{i}]", v) for i, v in enumerate(value)]
        else:
            yield where, value


def _layout(old, new, where: str = ""):
    """What a change of shape added or removed between two parsed JSON
    values: the keys of one side only, and lists whose length changed."""
    if isinstance(old, dict) and isinstance(new, dict):
        at = f"{where}." if where else ""
        yield from (f"removed {at}{k}" for k in sorted(old.keys() - new.keys()))
        yield from (f"added {at}{k}" for k in sorted(new.keys() - old.keys()))
        for k in sorted(old.keys() & new.keys()):
            yield from _layout(old[k], new[k], f"{at}{k}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{where} length {len(old)} → {len(new)}"
        for i, (x, y) in enumerate(zip(old, new)):
            yield from _layout(x, y, f"{where}[{i}]")


def _csv_layout(old, new):
    """A change of a CSV's row count, and its columns of one side only."""
    (old_header, old_rows), (new_header, new_rows) = old, new
    if len(old_rows) != len(new_rows):
        yield f"rows {len(old_rows)} → {len(new_rows)}"
    yield from (f"removed column {c}" for c in old_header if c not in new_header)
    yield from (f"added column {c}" for c in new_header if c not in old_header)


def _number(value):
    """The value as a float, or None if it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _difference(old: str, new: str, suffix: str) -> str:
    """Where two versions of an output file with this suffix differ: what a
    change of shape added or removed, and by how much the values both hold
    moved."""
    old, new = _parse(old, suffix), _parse(new, suffix)
    parts = list((_csv_layout if suffix == ".csv" else _layout)(old, new))
    a, b = dict(_leaves(old, suffix)), dict(_leaves(new, suffix))
    worst, where, texts = 0.0, None, []
    for key, x in a.items():
        y = b.get(key, x)
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            texts.append(f"{key}: {x!r} -> {y!r}")
            continue
        gap = abs(fx - fy)  # NaN only where one side is not finite: the values differ
        gap = math.inf if math.isnan(gap) else gap
        if where is None or gap > worst:
            worst, where = gap, key
    parts += [] if where is None else [f"{worst:.2g} at {where}"]
    parts += texts[:1] + ([f"and {len(texts) - 1} more text values"] if len(texts) > 1 else [])
    return "; ".join(parts) or "bytes differ, values equal"


def compare(src: Path, root: Path) -> list:
    """Run every config under this tree and under ``src``; the lines of
    their differences."""
    here = record(root / "here")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    child = subprocess.run(
        [sys.executable, __file__, "--out", str(root / "there")],
        env=env, capture_output=True, text=True,
    )
    if child.returncode:
        sys.exit(f"the runs under {src} failed:\n{child.stderr}")
    there = json.loads(child.stdout)
    lines = []
    for name, new in here["runs"].items():
        old = there["runs"][name]
        for key in ("exit", "stderr"):
            if old[key] != new[key]:
                lines.append(f"{name}: {key} {old[key]!r} -> {new[key]!r}")
        for file in sorted(set(old["files"]) | set(new["files"])):
            if file not in new["files"] or file not in old["files"]:
                side = "the other tree" if file in old["files"] else "this tree"
                lines.append(f"{name}/{file}: written by {side} only")
            elif old["files"][file] != new["files"][file]:
                old_text = (root / "there" / name / file).read_text()
                new_text = (root / "here" / name / file).read_text()
                diff = _difference(old_text, new_text, Path(file).suffix)
                lines.append(f"{name}/{file}: {diff}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name}")
    parser.add_argument("--out", type=Path, help="keep every run's outputs under this new directory")
    parser.add_argument(
        "--compare", type=Path, metavar="SRC",
        help="list the outputs that differ from those of the elwire package under SRC",
    )
    args = parser.parse_args(argv)
    # before numpy loads its BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        root = args.out or Path(tmp)
        if args.compare:
            lines = compare(args.compare, root)
            sys.stdout.write("".join(line + "\n" for line in lines) or "no output moved\n")
            return 1 if lines else 0
        text = json.dumps(record(root), indent=2, sort_keys=True) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
