"""sha256 digests of every output file of a fixed set of small runs.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/output_digests.py          # print them as JSON
    PYTHONPATH=src python tests/output_digests.py --write  # rewrite output_digests.json

Every config of CONFIGS runs once, in this one process, through
``elwire.cli.main`` into a temporary directory.  The record of a run is its
exit code, its standard-error lines and the sha256 of each file it wrote,
keyed by the file's path under the run's output directory.  OpenBLAS is
pinned to one thread, as the outputs are compared byte for byte.  The numpy
version is recorded beside the digests, since another numpy may round
differently.

``tests/test_cli.py::test_outputs_match_their_digests`` compares a fresh
record with ``output_digests.json``.  A change that means to move outputs
regenerates that file with ``--write`` and lists the files that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
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
    # level 0 passes (bentness 0.98741); level 1 ends a step and is recorded
    # with its defect 4.9e-4 past the tolerance; level 2's fresh bentness
    # 0.98667 falls below the floor, after the snapshots of levels 0-1
    "abort-window-gate": {
        "mode": "picard",
        "grid": {"n": 32},
        "picard": {"window": 4},
        "initial": _PERTURBED,
        "tolerances": {"constraint": 3e-4, "bentness_floor": 0.987},
        "output": {"snapshot_every": 1},
        "diagnostics": {"bentness_every": 2},
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


def record() -> dict:
    """Run every config and return the record of each, with numpy's version."""
    import numpy

    import elwire.cli

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CONFIGS.items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(data))
            out = Path(tmp) / name
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)
    # before numpy loads its BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    text = json.dumps(record(), indent=2, sort_keys=True) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
