"""The benchmark's workloads: seeded `elwire run` configs and their references.

Seed 0 gives each workload's configuration exactly as listed below.  Any
other seed draws the perturbed circle's amplitude from AMPLITUDE_RANGE and
its centre from CENTER_RANGE (per axis).  The mode stays at 2: mode 3 raises
the march's relative energy drift about 14-fold and mode 4 about 80-fold, so
a drawn mode would swamp every accuracy metric's bound.  The sphere loop has
no generator parameters, so every seed gives the same sphere config.

Reference output values (seed 0, recorded at the seed commit) live in
``baseline.json`` next to this file; they apply to every seed whose config
equals the seed-0 config.

BENCHMARK.json gates only the two flat marches.  The sphere and picard
workloads run through the same harness and checks, but on a shared 2-vCPU
host, which switches between speed levels about 2x apart, their raw wall
times over ten seeds spread by up to 41% (sphere) and 29% (picard) of the
median, against 6-19% for the flat marches; no bound of at most 25% would
hold for them.  With the host-speed rescaling of ``calibration.py`` their
``run_s`` spread over ten seeds fell to 6.3% (sphere) and 5.0% (picard) in
one set each; they stay ungated because gating four workloads would halve
the measuring time of every run within the same total time.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

#: perturbation amplitude drawn for seeds other than 0 (seed 0 uses 0.01)
AMPLITUDE_RANGE = (0.0098, 0.0102)
#: chart range of each centre coordinate drawn for seeds other than 0
CENTER_RANGE = (-0.25, 0.25)


@dataclass(frozen=True)
class Workload:
    """One `elwire run` config (its seed-0 form) and why it is benchmarked."""

    name: str
    why: str
    config: dict

    def config_for(self, seed: int) -> dict:
        """The config this workload runs under ``seed`` (seed 0: ``config``)."""
        cfg = copy.deepcopy(self.config)
        init = cfg.get("initial", {})
        if seed == 0 or init.get("name") != "perturbed-circle":
            return cfg
        rng = random.Random(f"{self.name}:{seed}")
        init["amplitude"] = round(rng.uniform(*AMPLITUDE_RANGE), 7)
        init["center"] = [round(rng.uniform(*CENTER_RANGE), 6) for _ in range(2)]
        return cfg

    def reference(self) -> dict | None:
        """Seed-commit output values for the seed-0 config, if recorded."""
        entry = json.loads(BASELINE_PATH.read_text())["workloads"].get(self.name)
        return None if entry is None else entry["reference"]


def _flat_march(n: int, steps: int) -> dict:
    return {
        "manifold": {"name": "euclidean"},
        "grid": {"n": n},
        "time": {"horizon": steps / n},
        "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "march-flat-n1024",
            "dense direct elliptic solves dominate a flat march (dt = dx, 8 steps); "
            "the N = 1024 gate of the sparse elliptic path is read here",
            _flat_march(1024, 8),
        ),
        Workload(
            "march-flat-n4096",
            "N*n = 8192 > DENSE_CUTOFF, so the tension and bentness solves run "
            "matrix-free CG (2 steps); the only workload past that size switch",
            _flat_march(4096, 2),
        ),
        Workload(
            "march-sphere-n64",
            "small-N curved chart (128 steps): geometry sampling, diagnostics and "
            "per-step Python overhead show where elliptic work is small",
            {
                "manifold": {"name": "sphere"},
                "grid": {"n": 64},
                "time": {"horizon": 2.0},
                "initial": {"name": "sphere-loop"},
            },
        ),
        Workload(
            "picard-flat-n128-w32",
            "coupled window iteration (32 steps): wave series solves and many small "
            "tension solves instead of one solve per marched level",
            {
                "mode": "picard",
                "grid": {"n": 128},
                "picard": {"window": 32},
                "initial": {"name": "perturbed-circle", "mode": 2, "amplitude": 0.01},
            },
        ),
    )
}
