"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import run  # noqa: E402
from workloads import AMPLITUDE_RANGE, CENTER_RANGE, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    Workload(
        "tiny-march",
        "flat march at n = 16",
        {"grid": {"n": 16}, "time": {"horizon": 0.25}, "initial": {"name": "perturbed-circle"}},
    ),
    Workload(
        "tiny-sphere",
        "curved march at n = 16",
        {
            "manifold": {"name": "sphere"},
            "grid": {"n": 16},
            "time": {"horizon": 0.25},
            "initial": {"name": "sphere-loop"},
        },
    ),
    Workload(
        "tiny-picard",
        "window iteration at n = 32",
        {
            "mode": "picard",
            "grid": {"n": 32},
            "picard": {"window": 4},
            "initial": {"name": "perturbed-circle"},
        },
    ),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = run.report(workload, seed=3, seconds=0.0, trace=trace, root=ROOT)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] == 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert not (ROOT / ".perfbench_work" / f"{workload.name}-s3-p{os.getpid()}").exists()


def test_benchmark_json_workloads_are_defined_here():
    for entry in SPEC["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]


def test_seed_zero_is_the_listed_config_and_other_seeds_stay_in_range():
    for workload in WORKLOADS.values():
        assert workload.config_for(0) == workload.config
        assert workload.config_for(7) == workload.config_for(7)
        init = workload.config_for(7)["initial"]
        if workload.config["initial"]["name"] != "perturbed-circle":
            assert workload.config_for(7) == workload.config
            continue
        assert init["mode"] == 2
        assert AMPLITUDE_RANGE[0] <= init["amplitude"] <= AMPLITUDE_RANGE[1]
        assert all(CENTER_RANGE[0] <= c <= CENTER_RANGE[1] for c in init["center"])
        assert workload.config_for(7) != workload.config_for(8)


def test_a_wrong_reference_fails_the_output_check(monkeypatch):
    workload = TINY[0]
    monkeypatch.setattr(
        Workload,
        "reference",
        lambda self: {"energy_drift_rel": 1.0, "constraint_drift_max": 1.0, "picard_sweeps": 1},
    )
    result, lines = run.report(workload, seed=0, seconds=0.0, trace=False, root=ROOT)
    assert not result["correct"] and result["failed"] == 2
    assert any("energy_drift_rel" in line for line in lines)


def test_a_nonzero_exit_counts_as_a_failed_run():
    aborting = Workload(
        "tiny-abort",
        "constraint gate below rounding, so the first step aborts (exit 3)",
        {"grid": {"n": 16}, "time": {"horizon": 0.25}, "tolerances": {"constraint": 1e-30},
         "initial": {"name": "circle"}},
    )
    result, lines = run.report(aborting, seed=0, seconds=0.0, trace=False, root=ROOT)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert any("{'3': 2}" in line for line in lines)


def test_the_sampler_times_the_kernel_during_and_after_its_block():
    with calibration.Sampler() as sampler:
        time.sleep(2.5 * calibration.INTERVAL_S)
    assert len(sampler.samples) >= 3
    assert all(0.0 < s < 1.0 for s in sampler.samples)
    run_ = {"run_s": 2.0, "calibration_s": [0.5 * calibration.REFERENCE_S] * 3}
    assert run.rescaled_run_s(run_) == pytest.approx(4.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert run.tail([float(i) for i in range(1, 21)]) == ("p50", 10.0)
    assert run.tail([float(i) for i in range(1, 101)]) == ("p90", 90.0)


def test_fails_without_sources_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "march-sphere-n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
