"""elwire benchmark: end-to-end `elwire run` metrics and a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.  The
benchmark writes its config and the run outputs under ``.perfbench_work/``
and removes them when it ends.  It starts every elwire process with the BLAS
and OpenMP thread counts pinned to 1:

* SETUP_PROBES fresh processes each time importing ``elwire.cli`` and building
  the manifold and initial state (``setup_s`` is their median);
* one measuring process (worker.py) that repeats ``elwire run`` in-process
  through ``elwire.cli.main`` while another run fits in ``--seconds`` seconds
  (at least twice).  With ``--trace 1`` it alternates untraced runs with
  span-traced runs.

``setup_s`` and ``run_s`` are wall times rescaled to the reference host speed
by a calibration kernel timed during and after each untraced run and after
each set-up probe (``calibration.py`` says why and how); the text lines also give the raw
wall times.

Each run's outputs are checked: exit code 0, ``status: completed``, one
diagnostics row per level, ``diagnostics.csv`` byte-identical across the
runs, and, where the config is the seed-0 config, the summary values equal to
the seed commit's (``baseline.json``) within the metric's bound in
BENCHMARK.json.  The traced runs must also count what the scheme fixes: one
``dynamics.step`` per step, one tension solve per marched level, one
diagnostics record per CSV row, and no module binding left unwrapped.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibration import REFERENCE_S
from workloads import WORKLOADS, Workload

SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: wall-clock limit (s) on all child processes of one invocation together
TIME_LIMIT = 170.0
#: summary differences this small are rounding, not accuracy (64 ulps of 1.0)
ROUNDING_FLOOR = 64 * sys.float_info.epsilon
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    return env


def _child(args: list[str], env: dict, deadline: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(deadline - time.monotonic(), 0.0)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} process still running after {TIME_LIMIT:.0f} s") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip()[-2000:]
        raise BenchError(f"{args[0]} process exited {proc.returncode}: {detail}")
    if proc.stderr.strip():
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    return proc.stdout


def collect(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run the setup probes and the measuring process; return their raw data."""
    src = root / "src"
    if not (src / "elwire" / "cli.py").is_file():
        raise BenchError(f"no elwire sources under {src}")
    work = root / ".perfbench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = workload.config_for(seed)
        job = {
            "src": str(src),
            "config_path": str(work / "config.json"),
            "workdir": str(work),
            "seconds": seconds,
            "trace": trace,
        }
        (work / "config.json").write_text(json.dumps(config, indent=2))
        (work / "job.json").write_text(json.dumps(job))
        env = _child_env(src)
        deadline = time.monotonic() + TIME_LIMIT
        setup = [
            json.loads(_child(["setup", str(work / "job.json")], env, deadline))
            for _ in range(SETUP_PROBES)
        ]
        _child(["measure", str(work / "job.json"), str(work / "result.json")], env, deadline)
        data = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    data["setup_s"] = setup
    data["config"] = config
    return data


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[str, float]:
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least 10 samples beyond it.

    With fewer than 20 samples no such percentile exists and the maximum is
    reported.  Percentiles are nearest-rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    label, value = "max", ordered[-1]
    for p in (0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
        if round(n * (1.0 - p), 9) >= 10:
            label, value = f"p{p * 100:g}", ordered[math.ceil(round(p * n, 9)) - 1]
    return label, value


def rescaled_run_s(run: dict) -> float:
    """A run's own wall time at the reference host speed."""
    return run["run_s"] * REFERENCE_S / statistics.mean(run["calibration_s"])


def rescaled_setup_s(probe: dict) -> float:
    """A set-up probe's wall time at the reference host speed."""
    return probe["setup_s"] * REFERENCE_S / statistics.mean(probe["calibration_s"])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# ---------------------------------------------------------------------------
# checks and metrics


def _bounds() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _close(value: float, ref: float, bound: float) -> bool:
    return abs(value - ref) <= bound * abs(ref) + ROUNDING_FLOOR


def _levels(config: dict) -> int:
    """Time levels a run records: window + 1, or steps + 1 with dt = dx."""
    if config.get("mode") == "picard":
        return config["picard"]["window"] + 1
    return round(config["time"]["horizon"] * config["grid"]["n"]) + 1


def check_runs(data: dict, workload: Workload) -> tuple[list[str], list[bool]]:
    """Output checks; returns (problems, per-run ok flags)."""
    config = data["config"]
    picard = config.get("mode") == "picard"
    levels = _levels(config)
    reference = workload.reference() if config == workload.config_for(0) else None
    bounds = _bounds() if reference is not None else {}
    problems: list[str] = []
    ok: list[bool] = []
    digests = {r.get("csv_sha256") for r in data["runs"]}
    if len(digests) != 1:
        problems.append(f"diagnostics.csv differs between runs ({len(digests)} digests)")
    for i, run in enumerate(data["runs"]):
        issues = []
        if run["code"] != 0:
            issues.append(f"exit {run['code']}")
        if run.get("status") != "completed":
            issues.append(f"status {run.get('status')}")
        if run.get("csv_rows") != levels:
            issues.append(f"{run.get('csv_rows')} diagnostics rows, expected {levels}")
        if len(digests) != 1:
            issues.append("diagnostics.csv not reproducible")
        summary = run.get("summary") or {}
        if reference is not None and not issues:
            for metric, key in (
                ("energy_drift_rel", "max_relative_energy_drift"),
                ("constraint_drift_max", "max_constraint_drift"),
            ):
                if not _close(summary[key], reference[metric], bounds[metric]):
                    issues.append(f"{metric} {summary[key]!r} vs reference {reference[metric]!r}")
            sweeps = reference.get("picard_sweeps")
            if picard and run.get("sweeps") != sweeps:
                issues.append(f"{run.get('sweeps')} picard sweeps, reference {sweeps}")
        if run["traced"]:
            issues.extend(_trace_issues(run, config, levels))
        if issues:
            problems.append(f"run {i}: " + "; ".join(issues))
        ok.append(not issues)
    traced = [r for r in data["runs"] if r["traced"]]
    counts = [{k: v["calls"] for k, v in r["trace"]["per_name"].items()} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced runs disagree on call counts")
    return problems, ok


def _trace_issues(run: dict, config: dict, levels: int) -> list[str]:
    trace = run["trace"]
    calls = {k: v["calls"] for k, v in trace["per_name"].items()}
    issues = [f"unwrapped binding {name}" for name in run["stale_bindings"]]
    expected = {"cli.main": 1, "diagnostics.make_record": run.get("csv_rows")}
    if config.get("mode") == "picard":
        expected["dynamics.picard_coupled"] = 1
    else:
        steps = levels - 1
        expected.update(
            {"dynamics.march": 1, "dynamics.step": steps, "elliptic.solve_flux_form": steps + 1}
        )
    for name, count in expected.items():
        if calls.get(name, 0) != count:
            issues.append(f"{name} called {calls.get(name, 0)} times, expected {count}")
    split = trace["split"]
    if split is None:
        issues.append("no march/picard_coupled span recorded")
    elif abs(sum(split["self_s"].values()) - split["root_s"]) > 1e-9 * max(1.0, split["root_s"]):
        issues.append("self times under the root span do not add up to it")
    return issues


def end_to_end(data: dict) -> dict:
    runs = [r for r in data["runs"] if not r["traced"]]
    summary = next((r["summary"] for r in runs if r.get("status") == "completed"), {})
    return {
        "run_s": (statistics.median(rescaled_run_s(r) for r in runs), "s"),
        "setup_s": (statistics.median(rescaled_setup_s(p) for p in data["setup_s"]), "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
        "energy_drift_rel": (summary.get("max_relative_energy_drift"), "1"),
        "constraint_drift_max": (summary.get("max_constraint_drift"), "1"),
    }


def per_layer(data: dict) -> dict:
    """Per-layer metrics: medians over the traced runs (counts repeat exactly)."""
    traced = [r for r in data["runs"] if r["traced"]]
    untraced = [r for r in data["runs"] if not r["traced"]]
    steps = _levels(data["config"]) - 1

    def med(fn):
        return statistics.median(fn(r["trace"]) for r in traced)

    def n_calls(name):
        return traced[0]["trace"]["per_name"].get(name, {}).get("calls", 0)

    def seconds(name, key):
        return med(lambda t: t["per_name"].get(name, {}).get(key, 0.0))

    def calls(name):
        return n_calls(name), "count"

    def self_s(name):
        return seconds(name, "self_s"), "s"

    def total_s(name):
        return seconds(name, "total_s"), "s"

    def per_call(name):
        count = n_calls(name)
        return (1e3 * seconds(name, "self_s") / count if count else 0.0), "ms"

    def step_ms(pick):
        return med(lambda t: pick(t["step_ms"]) if t["step_ms"] else 0.0), "ms"

    def elliptic_self(t):
        return sum(v["self_s"] for k, v in t["per_name"].items() if k.startswith("elliptic."))

    overhead = statistics.median(rescaled_run_s(r) for r in traced) - statistics.median(
        rescaled_run_s(r) for r in untraced
    )
    return {
        "geometry.sample_geometry.calls_per_step": (
            n_calls("geometry.sample_geometry") / steps, "count/step"
        ),
        "geometry.sample_geometry.self_s": self_s("geometry.sample_geometry"),
        "fields.cov_dx.calls": calls("fields.cov_dx"),
        "fields.cov_dx.self_s": self_s("fields.cov_dx"),
        "elliptic.solve_flux_form.calls": calls("elliptic.solve_flux_form"),
        "elliptic.solve_flux_form.self_ms_per_call": per_call("elliptic.solve_flux_form"),
        "elliptic.bentness.calls": calls("elliptic.bentness"),
        "elliptic.bentness.self_ms_per_call": per_call("elliptic.bentness"),
        "elliptic.self_share": (med(lambda t: elliptic_self(t) / t["run_s"]), "1"),
        "elliptic.share": (med(lambda t: t["layer_inclusive_s"]["elliptic"] / t["run_s"]), "1"),
        "wave.leapfrog_step.self_ms_per_call": per_call("wave.leapfrog_step"),
        "wave.wave_series.calls": calls("wave.wave_series"),
        "wave.wave_series.self_s": self_s("wave.wave_series"),
        "wave.wave_integral.self_s": self_s("wave.wave_integral"),
        "wave.assemble_wave_sources.self_s": self_s("wave.assemble_wave_sources"),
        "wave.picard_wave_solve.calls": calls("wave.picard_wave_solve"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.ms_p50": step_ms(statistics.median),
        "dynamics.step.ms_tail": step_ms(lambda v: tail(v)[1]),
        "dynamics.step.self_ms_per_call": per_call("dynamics.step"),
        "dynamics.assemble_sources.self_ms_per_call": per_call("dynamics.assemble_sources"),
        "dynamics.picard_coupled.self_s": self_s("dynamics.picard_coupled"),
        "dynamics.picard_coupled.sweeps": (traced[0].get("sweeps") or 0, "count"),
        "diagnostics.make_record.self_ms_per_call": per_call("diagnostics.make_record"),
        "diagnostics.transport_check.self_ms_per_call": per_call("diagnostics.transport_check"),
        "initial.generate.s": total_s("initial.generate"),
        "dynamics.prepare_initial.s": total_s("dynamics.prepare_initial"),
        "config.parse_config.s": total_s("config.parse_config"),
        "cli.write_json.self_s": self_s("cli.write_json"),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
        "cli.output_bytes": (traced[0]["output_bytes"], "B"),
        "trace.overhead_s": (overhead, "s"),
    }


# ---------------------------------------------------------------------------
# report


def report(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path
) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and human-readable lines."""
    data = collect(workload, seed, seconds, trace, root)
    problems, ok = check_runs(data, workload)
    failed = ok.count(False)
    env = data["environment"]
    lines = [
        f"workload {workload.name} seed {seed} trace {int(trace)}: "
        f"config {json.dumps(data['config'])}",
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, blas {env['blas']}, threads {env['threads']}",
    ]
    codes = dict(Counter(str(r["code"]) for r in data["runs"] if r["code"] != 0))
    lines.append(f"runs_failed {failed} of {len(ok)} (nonzero exits by code: {codes or 'none'})")
    untraced = [r for r in data["runs"] if not r["traced"]]
    for label, values in (
        ("run_s", [rescaled_run_s(r) for r in untraced]),
        ("run wall time", [r["run_s"] for r in untraced]),
    ):
        q1, q3 = quartiles(values)
        high_label, high = tail(values)
        lines.append(
            f"{label} median {statistics.median(values):.4f} s, quartiles {q1:.4f}/{q3:.4f}, "
            f"{high_label} {high:.4f}, n={len(values)}: " + ", ".join(f"{s:.4f}" for s in values)
        )
    calibration = [c for r in untraced for c in r["calibration_s"]]
    lines.append(
        f"calibration kernel {1e3 * REFERENCE_S:g} ms at reference speed; during the runs "
        f"median {1e3 * statistics.median(calibration):.3f} ms, range "
        f"{1e3 * min(calibration):.3f}-{1e3 * max(calibration):.3f} ms, "
        f"{len(calibration)} passes"
    )
    for label, values in (
        ("setup_s probes", [rescaled_setup_s(p) for p in data["setup_s"]]),
        ("setup wall times", [p["setup_s"] for p in data["setup_s"]]),
    ):
        lines.append(f"{label} " + ", ".join(f"{s:.4f}" for s in values))
    metrics = per_layer(data) if trace else end_to_end(data)
    if trace:
        first = next(r for r in data["runs"] if r["traced"])["trace"]
        if first["step_ms"]:
            label = tail(first["step_ms"])[0]
            lines.append(f"dynamics.step.ms_tail is the {label} of {len(first['step_ms'])} steps")
        split = first["split"]
        if split is not None:
            top = sorted(split["self_s"].items(), key=lambda kv: -kv[1])
            lines.append(
                f"self-time split under {split['root']} ({split['root_s']:.4f} s): "
                + ", ".join(f"{k} {100 * v / split['root_s']:.1f}%" for k, v in top[:12])
            )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value if value is None else format(value, '.6g')} {unit}")
    lines.extend(f"CHECK FAILED: {p}" for p in problems)
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, lines = report(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path.cwd()
        )
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"wall time {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
