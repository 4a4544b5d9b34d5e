"""Measuring process of the benchmark; run.py starts it with BLAS threads pinned.

    python3 perfbench/worker.py setup   JOB.json
    python3 perfbench/worker.py measure JOB.json RESULT.json

``setup`` times a fresh import of ``elwire.cli`` plus building the manifold
and the initial state, then the calibration kernel (``calibration.py``), and
prints ``{"setup_s": ..., "calibration_s": [...]}``.  ``measure`` repeats
``elwire run`` in-process through ``elwire.cli.main`` while another run still
fits in ``seconds`` or fewer than MIN_RUNS runs are done; with ``trace`` set
it alternates untraced and span-traced runs, at least one of each.  Untraced
runs are sampled by the calibration kernel during and after the run, traced
runs after it; a run's ``run_s`` is its wall time without the kernel passes.
Each run's outputs are summarised (exit code, status, summary values, a
digest of ``diagnostics.csv``) and the output directory is removed before the
next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

#: untraced runs an end-to-end measurement takes at least, so that the
#: longest workload (about 12 s a run) still reports more than one sample
MIN_RUNS = 2


def _import_cli(src: str):
    import elwire
    import elwire.cli

    package = Path(elwire.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"elwire imported from {package}, not from {src}")
    return elwire.cli


def setup(job: dict) -> None:
    text = Path(job["config_path"]).read_text()
    t0 = time.perf_counter()
    cli = _import_cli(job["src"])
    from elwire.config import parse_config
    from elwire.fields import Grid

    cfg = parse_config(text)
    manifold = cli.build_manifold(cfg)
    cli.build_initial_state(cfg, manifold, Grid(cfg.grid_n))
    setup_s = time.perf_counter() - t0
    from calibration import EDGE_PASSES, calibrate, warm_up

    warm_up()
    samples = [calibrate() for _ in range(EDGE_PASSES)]
    print(json.dumps({"setup_s": setup_s, "calibration_s": samples}))


def _outputs(out: Path) -> dict:
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    info = {"output_bytes": sum(p.stat().st_size for p in files)}
    meta_path, csv_path = out / "metadata.json", out / "diagnostics.csv"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        info["status"] = meta.get("status")
        info["summary"] = meta.get("summary", {})
        info["sweeps"] = meta.get("contraction", {}).get("iterations")
    if csv_path.is_file():
        data = csv_path.read_bytes()
        info["csv_sha256"] = hashlib.sha256(data).hexdigest()
        info["csv_rows"] = data.count(b"\n") - 1
    return info


def measure(job: dict) -> dict:
    cli = _import_cli(job["src"])
    from calibration import EDGE_PASSES, Sampler, calibrate, warm_up
    from tracing import Tracer

    work = Path(job["workdir"])
    tracer = Tracer() if job["trace"] else None
    runs = []
    traced_next = False
    warm_up()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and traced_next
        out = work / f"out-{len(runs)}"
        stale = []
        if traced:
            tracer.install()
            stale = tracer.stale_bindings()
        # the span wrappers would count kernel passes as elwire time
        sampler = nullcontext() if traced else Sampler()
        t0 = time.perf_counter()
        with sampler:
            try:
                code = cli.main(
                    ["run", "--config", job["config_path"], "--out", str(out), "--quiet"]
                )
            except Exception as exc:  # a crash is one failed run, not the end of the benchmark
                traceback.print_exc()
                code = f"exception:{type(exc).__name__}"
        if traced:
            run_s = time.perf_counter() - t0
            samples = [calibrate() for _ in range(EDGE_PASSES)]
        else:
            samples = sampler.samples
            run_s = time.perf_counter() - t0 - sum(samples)
        record = {
            "traced": traced,
            "code": code,
            "run_s": run_s,
            "calibration_s": samples,
            **_outputs(out),
        }
        if traced:
            tracer.uninstall()
            record["trace"] = tracer.summary(("dynamics.march", "dynamics.picard_coupled"))
            record["stale_bindings"] = stale
            tracer.reset()
        shutil.rmtree(out, ignore_errors=True)
        runs.append(record)
        if tracer is not None:
            traced_next = not traced_next
        untraced = sum(not r["traced"] for r in runs)
        enough = untraced >= 1 and len(runs) > untraced if tracer else untraced >= MIN_RUNS
        # stop before a run (and its kernel passes) that would end after the measuring time
        if enough and time.perf_counter() - start + run_s + sum(samples) > job["seconds"]:
            break
    return {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    if argv[0] == "setup":
        setup(job)
    else:
        Path(argv[2]).write_text(json.dumps(measure(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
