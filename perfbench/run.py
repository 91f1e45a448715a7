"""Benchmark of the bdiv library, driven from outside the package.

    python3 perfbench/run.py --workload table1-twostep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in one single-threaded process as a closed loop: one
caller, and the next job starts when the previous one returns.  Set-up
(importing bdiv, making the inputs from the seed, one warm-up job) is
repeated five times and its median reported.  Then the workload's fixed
job list is run pass after pass for about --seconds seconds; each pass is
checked and digested outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones
(see tracing.py); trace.overhead_frac compares the two.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def declared_units(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_bdiv() -> SimpleNamespace:
    """Import bdiv afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "bdiv" or m.startswith("bdiv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bdiv")
    if Path(pkg.__file__).resolve().parent != SRC / "bdiv":
        raise RuntimeError(f"bdiv imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"bdiv.{layer}") for layer in tracing.LAYERS}
    )


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, workload, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _measure(args, workload, tracer, workdir: Path) -> dict:
    clock = time.perf_counter
    setups = []
    for rep in range(SETUP_REPEATS):
        traced_setup = tracer is not None and rep == SETUP_REPEATS - 1
        t0 = clock()
        bd = import_bdiv()
        if traced_setup:
            tracer.job = "setup"
            tracer.install("bdiv", tracing.PROBES)
        try:
            workload.prepare(bd, args.seed, workdir)
            workload.warmup()
        finally:
            if traced_setup:
                tracer.uninstall()
        setups.append(clock() - t0)
    workload.references()

    jobs = workload.jobs()
    walls = {False: [], True: []}
    job_times = {False: [], True: []}
    traced_jobs: list[list] = []
    attempted = failed = 0
    digests = set()
    measured = 0.0
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install("bdiv", tracing.PROBES)
            traced_jobs.append([])
        results = []
        t_pass = clock()
        try:
            for k, job in enumerate(jobs):
                if traced:
                    tracer.job = (pass_no, k)
                    traced_jobs[-1].append(tracer.job)
                    span = tracer.begin(f"{tracing.BENCH}.job")
                t0 = clock()
                results.append(workload.run(job))
                job_times[traced].append(clock() - t0)
                if traced:
                    tracer.end(span)
        finally:
            if traced:
                tracer.uninstall()
        wall = clock() - t_pass
        walls[traced].append(wall)
        measured += wall
        pass_no += 1

        for job, res in zip(jobs, results):
            for op, ok, detail in workload.check(job, res):
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"FAILED {op}: {detail}", file=sys.stderr)
        h = hashlib.sha256()
        workload.digest(h, results)
        digests.add(h.hexdigest())

        step = 2 if tracer is not None else 1
        if pass_no % step == 0:
            typical = statistics.median(walls[False] + walls[True])
            if measured + step * typical > args.seconds:
                break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "attempted": attempted,
        "failed": failed,
        "digest": digests.pop() if len(digests) == 1 else None,
        "passes": pass_no,
    }
    if tracer is None:
        wall_med, n_pass = tracing.median_with_count(walls[False])
        job_med, n_jobs = tracing.median_with_count(job_times[False])
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_med,
            "job_s.p50": job_med,
            "peak_rss_mb": rss_mb,
        }
        out["counts"] = {"wall_s": n_pass, "job_s.p50": n_jobs, "setup_s": len(setups)}
        return out

    per_pass = [
        tracing.per_layer_metrics(tracing.by_name(tracer, ids), wall)
        for ids, wall in zip(traced_jobs, walls[True])
    ]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    setup_layers = tracing.layer_self(tracing.by_name(tracer, ["setup"]))
    metrics["examples.gen_s"] = setup_layers["examples"]
    metrics["trace.wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    out["metrics"] = metrics
    out["counts"] = {"trace.wall_s": len(walls[True])}
    return out


def emit(args, res: dict) -> None:
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(res["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"digest {res['digest'] or 'MISMATCH between passes'} (passes={res['passes']})")
    counts = res["counts"]
    for name in units:
        note = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} {res['metrics'][name]!r} {units[name]}{note}")
    frac = tracing.failure_fraction(res["failed"], res["attempted"])
    print(f"ops_failed_frac {frac!r} frac ({res['failed']} of {res['attempted']} operations)")
    correct = res["failed"] == 0 and res["digest"] is not None
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    name: {"value": res["metrics"][name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name:16s} {line}")
        if proc.returncode != 0 or not lines:
            print(f"{name:16s} exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name:16s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "bdiv" / "__init__.py").is_file():
        print(f"error: no bdiv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    emit(args, run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
