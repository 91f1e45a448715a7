"""Benchmark snapshot: writes BENCH_<pr>.json at the repository root.

    python3 scripts/bench_snapshot.py --pr 8
    python3 scripts/bench_snapshot.py --pr 8 --parent ../bdiv-parent

For each checkout measured (this one, labelled "change", and with --parent
that one too, labelled "parent") it records:

- per workload of perfbench/run.py, RUNS runs at --trace 0, each in a
  fresh process with the BENCHMARK.json run length: the median and
  quartiles of every end-to-end metric, the output digest of each seed
  (run k uses seed k) and ops_failed_frac;
- per workload, one --trace 1 run: the per-layer count metrics (exact, so
  one run suffices);
- two layer rows: ns per cell per iteration of one projected-FISTA solve
  (_DualState.solve) at fixed nu on the Nirenberg field at 16^2 (the size
  of hierarchy-small), 32^2, 64^2, 128^2 and 256^2, the duality-gap check
  every CHECK_EVERY iterations included; and ms per norms.morrey_norm call on the seed-1 spikes field
  at 32^2, 48^2, 64^2, 128^2 and 256^2, the two largest sizes in the first
  MORREY_RUNS rounds only (the argsort-per-centre body took minutes at
  256^2).

With --parent every round runs both checkouts, alternating which goes
first, so the two columns are paired.  Every child process is
single-threaded numpy.  Each column names the commit of its checkout and
the SHA-256 of the src/ files it measured; the file also records nproc,
Python and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUNS = 10  # paired runs per workload
FISTA_SIZES = (16, 32, 64, 128, 256)
FISTA_NU = 0.06  # near the root of the Table-1 two-step first solve
FISTA_ITERS = 200
FISTA_REPEATS = 3  # timed solves per size and run
MORREY_SIZES = (32, 48, 64, 128, 256)
MORREY_RUNS = {128: 3, 256: 1}  # rounds that time these sizes; others: RUNS

# one timed FISTA solve per repeat, from a fresh zero dual field, so every
# repeat does the same work; argv: sizes, nu, iterations, repeats
FISTA_LAYER = """
import json, sys, time
from bdiv.examples import nirenberg_field
from bdiv.norms import lp_norm
from bdiv.variational import _DualState

sizes, nu = sys.argv[1].split(","), float(sys.argv[2])
iters, repeats = int(sys.argv[3]), int(sys.argv[4])
out = {}
for n in map(int, sizes):
    f = nirenberg_field(n)
    farr = f.values / lp_norm(f, 2)
    times = []
    for _ in range(repeats):
        state = _DualState(farr, f.grid)
        t0 = time.perf_counter()
        _, ran, _ = state.solve(nu, iters, 0.0, 1.0)
        times.append(time.perf_counter() - t0)
        if ran != iters:
            raise SystemExit(f"solve stopped after {ran} of {iters} iterations")
    out[n] = [t / (iters * f.values.size) * 1e9 for t in times]
print(json.dumps(out))
"""


# one timed morrey_norm call per size; argv: sizes
MORREY_LAYER = """
import json, sys, time
from bdiv.examples import random_field
from bdiv.norms import morrey_norm

out = {}
for n in map(int, sys.argv[1].split(",")):
    f = random_field(1, n, law="spikes")
    t0 = time.perf_counter()
    morrey_norm(f)
    out[n] = (time.perf_counter() - t0) * 1e3
print(json.dumps(out))
"""


def child_env(tree: Path | None = None) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    return env


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One perfbench/run.py process of the checkout at tree; returns its
    JSON line plus the pass digest."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=child_env(), capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    result["digest"] = None if digest == "MISMATCH" else digest
    return result


def layer(tree: Path, script: str, *args) -> dict:
    """Run a layer script in a child process on the checkout at tree."""
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tree,
                          env=child_env(tree), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def fista_layer(tree: Path) -> dict:
    return layer(tree, FISTA_LAYER, ",".join(map(str, FISTA_SIZES)),
                 repr(FISTA_NU), str(FISTA_ITERS), str(FISTA_REPEATS))


def morrey_layer(tree: Path, seed: int) -> dict:
    sizes = [n for n in MORREY_SIZES if seed <= MORREY_RUNS.get(n, RUNS)]
    return layer(tree, MORREY_LAYER, ",".join(map(str, sizes)))


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs, with the runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "runs": values}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def src_sha256(tree: Path) -> str:
    """SHA-256 over the relative path and bytes of every .py file in src/."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state(tree: Path) -> dict:
    """HEAD of the checkout, whether its sources differ from HEAD, and the
    hash of the sources measured."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                          capture_output=True, text=True, check=False)
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                          cwd=tree, capture_output=True, check=False)
    return {"commit": head.stdout.strip() or None,
            "src_modified": diff.returncode != 0,
            "src_sha256": src_sha256(tree)}


def workload_names(tree: Path) -> tuple[list[str], float]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"]


def measure(trees: dict[str, Path], pr: int) -> dict:
    names, seconds = workload_names(ROOT)
    raw = {label: {w: [] for w in names} for label in trees}
    fista = {label: {n: [] for n in FISTA_SIZES} for label in trees}
    morrey = {label: {n: [] for n in MORREY_SIZES} for label in trees}
    order = list(trees)
    for seed in range(1, RUNS + 1):
        labels = order if seed % 2 else order[::-1]
        for w in names:
            for label in labels:
                print(f"run {seed}/{RUNS} {w} {label}", file=sys.stderr)
                raw[label][w].append(
                    run_perfbench(trees[label], w, seed, seconds, 0))
        for label in labels:
            for n, values in fista_layer(trees[label]).items():
                fista[label][int(n)].extend(values)
            for n, ms in morrey_layer(trees[label], seed).items():
                morrey[label][int(n)].append(ms)

    columns = {}
    for label, tree in trees.items():
        workloads = {}
        for w in names:
            runs = raw[label][w]
            units = {m: v["unit"] for m, v in runs[0]["metrics"].items()}
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"traced {w} {label}", file=sys.stderr)
            traced = run_perfbench(tree, w, 1, 1.0, 1)
            workloads[w] = {
                "metrics": {
                    m: dict(unit=units[m], **summary(
                        [r["metrics"][m]["value"] for r in runs]))
                    for m in units
                },
                "digests": {str(seed): r["digest"]
                            for seed, r in enumerate(runs, start=1)},
                "correct": all(r["correct"] for r in runs),
                "ops_failed_frac": failed / attempted if attempted else 0.0,
                "counts": {m: v["value"] for m, v in traced["metrics"].items()
                           if v["unit"] == "count"},
            }
        columns[label] = {
            **git_state(tree),
            "workloads": workloads,
            "layers": {
                "variational.fista_ns_per_cell_iter": {
                    f"{n}x{n}": summary(fista[label][n]) for n in FISTA_SIZES
                },
                "norms.morrey_ms_per_call": {
                    f"{n}x{n}": summary(morrey[label][n]) for n in MORREY_SIZES
                },
            },
        }
    return {
        "pr": pr,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": 1,
        },
        "settings": {
            "runs": RUNS, "seconds": seconds, "seeds": list(range(1, RUNS + 1)),
            "fista_nu": FISTA_NU, "fista_iters": FISTA_ITERS,
            "fista_repeats_per_run": FISTA_REPEATS,
            "morrey_runs": {str(n): MORREY_RUNS.get(n, RUNS) for n in MORREY_SIZES},
        },
        "columns": columns,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout of the parent commit to measure alongside")
    args = parser.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    snapshot = measure(trees, args.pr)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
