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
- a whole-run row: wall time, inner iterations and cell-iterations of
  one two_step call (the `bench table1` solver settings,
  bdiv.TABLE1_SETTINGS of this checkout, passed to both) on the Nirenberg
  field at N = 50, 100 and 200, N = 200 in the first TWOSTEP_RUNS rounds
  only;
- a hierarchy whole-run row: wall time, level count and cell-iterations
  (summed over every minimize_flambda call of the run, estimate_eta's
  probe included) of the default hierarchical_p2 and hierarchical_p1 on
  the mean-zero seed-700 Gaussian torus field at 32^2 and 64^2;
- a p = 1 whole-run row: iterations, cell-iterations, objective,
  certified relative gap (objective - lower_bound) / objective (null when
  the bound is not finite), wall time and ns per cell-iteration of one
  default p = 1 minimize_flambda call on each hierarchy-small field (the
  mean-zero Gaussian 16^2 tori of seeds 700-702, at lam = 4 gamma, the lam
  of hierarchical_p1), each run the median of P1_REPEATS solves, and on
  the 64^2 Nirenberg field at lam = 4, one solve in the first P1_LARGE_RUNS
  rounds only;
- three layer rows: ns per cell of one bound divergence and of one bound
  gradient (the fields._divergence_calls and _gradient_calls lists the
  FISTA iteration reruns, in unit spacing) on a torus and on a box at
  16^2, 50^2, 100^2 and 512^2, and on a box at 48^3, each run the median
  of STENCIL_REPEATS timed loops; ns per cell per iteration of one
  projected-FISTA solve (_DualState.solve) at fixed nu on the Nirenberg
  field at 16^2 (the size of hierarchy-small), 32^2, 64^2, 128^2 and
  256^2, the duality-gap check every CHECK_EVERY iterations included, each
  run the median of FISTA_REPEATS solves; and ms per norms.morrey_norm
  call on the seed-1 spikes field at 32^2, 48^2, 64^2, 128^2 and 256^2,
  256^2 in the first MORREY_RUNS round only (the argsort-per-centre body
  took minutes there; 128^2 runs in every round, since three runs could
  not resolve a change).

With --parent every round runs both checkouts, alternating which goes
first, so the two columns are paired.  Every child process is
single-threaded numpy.  Each column names the commit of its checkout, the
SHA-256 of the src/ files it measured, the line count (as wc -l counts
them) of each src/bdiv/*.py file with their total, and the code lines of
each (not blank, comment or docstring) with their total; the file also
records nproc, Python and numpy.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from bdiv import TABLE1_SETTINGS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUNS = 10  # paired runs per workload
FISTA_SIZES = (16, 32, 64, 128, 256)
FISTA_NU = 0.06  # near the root of the Table-1 two-step first solve
FISTA_ITERS = 200
FISTA_REPEATS = 9  # timed solves per size and run; the run records their median
STENCIL_SIZES = tuple((n, n, periodic) for n in (16, 50, 100, 512)
                      for periodic in (True, False)) + ((48, 48, 48, False),)
STENCIL_REPEATS = 9  # timed loops per size and run; the run records their median
STENCIL_CELLS = 2_000_000  # cells a timed loop differences, rounded up to whole calls
MORREY_SIZES = (32, 48, 64, 128, 256)
MORREY_RUNS = {256: 1}  # rounds that time these sizes; others: RUNS
TWOSTEP_SIZES = (50, 100, 200)
TWOSTEP_RUNS = {200: 3}  # rounds that time these sizes; others: RUNS
HIERARCHY_SIZES = (32, 64)
P1_REPEATS = 5  # timed 16^2 p = 1 solves per run; the run records their median
P1_LARGE_RUNS = 3  # rounds that time the 64^2 p = 1 solve

# per size, the median over repeats of one timed loop of bound divergence
# (gradient) calls, each writing every cell of a C-ordered buffer; uses only
# names whose C-buffer behaviour every checkout shares; argv: the sizes as
# JSON, the repeats, the cells per loop
STENCIL_LAYER = """
import json, statistics, sys, time
import numpy as np
from bdiv.fields import Grid, _divergence_calls, _gradient_calls, _run

repeats, cells = int(sys.argv[2]), int(sys.argv[3])
out = {}
for *n, periodic in json.loads(sys.argv[1]):
    grid = Grid(n, 0.0, 1.0, periodic=periodic)
    unit, per = (1.0,) * grid.d, grid.periodic
    rng = np.random.default_rng(0)
    v, g = rng.standard_normal((grid.d,) + grid.n), rng.standard_normal(grid.n)
    tmp = np.empty(grid.n) if grid.d > 1 else None
    ops = {"div": _divergence_calls(v, unit, per, np.empty(grid.n), tmp),
           "grad": _gradient_calls(g, unit, per, np.empty(v.shape))}
    loops = -(-cells // grid.size)
    row = {}
    for op, calls in ops.items():
        _run(calls)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                _run(calls)
            times.append(time.perf_counter() - t0)
        row[op] = statistics.median(times) / (loops * grid.size) * 1e9
    label = "x".join(map(str, n)) + (" torus" if periodic else " box")
    out[label] = row
print(json.dumps(out))
"""


# one timed FISTA solve per repeat, from a fresh zero dual field, so every
# repeat does the same work; the median of the repeats per size; the
# certificate target 1.0 goes to _DualState where it takes one, else to
# solve as the tv_ref of older checkouts; argv: sizes, nu, iterations, repeats
FISTA_LAYER = """
import inspect, json, statistics, sys, time
from bdiv.examples import nirenberg_field
from bdiv.norms import lp_norm
from bdiv.variational import _DualState

at_init = "target" in inspect.signature(_DualState).parameters
init, call = ((1.0,), ()) if at_init else ((), (1.0,))

sizes, nu = sys.argv[1].split(","), float(sys.argv[2])
iters, repeats = int(sys.argv[3]), int(sys.argv[4])
out = {}
for n in map(int, sizes):
    f = nirenberg_field(n)
    farr = f.values / lp_norm(f, 2)
    times = []
    for _ in range(repeats):
        state = _DualState(farr, f.grid, *init)
        t0 = time.perf_counter()
        ran = state.solve(nu, iters, 0.0, *call)[1]
        times.append(time.perf_counter() - t0)
        if ran != iters:
            raise SystemExit(f"solve stopped after {ran} of {iters} iterations")
    out[n] = statistics.median(times) / (iters * f.values.size) * 1e9
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


# one timed two_step call per size, at the `bench table1` settings; iterations
# are those on the caller's grid, cell-iterations those of every grid level
# (a report without cell_iterations ran on one grid); argv: sizes, the
# settings as JSON
TWOSTEP_ROW = """
import json, sys, time
from bdiv.examples import nirenberg_field
from bdiv.variational import VariationalConfig, two_step

cfg = VariationalConfig(lam=1.0, **json.loads(sys.argv[2]))
out = {}
for n in map(int, sys.argv[1].split(",")):
    f = nirenberg_field(n)
    t0 = time.perf_counter()
    _, rep = two_step(f, cfg)
    wall = time.perf_counter() - t0
    cells = getattr(rep, "cell_iterations", rep.iterations * f.grid.size)
    out[n] = {"wall_s": wall, "iterations": rep.iterations,
              "cell_iterations": cells, "converged": rep.converged}
print(json.dumps(out))
"""


# one timed default run of each hierarchy per size; cell-iterations are
# counted by a wrapper around variational.minimize_flambda, which both
# hierarchies look up at call time; argv: sizes
HIERARCHY_ROW = """
import json, sys, time
from bdiv import variational
from bdiv.examples import random_field
from bdiv.fields import mean_zero

solve, cells = variational.minimize_flambda, []

def counted(f, cfg):
    u, r, rep = solve(f, cfg)
    cells.append(rep.cell_iterations)
    return u, r, rep

variational.minimize_flambda = counted
out = {}
for n in map(int, sys.argv[1].split(",")):
    f = mean_zero(random_field(700, n, periodic=True))
    for name in ("hierarchical_p2", "hierarchical_p1"):
        cells.clear()
        t0 = time.perf_counter()
        _, trace = getattr(variational, name)(f)
        wall = time.perf_counter() - t0
        out[f"{name} {n}x{n}"] = {"wall_s": wall, "levels": len(trace.levels),
                                  "cell_iterations": sum(cells)}
print(json.dumps(out))
"""


# the p = 1 row, on the default config: the hierarchy-small fields at the
# lam of hierarchical_p1 (4 gamma, gamma = sup|u_H| / ||f||_2 of the
# Helmholtz solution), each the median of argv[2] solves, and with argv[1]
# = "1" the 64^2 Nirenberg field at lam = 4, solved once
P1_ROW = """
import json, math, statistics, sys, time
from bdiv import variational
from bdiv.examples import nirenberg_field, random_field
from bdiv.fields import mean_zero
from bdiv.norms import lp_norm, sup_norm_vector

cases = {}
for seed in (700, 701, 702):
    f = mean_zero(random_field(seed, 16, periodic=True))
    u_h = variational.helmholtz_solve(f, strict_mean=False)
    cases[f"torus{seed} 16x16"] = (f, 4.0 * (sup_norm_vector(u_h) / lp_norm(f, 2)), int(sys.argv[2]))
if sys.argv[1] == "1":
    cases["nirenberg 64x64"] = (nirenberg_field(64), 4.0, 1)
out = {}
for key, (f, lam, repeats) in cases.items():
    cfg = variational.VariationalConfig(lam=lam, p=1)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, _, rep = variational.minimize_flambda(f, cfg)
        times.append(time.perf_counter() - t0)
    wall = statistics.median(times)
    gap = (rep.objective - rep.lower_bound) / rep.objective
    out[key] = {"wall_s": wall, "ns_per_cell_iter": wall / rep.cell_iterations * 1e9,
                "iterations": rep.iterations, "cell_iterations": rep.cell_iterations,
                "objective": rep.objective, "rel_gap": gap if math.isfinite(gap) else None,
                "converged": rep.converged}
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


def stencil_layer(tree: Path) -> dict:
    return layer(tree, STENCIL_LAYER, json.dumps(STENCIL_SIZES),
                 str(STENCIL_REPEATS), str(STENCIL_CELLS))


def morrey_layer(tree: Path, seed: int) -> dict:
    sizes = [n for n in MORREY_SIZES if seed <= MORREY_RUNS.get(n, RUNS)]
    return layer(tree, MORREY_LAYER, ",".join(map(str, sizes)))


def twostep_row(tree: Path, seed: int) -> dict:
    sizes = [n for n in TWOSTEP_SIZES if seed <= TWOSTEP_RUNS.get(n, RUNS)]
    return layer(tree, TWOSTEP_ROW, ",".join(map(str, sizes)), json.dumps(TABLE1_SETTINGS))


def hierarchy_row(tree: Path) -> dict:
    return layer(tree, HIERARCHY_ROW, ",".join(map(str, HIERARCHY_SIZES)))


def p1_row(tree: Path, seed: int) -> dict:
    return layer(tree, P1_ROW, "1" if seed <= P1_LARGE_RUNS else "0", str(P1_REPEATS))


TIMED = ("wall_s", "ns_per_cell_iter")  # the entries of a row that vary between runs


def row_summary(runs: list[dict]) -> dict:
    """Summary of the timed entries of one whole-run row's runs; the
    counts, the same in every run, once."""
    counts = {k: v for k, v in runs[0].items() if k not in TIMED}
    if any({k: r[k] for k in counts} != counts for r in runs):
        raise SystemExit(f"whole-run counts differ between runs: {runs}")
    return dict({k: summary([r[k] for r in runs]) for k in TIMED if k in runs[0]}, **counts)


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


def src_lines(tree: Path) -> dict:
    """Newline count of each src/bdiv/*.py file, as wc -l, and the total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((tree / "src" / "bdiv").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def code_lines(text: str) -> int:
    """Lines of Python source text that hold a token other than a comment,
    outside the docstrings of the module, its classes and functions."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def src_code_lines(tree: Path) -> dict:
    """code_lines of each src/bdiv/*.py file, and the total."""
    counts = {path.name: code_lines(path.read_text())
              for path in sorted((tree / "src" / "bdiv").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def git_state(tree: Path) -> dict:
    """HEAD of the checkout, whether its sources differ from HEAD, and the
    hash, line counts and code-line counts of the sources measured."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                          capture_output=True, text=True, check=False)
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                          cwd=tree, capture_output=True, check=False)
    return {"commit": head.stdout.strip() or None,
            "src_modified": diff.returncode != 0,
            "src_sha256": src_sha256(tree),
            "src_lines": src_lines(tree),
            "src_code_lines": src_code_lines(tree)}


def workload_names(tree: Path) -> tuple[list[str], float]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"]


def measure(trees: dict[str, Path], pr: int) -> dict:
    names, seconds = workload_names(ROOT)
    raw = {label: {w: [] for w in names} for label in trees}
    fista = {label: {n: [] for n in FISTA_SIZES} for label in trees}
    stencil = {label: {} for label in trees}
    morrey = {label: {n: [] for n in MORREY_SIZES} for label in trees}
    twostep = {label: {n: [] for n in TWOSTEP_SIZES} for label in trees}
    hierarchy = {label: {} for label in trees}
    p1 = {label: {} for label in trees}
    order = list(trees)
    for seed in range(1, RUNS + 1):
        labels = order if seed % 2 else order[::-1]
        for w in names:
            for label in labels:
                print(f"run {seed}/{RUNS} {w} {label}", file=sys.stderr)
                raw[label][w].append(
                    run_perfbench(trees[label], w, seed, seconds, 0))
        for label in labels:
            for size, row in stencil_layer(trees[label]).items():
                for op, ns in row.items():
                    stencil[label].setdefault(op, {}).setdefault(size, []).append(ns)
            for n, ns in fista_layer(trees[label]).items():
                fista[label][int(n)].append(ns)
            for n, ms in morrey_layer(trees[label], seed).items():
                morrey[label][int(n)].append(ms)
            for n, row in twostep_row(trees[label], seed).items():
                twostep[label][int(n)].append(row)
            for key, row in hierarchy_row(trees[label]).items():
                hierarchy[label].setdefault(key, []).append(row)
            for key, row in p1_row(trees[label], seed).items():
                p1[label].setdefault(key, []).append(row)

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
            "runs": {
                "variational.two_step_nirenberg": {
                    f"{n}x{n}": row_summary(twostep[label][n])
                    for n in TWOSTEP_SIZES
                },
                "variational.hierarchy_torus700": {
                    key: row_summary(runs) for key, runs in hierarchy[label].items()
                },
                "variational.minimize_p1": {
                    key: row_summary(runs) for key, runs in p1[label].items()
                },
            },
            "layers": {
                **{f"fields.{op}_ns_per_cell": {
                    size: summary(values) for size, values in sizes.items()}
                   for op, sizes in stencil[label].items()},
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
            "stencil_repeats_per_run": STENCIL_REPEATS,
            "stencil_cells_per_loop": STENCIL_CELLS,
            "morrey_runs": {str(n): MORREY_RUNS.get(n, RUNS) for n in MORREY_SIZES},
            "twostep_runs": {str(n): TWOSTEP_RUNS.get(n, RUNS) for n in TWOSTEP_SIZES},
            "twostep_settings": TABLE1_SETTINGS,
            "hierarchy_sizes": list(HIERARCHY_SIZES),
            "p1_repeats_per_run": P1_REPEATS, "p1_large_runs": P1_LARGE_RUNS,
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
