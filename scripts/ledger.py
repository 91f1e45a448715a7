"""Measurements behind LEDGER.md, one subcommand per analysis.

    PYTHONPATH=src python scripts/ledger.py c1
    PYTHONPATH=src python scripts/ledger.py c2 --n 32,64,128 --max-iters 400000
    PYTHONPATH=src python scripts/ledger.py c2 --n 128,256
    PYTHONPATH=src python scripts/ledger.py c2 --n 64 --half-width 4 --max-iters 400000
    PYTHONPATH=src python scripts/ledger.py c2-tv
    PYTHONPATH=src python scripts/ledger.py c2-hier
    PYTHONPATH=src python scripts/ledger.py c8
    PYTHONPATH=src python scripts/ledger.py probes

Every run is single-threaded numpy (the solver's restart test calls BLAS,
so the thread variables are pinned to 1 unless set) and prints one line
per measurement.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from bdiv.examples import ball_field, nirenberg_field, tatar_pair  # noqa: E402
from bdiv.fields import ScalarField, VectorField  # noqa: E402
from bdiv.norms import lp_norm, sup_norm_vector, tv_norm, weak_lp_setnorm  # noqa: E402
from bdiv.variational import (  # noqa: E402
    TABLE1_SETTINGS,
    HierarchyConfig,
    VariationalConfig,
    helmholtz_solve,
    hierarchical_p2,
    minimize_flambda,
    two_step,
)

# the data of criterion 2
BALL_ALPHA, BALL_LAM = 32.0 * np.pi, 8.0 / np.pi


def c1(args) -> None:
    """Two-step sup-norm ratios at one grid, as `two_step` builds them: the
    first step at lam = scale/||f||_2, then Helmholtz on its residual r1;
    scale 1 is the documented construction, the others bracket Table 1."""
    f = nirenberg_field(args.n)
    fn = lp_norm(f, 2)
    helm = sup_norm_vector(helmholtz_solve(f, strict_mean=False)) / fn
    print(f"N={args.n} Helmholtz alone: {helm:.4f}")
    for scale in (1.0, 0.5, 0.25):
        u1, r1, rep = minimize_flambda(
            f, VariationalConfig(lam=scale / fn, **TABLE1_SETTINGS)
        )
        u2 = helmholtz_solve(r1, strict_mean=False)
        total = sup_norm_vector(
            VectorField.from_arrays(f.grid, list(u1.as_array() + u2.as_array()))
        )
        print(f"lam*||f||={scale}: ||u1||/||f||={rep.u_sup / fn:.4f} "
              f"Helmholtz(r1)/||f||={sup_norm_vector(u2) / fn:.4f} "
              f"two-step={total / fn:.4f} converged={rep.converged}")
    _, r1, rep = minimize_flambda(
        f, VariationalConfig(lam=1e3 / fn, p=1, **TABLE1_SETTINGS)
    )
    print(f"p=1 lam*||f||=1e3: ||u||/||f||={rep.u_sup / fn:.4f} "
          f"||r||/||f||={lp_norm(r1, 2) / fn:.2e} converged={rep.converged}")


def c2(args) -> None:
    """The ball solve of criterion 2 at several resolutions and budgets."""
    beta = 1.0 / (4.0 * np.pi * BALL_LAM)
    for n in (int(s) for s in args.n.split(",")):
        f = ball_field(BALL_ALPHA, 1.0, n, half_width=args.half_width)
        t0 = time.perf_counter()
        cfg = VariationalConfig(
            lam=BALL_LAM, max_iters=args.max_iters, inner_iters=6000
        )
        _, r, rep = minimize_flambda(f, cfg)
        elapsed = time.perf_counter() - t0
        chi = ball_field(beta, 1.0, n, half_width=args.half_width)
        rel = lp_norm(ScalarField(f.grid, r.values - chi.values), 2) / lp_norm(
            chi, 2
        )
        absr = np.abs(r.values)
        outside = absr[chi.values == 0.0].sum() / absr.sum()
        last = rep.probes[-1]
        print(f"n={n} h={f.grid.h[0]:.4g} max_iters={args.max_iters}: "
              f"converged={rep.converged} iterations={rep.iterations} "
              f"(cell-iterations {rep.cell_iterations / 1e6:.0f} M) "
              f"last solve {'cheap' if last.gap == 1e-4 else 'tight'}, "
              f"{last.iterations} iterations to gap {last.gap_reached:.1e}, "
              f"rel={rel:.3f} u_sup={rep.u_sup:.2f} "
              f"(target {(BALL_ALPHA - beta) / 2:.2f}) "
              f"max|r|={absr.max():.2e} |r| outside ball={outside:.1%} "
              f"time={elapsed:.0f}s")


def c2_tv(args) -> None:
    """Isotropic forward-difference TV of the digital unit disc over its
    perimeter 2 pi."""
    for n in (64, 128, 256, 512, 1024):
        chi = ball_field(1.0, 1.0, n)
        print(f"n={n}: TV/(2 pi R)={tv_norm(chi, 'isotropic') / (2 * np.pi):.4f}")


def c2_hier(args) -> None:
    """Level sup-norms of the hierarchy in the strict xfail
    TestHierarchicalP2::test_ball_coefficient_sequence, on its box and on a
    box of half-width 4."""
    for half_width in (None, 4.0):
        f = ball_field(BALL_ALPHA, 1.0, 64, half_width=half_width)
        _, trace = hierarchical_p2(
            f, HierarchyConfig(lam=2.0, max_levels=3, stop_residual=1e-9)
        )
        print(f"half-width {half_width or 2.0}: level sup-norms "
              + " ".join(f"{rec.u_sup:.4f}" for rec in trace.levels)
              + f" (targets {(BALL_ALPHA - 1 / (8 * np.pi)) / 2:.4f}, "
              f"{1 / (32 * np.pi):.4f})")


def c8(args) -> None:
    """Signed one-sided quotients of the weak-L2 set norm along the pair."""
    levels = 12
    f, g = tatar_pair(2.0, levels, 2**16)
    base = weak_lp_setnorm(f, 2.0)
    rho = 2.0 ** (-0.5)
    print(f"base norm={base:.6f}; closed forms: +g "
          f"{(1 - rho**levels) / (2 * (1 + rho)):.5f}, -g 0.5")
    for k in range(4, 11):
        eps = 2.0**-k
        up, down = (
            (weak_lp_setnorm(ScalarField(f.grid, f.values + s * g.values), 2.0)
             - base) / eps
            for s in (eps, -eps)
        )
        print(f"k={k}: along +g {up:+.4f}, along -g {down:+.4f}")


def _print_probes(label: str, rep) -> None:
    """The run's totals, with the objective and its relative gap (objective
    - lower_bound) / objective, then, for the p = 2 root search, one line
    per grid level, coarsest first: its solves and how they ended,
    iterations and cell-iterations, the relative duality gap its final
    solve reached, and that solve's relative gap over its weak-duality
    bound.  A p = 1 run, one primal-dual solve, has no probe records and
    prints its totals only."""
    print(f"{label}: {rep.iterations} iterations on the caller's grid, "
          f"{rep.cell_iterations / 1e6:.1f} M cell-iterations over all levels; "
          f"objective {rep.objective:.6f}, relative gap "
          f"{(rep.objective - rep.lower_bound) / rep.objective:.2e}; "
          f"converged={rep.converged}")
    for cells in sorted({q.cells for q in rep.probes}):
        level = [q for q in rep.probes if q.cells == cells]
        tight = [q for q in level if q.gap != 1e-4]
        last = [q for q in level if q.nu == level[-1].nu]
        iters = sum(q.iterations for q in level)
        ends = [q.ending for q in level]
        print(f"  {cells} cells: {len(level)} solves ({len(tight)} tight; ended "
              f"{ends.count('gap')} at the gap, {ends.count('sign')} sign decided, "
              f"{ends.count('cap')} at the cap), "
              f"{iters} iterations ({sum(q.iterations for q in last)} at the "
              f"last nu), {iters * cells / 1e6:.1f} M cell-iterations, final "
              f"{'cheap' if level[-1].gap == 1e-4 else 'tight'} solve reached gap "
              f"{level[-1].gap_reached:.2e}, bound gap "
              f"{(level[-1].objective - level[-1].bound) / level[-1].objective:.2e}")


def probes(args) -> None:
    """Inner solves and iterations of the root search, read from the
    report's probe records: `bench table1` at N = 50, 100 and 200, and the
    default config on the N = 64 field at p = 2 with the two-step lam =
    1/||f||_2 and at p = 1 with lam = 4."""
    for n in (50, 100, 200):
        t0 = time.perf_counter()
        _, rep = two_step(nirenberg_field(n), VariationalConfig(lam=1.0, **TABLE1_SETTINGS))
        _print_probes(f"bench table1 N={n} ({time.perf_counter() - t0:.1f}s)", rep)
    f = nirenberg_field(64)
    for p, lam in ((2, 1.0 / lp_norm(f, 2)), (1, 4.0)):
        _, _, rep = minimize_flambda(f, VariationalConfig(lam=lam, p=p))
        _print_probes(f"N=64 p={p} lam={lam:.4g}", rep)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True)
    p1 = sub.add_parser("c1")
    p1.add_argument("--n", type=int, default=50)
    p1.set_defaults(func=c1)
    p2 = sub.add_parser("c2")
    p2.add_argument("--n", default="32,64")
    p2.add_argument("--max-iters", type=int, default=52_000)
    p2.add_argument("--half-width", type=float, default=None)
    p2.set_defaults(func=c2)
    sub.add_parser("c2-tv").set_defaults(func=c2_tv)
    sub.add_parser("c2-hier").set_defaults(func=c2_hier)
    sub.add_parser("c8").set_defaults(func=c8)
    sub.add_parser("probes").set_defaults(func=probes)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
