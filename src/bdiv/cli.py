"""Command-line surface: generators, solvers, norms, the grid benchmark,
and the invariant verification suites.

Exit codes: 0 success, 2 usage errors (argparse, a `gen` option its kind
does not read, or a `solve` option its method does not read), 3 solver non-convergence, 4 invariant
violation or an input the library rejects (ValueError or OSError, e.g.
`solve --method minimize` with no --lambda).  Reports are JSON on stdout
(or --report FILE), tables are CSV, fields travel in the binary BDIV1
format.  Identical commands on identical inputs produce byte-identical
field files and reports up to the wall-time, phase-time and
digest-of-output entries of the run manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, examples, explicit, fields, norms, variational

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4


@dataclass
class RunManifest:
    """Provenance of one command invocation.  `bdiv solve` also times its
    read, solve, write and verify phases into phases_s; other commands
    report no phases_s."""

    command: list[str]
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    wall_time_s: float = 0.0
    version: str = __version__
    phases_s: dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, args: argparse.Namespace) -> "RunManifest":
        """Manifest of a parsed command: the argv main() parsed and the
        options it produced."""
        config = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
        return cls(command=list(args.argv), config=config)

    def digest(self, path, kind: str) -> None:
        with open(path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        (self.inputs if kind == "in" else self.outputs)[str(path)] = sha

    def write(self, path: str, content) -> None:
        """Write a field file (a ScalarField) or a CSV table (a (header,
        rows) pair) and digest it as an output."""
        if isinstance(content, fields.ScalarField):
            fields.write_field(content, path)
        else:
            _write_csv(path, *content)
        self.digest(path, "out")

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the block with perf_counter into phases_s[name]."""
        t0 = time.perf_counter()
        yield
        self.phases_s[name] = time.perf_counter() - t0

    def finish(self, t0: float) -> dict:
        self.wall_time_s = time.perf_counter() - t0
        report = asdict(self)
        if not self.phases_s:
            del report["phases_s"]
        return report


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finite(obj):
    """obj with every non-finite float (the -inf of a missing weak-duality
    bound) replaced by None, so the report is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(_finite(report), indent=2, sort_keys=True, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- gen -----------------------------------------------------------------------


# kind -> (the options it reads, (n, **options) -> the generated field, or
# the (f, g) pair for tatar).  The defaults live here; mean_zero is applied
# by cmd_gen to the field of every kind that reads it.
GENERATORS = {
    "nirenberg": (("mean_zero",), lambda n: examples.nirenberg_field(n)),
    "ball": (("alpha", "radius", "half_width", "mean_zero"),
             lambda n, alpha=1.0, radius=1.0, half_width=None:
             examples.ball_field(alpha, radius, n, half_width=half_width)),
    "tatar": (("p", "levels"), lambda n, p=2.0, levels=8: examples.tatar_pair(p, levels, n)),
    "random": (("seed", "law", "d", "spikes", "amplitude", "periodic", "mean_zero"),
               lambda n, seed=0, **kw: examples.random_field(seed, n, **kw)),
}
GEN_OPTIONS = {"alpha": "--alpha", "radius": "--radius", "half_width": "--half-width",
               "p": "--p", "levels": "--levels", "seed": "--seed", "law": "--law",
               "spikes": "--spikes", "amplitude": "--amplitude", "d": "--d",
               "periodic": "--periodic", "mean_zero": "--mean-zero"}


def _given_options(args: argparse.Namespace, reads, flags: dict, what: str) -> dict | None:
    """The options among flags that args holds (the parser suppresses the
    absent ones), or None, after naming on stderr those that `what` does
    not read."""
    given = {k: v for k, v in vars(args).items() if k in flags}
    unread = [flags[k] for k in given if k not in reads]
    if unread:
        print(f"{what} does not read {', '.join(unread)}", file=sys.stderr)
        return None
    return given


def cmd_gen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    reads, make = GENERATORS[args.kind]
    given = _given_options(args, reads, GEN_OPTIONS, f"gen --kind {args.kind}")
    if given is None:
        return EXIT_USAGE
    manifest = RunManifest.of(args)
    if args.n < 8:
        raise ValueError(f"need n >= 8, got {args.n}")
    mean_zero = given.pop("mean_zero", False)
    if args.kind == "tatar":
        if not args.out2:
            print("gen --kind tatar needs --out2 for the direction field",
                  file=sys.stderr)
            return EXIT_USAGE
        f, g = make(args.n, **given)
        out_fields = {args.out: f, args.out2: g}
    else:
        generated = make(args.n, **given)
        out_fields = {args.out: fields.mean_zero(generated) if mean_zero else generated}
    for path, f in out_fields.items():
        manifest.write(path, f)
    _emit_report({"manifest": manifest.finish(t0)}, args.report)
    return EXIT_OK


# -- solve ---------------------------------------------------------------------


@dataclass
class Solution:
    """What one `bdiv solve` method produced.

    files maps a suffix to a field (PREFIX_suffix.bdiv) or to a CSV table
    (PREFIX_suffix.csv) of a header and rows, which may be a generator.
    residual is the r = f - div u the method claims: None for an exact
    solve, the returned residual field, or the last hierarchy level's L2 norm.
    minimized is the config of a `minimize_flambda` solve, whose trivial
    bound and residual certificate the verification checks.
    """

    u: fields.VectorField
    report: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    certificates: list | None = None
    residual: fields.ScalarField | float | None = None
    converged: bool = True
    minimized: variational.VariationalConfig | None = None


def _split(result: explicit.SplitResult, **kw) -> Solution:
    """Solution of an explicit splitting: its parts and line certificates."""
    files = {f"f{j}": part for j, part in enumerate(result.parts, start=1)}
    files["certs"] = (
        ["axis", "index", "value", "bound"],
        ([c.axis, c.index, repr(c.value), repr(c.bound)] for c in result.certificates),
    )
    return Solution(result.u, files=files, certificates=result.certificates, **kw)


def _solve_weakl2(f, tau=2.0, max_iter=64) -> Solution:
    result, trace = explicit.decompose_weak_l2(f, tau, max_iter=max_iter)
    strips = dict(measures=trace.measures(), incomplete=trace.incomplete, tau=trace.tau)
    return _split(result, report={"strip_trace": strips},
                  converged=not trace.incomplete)


def _solve_twostep(f) -> Solution:
    u, rep = variational.two_step(f)
    ratio = norms.sup_norm_vector(u) / norms.lp_norm(f, 2)
    return Solution(u, report={"solver": asdict(rep), "ratio_sup_to_l2": ratio},
                    converged=rep.converged)


def _solve_minimize(f, lam=None, p=2) -> Solution:
    if lam is None:
        raise ValueError("minimize needs --lambda")
    cfg = variational.VariationalConfig(lam=lam, p=p)
    u, r, rep = variational.minimize_flambda(f, cfg)
    return Solution(u, report={"solver": asdict(rep)}, files={"r": r},
                    residual=r, converged=rep.converged, minimized=cfg)


def _solve_hierarchy(run, f, lam=None, levels=20) -> Solution:
    u, trace = run(f, variational.HierarchyConfig(lam=lam, max_levels=levels))
    report = {"trace": dict(asdict(trace), eta_measured=trace.eta_measured)}
    records = report["trace"]["levels"]
    r_last = records[-1]["r_norm"] if records else trace.f_norm
    report["residual_rel"] = r_last / trace.f_norm if records else 0.0
    columns = [c.name for c in dataclasses.fields(variational.LevelRecord)]
    table = (columns, ([repr(v) for v in rec.values()] for rec in records))
    return Solution(u, report=report, files={"trace": table}, residual=r_last,
                    converged=not (trace.stagnated or trace.lambda_too_small))


def _solve_helmholtz(f, mode="discrete") -> Solution:
    u = variational.helmholtz_solve(f, mode=mode, strict_mean=False)
    return Solution(u, report={"mode": mode})


# method name -> (the options it reads, (f, **options) -> Solution).  Entries
# look the solvers up when called, so a rebinding of the modules' names also
# reaches the CLI.
METHODS = {
    "onestep2d": ((), lambda f: _split(explicit.split_onestep_2d(f))),
    "disjoint2d": ((), lambda f: _split(explicit.split_disjoint_2d(f))),
    "inductive": ((), lambda f: _split(explicit.split_inductive_nd(f))),
    "weakl2": (("tau", "max_iter"), _solve_weakl2),
    "helmholtz": (("mode",), _solve_helmholtz),
    "twostep": ((), _solve_twostep),
    "minimize": (("lam", "p"), _solve_minimize),
    "hier-p2": (("lam", "levels"),
                lambda f, **kw: _solve_hierarchy(variational.hierarchical_p2, f, **kw)),
    "hier-p1": (("lam", "levels"),
                lambda f, **kw: _solve_hierarchy(variational.hierarchical_p1, f, **kw)),
}
METHOD_OPTIONS = {"tau": "--tau", "max_iter": "--max-iter", "lam": "--lambda", "p": "--p",
                  "levels": "--levels", "mode": "--mode"}


def _verification_block(f, sol: Solution) -> dict:
    """Recompute r = f - div u from u and hold it to the method's claim.

    A claimed zero or residual field must match in sup norm to
    1e-10 |f|_inf (exactly for f = 0, whose div_residual_rel is the
    absolute residual); a claimed L2 norm must match to 1e-10 ||f||_2.
    Every certificate must hold.  A minimizer's u and r must obey the
    trivial bound sup|u| + lam ||r||_2^p <= lam ||f||_2^p (the contracts of
    `variational.minimize_flambda`).  The weak-duality lower_bound
    recomputed from f and r (`variational.contract`) must not exceed the
    objective (up to a relative 1e-12 of rounding: at the trivial threshold
    the two are equal).  When a p = 2 solve reports convergence, the
    certificate |phi_2(r)|_TV <= (1 + tol_residual) / lam must hold and
    rel_gap = (objective - lower_bound) / objective must be at most
    CHEAP_GAP.  A p = 1 solve is certified by the dual point of its
    primal-dual iteration, which the written files do not carry, and its
    residual need not meet the certificate band, so at p = 1 neither is
    required: the bound from r alone is first order in the distance to the
    optimum and certifies nothing near the exact-penalty regime.
    """
    r = f.values - fields.discrete_divergence(sol.u).values
    resid = np.abs(r).max()
    scale = np.abs(f.values).max()
    claim = sol.residual
    if claim is None:
        miss, tol = resid, 1e-10 * scale
    elif isinstance(claim, fields.ScalarField):
        miss, tol = np.abs(r - claim.values).max(), 1e-10 * scale
    else:
        miss = abs(norms.lp_norm(fields.ScalarField(f.grid, r), 2) - claim)
        tol = 1e-10 * norms.lp_norm(f, 2)
    block = {
        "div_residual_sup": float(resid),
        "div_residual_rel": float(resid / scale if scale > 0 else resid),
        "component_sup_norms": list(norms.component_sup_norms(sol.u)),
        "vector_sup_norm": norms.sup_norm_vector(sol.u),
        "ok": bool(miss <= tol),
    }
    if claim is not None:
        block["residual_claim_miss"] = float(miss)
    cfg = sol.minimized
    if cfg is not None:
        lam, p = cfg.lam, cfg.p
        c = variational.contract(f, sol.u.as_array(), claim, lam, p)
        objective, lower, f_norm = c["objective"], c["lower_bound"], norms.lp_norm(f, 2)
        block.update(objective=objective, trivial_bound=lam * f_norm**p, phi_tv=c["phi_tv"],
                     certificate_bound=(1.0 + cfg.tol_residual) / lam, lower_bound=lower,
                     rel_gap=(objective - lower) / objective if objective > 0 else 0.0)
        certified = p == 1 or (c["phi_tv"] <= block["certificate_bound"]
                               and block["rel_gap"] <= variational.CHEAP_GAP)
        block["ok"] = (
            block["ok"]
            and objective <= block["trivial_bound"]
            and lower <= objective * (1.0 + 1e-12)
            and (certified or not sol.converged)
        )
    if sol.certificates is not None:
        bad = [c for c in sol.certificates if not c.satisfied]
        block["certificates_total"] = len(sol.certificates)
        block["certificates_failed"] = len(bad)
        block["ok"] = block["ok"] and not bad
    return block


def cmd_solve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    reads, run = METHODS[args.method]
    given = _given_options(args, reads, METHOD_OPTIONS, f"solve --method {args.method}")
    if given is None:
        return EXIT_USAGE
    manifest = RunManifest.of(args)
    with manifest.phase("read"):
        f = fields.read_field(args.input)
        manifest.digest(args.input, "in")
    with manifest.phase("solve"):
        sol = run(f, **given)
    with manifest.phase("write"):
        comps = {f"u{i}": c for i, c in enumerate(sol.u.components, start=1)}
        for suffix, content in {**comps, **sol.files}.items():
            ext = "bdiv" if isinstance(content, fields.ScalarField) else "csv"
            manifest.write(f"{args.out_prefix}_{suffix}.{ext}", content)
    with manifest.phase("verify"):
        verification = _verification_block(f, sol)
    report = {"method": args.method, **sol.report, "verification": verification}
    report["manifest"] = manifest.finish(t0)
    _emit_report(report, args.report)
    if not verification["ok"]:
        return EXIT_INVARIANT
    if not sol.converged:
        return EXIT_NOCONV
    return EXIT_OK


# -- norms ---------------------------------------------------------------------


def _norm_kinds(text: str) -> list[norms.NormKind]:
    """argparse type of --kinds: a comma-separated list of NormKind specs."""
    try:
        return [norms.NormKind.parse(spec.strip()) for spec in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_norms(args: argparse.Namespace) -> int:
    f = fields.read_field(args.input)
    out = {kind.label(): kind.evaluate(f) for kind in args.kinds}
    _emit_report(out, args.report)
    return EXIT_OK


# -- bench ---------------------------------------------------------------------


BENCH_GRIDS = (50, 100, 200, 400, 800)


def cmd_bench(args: argparse.Namespace) -> int:
    grids = [g.strip() for g in args.grids.split(",") if g.strip()]
    bad = [g for g in grids if not g.isdecimal() or int(g) not in BENCH_GRIDS]
    if bad:  # a malformed list is a usage error too, found before any row runs
        print(f"unsupported bench grids {bad}; choose from {BENCH_GRIDS}",
              file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in map(int, grids):
        t0 = time.perf_counter()
        try:
            f = examples.nirenberg_field(n)
            fnorm = norms.lp_norm(f, 2)
            u_h = variational.helmholtz_solve(f, strict_mean=False)
            helm = norms.sup_norm_vector(u_h) / fnorm
            cfg = variational.VariationalConfig(lam=1.0, **variational.TABLE1_SETTINGS)
            u_2, rep = variational.two_step(f, cfg)
            two = norms.sup_norm_vector(u_2) / fnorm
            elapsed = time.perf_counter() - t0
            rows.append([n, repr(helm), repr(two), f"{elapsed:.3f}", ""])
        except Exception as exc:  # record the failure, keep benching
            rows.append([n, "", "", f"{time.perf_counter() - t0:.3f}", str(exc)])
    header = ["N", "helmholtz_ratio", "twostep_ratio", "runtime", "error"]
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _check_fields(seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    grid = fields.Grid((12, 12), -1.0, 1.0, periodic=True)
    g = fields.ScalarField(grid, rng.standard_normal(grid.n))
    v = fields.VectorField.from_arrays(
        grid, [rng.standard_normal(grid.n) for _ in range(2)]
    )
    lhs = fields.inner(g, fields.discrete_divergence(v))
    rhs = -sum(map(fields.inner, fields.forward_gradient(g).components, v.components))
    out = [("adjointness", abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0),
            f"<g,div v>={lhs:.6e} -<grad g,v>={rhs:.6e}")]

    box = fields.Grid((9, 7), 0.0, (1.0, 2.0), periodic=False)
    fbox = fields.ScalarField(box, rng.standard_normal(box.n))
    prim = fields.cumulative_primitive(fbox, 0)
    back = fields.discrete_divergence(fields.VectorField([prim, fields.ScalarField.zeros(box)]))
    out.append(("primitive_inversion",
                float(np.abs(back.values - fbox.values).max()) <= 1e-12,
                "backward difference of the primitive recovers f"))

    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.bdiv")
        fields.write_field(fbox, path)
        rt = fields.read_field(path)
        out.append(("io_roundtrip",
                    bool(np.array_equal(rt.values, fbox.values)),
                    "bit-exact field file round trip"))
    return out


def _check_norms(seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    grid = fields.Grid((8, 8), -1.0, 1.0, periodic=False)
    f = fields.ScalarField(grid, rng.standard_normal(grid.n))
    out = []
    out.append(("lorentz_pp_equals_lp",
                abs(norms.lorentz_norm(f, 2, 2) - norms.lp_norm(f, 2))
                <= 1e-12 * norms.lp_norm(f, 2), ""))
    out.append(("weak_le_lp",
                norms.weak_lp_setnorm(f, 2.0) <= norms.lp_norm(f, 2.0) * (1 + 1e-12),
                ""))
    # signed integer data on the torus: no extension, identity exact
    torus = fields.Grid((8, 8), -1.0, 1.0, periodic=True)
    g = fields.ScalarField(torus, rng.integers(-3, 4, size=torus.n).astype(float))
    total = norms.tv_norm(g, "anisotropic")
    lo = int(g.values.min())
    hi = int(g.values.max())
    coarea = sum(
        norms.tv_norm(
            fields.ScalarField(torus, (g.values > t).astype(float)), "anisotropic"
        )
        for t in range(lo, hi)
    )
    out.append(("coarea_anisotropic", abs(total - coarea) <= 1e-10 * max(total, 1.0),
                f"tv={total:.6e} sum-perims={coarea:.6e}"))
    c = 3.7
    scaled = fields.ScalarField(grid, c * f.values)
    out.append(("homogeneity",
                abs(norms.lp_norm(scaled, 3) - c * norms.lp_norm(f, 3))
                <= 1e-12 * norms.lp_norm(scaled, 3), ""))
    return out


def _check_explicit(seed: int) -> list[tuple[str, bool, str]]:
    out = []
    f = examples.random_field(seed, 12, law="gaussian")
    block = _verification_block(f, _split(explicit.split_onestep_2d(f)))
    comp = block["component_sup_norms"]
    bound = norms.lp_norm(f, 2) * (1 + 1e-10)
    out.append(("onestep2d", block["ok"] and all(c <= bound for c in comp),
                f"verification ok={block['ok']} comps={comp}"))
    f2 = examples.random_field(seed + 1, 16, law="spikes")
    res2, trace = explicit.decompose_weak_l2(f2, tau=2.0)
    meas = trace.measures()
    shrink = all(m1 <= m0 / 4.0 + 1e-12 for m0, m1 in zip(meas, meas[1:]))
    ok = _verification_block(f2, _split(res2))["ok"]
    out.append(("weakl2_strips", shrink and ok and not trace.incomplete,
                f"measures={meas}"))
    f3 = examples.random_field(seed + 2, (6, 6, 6), law="gaussian", d=3)
    ok = _verification_block(f3, _split(explicit.split_inductive_nd(f3)))["ok"]
    out.append(("inductive_3d", ok, ""))
    return out


def _check_variational(seed: int) -> list[tuple[str, bool, str]]:
    f = fields.mean_zero(examples.random_field(seed, 16, law="gaussian", periodic=True))
    ok = _verification_block(f, Solution(variational.helmholtz_solve(f)))["ok"]
    out = [("helmholtz_roundtrip", ok, "")]
    tvf = norms.tv_norm(f, "isotropic")
    sol = _solve_minimize(f, 0.25 / tvf)
    ok = _verification_block(f, sol)["ok"] and sol.report["solver"]["trivial"]
    out.append(("trivial_below_threshold",
                ok and float(np.abs(sol.u.as_array()).max()) == 0.0, ""))
    lam = 20.0 / (2.0 * tvf)
    sol = _solve_minimize(f, lam)
    block = _verification_block(f, sol)
    out.append(("residual_tv_certificate", sol.converged and block["ok"],
                f"2*lam*TV(r)={lam * block['phi_tv']:.4f}"))
    return out


def _check_examples(seed: int) -> list[tuple[str, bool, str]]:
    out = []
    f1 = examples.random_field(seed, 12)
    f2 = examples.random_field(seed, 12)
    out.append(("regeneration", bool(np.array_equal(f1.values, f2.values)), ""))
    ft, gt = examples.tatar_pair(2.0, 6, 512)
    out.append(("tatar_domination",
                bool((np.abs(gt.values) <= ft.values + 1e-12).all()), ""))
    fn = examples.nirenberg_field(32)
    out.append(("nirenberg_mean_zero",
                abs(float(fn.values.sum())) / fn.grid.size <= 1e-12, ""))
    ball = examples.ball_field(2.0, 1.0, 64)
    area = fields.integrate(ball) / 2.0
    out.append(("ball_area",
                abs(area - np.pi) <= 2 * np.pi * ball.grid.h[0] + 1e-12,
                f"area={area:.4f}"))
    return out


_SUITES = {
    "fields": _check_fields,
    "norms": _check_norms,
    "explicit": _check_explicit,
    "variational": _check_variational,
    "examples": _check_examples,
}


def cmd_verify(args: argparse.Namespace) -> int:
    modules = [args.module] if args.module else list(_SUITES)
    unknown = [m for m in modules if m not in _SUITES]
    if unknown:
        print(f"unknown module(s): {unknown}", file=sys.stderr)
        return EXIT_USAGE
    failed = []
    for mod in modules:
        for name, ok, detail in _SUITES[mod](args.seed):
            tag = "PASS" if ok else "FAIL"
            line = f"{tag} {mod}.{name}"
            if detail and not ok:
                line += f"  ({detail})"
            print(line)
            if not ok:
                failed.append(f"{mod}.{name}")
    if failed:
        print(f"{len(failed)} invariant(s) violated: {', '.join(failed)}")
        return EXIT_INVARIANT
    print("all invariants hold")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdiv",
        description="bounded solutions of div u = f on grids: generators, "
        "explicit constructions, variational solvers, norms, benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a data field")
    g.add_argument("--kind", required=True, choices=list(GENERATORS))
    g.add_argument("--n", type=int, required=True)
    # the kind options, defaults in GENERATORS; one a kind does not read exits 2
    g.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    g.add_argument("--radius", type=float, default=argparse.SUPPRESS)
    g.add_argument("--half-width", type=float, default=argparse.SUPPRESS)
    g.add_argument("--p", type=float, default=argparse.SUPPRESS)
    g.add_argument("--levels", type=int, default=argparse.SUPPRESS)
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    g.add_argument("--law", default=argparse.SUPPRESS, choices=["gaussian", "spikes"])
    g.add_argument("--spikes", type=int, default=argparse.SUPPRESS)
    g.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    g.add_argument("--d", type=int, default=argparse.SUPPRESS)
    g.add_argument("--periodic", action="store_true", default=argparse.SUPPRESS)
    g.add_argument("--mean-zero", action="store_true", default=argparse.SUPPRESS,
                   help="project the volume-weighted mean away")
    g.add_argument("--out", required=True)
    g.add_argument("--out2", default=None, help="second output (tatar direction)")
    g.add_argument("--report", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="construct a bounded solution")
    s.add_argument("--method", required=True, choices=list(METHODS))
    s.add_argument("--input", required=True)
    s.add_argument("--out-prefix", required=True)
    # the method options, defaults in the runners; one a method does not read exits 2
    s.add_argument("--tau", type=float, default=argparse.SUPPRESS)
    s.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    s.add_argument("--lambda", dest="lam", type=float, default=argparse.SUPPRESS,
                   help="lambda of minimize (required) and of a hierarchy's "
                   "level 1 (estimated when absent)")
    s.add_argument("--p", type=int, default=argparse.SUPPRESS, choices=[1, 2])
    s.add_argument("--levels", type=int, default=argparse.SUPPRESS)
    s.add_argument("--mode", default=argparse.SUPPRESS, choices=["discrete", "continuum"])
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_solve)

    n = sub.add_parser("norms", help="evaluate norms of a field file")
    n.add_argument("--input", required=True)
    n.add_argument("--kinds", type=_norm_kinds,
                   default="lp:1,lp:2,linf,lorentz:2:1,weak:2,morrey,"
                   "tv:isotropic,tv:anisotropic")
    n.add_argument("--report", default=None)
    n.set_defaults(func=cmd_norms)

    b = sub.add_parser("bench", help="benchmark harnesses")
    b.add_argument("table", choices=["table1"])
    b.add_argument("--grids", default="50,100,200")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--module", default=None)
    v.add_argument("--seed", type=int, default=20240901)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
