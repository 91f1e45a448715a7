"""The benchmark's workloads.

Each workload makes its inputs from the run's seed (prepare), runs one
small job to warm up (warmup), then repeats a fixed job list whose jobs are
timed one by one (run).  Everything that checks an output (references,
check, digest) runs outside the timed regions and shares no code with
bdiv: fields are re-read with an own BDIV1 parser, divergences and norms
are recomputed with plain numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# -- independent references ---------------------------------------------------


@dataclass
class Field:
    values: np.ndarray
    h: tuple[float, ...]
    periodic: tuple[bool, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def volume(self) -> float:
        return float(np.prod(self.h))


def read_bdiv(path) -> Field:
    """BDIV1 field file: magic, u8 d, d*u32 sizes, d*f64 lows, d*f64 highs,
    u8 periodic mask, then little-endian f64 values, last axis fastest."""
    data = Path(path).read_bytes()
    if data[:5] != b"BDIV1":
        raise ValueError(f"{path}: not a BDIV1 file")
    d = data[5]
    off = 6
    n = struct.unpack_from(f"<{d}I", data, off)
    off += 4 * d
    lo = struct.unpack_from(f"<{d}d", data, off)
    off += 8 * d
    hi = struct.unpack_from(f"<{d}d", data, off)
    off += 8 * d
    mask = data[off]
    values = np.frombuffer(data, dtype="<f8", offset=off + 1).reshape(n)
    h = tuple((b - a) / k for a, b, k in zip(lo, hi, n))
    return Field(values, h, tuple(bool(mask >> a & 1) for a in range(d)), lo, hi)


def field_of(f) -> Field:
    """The same record for an in-memory bdiv ScalarField."""
    g = f.grid
    return Field(f.values, g.h, g.periodic, g.lo, g.hi)


def divergence(comps, h, periodic) -> np.ndarray:
    """Backward differences; zero inflow at the low edge of a box axis."""
    out = np.zeros(comps[0].shape)
    for a, c in enumerate(comps):
        if periodic[a]:
            out += (c - np.roll(c, 1, axis=a)) / h[a]
        else:
            out += np.diff(c, axis=a, prepend=0.0) / h[a]
    return out


def l2(values, volume) -> float:
    return float(np.sqrt(np.sum(values * values) * volume))


def sup_magnitude(comps) -> float:
    return float(np.sqrt(np.max(sum(c * c for c in comps))))


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def morrey_bruteforce(f: Field, chunk: int = 128) -> float:
    """sup over cell-centered balls of R^(1-d) * sum_{|x-c|<=R} |f| * vol,
    radii integer multiples of min(h), summed ball by ball."""
    d = f.values.ndim
    axes = [f.lo[a] + f.h[a] * (np.arange(n) + 0.5) for a, n in enumerate(f.values.shape)]
    coords = np.stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")], axis=1)
    absf = np.abs(f.values).ravel()
    rstep = min(f.h)
    rmax = float(np.sqrt(sum((b - a) ** 2 for a, b in zip(f.lo, f.hi))))
    radii = rstep * np.arange(1, int(np.ceil(rmax / rstep)) + 2)
    best = 0.0
    for start in range(0, len(coords), chunk):
        diff = coords[start : start + chunk, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        for rad in radii:
            sums = (dist <= rad) @ absf
            best = max(best, float((rad ** (1 - d) * sums * f.volume).max()))
    return best


def derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _hash_arrays(h, arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


# -- table1-twostep -----------------------------------------------------------


@dataclass
class Row:
    u_helmholtz: np.ndarray
    u_twostep: np.ndarray
    report: object
    helmholtz_ratio: float
    twostep_ratio: float


class Table1:
    """Table-1 rows: Helmholtz and two-step sup-norm ratios on the Nirenberg
    field, with the `bdiv bench table1` solver settings.  The Nirenberg data
    has no random part, so the seed does not change the inputs."""

    name = "table1-twostep"
    grids = (50, 100)
    warmup_grid = 16
    twostep_ref = {50: 0.148824, 100: 0.148509}
    paper_helmholtz = {50: 0.2295, 100: 0.2422}

    def prepare(self, bd, seed: int, workdir: Path) -> None:
        self.bd = bd
        self.cfg = bd.variational.VariationalConfig(
            lam=1.0, tol_objective=1e-6, tol_residual=0.02, inner_iters=4000
        )
        self.inputs = {n: bd.examples.nirenberg_field(n) for n in self.grids}

    def warmup(self) -> None:
        self._row(self.bd.examples.nirenberg_field(self.warmup_grid))

    def jobs(self) -> list:
        return list(self.grids)

    def run(self, n: int) -> Row:
        return self._row(self.inputs[n])

    def _row(self, f) -> Row:
        var, norms = self.bd.variational, self.bd.norms
        fnorm = norms.lp_norm(f, 2)
        u_h = var.helmholtz_solve(f, strict_mean=False)
        helm = norms.sup_norm_vector(u_h) / fnorm
        u_2, rep = var.two_step(f, self.cfg)
        two = norms.sup_norm_vector(u_2) / fnorm
        return Row(u_h.as_array(), u_2.as_array(), rep, helm, two)

    def references(self) -> None:
        pass

    def check(self, n: int, row: Row) -> list[tuple[str, bool, str]]:
        f = field_of(self.inputs[n])
        fmax = float(np.abs(f.values).max())
        fnorm = l2(f.values, f.volume)
        out = []
        for op, u, reported, ref, tol in (
            ("two_step", row.u_twostep, row.twostep_ratio, self.twostep_ref[n], 1e-3),
            ("helmholtz", row.u_helmholtz, row.helmholtz_ratio, self.paper_helmholtz[n], 0.02),
        ):
            resid = float(np.abs(divergence(u, f.h, f.periodic) - f.values).max())
            ratio = sup_magnitude(u) / fnorm
            ok = (
                resid <= 1e-10 * fmax
                and abs(ratio - ref) <= tol
                and rel_close(reported, ratio, 1e-12)
            )
            if op == "two_step":
                ok = ok and bool(row.report.converged)
            out.append(
                (
                    f"{op} N={n}",
                    ok,
                    f"ratio={ratio:.6f} reported={reported:.6f} ref={ref} tol={tol} "
                    f"div_resid={resid:.3e} "
                    f"converged={row.report.converged}",
                )
            )
        return out

    def digest(self, h, results) -> None:
        for row in results:
            _hash_arrays(h, (row.u_helmholtz, row.u_twostep))
            h.update(repr((row.helmholtz_ratio, row.twostep_ratio)).encode())
            h.update(repr(row.report.iterations).encode())


# -- hierarchy-small ----------------------------------------------------------


@dataclass
class Hierarchies:
    u_p2: np.ndarray
    trace_p2: object
    u_p1: np.ndarray
    trace_p1: object


class Hierarchy:
    """Both hierarchical schemes with their default configurations (p2 with
    its estimate_eta probe; p1 with gamma from Helmholtz and lambda = 4
    gamma) on mean-zero Gaussian periodic 16^2 fields.  One job is one field
    and runs both hierarchies on it.

    The work of a hierarchy varies with its field far more than between
    runs (inner iterations spread by about 30% between Gaussian fields), so
    every run uses the same panel, the first three fields of the
    criterion-7 acceptance test, each moved by a symmetry of the torus
    drawn from the seed (shift, transpose, sign).  The inputs differ between seeds, while
    the hierarchies do the same inner iterations on every image."""

    name = "hierarchy-small"
    n = 16
    panel_seeds = (700, 701, 702)
    warmup_n = 4
    warmup_seed = 0

    def _field(self, seed: int, n: int):
        ex, fl = self.bd.examples, self.bd.fields
        return fl.mean_zero(ex.random_field(seed, n, law="gaussian", periodic=True))

    def _image(self, f, rng):
        v = np.roll(f.values, tuple(rng.integers(0, self.n, size=2)), axis=(0, 1))
        if rng.integers(2):
            v = v.T
        if rng.integers(2):
            v = -v
        return self.bd.fields.ScalarField(f.grid, np.ascontiguousarray(v))

    def prepare(self, bd, seed: int, workdir: Path) -> None:
        self.bd = bd
        rng = np.random.default_rng([seed, 2])
        self.inputs = [self._image(self._field(s, self.n), rng) for s in self.panel_seeds]
        self.warmup_input = self._field(self.warmup_seed, self.warmup_n)

    def warmup(self) -> None:
        self._both(self.warmup_input)

    def jobs(self) -> list:
        return list(range(len(self.inputs)))

    def run(self, k: int) -> Hierarchies:
        return self._both(self.inputs[k])

    def _both(self, f) -> Hierarchies:
        var = self.bd.variational
        u2, t2 = var.hierarchical_p2(f)
        u1, t1 = var.hierarchical_p1(f)
        return Hierarchies(u2.as_array(), t2, u1.as_array(), t1)

    def references(self) -> None:
        pass

    def check(self, k: int, res: Hierarchies) -> list[tuple[str, bool, str]]:
        f = field_of(self.inputs[k])
        fnorm = l2(f.values, f.volume)
        out = []
        for op, u, trace in (("p2", res.u_p2, res.trace_p2), ("p1", res.u_p1, res.trace_p1)):
            last = trace.levels[-1].r_norm if trace.levels else fnorm
            resid = l2(f.values - divergence(u, f.h, f.periodic), f.volume)
            ok = abs(resid - last) <= 1e-10 * fnorm
            if op == "p2":
                ok = (
                    ok
                    and last <= 1e-3 * fnorm
                    and len(trace.levels) <= 20
                    and not trace.stagnated
                )
            else:
                ok = ok and not trace.lambda_too_small
            out.append(
                (
                    f"hierarchical_{op} field={k}",
                    ok,
                    f"levels={len(trace.levels)} r_last/f={last / fnorm:.3e} "
                    f"||f-div u|-r_last|/f={abs(resid - last) / fnorm:.3e} "
                    f"stagnated={trace.stagnated} "
                    f"lambda_too_small={trace.lambda_too_small}",
                )
            )
        return out

    def digest(self, h, results) -> None:
        for res in results:
            _hash_arrays(h, (res.u_p2, res.u_p1))
            for trace in (res.trace_p2, res.trace_p1):
                h.update(repr([(r.lam, r.r_norm) for r in trace.levels]).encode())


# -- explicit-cli -------------------------------------------------------------


@dataclass
class Step:
    name: str
    argv: list[str]
    report: Path


LINEAR_KINDS = "lp:1,lp:2,linf,lorentz:2:1,weak:2,tv:isotropic,tv:anisotropic"
EXPLICIT = ("onestep2d", "disjoint2d", "weakl2")


class ExplicitCli:
    """An in-process `bdiv` CLI pipeline per job: spikes at 512^2 through
    the three 2-D splittings, a 48^3 field through the inductive splitting,
    the Nirenberg field through Helmholtz, the linear norms at 512^2 and the
    default norms (with Morrey) on a 48^2 field made in set-up."""

    name = "explicit-cli"
    jobs_per_pass = 3
    sizes = {"n2": 512, "n3": 48, "morrey": 48}
    warmup_sizes = {"n2": 32, "n3": 8, "morrey": 12}

    def prepare(self, bd, seed: int, workdir: Path) -> None:
        self.bd = bd
        self.workdir = workdir
        seeds = derived_seeds(seed, 3, 2 * self.jobs_per_pass + 4)
        self.job_seeds = [tuple(seeds[2 * k : 2 * k + 2]) for k in range(self.jobs_per_pass)]
        self.warmup_seeds = tuple(seeds[-4:-2])
        self.morrey_path = workdir / "morrey.bdiv"
        self.warmup_morrey_path = workdir / "morrey_warmup.bdiv"
        for path, s, n in (
            (self.morrey_path, seeds[-2], self.sizes["morrey"]),
            (self.warmup_morrey_path, seeds[-1], self.warmup_sizes["morrey"]),
        ):
            f = bd.examples.random_field(s, n, law="spikes")
            bd.fields.write_field(f, path)

    def _steps(self, seeds, sizes, morrey: Path, out: Path) -> list[Step]:
        out.mkdir(parents=True, exist_ok=True)
        spikes, cube, nir = out / "spikes.bdiv", out / "cube.bdiv", out / "nirenberg.bdiv"
        n2, n3 = str(sizes["n2"]), str(sizes["n3"])
        plan = [
            ("gen-spikes", ["gen", "--kind", "random", "--n", n2, "--law", "spikes",
                            "--seed", str(seeds[0]), "--out", str(spikes)]),
        ]
        for m in EXPLICIT:
            plan.append((m, ["solve", "--method", m, "--input", str(spikes),
                             "--out-prefix", str(out / m)]))
        plan += [
            ("gen-cube", ["gen", "--kind", "random", "--n", n3, "--d", "3",
                          "--seed", str(seeds[1]), "--out", str(cube)]),
            ("inductive", ["solve", "--method", "inductive", "--input", str(cube),
                           "--out-prefix", str(out / "inductive")]),
            ("gen-nirenberg", ["gen", "--kind", "nirenberg", "--n", n2, "--out", str(nir)]),
            ("helmholtz", ["solve", "--method", "helmholtz", "--input", str(nir),
                           "--out-prefix", str(out / "helmholtz")]),
            ("norms-linear", ["norms", "--input", str(spikes), "--kinds", LINEAR_KINDS]),
            ("norms-default", ["norms", "--input", str(morrey)]),
        ]
        steps = []
        for name, argv in plan:
            # gen/solve reports carry wall times; norms reports are exact
            suffix = ".norms.json" if argv[0] == "norms" else ".report.json"
            report = out / f"{name}{suffix}"
            steps.append(Step(name, argv + ["--report", str(report)], report))
        return steps

    def _pipeline(self, steps: list[Step]) -> list[int]:
        codes = []
        for step in steps:
            try:
                codes.append(self.bd.cli.main(step.argv))
            except SystemExit as exc:  # argparse usage errors
                codes.append(exc.code if isinstance(exc.code, int) else 1)
        return codes

    def warmup(self) -> None:
        self._pipeline(
            self._steps(self.warmup_seeds, self.warmup_sizes, self.warmup_morrey_path,
                        self.workdir / "warmup")
        )

    def jobs(self) -> list:
        return list(range(self.jobs_per_pass))

    def run(self, k: int):
        steps = self._steps(self.job_seeds[k], self.sizes, self.morrey_path,
                            self.workdir / "pass" / f"job{k}")
        return steps, self._pipeline(steps)

    def references(self) -> None:
        self.morrey_ref = morrey_bruteforce(read_bdiv(self.morrey_path))

    def check(self, k: int, result) -> list[tuple[str, bool, str]]:
        steps, codes = result
        return [
            (f"job{k} {step.name}",) + self._check_step(step, code)
            for step, code in zip(steps, codes)
        ]

    def _check_step(self, step: Step, code: int) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit code {code}"
        report = json.loads(step.report.read_text())
        if step.argv[0] == "norms":
            return self._check_norms(step, report)
        for path, digest in report["manifest"]["outputs"].items():
            if hashlib.sha256(Path(path).read_bytes()).hexdigest() != digest:
                return False, f"manifest digest of {path} does not match the file"
        if step.argv[0] == "gen":
            return True, ""
        f = read_bdiv(step.argv[step.argv.index("--input") + 1])
        prefix = step.argv[step.argv.index("--out-prefix") + 1]
        comps = [read_bdiv(f"{prefix}_u{i + 1}.bdiv").values for i in range(f.values.ndim)]
        resid = float(np.abs(divergence(comps, f.h, f.periodic) - f.values).max())
        ok = resid <= 1e-10 * max(float(np.abs(f.values).max()), 1.0)
        detail = f"div_resid={resid:.3e} verification.ok={report['verification']['ok']}"
        ok = ok and report["verification"]["ok"] is True
        if step.name != "helmholtz":
            certs_ok, certs_detail = self._check_certificates(step.name, f, prefix, report)
            ok = ok and certs_ok
            detail += certs_detail
        return ok, detail

    @staticmethod
    def _check_certificates(method: str, f: Field, prefix: str, report: dict):
        """Every certificate row holds; recomputed from the part files, each
        part f_j integrated in |.| along axis j stays under the certified
        bound and the parts add up to f; the L^d splittings certify
        ||f||_{L^d}."""
        with open(f"{prefix}_certs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        unsatisfied = sum(float(r["value"]) > float(r["bound"]) * (1.0 + 1e-10) for r in rows)
        bound = max(float(r["bound"]) for r in rows)
        d = f.values.ndim
        parts = [read_bdiv(f"{prefix}_f{j + 1}.bdiv").values for j in range(d)]
        line_max = max(float((np.sum(np.abs(p), axis=j) * f.h[j]).max()) for j, p in enumerate(parts))
        sum_err = float(np.abs(sum(parts) - f.values).max())
        ok = (
            unsatisfied == 0
            and len(rows) == report["verification"]["certificates_total"]
            and line_max <= bound * (1.0 + 1e-10)
            and sum_err <= 1e-12 * float(np.abs(f.values).max())
        )
        if method != "weakl2":  # weakl2 certifies tau times the weak-L2 norm
            norm_d = float((np.sum(np.abs(f.values) ** d) * f.volume) ** (1.0 / d))
            ok = ok and rel_close(bound, norm_d, 1e-12)
        return ok, (
            f" certificates={len(rows)} unsatisfied={unsatisfied} "
            f"line_max/bound={line_max / bound:.6f} parts_sum_err={sum_err:.3e}"
        )

    def _check_norms(self, step: Step, report: dict) -> tuple[bool, str]:
        f = read_bdiv(step.argv[step.argv.index("--input") + 1])
        a = np.abs(f.values)
        want = {
            "lp:1": float(np.sum(a)) * f.volume,
            "lp:2": l2(a, f.volume),
            "linf": float(a.max()),
        }
        if step.name == "norms-default":
            want["morrey"] = self.morrey_ref
        bad = [k for k, v in want.items() if not rel_close(report[k], v, 1e-12)]
        return not bad, f"mismatched={bad}"

    def digest(self, h, results) -> None:
        root = self.workdir / "pass"
        for path in sorted(root.rglob("*")):
            if path.is_file() and not path.name.endswith(".report.json"):
                h.update(str(path.relative_to(root)).encode() + b"\0")
                h.update(path.read_bytes())


WORKLOADS = {w.name: w for w in (Table1, Hierarchy, ExplicitCli)}
