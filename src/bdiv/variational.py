"""Sup-norm variational solvers: minimization of ||u||_inf + lambda ||f -
div u||_Y^p for Y = L2, the spectral Helmholtz solver, the two-step
construction, and the hierarchical multistep schemes built on top.

Solver structure.  Any minimizer admits the extremal form u = nu w with a
pointwise-constrained dual field |w(x)|_2 <= 1 and a scalar nu >= 0: for
fixed nu, w solves the quadratic dual min 0.5 ||f - nu div w||^2 (projected
FISTA with adaptive restart), and nu is pinned by the residual certificate
- TV(r) = 1/(2 lambda) for p = 2, TV(r) = ||r||_2 / lambda for p = 1 -
through a bracketed one-dimensional root search with warm starts.  Each
probe of the search solves to a cheap duality gap first, which fixes the
sign of the certificate defect wherever it lies outside twice the band,
and continues to the tight gap only inside it, so every in-band verdict
rests on a tight solve.  Hitting the certificate is then part of the
construction rather than a limit property.  The objective is
1-homogeneous under (u, f, lambda) -> (cu, cf, lambda c^{p-1}), so the
iteration runs on unit-L2-normalized data and rescales the outputs,
keeping all internal quantities at O(1) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _divergence_into,
    _gradient_into,
    divergence_array,
)
from .norms import lp_norm, sup_magnitude, sup_norm_vector, tv_norm

# relative L2 residual below which a p = 1 solve counts as saturated: past
# the exact-penalty threshold the minimizer's residual is zero, and there
# |phi_1(r)|_TV = TV(r) / ||r||_2 certifies nothing
SATURATION_TOL = 1e-3

# FISTA iterations between duality-gap checks of an inner solve
CHECK_EVERY = 50


@dataclass
class VariationalConfig:
    """Knobs of the minimizer.

    max_iters caps the total inner first-order iterations across the root
    search; tol_objective is the relative duality-gap tolerance of the
    inner solves; tol_residual is the accepted relative width of the
    certificate band around the target.
    """

    lam: float
    p: int = 2
    max_iters: int = 200_000
    tol_objective: float = 1e-7
    tol_residual: float = 0.01
    inner_iters: int = 8000

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.p not in (1, 2):
            raise ValueError(f"fidelity exponent must be 1 or 2, got {self.p}")
        if self.tol_objective <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Probe:
    """One inner solve of the root search, at nu on the unit-normalized data.

    gap is the relative duality gap asked (1e-4 for the cheap solve,
    tol_objective for the tight one) and gap_met whether it was reached;
    defect is the certificate defect, positive while nu is below the root,
    and scale its natural size; saturated flags a vanished p = 1 residual;
    objective is that of the iterate on the caller's data.
    """

    nu: float
    gap: float
    gap_met: bool
    iterations: int
    defect: float
    scale: float
    saturated: bool
    objective: float


@dataclass
class SolverReport:
    """Outcome of one minimization: certificates and convergence record.

    converged means the returned residual lies in the certificate band (or,
    for p = 1, is saturated); gap_met means the inner solve behind the
    returned u reached the duality-gap tolerance tol_objective rather than
    stopping at its iteration cap or only at the cheap gap.  probes holds
    one record per inner solve of the root search, in the order they ran.
    """

    iterations: int
    objective: float
    u_sup: float
    r_norm: float
    phi_tv: float
    converged: bool
    gap_met: bool
    trivial: bool = False
    probes: list[Probe] = field(default_factory=list)


@dataclass
class HierarchyConfig:
    """Knobs of the multistep schemes (doubling-lambda and fixed-lambda)."""

    eta: float | None = None
    lambda1: float | None = None
    max_levels: int = 20
    stop_residual: float = 1e-3
    gamma_assumed: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.max_levels < 1:
            raise ValueError("need at least one level")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")


@dataclass
class LevelRecord:
    level: int
    lam: float
    u_sup: float
    r_norm: float
    r_tv: float
    cumulative_sup: float
    ratio: float


@dataclass
class HierarchyTrace:
    f_norm: float
    eta_used: float | None
    levels: list[LevelRecord] = field(default_factory=list)
    stagnated: bool = False
    lambda_too_small: bool = False

    @property
    def eta_measured(self) -> float:
        """Largest observed ||r||_2 / |phi_2(r)|_TV over the recorded
        residuals (the closure constant this run actually needed)."""
        best = 0.0
        for rec in self.levels:
            if rec.r_tv > 0:
                best = max(best, rec.r_norm / (2.0 * rec.r_tv))
        return best


def _phi_p_tv(r: ScalarField, p: int) -> float:
    """|phi_p(r)|_TV with the solver's isotropic TV; 0 for r = 0."""
    rnorm = lp_norm(r, 2)
    if rnorm == 0.0:
        return 0.0
    return p * rnorm ** (p - 2) * tv_norm(r, "isotropic")


# -- inner dual solve ----------------------------------------------------------


class _DualState:
    """Warm-startable projected-FISTA solve of min_{|w(x)|<=1}
    0.5 ||f - nu div w||^2 on unit-normalized data.

    The pointwise magnitude |w(x)|_2 is the formula of ``norms``: the square
    root of the squared components summed in axis order (np.abs for d = 1),
    so the TV the solver reports is ``tv_norm(r, "isotropic")`` bit for bit.
    The restart sign is one dot product <wy - w_new, w_new - w>, taken in
    place in wy and a difference buffer which the momentum update reuses.

    The inner loop allocates nothing.  Scratch buffers, allocated once: _r
    holds the residual; _tmp is the per-component scratch of
    _divergence_into and _magnitude_into; _g holds the gradient, in which
    the duality-gap check also works; _mag the magnitude.
    """

    def __init__(self, farr: np.ndarray, grid: Grid):
        self.farr = farr
        self.grid = grid
        self.vol = grid.cell_volume
        self.lips = sum(4.0 / h**2 for h in grid.h)  # ||div||^2
        self.w = np.zeros((grid.d,) + grid.n)
        self._r = np.empty(grid.n)
        # per-component scratch of _divergence_into and _magnitude_into
        self._tmp = np.empty(grid.n) if grid.d > 1 else None
        self._g = np.empty((grid.d,) + grid.n)
        self._mag = np.empty(grid.n)

    def _magnitude_into(self, g: np.ndarray, out: np.ndarray) -> None:
        """out <- pointwise l2 magnitude of the stacked (d, ...) array g."""
        if self.grid.d == 1:
            np.abs(g[0], out=out)
            return
        np.multiply(g[0], g[0], out=out)
        for c in g[1:]:
            np.multiply(c, c, out=self._tmp)
            out += self._tmp
        np.sqrt(out, out=out)

    def _residual_into(self, w: np.ndarray, nu: float) -> np.ndarray:
        """self._r <- f - nu div w."""
        r = self._r
        _divergence_into(w, self.grid, r, self._tmp)
        r *= -nu
        r += self.farr
        return r

    def residual(self, nu: float) -> np.ndarray:
        return self._residual_into(self.w, nu).copy()

    def tv_and_gap(self, nu: float) -> tuple[float, float]:
        g = self._g
        _gradient_into(self._residual_into(self.w, nu), self.grid, g)
        self._magnitude_into(g, self._mag)
        tv = float(self._mag.sum()) * self.vol
        g *= self.w
        gap = nu * (tv + float(g.sum()) * self.vol)
        return tv, gap

    def solve(
        self, nu: float, max_iters: int, gap_rel: float, tv_ref: float
    ) -> tuple[float, int, bool]:
        """Run FISTA from the current w; returns the achieved TV(r), the
        iterations run and whether the duality gap reached its threshold.

        Stops when the duality gap falls below gap_rel times the natural
        scale nu * max(TV(r), tv_ref); tv_ref keeps the threshold sane when
        the residual collapses past saturation.  Momentum restarts when the
        gradient-mapping direction turns against the last step.  With no
        iterations allowed it only evaluates TV(r) of the current w.
        """
        if max_iters <= 0:
            return self.tv_and_gap(nu)[0], 0, False
        step = 1.0 / (nu * self.lips)  # descent step times nu folded in
        w = self.w.copy()
        wy = w.copy()
        w_new = np.empty_like(w)
        dw = np.empty_like(w)
        g, mag, grid = self._g, self._mag, self.grid
        mag_b = mag[None]
        tmom = 1.0
        tv = np.inf
        for it in range(1, max_iters + 1):
            _gradient_into(self._residual_into(wy, nu), grid, g)
            np.multiply(g, -step, out=w_new)
            w_new += wy
            self._magnitude_into(w_new, mag)
            np.maximum(mag, 1.0, out=mag)
            w_new /= mag_b
            # restart when the implicit gradient step opposes the movement:
            # <wy - w_new, w_new - w> > 0 (wy is overwritten below)
            np.subtract(w_new, w, out=dw)
            wy -= w_new
            restart = np.vdot(wy, dw) > 0.0
            tnew = 1.0 if restart else 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tmom * tmom))
            coef = 0.0 if restart else (tmom - 1.0) / tnew
            np.multiply(dw, coef, out=wy)
            wy += w_new
            w, w_new = w_new, w
            tmom = tnew
            if it % CHECK_EVERY == 0 or it == max_iters:
                self.w = w
                tv, gap = self.tv_and_gap(nu)
                if gap <= gap_rel * max(nu * max(tv, tv_ref), 1e-300):
                    return tv, it, True
        return tv, max_iters, False


def minimize_flambda(
    f: ScalarField, cfg: VariationalConfig
) -> tuple[VectorField, ScalarField, SolverReport]:
    """Minimize ||u||_inf + lam ||f - div u||_2^p over vector fields u.

    Returns (u*, r*, report) with r* = f - div u* exactly (u* is assembled
    as nu times the dual field, and r* from the same arrays).  Contracts:
    the returned objective never exceeds the zero-field objective
    lam ||f||^p; on convergence the residual certificate |phi_p(r*)|_TV <=
    (1 + tol_residual)/lam holds, or, for p = 1 in the exact-penalty regime,
    the residual vanishes instead: ||r*||_2 <= SATURATION_TOL ||f||_2; below
    the trivial threshold lam |phi_p(f)|_TV <= 1 the zero field is optimal
    and returned exactly.

    The search over nu brackets the root, then narrows it by Illinois false
    position.  Each probe runs a cheap inner solve (relative gap 1e-4) and
    goes on to the gap tol_objective only when the cheap certificate defect
    lies within twice the band 0.5 tol_residual of zero; the search stops at
    the first probe inside the band, so that verdict always rests on a
    tight solve.  Every inner solve appends one Probe to report.probes, and
    the search reads its state from them: the duality-gap floor of each
    solve, saturation, and the returned u, that of the feasible record of
    least objective the narrowing found.  report.gap_met says whether the
    solve behind u reached tol_objective or stopped at the inner_iters cap.
    """
    grid = f.grid
    lam, p = cfg.lam, cfg.p
    fnorm = lp_norm(f, 2)

    phi_tv_f = _phi_p_tv(f, p)
    if lam * phi_tv_f <= 1.0 or fnorm == 0.0:
        report = SolverReport(
            iterations=0,
            objective=lam * fnorm**p,
            u_sup=0.0,
            r_norm=fnorm,
            phi_tv=phi_tv_f,
            converged=True,
            gap_met=True,
            trivial=True,
        )
        return VectorField.zeros(grid), f.copy(), report

    farr = f.values / fnorm
    lam_eff = lam * fnorm ** (p - 1)
    state = _DualState(farr, grid)
    band = 0.5 * cfg.tol_residual

    # the TV(r) the certificate asks for: 1/(2 lam) for p = 2, and for p = 1
    # ||r||_2 / lam, here at r = f.  Saturation: for p = 1 the fidelity is
    # an exact penalty, so past a finite nu the residual vanishes
    # identically; such nu are flagged as feasible and the search closes in
    # on the smallest one.
    target = 1.0 / (2.0 * lam_eff) if p == 2 else 1.0 / lam_eff
    t_floor = target if p == 2 else SATURATION_TOL / lam_eff
    probes: list[Probe] = []

    def used() -> int:
        return sum(q.iterations for q in probes)

    def budget() -> int:
        return min(cfg.inner_iters, cfg.max_iters - used())

    def solve(nu: float, gap: float) -> Probe:
        """One inner solve at nu to the relative gap, recorded in probes.
        Its gap floor is the scale of the last unsaturated record."""
        tv_ref = next((q.scale for q in reversed(probes) if not q.saturated), target)
        tv, iters, met = state.solve(nu, budget(), gap, tv_ref)
        r = state.residual(nu)
        rnorm = lp_norm(ScalarField(grid, r), 2) if p == 1 else 0.0
        t = target if p == 2 else rnorm / lam_eff
        saturated = p == 1 and rnorm <= SATURATION_TOL
        scale = max(t, t_floor)
        objective = _report_objective(
            (nu * fnorm) * state.w, ScalarField(grid, fnorm * r), lam, p
        )
        rec = Probe(nu=nu, gap=gap, gap_met=met, iterations=iters,
                    defect=-scale if saturated else tv - t, scale=scale,
                    saturated=saturated, objective=objective)
        probes.append(rec)
        return rec

    def probe(nu: float) -> Probe:
        """Solve at nu; return the last record.  A cheap solve (gap 1e-4,
        TV(r) to a few 1e-4 relative) settles the sign of the defect
        wherever it lies outside twice the certificate band; only inside it
        does the solve continue to cfg.tol_objective.  No solve runs past
        cfg.max_iters."""
        rec = solve(nu, 1e-4)
        if abs(rec.defect) > 2.0 * band * rec.scale or rec.saturated or budget() <= 0:
            return rec
        return solve(nu, cfg.tol_objective)

    # defect at nu = 0 is free: r = f
    d_lo = tv_norm(ScalarField(grid, farr), "isotropic") - target
    nu_lo = 0.0

    # expanding bracket: defect > 0 at nu_lo, <= 0 at nu_hi
    nu = 0.25
    converged = False
    best: tuple[Probe, np.ndarray] | None = None
    d_hi = d_lo
    while used() < cfg.max_iters:
        d_hi = probe(nu).defect
        if d_hi <= 0:
            break
        nu_lo, d_lo, nu = nu, d_hi, 2.0 * nu
        if nu > 1e9:
            break
    nu_hi = nu

    side = 0  # Illinois false position on the bracketed certificate defect
    while used() < cfg.max_iters:
        if d_hi < 0 < d_lo:
            nu = nu_hi - d_hi * (nu_hi - nu_lo) / (d_hi - d_lo)
            width = nu_hi - nu_lo
            nu = min(max(nu, nu_lo + 0.02 * width), nu_hi - 0.02 * width)
        else:
            nu = 0.5 * (nu_lo + nu_hi)
        rec = probe(nu)
        d = rec.defect
        in_band = abs(d) <= band * rec.scale and not rec.saturated
        if d > 0:
            nu_lo, d_lo = nu, d
            if side == -1:
                d_hi *= 0.5
            side = -1
        else:
            nu_hi, d_hi = nu, d
            if side == 1:
                d_lo *= 0.5
            side = 1
        if (d <= 0 or in_band) and (best is None or rec.objective < best[0].objective):
            best = (rec, state.w.copy())
        tiny = (nu_hi - nu_lo) <= 1e-14 * max(nu_hi, 1.0)
        # exact-penalty optimum: the residual vanished at a bracketed edge
        sat_edge = rec.saturated and (nu_hi - nu_lo) <= 1e-3 * max(nu_hi, 1e-300)
        if in_band or tiny or sat_edge:
            converged = in_band or sat_edge
            break

    if best is None:  # budget exhausted on the infeasible side; not converged
        best = (probe(nu_hi), state.w)
    rec, w = best

    u_arr = (rec.nu * fnorm) * w
    r_arr = f.values - divergence_array(u_arr, grid)
    r_field = ScalarField(grid, r_arr)
    obj = _report_objective(u_arr, r_field, lam, p)
    if obj > lam * fnorm**p:  # trivial bound must hold exactly
        u_arr = np.zeros_like(u_arr)
        r_field = f.copy()
        obj = lam * fnorm**p
        converged = False
    report = SolverReport(
        iterations=used(),
        objective=obj,
        u_sup=sup_magnitude(u_arr),
        r_norm=lp_norm(r_field, 2),
        phi_tv=_phi_p_tv(r_field, p),
        converged=converged,
        gap_met=rec.gap_met and rec.gap <= cfg.tol_objective,
        probes=probes,
    )
    return VectorField.from_arrays(grid, list(u_arr)), r_field, report


def _report_objective(u_arr: np.ndarray, r: ScalarField, lam: float, p: int) -> float:
    return sup_magnitude(u_arr) + lam * lp_norm(r, 2) ** p


# -- spectral Helmholtz solver -------------------------------------------------


def helmholtz_solve(
    f: ScalarField, mode: str = "discrete", strict_mean: bool = True
) -> VectorField:
    """Spectral solution u = grad Lap^{-1} f on a fully periodic grid.

    mode "discrete" divides by the symbol of the backward-difference
    divergence composed with the forward-difference gradient, so div u = f
    holds exactly on the grid; mode "continuum" uses -i kappa / |kappa|^2
    for comparison with the analytic solution.
    """
    grid = f.grid
    if not all(grid.periodic):
        raise ValueError("Helmholtz solver requires a fully periodic grid")
    if mode not in ("discrete", "continuum"):
        raise ValueError(f"unknown mode {mode!r}")
    mean = float(np.sum(f.values)) / f.values.size
    scale = float(np.abs(f.values).max())
    if abs(mean) > 1e-10 * max(scale, 1.0):
        if strict_mean:
            raise ValueError("data must have zero mean on the torus")
        f = ScalarField(grid, f.values - mean)

    fhat = np.fft.fftn(f.values)
    shape = grid.n
    axes_k = []
    for a in range(grid.d):
        k = np.fft.fftfreq(shape[a]) * shape[a]
        bshape = [1] * grid.d
        bshape[a] = shape[a]
        axes_k.append(k.reshape(bshape))

    comps = []
    if mode == "discrete":
        lap = np.zeros(shape)
        for a in range(grid.d):
            lap = lap - 4.0 * np.sin(np.pi * axes_k[a] / shape[a]) ** 2 / grid.h[a] ** 2
        lap_safe = np.where(lap != 0.0, lap, 1.0)
        ghat = np.where(lap != 0.0, fhat / lap_safe, 0.0)
        for a in range(grid.d):
            splus = (np.exp(2j * np.pi * axes_k[a] / shape[a]) - 1.0) / grid.h[a]
            comps.append(np.real(np.fft.ifftn(splus * ghat)))
    else:
        k2 = np.zeros(shape)
        kappas = []
        for a in range(grid.d):
            length = grid.hi[a] - grid.lo[a]
            kappa = 2.0 * np.pi * axes_k[a] / length
            kappas.append(kappa)
            k2 = k2 + kappa**2
        k2safe = np.where(k2 != 0.0, k2, 1.0)
        for a in range(grid.d):
            uhat = np.where(k2 != 0.0, -1j * kappas[a] / k2safe * fhat, 0.0)
            comps.append(np.real(np.fft.ifftn(uhat)))
    return VectorField.from_arrays(grid, comps)


# -- two-step construction -----------------------------------------------------


def two_step(
    f: ScalarField, cfg: VariationalConfig | None = None
) -> tuple[VectorField, SolverReport]:
    """Bounded solution in two moves: minimize with lam = 1/||f||_2, then
    feed the residual to the Helmholtz solver.  The Helmholtz part inverts
    its data exactly, so div u = f up to the exactness of r1 = f - div u1,
    which is exact by construction."""
    if f.grid.d != 2:
        raise ValueError("two-step construction is for d = 2")
    if not all(f.grid.periodic):
        raise ValueError("two-step construction needs a periodic grid")
    fnorm = lp_norm(f, 2)
    if fnorm == 0.0:
        rep = SolverReport(0, 0.0, 0.0, 0.0, 0.0, True, True, trivial=True)
        return VectorField.zeros(f.grid), rep
    if cfg is None:
        cfg = VariationalConfig(lam=1.0 / fnorm)
    else:
        cfg = replace(cfg, lam=1.0 / fnorm)
    u1, r1, rep = minimize_flambda(f, cfg)
    u2 = helmholtz_solve(r1, strict_mean=False)
    total = u1.as_array() + u2.as_array()
    u = VectorField.from_arrays(f.grid, list(total))
    r = ScalarField(f.grid, f.values - divergence_array(total, f.grid))
    report = SolverReport(
        iterations=rep.iterations,
        objective=_report_objective(total, r, cfg.lam, cfg.p),
        u_sup=sup_norm_vector(u),
        r_norm=lp_norm(r, 2),
        phi_tv=rep.phi_tv,
        converged=rep.converged,
        gap_met=rep.gap_met,
        probes=rep.probes,
    )
    return u, report


# -- hierarchical schemes ------------------------------------------------------


def _stripe_closure_witness(grid: Grid) -> float:
    """||v||_2 / |phi_2(v)|_TV for the mean-zero half-split indicator, the
    flattest profile the torus supports; any valid closure constant must
    dominate it."""
    if not all(grid.periodic):
        return 0.0
    area = 1.0
    for lo, hi in zip(grid.lo, grid.hi):
        area *= hi - lo
    best = max(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    return best / (8.0 * np.sqrt(area))


def estimate_eta(f: ScalarField) -> float:
    """Closure-constant estimate: one probe minimization well above the
    trivial threshold (where residuals are already flat), doubled for
    safety, floored by the exact stripe witness of the grid.

    Overestimates are harmless (the closure inequality holds a fortiori and
    lambda_1 just starts higher); underestimates only cost extra levels.
    """
    tv0 = _phi_p_tv(f, 2)
    if tv0 == 0.0:
        return 1.0
    _, r, _ = minimize_flambda(f, VariationalConfig(lam=64.0 / tv0))
    tv_r = _phi_p_tv(r, 2)
    probe = 1.0 if tv_r == 0.0 else 2.0 * lp_norm(r, 2) / tv_r
    return max(probe, _stripe_closure_witness(f.grid))


def _level_loop(
    f: ScalarField,
    cfg: HierarchyConfig,
    trace: HierarchyTrace,
    p: int,
    lam_of: Callable[[int], float],
    stalls: Callable[[float], bool],
) -> tuple[VectorField, bool]:
    """The telescoping loop of both hierarchies: level j minimizes with
    exponent p and lam_of(j) on r_{j-1} (r_0 = f) and records itself in
    trace; stops at ||r_j|| <= stop_residual ||f||, or returns stalled after
    three consecutive levels whose residual ratio stalls() flags."""
    grid = f.grid
    total = np.zeros((grid.d,) + grid.n)
    r_prev, prev_norm = f, trace.f_norm
    stalled = 0
    for j in range(1, cfg.max_levels + 1):
        lam_j = lam_of(j)
        u_j, r_j, rep = minimize_flambda(r_prev, VariationalConfig(lam=lam_j, p=p))
        total += u_j.as_array()
        r_norm = lp_norm(r_j, 2)
        ratio = r_norm / prev_norm if prev_norm > 0 else 0.0
        trace.levels.append(
            LevelRecord(
                level=j,
                lam=lam_j,
                u_sup=rep.u_sup,
                r_norm=r_norm,
                r_tv=tv_norm(r_j, "isotropic"),
                cumulative_sup=sup_magnitude(total),
                ratio=ratio,
            )
        )
        stalled = stalled + 1 if stalls(ratio) else 0
        if stalled >= 3:
            return VectorField.from_arrays(grid, list(total)), True
        r_prev, prev_norm = r_j, r_norm
        if r_norm <= cfg.stop_residual * trace.f_norm:
            break
    return VectorField.from_arrays(grid, list(total)), False


def hierarchical_p2(
    f: ScalarField, cfg: HierarchyConfig | None = None
) -> tuple[VectorField, HierarchyTrace]:
    """Doubling-lambda hierarchy: level j minimizes ||u||_inf + lam_j
    ||r_{j-1} - div u||_2^2 with lam_j = lam_1 2^(j-1), lam_1 = 2 eta /
    ||f||_2.  The residuals decay geometrically once the TV certificates
    engage, and the partial sums stay uniformly bounded."""
    if cfg is None:
        cfg = HierarchyConfig()
    fnorm = lp_norm(f, 2)
    trace = HierarchyTrace(f_norm=fnorm, eta_used=cfg.eta)
    if fnorm == 0.0:
        return VectorField.zeros(f.grid), trace

    eta = cfg.eta if cfg.eta is not None else estimate_eta(f)
    trace.eta_used = eta
    lam1 = cfg.lambda1 if cfg.lambda1 is not None else 2.0 * eta / fnorm

    u, trace.stagnated = _level_loop(
        f, cfg, trace, 2, lambda j: lam1 * 2.0 ** (j - 1), lambda q: q > 0.95
    )
    return u, trace


def hierarchical_p1(
    f: ScalarField, cfg: HierarchyConfig | None = None
) -> tuple[VectorField, HierarchyTrace]:
    """Fixed-lambda hierarchy with exponent p = 1: each level contracts the
    residual by roughly gamma/lambda when lambda exceeds the constant gamma
    of the bounded-solution bound."""
    if cfg is None:
        cfg = HierarchyConfig()
    grid = f.grid
    fnorm = lp_norm(f, 2)
    trace = HierarchyTrace(f_norm=fnorm, eta_used=None)
    if fnorm == 0.0:
        return VectorField.zeros(grid), trace

    gamma = cfg.gamma_assumed
    if gamma is None:
        if not all(grid.periodic):
            raise ValueError(
                "gamma_assumed is required on non-periodic grids (no "
                "Helmholtz probe available)"
            )
        probe = helmholtz_solve(f, strict_mean=False)
        gamma = sup_norm_vector(probe) / fnorm
    lam = cfg.lam if cfg.lam is not None else 4.0 * gamma

    u, trace.lambda_too_small = _level_loop(
        f, cfg, trace, 1, lambda j: lam, lambda q: q >= 1.0
    )
    return u, trace
