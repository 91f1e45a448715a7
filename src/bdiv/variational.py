"""Sup-norm variational solvers: minimization of ||u||_inf + lambda ||f -
div u||_Y^p for Y = L2, the spectral Helmholtz solver, the two-step
construction, and the hierarchical multistep schemes built on top.

Solver structure at p = 2.  Any minimizer admits the extremal form u = nu
w with a pointwise-constrained dual field |w(x)|_2 <= 1 and a scalar nu >=
0: for fixed nu, w solves the quadratic dual min 0.5 ||f - nu div w||^2
(projected FISTA with adaptive restart), and nu is pinned by the residual
certificate TV(r) = 1/(2 lambda) through a bracketed one-dimensional root
search with warm starts (_search).  A probe stops its cheap solve once
the gap decides the sign of the certificate defect, and the search stops
at the first probe inside the band whose objective the weak-duality bound
of its residual (_dual_bound) certifies to CHEAP_GAP.  Hitting the
certificate is then part of the construction rather than a limit property.

Coarse start (p = 2).  The root nu* hardly moves with resolution, so on a
grid with even axes whose 2^d-cell average has at least COARSE_MIN_CELLS
cells the search first finds it, with cheap solves only, on that average
(recursively), and starts there from the prolonged coarse dual field.
All levels share one budget of iterations times cells.

Solver structure at p = 1.  The fidelity lambda ||r||_2 is an exact
penalty, so the minimizer's residual vanishes past a finite lambda, where
the certificate of the p = 2 search says nothing.  A primal-dual
(Chambolle-Pock) iteration solves the problem directly instead, and its
dual point, scaled into the dual feasible set, bounds the minimum from
below; it stops once that bound certifies the objective to CHEAP_GAP.

The objective is 1-homogeneous under (u, f, lambda) -> (cu, cf, lambda
c^{p-1}), so both solvers run on unit-L2-normalized data and rescale the
outputs, keeping all internal quantities at O(1) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _divergence_calls,
    _gradient_calls,
    _run,
    divergence_array,
)
from .norms import lp_norm, sup_magnitude, sup_norm_vector, tv_norm

# iterations between duality-gap checks of an inner solve (FISTA) and of
# the p = 1 primal-dual solve
CHECK_EVERY = 50

# sigma tau ||div||^2 of the p = 1 primal-dual solve (below 1)
STEP_PRODUCT = 0.99

# relative duality gap of the cheap solve that opens every probe, and the
# relative gap (objective - lower bound) / objective that settles the search
CHEAP_GAP = 1e-4

# the largest gap, relative to nu times the certificate target, at which a
# cheap p = 2 solve stops on the sign of its defect: the gap that decides
# the sign grows as CHEAP_GAP times the defect over twice the band, up to
# this cap.  A cap relative to max(TV(r), target) instead lets the probes
# far below the root stop so loosely that the next ones, warm-started from
# them, cannot reach the cheap gap: the 64^2 ball of criterion 2 on a box
# of half-width 4 converges in 7,200 iterations with this cap and has not
# converged after 93,900 with that one
SIGN_GAP = 1e-3

# the solver settings of `bdiv bench table1`: the reported ratio is stable to
# ~1e-4 well before the certificate-grade default tolerances
TABLE1_SETTINGS = dict(tol_objective=1e-6, tol_residual=0.02, inner_iters=4000)

# least cell count of the 2^d-cell-averaged grid for the coarse start of
# minimize_flambda.  Below it a FISTA iteration is mostly per-call overhead:
# one costs 79.9 ns per cell at 16^2 (20 us), 34.4 at 32^2 (35 us) and 19.0
# at 64^2 (78 us) (BENCH_13.json, one core).  A 32^2 iteration costs 0.45
# of a 64^2 one, but a 16^2 iteration 0.58 of a 32^2 one, too much for the
# probes a coarse search adds.  End to end the floor hardly matters: on the
# 64^2 Nirenberg field (scripts/ledger.py probes) a floor of 256, which adds
# a 16^2 level, takes 46.0 M cell-iterations at p = 2 against 46.5 M, and
# 195.1 M at p = 1 against 194.6 M.  512 keeps every 16^2 solve as it was.
COARSE_MIN_CELLS = 512


@dataclass
class VariationalConfig:
    """Knobs of the minimizer.

    p = 1 reads lam and max_iters, the cap of its primal-dual iterations.
    p = 2 reads them all: max_iters caps the iterations across the root
    search, inner_iters those of one inner solve, tol_objective is the
    relative duality gap of a tight inner solve, and tol_residual the
    accepted relative width of the certificate band around the target.
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
        if self.max_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class Probe:
    """One inner solve of the p = 2 root search, at nu on its level's
    unit-normalized data.

    gap is the relative duality gap asked (CHEAP_GAP, or tol_objective for
    a tight solve) and gap_reached that of the solve's last check; ending
    says how the solve stopped: "gap" at the gap asked, "sign" once the gap
    of a cheap solve decided the sign of its defect (outside twice the
    band, so the record never settles the search), "cap" at its iteration
    cap.  cells is the cell count of the grid it ran on; defect is the
    certificate defect TV(r) - 1 / (2 lam) on the normalized data, positive
    while nu is below the root; objective is that of the iterate on the data
    of its grid, and bound the weak-duality lower bound on its minimum from
    the iterate's residual (_dual_bound).  The record is certified when
    (objective - bound) / objective <= CHEAP_GAP.
    """

    nu: float
    gap: float
    ending: str
    gap_reached: float
    iterations: int
    cells: int
    defect: float
    objective: float
    bound: float

    @property
    def certified(self) -> bool:
        return self.objective - self.bound <= CHEAP_GAP * self.objective


@dataclass
class SolverReport:
    """Outcome of one minimization: certificates and convergence record.

    objective, u_sup, r_norm, r_tv = TV(r), phi_tv and lower_bound are the
    contract of the returned (u, r).  lower_bound is a weak-duality lower
    bound on the minimum, so objective - lower_bound bounds how far the
    result is from optimal: at p = 2 that of the returned r, at p = 1 the
    larger of it and the bound of the primal-dual solve's dual point.
    converged means the returned (u, r) are certified, (objective -
    lower_bound) / objective <= CHEAP_GAP, and at p = 2 also that the
    search settled inside the certificate band.  probes holds one record
    per inner solve of the p = 2 root search, in the order they ran: the
    coarse levels' first, coarsest first, each record's cells naming its
    level; it is empty at p = 1.  iterations counts the iterations on the
    caller's grid, cell_iterations the iterations times the cells of every
    solve, coarse ones included.
    """

    iterations: int
    objective: float
    u_sup: float
    r_norm: float
    r_tv: float
    phi_tv: float
    converged: bool
    lower_bound: float = -math.inf
    trivial: bool = False
    cell_iterations: int = 0
    probes: list[Probe] = field(default_factory=list)


@dataclass
class HierarchyConfig:
    """Knobs of the multistep schemes.  lam is the lambda of level 1:
    hierarchical_p2 doubles it at each level and hierarchical_p1 keeps it.
    None estimates it from f, as each scheme's docstring says."""

    lam: float | None = None
    max_levels: int = 20
    stop_residual: float = 1e-3

    def __post_init__(self):
        if self.max_levels < 1:
            raise ValueError("need at least one level")


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


def contract(f: ScalarField, u_arr: np.ndarray, r: ScalarField, lam: float,
             p: int) -> dict[str, float]:
    """The contract of a result (u, r) of min_u ||u||_inf + lam ||f - div
    u||_2^p, u as a stacked (d, ...) array: objective, u_sup, r_norm, r_tv
    = TV(r), phi_tv = |phi_p(r)|_TV (0 for r = 0) and lower_bound, the
    weak-duality lower bound on the minimum from r by _dual_bound.  TV(r) is
    computed once, for all three."""
    u_sup, r_norm = sup_magnitude(u_arr), lp_norm(r, 2)
    tv = tv_norm(r, "isotropic")
    lower = _dual_bound(f.values, r.values, tv, f.grid.cell_volume, lam, p)
    return dict(objective=u_sup + lam * r_norm**p, u_sup=u_sup, r_norm=r_norm, r_tv=tv,
                phi_tv=0.0 if r_norm == 0.0 else p * r_norm ** (p - 2) * tv,
                lower_bound=lower)


def _is_trivial(c: dict[str, float], lam: float) -> bool:
    """Whether the contract c of the zero field (u = 0, r = f) shows it
    optimal: below the trivial threshold lam |phi_p(f)|_TV <= 1, or f = 0."""
    return lam * c["phi_tv"] <= 1.0 or c["r_norm"] == 0.0


def _dual_bound(f: np.ndarray, r: np.ndarray, tv: float, vol: float, lam: float,
                p: int) -> float:
    """The lower_bound of contract from the arrays of f and r and TV(r).

    div and -grad are adjoint on boxes and tori, so for any phi with
    TV(phi) <= 1, <f, phi> = <u, -grad phi> + <r, phi> <= ||u||_inf + <r,
    phi>.  With a = <f, r> and rho = ||r||_2^2 (cell-volume inner product):
    p = 2 takes phi = s r / TV(r) and the best s in [0, 1], s = 2 lam TV(r)
    a / rho, and <r, phi> <= lam ||r||^2 + ||phi||^2 / (4 lam) gives
    s a / TV(r) - s^2 rho / (4 lam TV(r)^2), tight at the optimum; p = 1
    takes phi = c r with TV(phi) <= 1 and ||phi||_2 <= lam, which gives
    min(1 / TV(r), lam / sqrt(rho)) a, first order in the certificate
    defect TV(r) - ||r||_2 / lam.  -inf for r = 0 or TV(r) = 0.
    """
    a = float(np.sum(f * r)) * vol
    rho = float(np.sum(r * r)) * vol
    if tv <= 0.0 or rho <= 0.0:
        return -math.inf
    if p == 2:
        s = min(max(2.0 * lam * tv * a / rho, 0.0), 1.0)
        return s * a / tv - s * s * rho / (4.0 * lam * tv * tv)
    return min(1.0 / tv, lam / math.sqrt(rho)) * a


# -- inner dual solve ----------------------------------------------------------


def _magnitude_calls(g: np.ndarray, mag: np.ndarray, tmp: np.ndarray | None) -> list[Callable]:
    """Bound calls setting mag to the pointwise l2 magnitude of the stacked
    (d, ...) array g, tmp scratch (None for d = 1): the square root of the
    squared components summed in axis order, np.abs for d = 1."""
    if g.shape[0] == 1:
        return [partial(np.abs, g[0], mag)]
    calls = [partial(np.multiply, g[0], g[0], mag)]
    for c in g[1:]:
        calls += [partial(np.multiply, c, c, tmp), partial(np.add, mag, tmp, mag)]
    return calls + [partial(np.sqrt, mag, mag)]


class _DualState:
    """Warm-startable projected-FISTA solve of min_{|w(x)|<=1}
    0.5 ||f - nu div w||^2 on unit-normalized data, toward the certificate
    target, the TV(r) the root search asks for.

    The pointwise magnitude |w(x)|_2 is the formula of ``norms``: the square
    root of the squared components summed in axis order (np.abs for d = 1),
    so the TV the solver reports is ``tv_norm(r, "isotropic")`` bit for bit.
    The restart sign is one dot product <wy - w_new, w_new - w>, taken in
    place in wy and _g, whose difference the momentum update reuses.

    The iteration runs in unit-spacing differences D-_a, D+_a.  With h0 =
    h[0] and rho_a = h_a / h0 (exactly 1.0 on axis 0 and on every axis of
    an isotropic grid), the residual r = f - nu sum_a D-_a wy_a / h_a and
    the step w_new_a = wy_a - step D+_a r / h_a become
        q = c sum_a D-_a wy_a / rho_a + f_s,   w_new_a = wy_a + D+_a q / rho_a
    with q = -(step / h0) r and two per-solve constants, the scalar c =
    step nu / h0^2 and the array f_s = -(step / h0) f: no cell array is
    divided by h or scaled by the step, and a stencil divides by rho_a only
    where it is not 1.0.  The gap check keeps the h-spaced stencils, so its
    TV is unchanged.

    The iteration is built once and then only run: its ufunc calls are
    bound, with the array views they work on, as argument-free
    functools.partial objects.  Bound at construction, from ``fields``' one
    stencil builder: the rho-spaced divergence of the extrapolated point
    _wy into _r (through _tmp) and the rho-spaced gradient of _r straight
    into each swap buffer _w2[k]; for the residual and the gap check, the
    h-spaced divergence of each _w2[k] into _r and the h-spaced gradient of
    _r into _g, and the magnitude of _g into _mag.  The residual and the
    gap check run the divergence calls of the swap buffer that w is.  At
    the start of each solve _fs is filled with f_s, and the calls that
    depend on c are bound, once for each parity of the w/w_new swap: q *= c
    and q += f_s, w_new += wy, the magnitude, the clip at 1, the divide and
    the two restart subtractions.  Called directly: np.vdot and the
    coefficient-dependent momentum update.

    The arrays are allocated at construction, C-ordered, as the stencils
    of ``fields`` require of src and out (a component x[a] of a C-ordered
    (d, ...) array is C-contiguous too); a solve allocates none.  w is
    one of the two swap buffers _w2, and a solve starts from whichever it
    is; _wy holds the extrapolated point; _r the residual, or q in the
    iteration; _fs holds f_s; _tmp the per-component scratch of the
    divergence and the magnitude; _g the difference w_new - w, and the
    gradient of the gap check; _mag holds the magnitude.
    """

    def __init__(self, farr: np.ndarray, grid: Grid, target: float):
        self.farr = farr
        self.grid = grid
        self.target = target
        self.vol = grid.cell_volume
        self.lips = sum(4.0 / h**2 for h in grid.h)  # ||div||^2
        self.h0 = grid.h[0]
        rho = tuple(h / self.h0 for h in grid.h)
        shape = (grid.d,) + grid.n
        self._w2 = (np.zeros(shape), np.empty(shape))
        self.w = self._w2[0]
        self._wy = np.empty(shape)
        self._r = np.empty(grid.n)
        self._fs = np.empty(grid.n)
        self._tmp = np.empty(grid.n) if grid.d > 1 else None
        self._g = np.empty(shape)
        self._mag = np.empty(grid.n)
        self._div_wy = _divergence_calls(self._wy, rho, grid.periodic, self._r, self._tmp)
        self._grad_q = [_gradient_calls(self._r, rho, grid.periodic, w) for w in self._w2]
        self._div_w2 = [_divergence_calls(w, grid.h, grid.periodic, self._r, self._tmp)
                        for w in self._w2]
        self._grad_r = _gradient_calls(self._r, grid.h, grid.periodic, self._g)
        self._mag_g = _magnitude_calls(self._g, self._mag, self._tmp)

    def residual(self, nu: float) -> np.ndarray:
        """f - nu div w in _r, returned without a copy: the next solve or
        gap check overwrites it."""
        _run(self._div_w2[self.w is self._w2[1]])
        r = self._r
        r *= -nu
        r += self.farr
        return r

    def tv_and_gap(self, nu: float) -> tuple[float, float]:
        self.residual(nu)
        _run(self._grad_r)
        _run(self._mag_g)
        g = self._g
        tv = float(self._mag.sum()) * self.vol
        g *= self.w
        gap = nu * (tv + float(g.sum()) * self.vol)
        return tv, gap

    def _iteration_calls(self, c: float, k: int) -> list[Callable]:
        """Bound calls of one iteration from w = _w2[k] up to the restart dot
        product: q at _wy in _r, w_new = _w2[1 - k] <- the projected step
        from _wy, and the restart terms _g <- w_new - w, _wy <- _wy - w_new."""
        q, g, wy, mag = self._r, self._g, self._wy, self._mag
        w, w_new = self._w2[k], self._w2[1 - k]
        return [
            *self._div_wy,
            partial(np.multiply, q, c, q),
            partial(np.add, q, self._fs, q),
            *self._grad_q[1 - k],
            partial(np.add, w_new, wy, w_new),
            *_magnitude_calls(w_new, mag, self._tmp),
            partial(np.maximum, mag, 1.0, out=mag),  # positional out deprecated
            partial(np.divide, w_new, mag[None], w_new),
            partial(np.subtract, w_new, w, g),
            partial(np.subtract, wy, w_new, wy),
        ]

    def solve(
        self, nu: float, max_iters: int, gap_rel: float, width: float | None = None
    ) -> tuple[float, int, bool, float]:
        """Run FISTA from the current w; returns the achieved TV(r), the
        iterations run, whether the duality gap reached its threshold, and
        the relative gap of the last check.

        Stops when the duality gap falls below gap_rel times the natural
        scale nu * M, M = max(TV(r), target); the target keeps the threshold
        sane when the residual collapses.  With a width it also stops, its
        threshold unmet, once the gap falls below nu min(gap_rel |TV(r) -
        target| / width, SIGN_GAP target): the gap that decides the sign of
        the defect TV(r) - target as surely as gap_rel decides it at a defect
        of width, capped.  Momentum restarts when the gradient-mapping
        direction turns against the last step.  With no iterations allowed
        it only evaluates TV(r) and the gap of the current w.
        """
        target = self.target
        if max_iters <= 0:
            tv, gap = self.tv_and_gap(nu)
            return tv, 0, False, gap / max(nu * max(tv, target), 1e-300)
        step = 1.0 / (nu * self.lips)  # descent step times nu folded in
        np.multiply(self.farr, -(step / self.h0), out=self._fs)
        c = step * nu / self.h0**2
        w2, wy, dw = self._w2, self._wy, self._g
        calls = (self._iteration_calls(c, 0), self._iteration_calls(c, 1))
        k = 0 if self.w is w2[0] else 1  # w is w2[k], w_new w2[1 - k]
        np.copyto(wy, self.w)
        tmom = 1.0
        for it in range(1, max_iters + 1):
            for call in calls[k]:
                call()
            restart = np.vdot(wy, dw) > 0.0
            tnew = 1.0 if restart else 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tmom * tmom))
            coef = 0.0 if restart else (tmom - 1.0) / tnew
            np.multiply(dw, coef, out=wy)
            k = 1 - k
            wy += w2[k]
            tmom = tnew
            if it % CHECK_EVERY == 0 or it == max_iters:
                self.w = w2[k]
                tv, gap = self.tv_and_gap(nu)
                scale = max(nu * max(tv, target), 1e-300)
                if gap <= gap_rel * scale:
                    return tv, it, True, gap / scale
                if width is not None and gap <= nu * min(
                        gap_rel * abs(tv - target) / width, SIGN_GAP * target):
                    return tv, it, False, gap / scale
        return tv, max_iters, False, gap / scale


# -- primal-dual solve at p = 1 ------------------------------------------------


class _PrimalDual:
    """Chambolle-Pock solve (JMIV 40, 2011) of min_u ||u||_inf + lam ||f -
    div u||_2 on unit-normalized data, with K = div and K^T = -grad.

    y is the dual variable times the cell volume, so that lam ||g||_2 is the
    largest sum_x y g over the ball |y| <= R = lam sqrt(vol), |.| the plain
    Euclidean norm of an array.  One iteration, from u, y and the
    extrapolated point ubar:
        y <- the projection on that ball of y + sigma (div ubar - f),
        u <- the prox of tau ||.||_inf at v = u + tau grad y,
        ubar <- 2 u - u_old.
    The prox clips the pointwise magnitudes |v(x)| at the level mu where
    sum_x max(|v(x)| - mu, 0) = tau (Moreau's identity and the projection
    on an l1 ball; Condat, Math. Prog. 158, 2016), or returns 0 when sum_x
    |v(x)| <= tau.  That sum is convex and piecewise linear in mu, so
    Newton's method from the last mu is exact once the set of magnitudes
    above mu stops changing.

    Steps: sigma tau sum_a 4 / h_a^2 = STEP_PRODUCT < 1, with tau / sigma =
    rho^2.  rho starts at sqrt(d cells / vol), the ratio |u| / |y| when
    every component of u has size lam (an objective below the trivial bound
    keeps |u(x)| <= lam) and |y| = R.  At each check rho moves halfway, in
    log scale, to the measured |u| / |y| (the primal weight of Applegate et
    al., NeurIPS 2021), and the extrapolation restarts (ubar = u).  Setting
    rho to |u| / |y| outright can cycle: on the 46^2 Nirenberg field at lam
    = 1 from rho = 30 the gap swings between 0.64 and 0.73 with period
    3,000 iterations.

    Certificate: phi = -c y / vol has ||phi||_2 = |y| / sqrt(vol) and
    TV(phi) = sum_x |grad y(x)|, so with c = min(1, 1 / TV(-y / vol), R /
    |y|) it is dual feasible, ||phi||_2 <= lam and TV(phi) <= 1, and weak
    duality (see _dual_bound) bounds the minimum below by <f, phi>.  A
    check returns the objective of u and that bound.

    The arrays are allocated at construction and an iteration allocates
    none.  The stencils are the bound calls of ``fields``: the divergence of
    ubar with spacing h / sigma into _z and the gradient of y with spacing
    h / tau into _g, which fold the steps into the differences and are
    rebound when the steps change; for the checks, the h-spaced divergence
    of u and the h-spaced gradient of y.  _ubar holds u_old while u is
    updated in place; _z holds sigma div ubar, or the residual at a check;
    _g holds v, or grad y at a check; _mag the magnitudes, _s the Newton and
    reduction scratch, _tmp the divergence and magnitude scratch.
    Every reduction is an np.add.reduce (np.sum's), never a BLAS dot, whose
    result can depend on the thread count.
    """

    def __init__(self, farr: np.ndarray, grid: Grid, lam: float):
        self.farr, self.grid, self.lam = farr, grid, lam
        self.vol = grid.cell_volume
        self.radius = lam * math.sqrt(self.vol)
        self.step = math.sqrt(STEP_PRODUCT / sum(4.0 / h**2 for h in grid.h))
        shape = (grid.d,) + grid.n
        self.u = np.zeros(shape)
        self._ubar = np.zeros(shape)
        self.y = np.zeros(grid.n)
        self._sf = np.empty(grid.n)
        self._z = np.empty(grid.n)
        self._g = np.empty(shape)
        self._mag = np.empty(grid.n)
        self._s = np.empty(grid.n)
        self._tmp = np.empty(grid.n) if grid.d > 1 else None
        self._mag_g = _magnitude_calls(self._g, self._mag, self._tmp)
        self._mag_u = _magnitude_calls(self.u, self._mag, self._tmp)
        self._div_u = _divergence_calls(self.u, grid.h, grid.periodic, self._z, self._tmp)
        self._grad_y = _gradient_calls(self.y, grid.h, grid.periodic, self._g)
        self.mu, self.c = 0.0, 0.0
        self._set_steps(math.sqrt(grid.d * grid.size / self.vol))

    def _set_steps(self, rho: float) -> None:
        """tau / sigma = rho^2 at sigma tau = STEP_PRODUCT / ||div||^2."""
        grid = self.grid
        self.rho, self.tau, self.sigma = rho, self.step * rho, self.step / rho
        np.multiply(self.farr, self.sigma, out=self._sf)
        self._div_ubar = _divergence_calls(
            self._ubar, [h / self.sigma for h in grid.h], grid.periodic, self._z, self._tmp)
        self._grad_tau_y = _gradient_calls(
            self.y, [h / self.tau for h in grid.h], grid.periodic, self._g)

    def _clip_level(self) -> float:
        """The level mu >= 0 whose clip of the magnitudes _mag takes tau
        out of their sum (0 when the sum is at most tau), by Newton's method
        from the last level.  A level at or above every magnitude restarts
        from the line through all of them, which lies below the root."""
        mag, s, tau = self._mag, self._s, self.tau
        mu, count = self.mu, -1
        # below the root every step shrinks the active set, and one step from
        # anywhere lands there, so mag.size + 2 evaluations always suffice
        for _ in range(mag.size + 2):
            np.subtract(mag, mu, out=s)
            np.maximum(s, 0.0, out=s)
            active = int(np.count_nonzero(s))
            if active == 0:
                mu, count = (float(np.add.reduce(mag, axis=None)) - tau) / mag.size, mag.size
                continue
            if active == count:  # the same linear piece: mu is its root
                break
            mu += (float(np.add.reduce(s, axis=None)) - tau) / active
            count = active
        self.mu = max(mu, 0.0)
        return self.mu

    def iterate(self) -> None:
        z, y, g, mag, u, ubar = self._z, self.y, self._g, self._mag, self.u, self._ubar
        _run(self._div_ubar)
        np.subtract(z, self._sf, out=z)
        np.add(y, z, out=y)
        np.multiply(y, y, out=z)
        norm = math.sqrt(float(np.add.reduce(z, axis=None)))
        if norm > self.radius:
            np.multiply(y, self.radius / norm, out=y)
        _run(self._grad_tau_y)
        np.add(g, u, out=g)
        _run(self._mag_g)
        mu = self._clip_level()
        np.copyto(ubar, u)
        if mu > 0.0:  # v mu / max(|v|, mu)
            np.maximum(mag, mu, out=mag)
            np.divide(mu, mag, out=mag)
            np.multiply(g, mag[None], out=u)
        else:
            u.fill(0.0)
        np.subtract(u, ubar, out=ubar)  # u + (u - u_old)
        np.add(ubar, u, out=ubar)

    def check(self) -> tuple[float, float]:
        """The objective of u and the bound <f, phi>; then the step ratio
        and the restart of the extrapolation."""
        z, s, mag, vol = self._z, self._s, self._mag, self.vol
        _run(self._div_u)
        np.subtract(self.farr, z, out=z)
        np.multiply(z, z, out=z)
        r_norm = math.sqrt(float(np.add.reduce(z, axis=None)) * vol)
        _run(self._mag_u)
        u_sup = float(mag.max())
        np.multiply(mag, mag, out=s)
        u_e = math.sqrt(float(np.add.reduce(s, axis=None)))
        np.multiply(self.y, self.y, out=s)
        y_e = math.sqrt(float(np.add.reduce(s, axis=None)))
        _run(self._grad_y)
        _run(self._mag_g)
        tv = float(np.add.reduce(mag, axis=None))
        self.c = min(1.0, 1.0 / tv if tv > 0.0 else 1.0, self.radius / y_e if y_e > 0.0 else 1.0)
        np.multiply(self.farr, self.y, out=s)
        bound = -self.c * float(np.add.reduce(s, axis=None))
        if u_e > 0.0 and y_e > 0.0:
            self._set_steps(math.sqrt(self.rho * u_e / y_e))
        np.copyto(self._ubar, self.u)
        return u_sup + self.lam * r_norm, bound

    def solve(self, max_iters: int) -> int:
        """Iterate from the zero pair until a check certifies (objective -
        bound) / objective <= CHEAP_GAP, or for max_iters iterations;
        returns the iterations run."""
        for it in range(1, max_iters + 1):
            self.iterate()
            if it % CHECK_EVERY == 0 or it == max_iters:
                objective, bound = self.check()
                if objective - bound <= CHEAP_GAP * objective:
                    return it
        return max_iters

    def dual_point(self) -> np.ndarray:
        """phi = -c y / vol of the last check (0 before any), a new array."""
        return (-self.c / self.vol) * self.y


def minimize_flambda(
    f: ScalarField, cfg: VariationalConfig
) -> tuple[VectorField, ScalarField, SolverReport]:
    """Minimize ||u||_inf + lam ||f - div u||_2^p over vector fields u.

    Returns (u*, r*, report) with r* = f - div u* exactly (r* is computed
    from the returned u*).  Contracts: the returned objective never exceeds
    the zero-field objective lam ||f||^p; the weak-duality bound
    report.lower_bound never exceeds the objective, and on convergence lies
    within CHEAP_GAP of it, relative; at p = 2 on convergence the residual
    certificate |phi_2(r*)|_TV <= (1 + tol_residual)/lam holds too; below
    the trivial threshold lam |phi_p(f)|_TV <= 1 the zero field is optimal
    and returned exactly (its bound equals its objective).

    p = 1 runs the primal-dual solve of _PrimalDual from u = 0 for at most
    max_iters iterations, until the bound of its dual point certifies its
    objective to CHEAP_GAP; report.lower_bound is the larger of that bound
    and the bound of the returned r.

    p = 2 runs the root search over nu of _search, u* = nu times the dual
    field of a probe, starting from the root found on the 2^d-cell average
    of f when _coarse_start finds one.  Every inner solve of every level
    appends one Probe to report.probes, and all levels share one budget:
    the iterations times the cells of every solve sum to at most max_iters
    times the cells of f.  A budget that runs out before a probe inside the
    band is certified leaves the search unconverged.  report.lower_bound is
    the bound of the returned r.
    """
    grid = f.grid
    lam, p = cfg.lam, cfg.p
    trivial = contract(f, np.zeros((grid.d,) + grid.n), f, lam, p)  # u = 0, r = f
    if _is_trivial(trivial, lam):
        report = SolverReport(iterations=0, converged=True, trivial=True, **trivial)
        return VectorField.zeros(grid), f.copy(), report

    fnorm = trivial["r_norm"]
    probes, bound, settled = [], -math.inf, True
    if p == 1:
        state = _PrimalDual(f.values / fnorm, grid, lam)
        iterations = state.solve(cfg.max_iters)
        u_arr = fnorm * state.u
        # phi is dual feasible for f as for f / fnorm
        bound = float(np.sum(f.values * state.dual_point())) * grid.cell_volume
    else:
        level = _search(f, fnorm, cfg, certify=True)
        rec, w = level.best
        u_arr = (rec.nu * fnorm) * w
        probes, settled = level.probes, level.converged
        iterations = sum(q.iterations for q in probes if q.cells == grid.size)
    r_field = ScalarField(grid, f.values - divergence_array(u_arr, grid))
    c = contract(f, u_arr, r_field, lam, p)
    c["lower_bound"] = max(c["lower_bound"], bound)
    # the returned (u, r) themselves carry the certificate
    converged = settled and c["objective"] - c["lower_bound"] <= CHEAP_GAP * c["objective"]
    if c["objective"] > trivial["objective"]:  # trivial bound must hold exactly
        u_arr, r_field, c, converged = np.zeros_like(u_arr), f.copy(), trivial, False
    report = SolverReport(
        iterations=iterations,
        converged=converged,
        cell_iterations=iterations * grid.size + sum(
            q.iterations * q.cells for q in probes if q.cells < grid.size),
        probes=probes,
        **c,
    )
    return VectorField.from_arrays(grid, list(u_arr)), r_field, report


@dataclass
class _Level:
    """The root search on one grid: the records of every coarser level and
    then its own; best, the record behind the result and its dual field; the
    slope d(defect/target)/d nu of the final bracket, for a coarse level
    only."""

    probes: list[Probe]
    best: tuple[Probe, np.ndarray]
    converged: bool
    slope: float | None = None


def _search(f: ScalarField, fnorm: float, cfg: VariationalConfig, certify: bool) -> _Level:
    """The root search of minimize_flambda at p = 2 on f / fnorm.

    One bracket loop from the start of _coarse_start, then Illinois false
    position on the bracket.  The cold start (nu = 0.25, w = 0, no slope)
    doubles nu, and its probes only bracket the root; a coarse start takes
    clamped secant steps until both signs of the defect are seen, and these
    probes may settle the search, as may those of the narrowing.  Past the
    cold bracket the search stops at the first probe inside the band 0.5
    tol_residual that, on the caller's grid, is certified.  The returned u
    is that of the feasible record (defect <= 0 or inside the band) of
    least objective among the probes that may settle the search, unless
    that record is uncertified and a certified one settles the search.
    certify=False runs a coarse level: cheap solves only, it stops at its
    first probe inside the band, certifies nothing, and best is the last
    record.  No solve runs more than inner_iters iterations."""
    grid = f.grid
    lam = cfg.lam
    farr = f.values / fnorm
    lam_eff = lam * fnorm
    target = 1.0 / (2.0 * lam_eff)  # the TV(r) the certificate asks for
    probes, start = _coarse_start(f, fnorm, cfg)
    state = _DualState(farr, grid, target)
    band = 0.5 * cfg.tol_residual
    cells = grid.size

    def left() -> int:
        """The iterations this grid may still run: max_iters times its
        cells less the cell-iterations of every level so far."""
        return (cfg.max_iters * cells - sum(q.iterations * q.cells for q in probes)) // cells

    def budget() -> int:
        return min(cfg.inner_iters, left())

    def solve(nu: float, gap: float) -> Probe:
        """One inner solve at nu to the relative gap, recorded in probes; a
        cheap solve also stops once its gap decides the sign of its defect
        as surely as the cheap gap decides it at twice the band."""
        cap = budget()
        tv, iters, met, reached = state.solve(
            nu, cap, gap, 2.0 * band if gap == CHEAP_GAP else None)
        r = state.residual(nu)
        objective = (sup_magnitude((nu * fnorm) * state.w)
                     + lam * lp_norm(ScalarField(grid, fnorm * r), 2) ** 2)
        # the bound scales with the objective: fnorm times that of farr, r
        bound = fnorm * _dual_bound(farr, r, tv, grid.cell_volume, lam_eff, 2)
        rec = Probe(nu=nu, gap=gap, ending="gap" if met else "sign" if iters < cap else "cap",
                    gap_reached=reached, iterations=iters, cells=cells,
                    defect=tv - target, objective=objective, bound=bound)
        probes.append(rec)
        return rec

    def probe(nu: float) -> Probe:
        """Solve at nu; return the last record.  A cheap solve (gap 1e-4,
        TV(r) to a few 1e-4 relative) settles the sign of the defect
        wherever it lies outside twice the certificate band, and stops as
        soon as its gap settles that sign.  Only a cheap record inside the
        band (a cheap defect between band and twice the band cannot move
        into it) that is not certified continues to cfg.tol_objective, and
        only on the caller's grid.  No solve runs past the budget."""
        rec = solve(nu, CHEAP_GAP)
        if (not certify or abs(rec.defect) > band * target
                or rec.certified or budget() <= 0):
            return rec
        return solve(nu, cfg.tol_objective)

    best: tuple[Probe, np.ndarray] | None = None

    def consider(rec: Probe) -> bool:
        """Keep rec as best if it is feasible with a lower objective;
        return whether it settles the search: inside the band and, on the
        caller's grid, certified.  A certified record that settles the
        search replaces an uncertified best, so the returned u carries its
        own certificate."""
        nonlocal best
        in_band = abs(rec.defect) <= band * target
        if (rec.defect <= 0 or in_band) and (best is None or rec.objective < best[0].objective):
            best = (rec, state.w.copy())
        settled = in_band and (not certify or rec.certified)
        if settled and rec.certified and not best[0].certified:
            best = (rec, state.w.copy())
        return settled

    # the bracket [nu_lo, nu_hi] with the defects false position weighs, and
    # lo, hi, the last records on either side of the root (lo None: the free
    # defect at nu = 0, where r = f)
    d_zero = tv_norm(ScalarField(grid, farr), "isotropic") - target
    nu_lo, d_lo = 0.0, d_zero
    lo = hi = last = None
    converged = False
    nu, w0, slope = start
    if w0 is not None:
        np.copyto(state.w, w0)
    # no slope: nu doubles until the defect turns, and the probes only bracket;
    # a slope: clamped secant steps until both signs are seen, which may settle
    while left() > 0:
        rec = probe(nu)
        if rec.defect > 0:
            lo, nu_lo, d_lo = rec, nu, rec.defect
        else:
            hi, nu_hi, d_hi = rec, nu, rec.defect
        if slope is not None and consider(rec):
            converged = True
            break
        if hi is not None and (lo is not None or slope is None):
            break
        if slope is None:
            nu *= 2.0
            if nu > 1e9:
                break
        else:
            rel = rec.defect / target
            if last is not None and last[0] != nu:  # the secant of two fine records
                secant = (rel - last[1]) / (nu - last[0])
                slope = secant if secant < 0 else slope
            last = (nu, rel)
            nu = min(max(nu - rel / slope, 0.5 * nu), 2.0 * nu)
    if hi is None:
        nu_hi, d_hi = nu, d_lo

    side = 0  # Illinois false position on the bracketed certificate defect
    while not converged and left() > 0:
        if d_hi < 0 < d_lo:
            nu = nu_hi - d_hi * (nu_hi - nu_lo) / (d_hi - d_lo)
            width = nu_hi - nu_lo
            nu = min(max(nu, nu_lo + 0.02 * width), nu_hi - 0.02 * width)
        else:
            nu = 0.5 * (nu_lo + nu_hi)
        rec = probe(nu)
        d = rec.defect
        settled = consider(rec)
        if d > 0:
            lo, nu_lo, d_lo = rec, nu, d
            if side == -1:
                d_hi *= 0.5
            side = -1
        else:
            hi, nu_hi, d_hi = rec, nu, d
            if side == 1:
                d_lo *= 0.5
            side = 1
        if settled or (nu_hi - nu_lo) <= 1e-14 * max(nu_hi, 1.0):
            converged = settled
            break

    if not certify:  # the slope of the relative defect over the final bracket
        if hi is not None and hi.nu > nu_lo:
            rel_lo = (d_zero if lo is None else lo.defect) / target
            slope = (hi.defect / target - rel_lo) / (hi.nu - nu_lo)
        return _Level(probes, (probes[-1], state.w), converged, slope)
    if best is None:  # budget exhausted on the infeasible side; not converged
        best = (probe(nu_hi), state.w)
    return _Level(probes, best, converged)


def _coarse_start(
    f: ScalarField, fnorm: float, cfg: VariationalConfig
) -> tuple[list[Probe], tuple[float, np.ndarray | None, float | None]]:
    """Records of the coarse levels below f's grid, and where the search on
    f / fnorm starts: (nu, w, slope of the relative defect in nu), or the
    cold start (0.25, None, None), from the zero dual field with no slope.

    When every axis has an even length and the 2^d-cell average f_c of f
    has at least COARSE_MIN_CELLS cells, the search first runs on f_c with
    the same lam, recursively, on at most max_iters iterations of its
    cells.  The search on f then starts at the coarse root, rescaled to the
    normalized data (nu_c ||f_c|| / ||f||), from the coarse dual field
    prolonged piecewise-constant (still |w| <= 1), with the slope of the
    coarse level's final bracket.  A trivial or unconverged coarse level
    leaves the cold start."""
    grid = f.grid
    cold = (0.25, None, None)
    if any(n % 2 or n < 4 for n in grid.n) or grid.size >> grid.d < COARSE_MIN_CELLS:
        return [], cold
    fc = _restrict(f)
    trivial = contract(fc, np.zeros((grid.d,) + fc.grid.n), fc, cfg.lam, cfg.p)
    if _is_trivial(trivial, cfg.lam):
        return [], cold
    fcnorm = trivial["r_norm"]
    level = _search(fc, fcnorm, cfg, certify=False)
    rec, w = level.best
    if not level.converged or level.slope is None or level.slope >= 0:
        return level.probes, cold
    ratio = fcnorm / fnorm
    return level.probes, (rec.nu * ratio, _prolong(w), level.slope / ratio)


def _restrict(f: ScalarField) -> ScalarField:
    """The 2^d-cell averages of f, on the grid with half the cells per axis."""
    grid = f.grid
    coarse = Grid(tuple(n // 2 for n in grid.n), grid.lo, grid.hi, grid.periodic)
    blocks = f.values.reshape([m for n in coarse.n for m in (n, 2)])
    return ScalarField(coarse, blocks.mean(axis=tuple(range(1, 2 * grid.d, 2))))


def _prolong(w: np.ndarray) -> np.ndarray:
    """The stacked (d, ...) field w repeated twice along every axis."""
    for axis in range(1, w.ndim):
        w = w.repeat(2, axis=axis)
    return w


# -- spectral Helmholtz solver -------------------------------------------------


def helmholtz_solve(
    f: ScalarField, mode: str = "discrete", strict_mean: bool = True
) -> VectorField:
    """Spectral solution u = grad Lap^{-1} f on a fully periodic grid.

    Both modes apply a gradient symbol to f divided by a Laplacian symbol.
    Mode "discrete" uses those of the forward-difference gradient and of
    the backward-difference divergence composed with it, so div u = f
    holds exactly on the grid; mode "continuum" uses i kappa and -|kappa|^2
    for comparison with the analytic solution.  The mean of f counts as
    zero up to 1e-10 ||f||_inf, relative at every scale; strict_mean=False
    subtracts a larger one instead of rejecting f.
    """
    grid = f.grid
    if not all(grid.periodic):
        raise ValueError("Helmholtz solver requires a fully periodic grid")
    if mode not in ("discrete", "continuum"):
        raise ValueError(f"unknown mode {mode!r}")
    mean = float(np.sum(f.values)) / f.values.size
    scale = float(np.abs(f.values).max())
    if abs(mean) > 1e-10 * scale:
        if strict_mean:
            raise ValueError("data must have zero mean on the torus")
        f = ScalarField(grid, f.values - mean)

    # per axis the gradient symbol and lap_a, minus the second-derivative one
    grads, lap = [], np.zeros(grid.n)
    for a, n in enumerate(grid.n):
        k = (np.fft.fftfreq(n) * n).reshape([n if b == a else 1 for b in range(grid.d)])
        if mode == "discrete":
            grad = (np.exp(2j * np.pi * k / n) - 1.0) / grid.h[a]
            lap_a = 4.0 * np.sin(np.pi * k / n) ** 2 / grid.h[a] ** 2
        else:
            kappa = 2.0 * np.pi * k / (grid.hi[a] - grid.lo[a])
            grad, lap_a = 1j * kappa, kappa**2
        grads.append(grad)
        lap = lap - lap_a
    lap_safe = np.where(lap != 0.0, lap, 1.0)
    ghat = np.where(lap != 0.0, np.fft.fftn(f.values) / lap_safe, 0.0)
    comps = [np.real(np.fft.ifftn(grad * ghat)) for grad in grads]
    return VectorField.from_arrays(grid, comps)


# -- two-step construction -----------------------------------------------------


def two_step(
    f: ScalarField, cfg: VariationalConfig | None = None
) -> tuple[VectorField, SolverReport]:
    """Bounded solution in two moves: minimize with lam = 1/||f||_2, then
    feed the residual to the Helmholtz solver.  The Helmholtz part inverts
    its data exactly, so div u = f up to the exactness of r1 = f - div u1,
    which is exact by construction.  cfg supplies the solver settings; its
    lam is replaced by 1/||f||_2.  The report is that of the first step,
    unchanged, so every field describes one minimization whose contract
    holds; its lower_bound bounds the objective of the two-step u too."""
    if f.grid.d != 2:
        raise ValueError("two-step construction is for d = 2")
    if not all(f.grid.periodic):
        raise ValueError("two-step construction needs a periodic grid")
    fnorm = lp_norm(f, 2)  # f = 0: any lam returns the zero field
    cfg = replace(cfg or VariationalConfig(lam=1.0), lam=1.0 / fnorm if fnorm else 1.0)
    u1, r1, rep = minimize_flambda(f, cfg)
    u2 = helmholtz_solve(r1, strict_mean=False)
    return VectorField.from_arrays(f.grid, list(u1.as_array() + u2.as_array())), rep


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
    return best / (8.0 * math.sqrt(area))


def estimate_eta(f: ScalarField) -> float:
    """Closure-constant estimate: one probe minimization well above the
    trivial threshold (where residuals are already flat), doubled for
    safety, floored by the exact stripe witness of the grid.

    Overestimates are harmless (the closure inequality holds a fortiori and
    lambda_1 just starts higher); underestimates only cost extra levels.
    """
    tv0 = 2.0 * tv_norm(f, "isotropic")  # |phi_2(f)|_TV
    if tv0 == 0.0:
        return 1.0
    rep = minimize_flambda(f, VariationalConfig(lam=64.0 / tv0))[2]
    probe = 1.0 if rep.phi_tv == 0.0 else 2.0 * rep.r_norm / rep.phi_tv
    return max(probe, _stripe_closure_witness(f.grid))


def _hierarchy(
    f: ScalarField, cfg: HierarchyConfig | None, p: int
) -> tuple[VectorField, HierarchyTrace]:
    """Both hierarchies: level j minimizes with exponent p on r_{j-1} (r_0
    = f), at lam_j = lam 2^(j-1) for p = 2 and lam for p = 1 (lam = cfg.lam,
    or estimated as hierarchical_p2 and hierarchical_p1 say), and records
    itself in trace; stops at ||r_j|| <= stop_residual ||f||, or after three
    consecutive levels whose residual ratio stalls (> 0.95 at p = 2, >= 1
    at p = 1), flagged as trace.stagnated or trace.lambda_too_small."""
    cfg = cfg or HierarchyConfig()
    grid = f.grid
    fnorm = lp_norm(f, 2)
    trace = HierarchyTrace(f_norm=fnorm, eta_used=None)
    if fnorm == 0.0:
        return VectorField.zeros(grid), trace
    lam = cfg.lam
    if lam is None and p == 2:
        trace.eta_used = estimate_eta(f)
        lam = 2.0 * trace.eta_used / fnorm
    elif lam is None:
        if not all(grid.periodic):
            raise ValueError("lam is required on non-periodic grids (no "
                             "Helmholtz probe of gamma)")
        lam = 4.0 * (sup_norm_vector(helmholtz_solve(f, strict_mean=False)) / fnorm)

    total = np.zeros((grid.d,) + grid.n)
    r, r_norm = f, fnorm
    stalled = 0
    for j in range(1, cfg.max_levels + 1):
        lam_j = lam * 2.0 ** (j - 1) if p == 2 else lam
        u_j, r_j, rep = minimize_flambda(r, VariationalConfig(lam=lam_j, p=p))
        total += u_j.as_array()
        ratio = rep.r_norm / r_norm if r_norm > 0 else 0.0
        trace.levels.append(LevelRecord(level=j, lam=lam_j, u_sup=rep.u_sup, r_norm=rep.r_norm,
                                        r_tv=rep.r_tv, cumulative_sup=sup_magnitude(total),
                                        ratio=ratio))
        stalled = stalled + 1 if (ratio > 0.95 if p == 2 else ratio >= 1.0) else 0
        if stalled >= 3:
            trace.stagnated, trace.lambda_too_small = p == 2, p == 1
            break
        r, r_norm = r_j, rep.r_norm
        if r_norm <= cfg.stop_residual * fnorm:
            break
    return VectorField.from_arrays(grid, list(total)), trace


def hierarchical_p2(
    f: ScalarField, cfg: HierarchyConfig | None = None
) -> tuple[VectorField, HierarchyTrace]:
    """Doubling-lambda hierarchy: level j minimizes ||u||_inf + lam_j
    ||r_{j-1} - div u||_2^2 with lam_j = lam_1 2^(j-1), lam_1 = cfg.lam, or
    when that is None 2 eta / ||f||_2 with eta = estimate_eta(f), recorded
    in trace.eta_used.  The residuals decay geometrically once the TV
    certificates engage, and the partial sums stay uniformly bounded."""
    return _hierarchy(f, cfg, 2)


def hierarchical_p1(
    f: ScalarField, cfg: HierarchyConfig | None = None
) -> tuple[VectorField, HierarchyTrace]:
    """Fixed-lambda hierarchy with exponent p = 1: each level contracts the
    residual by roughly gamma/lambda when lambda exceeds the constant gamma
    of the bounded-solution bound.  lambda = cfg.lam, or when that is None
    4 gamma with gamma = sup|u_H| / ||f||_2 for the Helmholtz solution u_H
    of f, which needs a fully periodic grid (ValueError otherwise)."""
    return _hierarchy(f, cfg, 1)
