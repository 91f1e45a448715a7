"""Explicit splitting constructions of bounded solutions of div u = f.

Four constructions, all of which split f into parts f_j whose running
integrals along one axis each stay bounded:

* one-step 2-D weights alpha = V/(H+V), beta = H/(H+V) built from the
  squared line energies (Cauchy-Schwarz makes the sup-norm bound exact in
  discrete arithmetic),
* its disjoint-support variant chi_{H<=V} / chi_{V<H},
* the inductive threshold construction that peels one axis at a time for
  d <= 3 with L^d data,
* the iterative strip decomposition for weak-L2 data, which removes rows
  and columns of line energy below tau and recurses on the remaining
  product set, whose measure contracts by tau^{-2} per pass.

Every result carries explicit line-bound certificates, and the parts sum
to f exactly, so div u = f holds to rounding error by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, VectorField, cumulative_primitive
from .norms import lp_norm, weak_lp_setnorm


@dataclass(frozen=True)
class LineCertificate:
    """Integral of |f_part| along one grid line against its guaranteed
    bound; index enumerates the complementary axes row-major."""

    axis: int
    index: int
    value: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.value <= self.bound * (1.0 + 1e-10)


@dataclass
class SplitResult:
    parts: list[ScalarField]
    masks: list[np.ndarray]  # boolean, one per part; none for the weighted split
    u: VectorField
    certificates: list[LineCertificate]


@dataclass
class StripDecompositionTrace:
    initial_measure: float
    tau: float
    passes: list[float] = field(default_factory=list)  # |Omega^k| after pass k
    incomplete: bool = False

    def measures(self) -> list[float]:
        """|Omega^k| for k = 0, 1, ... (k = 0 is the full box)."""
        return [self.initial_measure] + self.passes


def _require_box(f: ScalarField, d: int | None = None) -> None:
    grid = f.grid
    if d is not None and grid.d != d:
        raise ValueError(f"construction needs a {d}-d grid, got {grid.d}-d")
    if any(grid.periodic):
        raise ValueError("construction needs a non-periodic grid (box data)")


def _assemble(
    f: ScalarField, parts: list[np.ndarray], masks: list[np.ndarray], bound: float
) -> SplitResult:
    """The splitting of f into parts, part j integrated along axis j: u_j is
    its running primitive, the certificates its axis-j line integrals
    against bound."""
    grid = f.grid
    fields = [ScalarField(grid, a) for a in parts]
    certs = []
    for j, part in enumerate(parts):
        vals = np.sum(np.abs(part), axis=j) * grid.h[j]
        certs += [LineCertificate(axis=j, index=i, value=float(v), bound=bound)
                  for i, v in enumerate(vals.ravel())]
    u = VectorField([cumulative_primitive(g, j) for j, g in enumerate(fields)])
    return SplitResult(parts=fields, masks=masks, u=u, certificates=certs)


def _line_norms(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """V(x) and H(y): the L2 norms of f along each column and each row."""
    f2 = f.values * f.values
    return (
        np.sqrt(np.sum(f2, axis=1) * f.grid.h[1]),
        np.sqrt(np.sum(f2, axis=0) * f.grid.h[0]),
    )


def split_onestep_2d(f: ScalarField) -> SplitResult:
    """Weighted one-step splitting for L2 data on a 2-D box.

    V^2(x) and H^2(y) are the squared line energies of f; the weights
    alpha = V/(H+V) and beta = H/(H+V) make both running primitives bounded
    by ||f||_2, with the Cauchy-Schwarz chain exact on the grid.
    """
    _require_box(f, 2)
    fa = f.values
    v_line, h_line = _line_norms(f)
    denom = v_line[:, None] + h_line[None, :]
    safe = np.where(denom > 0.0, denom, 1.0)
    alpha = np.where(denom > 0.0, v_line[:, None] / safe, 0.0)
    f1 = alpha * fa
    f2part = fa - f1
    # where H + V = 0 the whole cross of f vanishes, so f1 = f2 = 0 is the
    # exact splitting there; enforce rather than rely on the weights
    f2part[denom == 0.0] = 0.0
    return _assemble(f, [f1, f2part], [], lp_norm(f, 2))


def split_disjoint_2d(f: ScalarField) -> SplitResult:
    """Disjoint-support variant: f1 = f on {H(y) <= V(x)}, f2 on the
    complement; same per-component bound ||f||_2."""
    _require_box(f, 2)
    fa = f.values
    v_line, h_line = _line_norms(f)
    sel1 = h_line[None, :] <= v_line[:, None]
    f1 = np.where(sel1, fa, 0.0)
    f2part = fa - f1
    return _assemble(f, [f1, f2part], [sel1, ~sel1], lp_norm(f, 2))


def _inductive_masks(g: np.ndarray, hs: tuple[float, ...]) -> list[np.ndarray]:
    """Threshold masks of the inductive construction for |g| normalized in
    L^D, D = g.ndim; recurses on the residual slices."""
    dim = g.ndim
    if dim == 1:
        return [np.ones_like(g, dtype=bool)]
    absg = np.abs(g)
    # t(y)^(D-1) = integral of |g|^D along the leading axis
    t_pow = np.sum(absg**dim, axis=0) * hs[0]
    t = t_pow ** (1.0 / (dim - 1))
    mask0 = (absg >= t[None]) & (t[None] > 0.0)
    rest = np.where(mask0, 0.0, g)
    out = [mask0]
    lower = [np.empty(g.shape, dtype=bool) for _ in range(dim - 1)]
    for i in range(g.shape[0]):
        sub = _inductive_masks(rest[i], hs[1:])
        for j, m in enumerate(sub):
            lower[j][i] = m
    for m in lower:
        m &= ~mask0
    return out + lower


def split_inductive_nd(f: ScalarField) -> SplitResult:
    """Inductive threshold splitting for L^d data, d in {1, 2, 3}.

    After normalizing to unit L^d norm, cells with |f| above the per-line
    threshold t(y) go to the first part; the remainder is split by the same
    construction one dimension down, slice by slice.  Every axis-j line
    integral of |f_j| is bounded by ||f||_{L^d}, exactly in grid
    arithmetic.
    """
    grid = f.grid
    d = grid.d
    _require_box(f)
    bound = lp_norm(f, d)
    if bound == 0.0:
        masks = [np.zeros(grid.n, dtype=bool) for _ in range(d)]
        zero_parts = [ScalarField.zeros(grid) for _ in range(d)]
        return SplitResult(
            parts=zero_parts,
            masks=masks,
            u=VectorField.zeros(grid),
            certificates=[],
        )
    masks = _inductive_masks(f.values / bound, grid.h)
    return _assemble(f, [np.where(m, f.values, 0.0) for m in masks], masks, bound)


def decompose_weak_l2(
    f: ScalarField, tau: float, max_iter: int = 64
) -> tuple[SplitResult, StripDecompositionTrace]:
    """Iterative strip decomposition for weak-L2 data on a 2-D box.

    Per pass, rows whose horizontal line energy (within the active set) is
    at most tau * ||f||_weak join f1 and columns likewise join f2; the
    remaining active set is a row-column product whose measure shrinks by
    tau^{-2} per pass, so termination is geometric.  If max_iter is hit
    with a nonempty active set, the leftovers are assigned to f1 and the
    trace is flagged incomplete.
    """
    _require_box(f, 2)
    if tau <= 1.0:
        raise ValueError(f"tau must exceed 1, got {tau}")
    grid = f.grid
    wnorm = weak_lp_setnorm(f, 2.0)
    trace = StripDecompositionTrace(
        initial_measure=grid.size * grid.cell_volume, tau=tau
    )
    absf = np.abs(f.values) / wnorm if wnorm > 0.0 else np.abs(f.values)

    active_cols = np.ones(grid.n[0], dtype=bool)  # x-indices (axis 0)
    active_rows = np.ones(grid.n[1], dtype=bool)  # y-indices (axis 1)
    assign1 = np.zeros(grid.n, dtype=bool)
    assign2 = np.zeros(grid.n, dtype=bool)

    for _ in range(max_iter):
        if not active_rows.any() or not active_cols.any():
            break
        sub = absf * active_cols[:, None] * active_rows[None, :]
        e_h = np.sum(sub, axis=0) * grid.h[0]  # per row y
        e_v = np.sum(sub, axis=1) * grid.h[1]  # per column x
        rows_ok = active_rows & (e_h <= tau)
        cols_ok = active_cols & (e_v <= tau)
        new1 = active_cols[:, None] & rows_ok[None, :]
        new2 = cols_ok[:, None] & active_rows[None, :] & ~new1
        assign1 |= new1
        assign2 |= new2
        active_rows = active_rows & ~rows_ok
        active_cols = active_cols & ~cols_ok
        trace.passes.append(
            float(active_rows.sum()) * grid.h[1] * float(active_cols.sum()) * grid.h[0]
        )

    if active_rows.any() and active_cols.any():
        trace.incomplete = True
        leftover = active_cols[:, None] & active_rows[None, :]
        assign1 |= leftover

    parts = [np.where(assign1, f.values, 0.0), np.where(assign2, f.values, 0.0)]
    return _assemble(f, parts, [assign1, assign2], tau * wnorm), trace
