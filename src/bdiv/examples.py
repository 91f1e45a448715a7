"""Generators for the concrete test data: the Nirenberg field whose
Helmholtz solution blows up logarithmically, the ball characteristic field,
the dyadic pair witnessing non-differentiability of the weak-Lp set norm,
and seeded random fields for the property suites.

All generators are pure functions of their arguments: same inputs, same
bits.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    divergence_array,
    gradient_array,
    mean_zero,
)


def nirenberg_field(n: int) -> ScalarField:
    """Mean-zero data f on the periodic square [-1,1]^2 whose Helmholtz
    solution has fractional logarithmic growth at the origin.

    f is the discrete Laplacian (backward div of forward grad, matching the
    solver stencils) of v(x1,x2) = x1 |log|x||^(1/3) zeta(|x|) with the
    bump zeta(r) = exp(-1/(1-r^2)) for |r| < 1.
    """
    v = nirenberg_potential(n)
    lap = divergence_array(gradient_array(v.values, v.grid), v.grid)
    return mean_zero(ScalarField(v.grid, lap))


def nirenberg_potential(n: int) -> ScalarField:
    """The potential v of nirenberg_field, sampled at the cell centers."""
    if n < 16:
        raise ValueError(f"need n >= 16, got {n}")
    grid = Grid((n, n), -1.0, 1.0, periodic=True)
    x1, x2 = grid.meshgrid()
    r2 = x1 * x1 + x2 * x2
    v = np.zeros_like(r2)
    interior = (r2 > 0.0) & (r2 < 1.0)
    ri2 = r2[interior]
    v[interior] = (
        x1[interior]
        * np.abs(0.5 * np.log(ri2)) ** (1.0 / 3.0)
        * np.exp(-1.0 / (1.0 - ri2))
    )
    return ScalarField(grid, v)


def ball_field(
    alpha: float, radius: float, n: int, half_width: float | None = None
) -> ScalarField:
    """alpha times the characteristic function of the centered ball.

    A cell belongs to the ball iff its center does (distance <= radius),
    which keeps the discrete area within O(h) of pi R^2.
    """
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    if half_width is None:
        half_width = 2.0 * radius
    if not 0.0 < radius <= half_width:
        raise ValueError("need 0 < radius <= domain half-width")
    grid = Grid((n, n), -half_width, half_width)
    x1, x2 = grid.meshgrid()
    inside = x1 * x1 + x2 * x2 <= radius * radius
    return ScalarField(grid, np.where(inside, float(alpha), 0.0))


def tatar_pair(p: float, levels: int, n: int) -> tuple[ScalarField, ScalarField]:
    """The pair (f, g) on (0,1) along which the weak-Lp set norm has
    nonvanishing one-sided slopes of both signs.

    f is the cell average of x^(-1/p), p'(b^(1/p') - a^(1/p'))/h on the cell
    (a, b) with p' = p/(p-1), so every cell-aligned prefix (0, t) integrates
    exactly to p' t^(1/p') and attains the weak-norm value p'.  Midpoint
    samples would under-integrate the singularity at 0, leave (0,1) as the
    only maximiser and make the discrete norm differentiable along g.
    g alternates between +-2^(k/p) on the dyadic intervals (2^-(k+1), 2^-k)
    for k < levels and vanishes below the finest one; |g| <= f because the
    average of x^(-1/p) over a cell of block k is at least 2^(k/p).
    Requires p > 1 (the average over the first cell diverges otherwise) and
    n >= 2^(levels+2) so the finest interval holds >= 4 cells.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    if levels < 4:
        raise ValueError(f"need levels >= 4, got {levels}")
    if n < 2 ** (levels + 2):
        raise ValueError(
            f"n={n} cannot resolve {levels} dyadic levels; need n >= "
            f"{2 ** (levels + 2)}"
        )
    grid = Grid((n,), 0.0, 1.0, periodic=False)
    h = grid.h[0]
    x = grid.axis_centers(0)
    q = p / (p - 1.0)
    f = q * np.diff((h * np.arange(n + 1)) ** (1.0 / q)) / h
    # cell at x sits in the dyadic block k = floor(-log2 x) - adjusted so
    # that (2^-(k+1), 2^-k) maps to k; centers never hit dyadic endpoints
    # when n is a power of two.
    k = np.floor(-np.log2(x)).astype(np.int64)
    g = np.where(k < levels, (-1.0) ** k * 2.0 ** (k / p), 0.0)
    return ScalarField(grid, f), ScalarField(grid, g)


def random_field(
    seed: int,
    n: int | tuple[int, ...],
    law: str = "gaussian",
    d: int = 2,
    spikes: int = 8,
    amplitude: float = 10.0,
    periodic: bool = False,
) -> ScalarField:
    """Seeded random field on [-1,1]^d.

    law "gaussian": iid standard normals.  law "spikes": a small clipped
    gaussian background plus `spikes` distinct cells of magnitude between
    0.75 and 1.0 times `amplitude` with random signs; exactly those cells
    exceed amplitude/2 in magnitude.
    """
    shape = (n,) * d if np.isscalar(n) else tuple(n)
    grid = Grid(shape, -1.0, 1.0, periodic=periodic)
    rng = np.random.default_rng(seed)
    if law == "gaussian":
        values = rng.standard_normal(shape)
    elif law == "spikes":
        if spikes >= grid.size:
            raise ValueError("more spikes than cells")
        background = rng.normal(0.0, amplitude / 20.0, size=shape)
        values = np.clip(background, -amplitude / 4.0, amplitude / 4.0)
        idx = rng.choice(grid.size, size=spikes, replace=False)
        signs = rng.choice([-1.0, 1.0], size=spikes)
        mags = rng.uniform(0.75, 1.0, size=spikes) * amplitude
        values.ravel()[idx] = signs * mags
    else:
        raise ValueError(f"unknown law {law!r}")
    return ScalarField(grid, values)
