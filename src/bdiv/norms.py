"""Norms and functionals: Lp, Lorentz, set-based weak-Lp, Morrey and
discrete total variation.

Lorentz norms are evaluated exactly for grid step functions by closed-form
integration of the piecewise-constant decreasing rearrangement; no quadrature
error is introduced anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .fields import Grid, ScalarField, VectorField, gradient_array


def lp_norm(f: ScalarField, p: float) -> float:
    """(sum |f|^p * cellvol)^(1/p); max |f| for p = inf."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max())
    if p == 1:
        return float(np.sum(a)) * f.grid.cell_volume
    if p == 2:
        return float(np.sqrt(np.sum(a * a) * f.grid.cell_volume))
    return float((np.sum(a**p) * f.grid.cell_volume) ** (1.0 / p))


def sup_magnitude(arr: np.ndarray) -> float:
    """Max over cells of the l2 magnitude of arr, components on axis 0."""
    return float(np.sqrt((arr * arr).sum(axis=0).max()))


def sup_norm_vector(v: VectorField) -> float:
    """Max over cells of the pointwise l2 magnitude of the vector."""
    return sup_magnitude(v.as_array())


def component_sup_norms(v: VectorField) -> tuple[float, ...]:
    """Per-component max |v_i|; the explicit constructions bound these."""
    return tuple(float(np.abs(c.values).max()) for c in v.components)


def _sorted_abs(f: ScalarField) -> np.ndarray:
    return np.sort(np.abs(f.values), axis=None)[::-1]


def lorentz_norm(f: ScalarField, p: float, q: float) -> float:
    """Rearrangement form of the L^{p,q} norm, exact for step functions.

    The decreasing rearrangement of a grid field is constant on intervals of
    length cellvol, so the defining integral
    ``(int_0^inf (t^{1/p} f*(t))^q dt/t)^{1/q}`` reduces to the telescoping
    sum ``(p/q) * sum_k a_k^q ((k v)^{q/p} - ((k-1) v)^{q/p})`` over the
    sorted magnitudes a_1 >= a_2 >= ...
    """
    if not (1 <= p < np.inf):
        raise ValueError(f"need 1 <= p < inf, got p={p}")
    if not (1 <= q < np.inf):
        weak = "q = inf is not a Lorentz integral; use weak_lp_setnorm"
        raise ValueError(weak if q == np.inf else f"need 1 <= q < inf, got q={q}")
    a = _sorted_abs(f)
    v = f.grid.cell_volume
    k = np.arange(1, a.size + 1, dtype=np.float64)
    pieces = (k * v) ** (q / p) - ((k - 1) * v) ** (q / p)
    total = (p / q) * np.sum(a**q * pieces)
    return float(total ** (1.0 / q))


def weak_lp_setnorm(f: ScalarField, p: float) -> float:
    """sup_E |E|^{-(p-1)/p} int_E |f| over all cell sets E.

    Super-level sets dominate every set of equal measure because the
    integrand is |f|, so the supremum is the max over k of the k largest
    magnitudes; this is the equivalent weak-Lp norm the bounds use.
    """
    if not p > 1:
        raise ValueError(f"need p > 1, got {p}")
    a = _sorted_abs(f)
    if a.size == 0 or a[0] == 0.0:
        return 0.0
    v = f.grid.cell_volume
    k = np.arange(1, a.size + 1, dtype=np.float64)
    vals = (k * v) ** (-(p - 1) / p) * np.cumsum(a) * v
    return float(vals.max())


def _squared_steps(x: np.ndarray) -> list[np.ndarray]:
    """(x[i+k] - x[i])**2 for each k = 0 .. len(x)-1, indexed by i."""
    return [np.square(x[k:] - x[: x.size - k]) for k in range(x.size)]


def _shifts(k: int, n: int) -> list[tuple[slice, slice]]:
    """(centre, cell) slices along an axis of n cells for the offsets +k, -k."""
    if k == 0:
        return [(slice(None), slice(None))]
    return [(slice(0, n - k), slice(k, n)), (slice(k, n), slice(0, n - k))]


def morrey_norm(f: ScalarField) -> float:
    """sup over discrete balls of R^(1-d) * int_{B cap Omega} |f|.

    Ball centers range over cell centers and radii over integer multiples of
    min(h); a cell belongs to the ball when its center does.  This bounded
    search is a lower bound of the continuum supremum.

    Membership is the float test sqrt(sum_a (x_a - c_a)^2) <= R on the
    centre coordinates, squares added in axis order, so a cell whose centre
    lies at distance R falls inside or outside by rounding.  The ball sums
    at every centre grow in one array, a shifted slice-add per cell offset
    taken ring by ring in increasing radius: O(offsets x cells) work, with
    prod(2 n_a - 1) offsets; balls do not wrap on periodic axes.
    """
    grid = f.grid
    absf = np.abs(f.values)
    vol = grid.cell_volume
    rstep = min(grid.h)
    rmax = float(np.linalg.norm(np.asarray(grid.hi) - np.asarray(grid.lo)))
    radii = rstep * np.arange(1, int(np.ceil(rmax / rstep)) + 2)
    steps = [_squared_steps(grid.axis_centers(a)) for a in range(grid.d)]
    shifts = [[_shifts(k, n) for k in range(n)] for n in grid.n]

    def ring(per_axis):
        """Index of the first radius >= the distance, squares added in axis
        order (outer sums over the per-axis arrays)."""
        dist = np.sqrt(reduce(np.add.outer, per_axis))
        return np.searchsorted(radii, dist, side="left")

    # Float + and sqrt are monotone, so the per-axis extremes over centres
    # bound the distance at every centre of an offset |k|: its ring is
    # decided whole unless a radius falls between the two bounds.
    first = ring([np.array([s.min() for s in a]) for a in steps])
    last = ring([np.array([s.max() for s in a]) for a in steps])
    order = np.argsort(first, axis=None, kind="stable")
    edges = np.searchsorted(first.ravel()[order], np.arange(radii.size + 1))
    sums = np.zeros(grid.n)

    def add(k, inside):
        for pairs in product(*[s[ka] for s, ka in zip(shifts, k)]):
            dst, src = zip(*pairs)
            part = absf[src]
            sums[dst] += part if inside is None else np.where(inside, part, 0.0)

    best = 0.0
    split = []  # (|offset|, ring at each centre) of offsets across rings
    for j, w in enumerate(radii ** (1 - grid.d)):
        reached = np.unravel_index(order[edges[j] : edges[j + 1]], first.shape)
        for k in zip(*[a.tolist() for a in reached]):
            if last[k] == j:
                add(k, None)
            else:
                split.append((k, ring([s[ka] for s, ka in zip(steps, k)])))
        for k, at in split:
            add(k, at == j)
        split = [(k, at) for k, at in split if last[k] > j]
        best = max(best, float(w * sums.max() * vol))
    return best


def tv_norm(g: ScalarField, variant: str = "isotropic") -> float:
    """Discrete total variation of the forward-difference gradient.

    isotropic: sum of pointwise l2 gradient magnitudes times cellvol (this is
    the TV appearing in the solver's dual constraint); anisotropic: sum of
    absolute per-axis differences times cellvol.
    """
    grad = gradient_array(g.values, g.grid)
    vol = g.grid.cell_volume
    if variant == "isotropic":
        return float(np.sum(np.sqrt((grad * grad).sum(axis=0)))) * vol
    if variant == "anisotropic":
        return float(np.sum(np.abs(grad))) * vol
    raise ValueError(f"unknown TV variant {variant!r}")


# tag -> (parameter parsers, evaluator taking (f, *params), parameters of the
# bare tag).  Evaluators look the norm functions up when called, so a
# rebinding of this module's names also reaches NormKind.  The label is the
# tag followed by the parameters, so it parses back to the same kind.
_KINDS = {
    "lp": ((float,), lambda f, p: lp_norm(f, p), ()),
    "lorentz": ((float, float), lambda f, p, q: lorentz_norm(f, p, q), ()),
    "weak": ((float,), lambda f, p: weak_lp_setnorm(f, p), ()),
    "morrey": ((), lambda f: morrey_norm(f), ()),
    "tv": ((str,), lambda f, variant: tv_norm(f, variant), ("isotropic",)),
    "linf": ((), lambda f: lp_norm(f, np.inf), ()),
}

# the fixed two-cell field NormKind.parse evaluates every parsed kind on
_PROBE = ScalarField(Grid((2,), 0.0, 1.0), np.array([1.0, 0.5]))


@dataclass(frozen=True)
class NormKind:
    """Tagged norm selector used by the CLI; see parse() for the syntax."""

    tag: str
    params: tuple = ()

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        """Parse specs like lp:2, lorentz:2:1, weak:2, morrey, tv:isotropic
        (tv alone is tv:isotropic), linf."""
        tag, *given = text.split(":")
        if tag not in _KINDS:
            raise ValueError(f"unknown norm kind {text!r}")
        parsers, _, bare = _KINDS[tag]
        given = tuple(given) or bare
        if len(given) != len(parsers):
            raise ValueError(
                f"norm kind {tag!r} takes {len(parsers)} parameter(s), "
                f"got {text!r}"
            )
        kind = cls(tag, tuple(conv(x) for conv, x in zip(parsers, given)))
        kind.evaluate(_PROBE)  # the norm's own range checks reject bad values
        return kind

    def evaluate(self, f: ScalarField) -> float:
        return _KINDS[self.tag][1](f, *self.params)

    def label(self) -> str:
        return ":".join(
            [self.tag] + [f"{x:g}" if isinstance(x, float) else x for x in self.params]
        )
