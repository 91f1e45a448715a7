"""Independent brute-force oracles used by the test suite.

Everything here shares no code path with the library implementations it
checks.  Most oracles are plain index loops; the FISTA reference is the
inner dual loop as it ran before its ufunc calls were bound, whole-array
operations in the same order, so its iterates are bit-identical targets.
"""

from __future__ import annotations

import math

import numpy as np


def stencil_divergence(comps: list[np.ndarray], h, periodic) -> np.ndarray:
    """Backward-difference divergence, one cell at a time."""
    shape = comps[0].shape
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        total = 0.0
        for axis, comp in enumerate(comps):
            prev = list(idx)
            prev[axis] -= 1
            if prev[axis] < 0:
                if periodic[axis]:
                    prev[axis] = shape[axis] - 1
                    behind = comp[tuple(prev)]
                else:
                    behind = 0.0
            else:
                behind = comp[tuple(prev)]
            total += (comp[idx] - behind) / h[axis]
        out[idx] = total
    return out


def loop_prefix_integral(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Running integral along one axis via an explicit loop."""
    out = np.zeros_like(values)
    moved = np.moveaxis(values, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    for idx in np.ndindex(moved.shape[1:]):
        acc = 0.0
        for k in range(moved.shape[0]):
            acc += moved[(k,) + idx] * h
            dst[(k,) + idx] = acc
    return out


def exhaustive_weak_setnorm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """sup over all nonempty cell subsets E of |E|^{-(p-1)/p} int_E |f|,
    enumerated via subset-sum doubling (exact, no shortcuts)."""
    mags = np.abs(values).ravel()
    sums = np.zeros(1)
    counts = np.zeros(1)
    for m in mags:
        sums = np.concatenate([sums, sums + m])
        counts = np.concatenate([counts, counts + 1])
    sums, counts = sums[1:], counts[1:]  # drop the empty set
    measures = counts * cell_volume
    vals = measures ** (-(p - 1) / p) * sums * cell_volume
    return float(vals.max())


def ball_sums_morrey(
    coords: np.ndarray, absf: np.ndarray, radii: np.ndarray, d: int, vol: float
) -> float:
    """Morrey supremum by direct double enumeration over centers and radii.

    Membership is sqrt(sum_a (x_a - c_a)^2) <= R with the squares added in
    axis order, the float test of norms.morrey_norm; np.linalg.norm would
    take the BLAS sqrt(dot), which can differ in the last bit at a tie."""
    best = 0.0
    for c in coords:
        for rad in radii:
            total = 0.0
            for x, v in zip(coords, absf):
                dist2 = 0.0
                for xa, ca in zip(x, c):
                    dist2 += (xa - ca) * (xa - ca)
                if np.sqrt(dist2) <= rad:
                    total += v
            if total > 0:
                best = max(best, rad ** (1 - d) * total * vol)
    return best


def _ref_diff(src, axis, h, periodic, forward):
    """Backward (forward) difference along axis divided by h, zero outside
    non-periodic edges, one whole-slice operation per step."""
    s = np.moveaxis(src, axis, 0)
    out = np.empty_like(src)
    o = np.moveaxis(out, axis, 0)
    if forward:
        o[:-1] = s[1:] - s[:-1]
        o[-1:] = s[:1] - s[-1:] if periodic else -1.0 * s[-1:]
    else:
        o[1:] = s[1:] - s[:-1]
        o[:1] = s[:1] - s[-1:] if periodic else s[:1]
    out /= h
    return out


def _ref_residual(farr, h, periodic, w, nu):
    """f - nu div w, the divergence summed in axis order."""
    div = _ref_diff(w[0], 0, h[0], periodic[0], False)
    for a in range(1, len(h)):
        div += _ref_diff(w[a], a, h[a], periodic[a], False)
    r = div * -nu
    r += farr
    return r


def _ref_gradient(r, h, periodic):
    return np.stack([_ref_diff(r, a, h[a], periodic[a], True) for a in range(len(h))])


def _ref_magnitude(g):
    """Pointwise l2 magnitude, squares added in axis order; |g| for d = 1."""
    if len(g) == 1:
        return np.abs(g[0])
    mag = g[0] * g[0]
    for c in g[1:]:
        mag += c * c
    return np.sqrt(mag)


def fista_tv_and_gap(farr, h, periodic, w, nu):
    """(TV(r), duality gap) of the dual field w at nu, r = f - nu div w."""
    vol = 1.0
    for ha in h:
        vol *= ha
    g = _ref_gradient(_ref_residual(farr, h, periodic, w, nu), h, periodic)
    tv = float(_ref_magnitude(g).sum()) * vol
    return tv, nu * (tv + float((g * w).sum()) * vol)


def fista_reference(farr, h, periodic, w, nu, max_iters, gap_rel, tv_ref,
                    check_every=50):
    """Projected FISTA with adaptive restart on min_{|w|<=1} 0.5 ||f - nu
    div w||^2 from w, the gap checked every check_every iterations and at
    the last; returns (TV(r), iterations, gap met, final w)."""
    if max_iters <= 0:
        return fista_tv_and_gap(farr, h, periodic, w, nu)[0], 0, False, w
    step = 1.0 / (nu * sum(4.0 / ha**2 for ha in h))
    w = w.copy()
    wy = w.copy()
    tmom = 1.0
    tv = np.inf
    for it in range(1, max_iters + 1):
        g = _ref_gradient(_ref_residual(farr, h, periodic, wy, nu), h, periodic)
        w_new = g * -step
        w_new += wy
        mag = _ref_magnitude(w_new)
        np.maximum(mag, 1.0, out=mag)
        w_new /= mag[None]
        dw = w_new - w
        wy -= w_new
        restart = np.vdot(wy, dw) > 0.0
        tnew = 1.0 if restart else 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tmom * tmom))
        coef = 0.0 if restart else (tmom - 1.0) / tnew
        wy = dw * coef
        wy += w_new
        w = w_new
        tmom = tnew
        if it % check_every == 0 or it == max_iters:
            tv, gap = fista_tv_and_gap(farr, h, periodic, w, nu)
            if gap <= gap_rel * max(nu * max(tv, tv_ref), 1e-300):
                return tv, it, True, w
    return tv, max_iters, False, w


def rectangle_face_count(mask: np.ndarray) -> int:
    """Number of jump faces of an indicator on a 2-D grid, counting the
    zero extension outside the box."""
    padded = np.pad(mask.astype(int), 1)
    faces = np.abs(np.diff(padded, axis=0)).sum()
    faces += np.abs(np.diff(padded, axis=1)).sum()
    return int(faces)
