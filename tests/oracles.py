"""Independent brute-force oracles used by the test suite.

Everything here shares no code path with the library implementations it
checks.  Most oracles are plain index loops.  The FISTA references are
the inner dual loop in whole-array operations: fista_reference in the
solver's folded unit-spacing arithmetic, in its order of operations, so
its iterates are bit-identical targets; fista_reference_unfolded as the
loop ran before the spacing and the step were folded in (the residual,
its h-spaced gradient, then the step), a check of the folding's algebra
up to rounding.
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


def phi_p_tv(f, p):
    """|phi_p(f)|_TV = p ||f||_2^(p - 2) TV(f) of a ScalarField f, the
    isotropic TV of its forward differences; 0 for f = 0."""
    h, periodic = f.grid.h, f.grid.periodic
    vol = math.prod(h)
    norm = math.sqrt(float((f.values * f.values).sum()) * vol)
    if norm == 0.0:
        return 0.0
    tv = float(_ref_magnitude(_ref_gradient(f.values, h, periodic)).sum()) * vol
    return p * norm ** (p - 2) * tv


def weak_duality_bound(farr, rarr, h, periodic, lam, p):
    """Lower bound on min_u ||u||_inf + lam ||f - div u||_2^p from the dual
    point phi built on the residual r, evaluated on phi itself.

    Any phi with TV(phi) <= 1 gives <f, phi> - ||phi||^2 / (4 lam) at p = 2,
    and <f, phi> at p = 1 if also ||phi||_2 <= lam.  p = 2 takes phi = s r /
    TV(r) with s = 2 lam TV(r) <f, r> / ||r||^2 clipped to [0, 1]; p = 1
    takes phi = c r with c = min(1 / TV(r), lam / ||r||_2).  -inf for r = 0
    or TV(r) = 0.  Asserts that phi is dual feasible."""
    vol = 1.0
    for ha in h:
        vol *= ha

    def tv(g):
        return float(_ref_magnitude(_ref_gradient(g, h, periodic)).sum()) * vol

    def dot(a, b):
        return float((a * b).sum()) * vol

    t, rr = tv(rarr), dot(rarr, rarr)
    if t == 0.0 or rr == 0.0:
        return -math.inf
    if p == 2:
        s = min(max(2.0 * lam * t * dot(farr, rarr) / rr, 0.0), 1.0)
        phi = (s / t) * rarr
    else:
        phi = min(1.0 / t, lam / math.sqrt(rr)) * rarr
    assert tv(phi) <= 1.0 + 1e-12
    if p == 2:
        return dot(farr, phi) - dot(phi, phi) / (4.0 * lam)
    assert math.sqrt(dot(phi, phi)) <= lam * (1.0 + 1e-12)
    return dot(farr, phi)


def _fista(farr, h, periodic, w, nu, max_iters, gap_rel, tv_ref, check_every,
           step_from):
    """Projected FISTA with adaptive restart on min_{|w|<=1} 0.5 ||f - nu
    div w||^2 from w, the gap checked every check_every iterations and at
    the last; step_from(wy, step) returns the unprojected step wy - step
    grad(f - nu div wy) as a new array.  Returns (TV(r), iterations, gap
    met, relative gap of the last check, final w)."""
    if max_iters <= 0:
        tv, gap = fista_tv_and_gap(farr, h, periodic, w, nu)
        return tv, 0, False, gap / max(nu * max(tv, tv_ref), 1e-300), w
    step = 1.0 / (nu * sum(4.0 / ha**2 for ha in h))
    w = w.copy()
    wy = w.copy()
    tmom = 1.0
    for it in range(1, max_iters + 1):
        w_new = step_from(wy, step)
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
            scale = max(nu * max(tv, tv_ref), 1e-300)
            if gap <= gap_rel * scale:
                return tv, it, True, gap / scale, w
    return tv, max_iters, False, gap / scale, w


def fista_reference(farr, h, periodic, w, nu, max_iters, gap_rel, tv_ref,
                    check_every=50):
    """The solver's loop: with h0 = h[0] and rho_a = h_a / h0, q = c sum_a
    D-_a wy_a / rho_a + f_s for c = step nu / h0^2 and f_s = -(step / h0)
    f, then w_new_a = D+_a q / rho_a + wy_a; the gap check keeps the
    h-spaced stencils.  Returns what _fista does."""
    h0 = h[0]
    rho = [ha / h0 for ha in h]

    def step_from(wy, step):
        q = _ref_diff(wy[0], 0, rho[0], periodic[0], False)
        for a in range(1, len(h)):
            q += _ref_diff(wy[a], a, rho[a], periodic[a], False)
        q *= step * nu / h0**2
        q += farr * -(step / h0)
        w_new = _ref_gradient(q, rho, periodic)
        w_new += wy
        return w_new

    return _fista(farr, h, periodic, w, nu, max_iters, gap_rel, tv_ref,
                  check_every, step_from)


def fista_reference_unfolded(farr, h, periodic, w, nu, max_iters, gap_rel,
                             tv_ref, check_every=50):
    """The loop with the residual r = f - nu div wy and the step wy - step
    grad r in h-spaced stencils.  Returns what _fista does."""

    def step_from(wy, step):
        w_new = _ref_gradient(_ref_residual(farr, h, periodic, wy, nu), h, periodic)
        w_new *= -step
        w_new += wy
        return w_new

    return _fista(farr, h, periodic, w, nu, max_iters, gap_rel, tv_ref,
                  check_every, step_from)


def rectangle_face_count(mask: np.ndarray) -> int:
    """Number of jump faces of an indicator on a 2-D grid, counting the
    zero extension outside the box."""
    padded = np.pad(mask.astype(int), 1)
    faces = np.abs(np.diff(padded, axis=0)).sum()
    faces += np.abs(np.diff(padded, axis=1)).sum()
    return int(faces)
