"""Property tests of the `minimize_flambda` contracts and of its probe
records, on d = 1, 2, 3 grids that are boxes, tori or mixed, with
anisotropic spacing, for p = 1 and p = 2.  Grids and budgets are small so
the suite stays fast."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bdiv.fields import Grid, ScalarField, discrete_divergence
from bdiv.norms import lp_norm, sup_norm_vector
from bdiv.variational import (
    SATURATION_TOL,
    VariationalConfig,
    _phi_p_tv,
    minimize_flambda,
)

CELLS = {1: (4, 24), 2: (3, 9), 3: (3, 5)}  # per-axis cell counts by d


@st.composite
def grids(draw) -> Grid:
    d = draw(st.sampled_from([1, 2, 3]))
    lo_n, hi_n = CELLS[d]
    n = tuple(draw(st.integers(lo_n, hi_n)) for _ in range(d))
    lo = tuple(draw(st.floats(-1.0, 0.0)) for _ in range(d))
    length = tuple(draw(st.floats(0.25, 3.0)) for _ in range(d))
    periodic = tuple(draw(st.booleans()) for _ in range(d))
    return Grid(n, lo, tuple(a + b for a, b in zip(lo, length)), periodic)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    grid=grids(),
    seed=st.integers(0, 10_000),
    p=st.sampled_from([1, 2]),
    k=st.floats(0.5, 40.0),
)
def test_minimize_contracts_and_probe_records(grid, seed, p, k):
    f = ScalarField(grid, np.random.default_rng(seed).standard_normal(grid.n))
    phi_f = _phi_p_tv(f, p)
    lam = k / phi_f  # k is lam in units of the trivial threshold
    cfg = VariationalConfig(lam=lam, p=p, max_iters=4000, inner_iters=1000)
    u, r, rep = minimize_flambda(f, cfg)

    # r = f - div u
    scale = max(float(np.abs(f.values).max()), 1.0)
    resid = f.values - discrete_divergence(u).values - r.values
    assert np.abs(resid).max() <= 1e-12 * scale

    # the objective stays at or under the zero field's
    fnorm = lp_norm(f, 2)
    bound = lam * fnorm**p
    assert rep.objective <= bound
    assert sup_norm_vector(u) + lam * lp_norm(r, 2) ** p <= bound * (1 + 1e-12)

    if lam * phi_f <= 1.0:  # below the threshold the zero field, exactly
        assert rep.trivial and rep.converged and not rep.probes
        assert np.all(u.as_array() == 0.0)
        assert np.array_equal(r.values, f.values)
        return
    assert not rep.trivial
    if rep.converged:  # the certificate, or for p = 1 saturation
        held = _phi_p_tv(r, p) <= (1.0 + cfg.tol_residual) / lam
        saturated = p == 1 and lp_norm(r, 2) <= SATURATION_TOL * fnorm
        assert held or saturated

    # the records account for every iteration, within the budget
    assert sum(q.iterations for q in rep.probes) == rep.iterations
    assert rep.iterations <= cfg.max_iters
    # a tight solve only follows a cheap solve at the same nu near the root
    band = 0.5 * cfg.tol_residual
    for i, q in enumerate(rep.probes):
        if q.gap == cfg.tol_objective:
            cheap = rep.probes[i - 1]
            assert i > 0 and cheap.gap == 1e-4 and cheap.nu == q.nu
            assert abs(cheap.defect) <= 2.0 * band * cheap.scale
            assert not cheap.saturated
