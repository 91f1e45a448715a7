"""Property tests of the `minimize_flambda` contracts, its weak-duality
certificates and its probe records, on d = 1, 2, 3 grids that are boxes,
tori or mixed, with anisotropic spacing, for p = 1 (the primal-dual solve)
and p = 2 (the root search).  Grids and budgets are small so the suite
stays fast."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdiv import variational
from bdiv.examples import nirenberg_field
from bdiv.fields import Grid, ScalarField, discrete_divergence, inner
from bdiv.norms import lp_norm, sup_norm_vector, tv_norm
from bdiv.variational import (
    CHEAP_GAP,
    VariationalConfig,
    _DualState,
    minimize_flambda,
)
from oracles import phi_p_tv, weak_duality_bound

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
    phi_f = phi_p_tv(f, p)
    lam = k / phi_f  # k is lam in units of the trivial threshold
    cfg = VariationalConfig(lam=lam, p=p, max_iters=4000, inner_iters=1000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)

    if lam * phi_f <= 1.0:  # below the threshold the zero field, exactly
        assert rep.trivial and rep.converged and not rep.probes
        assert np.all(u.as_array() == 0.0)
        assert np.array_equal(r.values, f.values)
        return
    assert not rep.trivial
    assert rep.iterations <= cfg.max_iters
    # a tight solve only follows an uncertified cheap solve at the same nu
    # inside the band; p = 1 runs no probes (checked by _check_contracts)
    band = 0.5 * cfg.tol_residual
    target = 1.0 / (2.0 * lam * lp_norm(f, 2))  # on the normalized data
    for i, q in enumerate(rep.probes):
        if q.gap == cfg.tol_objective:
            cheap = rep.probes[i - 1]
            assert i > 0 and cheap.gap == 1e-4 and cheap.nu == q.nu
            assert abs(cheap.defect) <= band * target
            assert not cheap.certified
        # only a cheap solve stops on the sign of its defect, above the gap
        # it asked for and outside twice the band, where it settles nothing
        if q.ending == "sign":
            assert q.gap == CHEAP_GAP
            assert q.gap_reached > CHEAP_GAP
            assert abs(q.defect) > 2.0 * band * target


class _Recorded(variational._PrimalDual):
    """The primal-dual state, remembering every instance made."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        _Recorded.made.append(self)


def _solve_recorded(f, cfg):
    """minimize_flambda(f, cfg) and the primal-dual states it made."""
    _Recorded.made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "_PrimalDual", _Recorded)
        return minimize_flambda(f, cfg), _Recorded.made


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=grids(), seed=st.integers(0, 10_000), k=st.floats(0.5, 40.0))
def test_p1_primal_dual_contracts_and_certificate(grid, seed, k):
    """The p = 1 solve: the contracts of minimize_flambda, the exact zero
    below the threshold, a dual point phi that is feasible by norms' own
    TV and L2 norm (TV(phi) <= 1, ||phi||_2 <= lam) and whose bound <f,
    phi> the report's lower_bound takes in, and the same bits on a second
    run."""
    f = ScalarField(grid, np.random.default_rng(seed).standard_normal(grid.n))
    lam = k / phi_p_tv(f, 1)
    cfg = VariationalConfig(lam=lam, p=1, max_iters=4000)
    (u, r, rep), made = _solve_recorded(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    if k <= 1.0:  # below the threshold the zero field, exactly, and no solve
        assert rep.trivial and rep.converged and not made
        assert np.all(u.as_array() == 0.0) and np.array_equal(r.values, f.values)
        return
    (state,) = made
    phi = ScalarField(grid, state.dual_point())
    assert tv_norm(phi, "isotropic") <= 1.0 + 1e-12
    assert lp_norm(phi, 2) <= lam * (1.0 + 1e-12)
    bound = inner(f, phi)
    assert bound <= rep.lower_bound + 1e-12 * abs(rep.lower_bound)
    assert bound <= rep.objective * (1.0 + 1e-12)
    again = minimize_flambda(f, cfg)
    assert np.array_equal(again[0].as_array(), u.as_array())
    assert np.array_equal(again[1].values, r.values)
    assert again[2] == rep


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grid=grids(), seed=st.integers(0, 10_000), k=st.floats(1.5, 40.0))
def test_sign_decided_probes_keep_the_sign_of_a_fresh_solve(grid, seed, k):
    """Every p = 2 probe that stopped above CHEAP_GAP before its cap (its
    gap decided the sign of its defect) has the defect sign of a fresh
    solve at the same nu, from w = 0, to a relative gap of 1e-6, and that
    solve's defect lies outside the band too: the probe could not have
    settled the search."""
    f = ScalarField(grid, np.random.default_rng(seed).standard_normal(grid.n))
    cfg = VariationalConfig(lam=k / phi_p_tv(f, 2), max_iters=4000, inner_iters=1000)
    _, _, rep = minimize_flambda(f, cfg)
    fnorm = lp_norm(f, 2)
    target = 1.0 / (2.0 * cfg.lam * fnorm)  # the certificate TV(r) on f / fnorm
    band = 0.5 * cfg.tol_residual
    for q in rep.probes:
        if q.ending != "sign":
            continue
        state = _DualState(f.values / fnorm, grid, target)
        tv, _, met, _ = state.solve(q.nu, 400_000, 1e-6)
        assert met
        assert (tv > target) == (q.defect > 0)
        assert abs(tv - target) > band * target


# -- the coarse start -----------------------------------------------------------

# (n, lo, hi, periodic) of grids just past the floor: the 2^d-cell average
# has at least COARSE_MIN_CELLS cells
COARSE_GRIDS = {
    "torus1d": ((1024,), -1.0, 1.0, True),
    "box1d": ((1026,), 0.0, 3.0, False),
    "torus2d": ((46, 46), -1.0, 1.0, True),
    "box2d": ((46, 46), -1.0, 1.0, False),
    "mixed-aniso2d": ((32, 64), (0.0, -1.0), (1.0, 3.0), (True, False)),
    "torus3d": ((16, 16, 16), -1.0, 1.0, True),
    "mixed-aniso3d": ((16, 16, 20), 0.0, (2.0, 1.0, 0.5), (False, True, True)),
}

# (grid, p, lam in units of the trivial threshold)
COARSE_CASES = [
    ("torus1d", 1, 8.0),
    ("torus1d", 2, 30.0),
    ("box1d", 2, 8.0),
    ("torus2d", 1, 8.0),
    ("torus2d", 2, 30.0),
    ("box2d", 1, 8.0),
    ("box2d", 2, 8.0),
    ("mixed-aniso2d", 2, 30.0),
    ("torus3d", 2, 8.0),
    ("mixed-aniso3d", 1, 8.0),
    ("mixed-aniso3d", 2, 8.0),
]


def _coarse_case(name, seed=0):
    n, lo, hi, periodic = COARSE_GRIDS[name]
    grid = Grid(n, lo, hi, periodic)
    return ScalarField(grid, np.random.default_rng(seed).standard_normal(n))


def _split(rep, f):
    """The probe records of the coarse levels and those of f's grid."""
    return ([q for q in rep.probes if q.cells < f.grid.size],
            [q for q in rep.probes if q.cells == f.grid.size])


def _check_contracts(f, cfg, u, r, rep):
    """The minimize_flambda contracts: r = f - div u, the trivial bound,
    report.r_tv = TV(r) bit for bit, the weak-duality bound of r
    (recomputed by the oracle from the returned u and r) under the
    objective, report.lower_bound that bound at p = 2 and at least that
    bound at p = 1 (where it also takes in the dual point of the
    primal-dual solve), and on convergence a certified objective, (objective
    - lower_bound) / objective <= CHEAP_GAP, with the certificate band at
    p = 2; and one cell-iteration budget shared by every level, which at
    p = 1 is one solve on the caller's grid with no probe records."""
    lam, p = cfg.lam, cfg.p
    scale = max(float(np.abs(f.values).max()), 1.0)
    resid = f.values - discrete_divergence(u).values - r.values
    assert np.abs(resid).max() <= 1e-12 * scale
    fnorm = lp_norm(f, 2)
    bound = lam * fnorm**p
    objective = sup_norm_vector(u) + lam * lp_norm(r, 2) ** p
    assert rep.objective <= bound
    assert objective <= bound * (1 + 1e-12)
    assert rep.objective == pytest.approx(objective, rel=1e-12)
    if rep.converged and p == 2:
        assert phi_p_tv(r, p) <= (1.0 + cfg.tol_residual) / lam
    assert rep.r_tv == tv_norm(r, "isotropic")
    grid = f.grid
    lower = weak_duality_bound(f.values, r.values, grid.h, grid.periodic, lam, p)
    assert lower <= objective * (1 + 1e-12)
    if p == 2:
        assert rep.lower_bound == pytest.approx(lower, rel=1e-12)
    else:
        assert rep.lower_bound >= lower - 1e-12 * abs(lower)
        assert rep.lower_bound <= rep.objective * (1 + 1e-12)
        assert not rep.probes
    if rep.converged:
        assert rep.objective - rep.lower_bound <= CHEAP_GAP * rep.objective
    cells = f.grid.size
    # coarsest level first, down to f's grid, each 2^d times the one before
    levels = [q.cells for q in rep.probes]
    assert levels == sorted(levels)
    assert set(levels) == {cells >> (grid.d * j) for j in range(len(set(levels)))}
    if p == 2:
        assert sum(q.iterations for q in rep.probes if q.cells == cells) == rep.iterations
        spent = sum(q.iterations * q.cells for q in rep.probes)
    else:
        spent = rep.iterations * cells
    assert rep.cell_iterations == spent <= cfg.max_iters * cells


@pytest.mark.parametrize("case", COARSE_CASES, ids=lambda c: f"{c[0]}-p{c[1]}-k{c[2]:g}")
def test_coarse_start_keeps_the_contracts(case):
    """The p = 2 search starts from the coarse levels and keeps the
    contracts; on the same grids the p = 1 solve, which runs on the
    caller's grid alone, converges and keeps them too."""
    name, p, k = case
    f = _coarse_case(name)
    cfg = VariationalConfig(lam=k / phi_p_tv(f, p), p=p, max_iters=20_000,
                            inner_iters=2000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and not rep.trivial
    if p == 1:
        return
    # the coarse levels ran cheap solves only, on grids of 2^-d the cells each
    cells = f.grid.size
    coarse, fine = _split(rep, f)
    assert coarse and fine[0].nu != 0.25  # started from the coarse root
    assert all(q.gap == 1e-4 for q in coarse)
    assert {q.cells for q in coarse} <= {cells >> (f.grid.d * j) for j in (1, 2, 3)}
    assert cells >> f.grid.d in {q.cells for q in coarse}


@pytest.mark.parametrize("p", [1, 2])
def test_coarse_budget_is_shared(p):
    """A budget too small for any level to converge: at p = 2 every level
    draws on max_iters times the caller's cells, and the caller's grid runs
    the cold search on what the coarse levels left; at p = 1 the one solve
    on the caller's grid spends it all, unconverged."""
    f = _coarse_case("box2d")
    cfg = VariationalConfig(lam=8.0 / phi_p_tv(f, p), p=p, max_iters=120)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    if p == 2:
        coarse, fine = _split(rep, f)
        assert coarse and fine[0].nu == 0.25
    else:
        assert not rep.converged and rep.iterations == cfg.max_iters
    assert rep.cell_iterations == cfg.max_iters * f.grid.size


def test_coarse_start_skipped_on_an_odd_axis():
    f = ScalarField(Grid((47, 46), -1.0, 1.0, True),
                    np.random.default_rng(1).standard_normal((47, 46)))
    cfg = VariationalConfig(lam=8.0 / phi_p_tv(f, 2), max_iters=20_000,
                            inner_iters=2000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and _split(rep, f)[0] == [] and rep.probes[0].nu == 0.25
    assert rep.cell_iterations == rep.iterations * f.grid.size


@pytest.mark.parametrize("p", [1, 2])
def test_checkerboard_average_zero_takes_the_cold_search(p):
    """The 2x2 averages of a checkerboard are exactly 0: no coarse level
    runs and nothing divides by ||f_c|| = 0 (nor, at p = 1, by anything
    else)."""
    grid = Grid((46, 46), -1.0, 1.0, True)
    i, j = np.indices(grid.n)
    f = ScalarField(grid, np.where((i + j) % 2 == 0, 1.0, -1.0))
    cfg = VariationalConfig(lam=8.0 / phi_p_tv(f, p), p=p, max_iters=20_000,
                            inner_iters=2000)
    with np.errstate(divide="raise", invalid="raise"):
        u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and _split(rep, f)[0] == []
    assert p == 1 or rep.probes[0].nu == 0.25


def _cut_after_cheap_probe_in_band(shape, inner_iters, extra):
    """The full solve of a random torus field, the index i of its first
    cheap probe inside the band, and the solve again with a max_iters that
    leaves the caller's grid the iterations up to and including that probe
    plus extra, after the coarse levels' share."""
    f = ScalarField(Grid(shape, -1.0, 1.0, True),
                    np.random.default_rng(0).standard_normal(shape))
    cfg = VariationalConfig(lam=30.0 / phi_p_tv(f, 2), max_iters=20_000,
                            inner_iters=inner_iters)
    _, _, full = minimize_flambda(f, cfg)
    band = 0.5 * cfg.tol_residual
    target = 1.0 / (2.0 * cfg.lam * lp_norm(f, 2))  # on the normalized data
    coarse, fine = _split(full, f)
    i = next(i for i, q in enumerate(fine)
             if q.gap == 1e-4 and abs(q.defect) <= band * target)
    spent = sum(q.iterations for q in fine[: i + 1])
    cells = sum(q.iterations * q.cells for q in coarse)
    cut = replace(cfg, max_iters=spent + extra - (-cells // f.grid.size))
    return f, full, i, cut, minimize_flambda(f, cut)


@pytest.mark.parametrize("shape", [(46, 46), (47, 46)], ids=["coarse", "cold"])
@pytest.mark.parametrize("inner_iters", [2000, 100], ids=["certified", "uncertified"])
def test_budget_cut_in_band_converged_iff_certified(shape, inner_iters):
    """A budget that runs out on a cheap probe inside the band: the search
    reports converged exactly when the weak-duality bound certifies that
    probe, which then needs no tight solve.  With inner_iters = 2000 the
    cheap solve reaches its gap and is certified; with 100 the cap stops it
    above the gap and uncertified, so a tight solve would have to follow
    and the cut leaves the search unconverged."""
    f, full, i, cut, (u, r, rep) = _cut_after_cheap_probe_in_band(shape, inner_iters, 0)
    (coarse, fine), (full_coarse, full_fine) = _split(rep, f), _split(full, f)
    cheap = full_fine[i]
    assert cheap.certified == (inner_iters == 2000)
    assert coarse == full_coarse and fine == full_fine[: i + 1]
    assert rep.converged == cheap.certified
    _check_contracts(f, cut, u, r, rep)


@pytest.mark.parametrize("shape", [(46, 46), (47, 46)], ids=["coarse", "cold"])
def test_budget_cut_tight_solve_above_the_cheap_gap_is_not_converged(shape):
    """The inner_iters cap stops a cheap probe inside the band above the
    cheap gap 1e-4, and the budget ends three iterations into its tight
    solve: that record lies inside the band but ended above 1e-4, so it
    settles nothing and the search reports converged=False."""
    f, full, i, cut, (u, r, rep) = _cut_after_cheap_probe_in_band(shape, 100, 3)
    (coarse, fine), (full_coarse, full_fine) = _split(rep, f), _split(full, f)
    assert full_fine[i].gap_reached > 1e-4
    assert coarse == full_coarse and fine[:-1] == full_fine[: i + 1]
    tight = fine[-1]
    assert tight.gap == cut.tol_objective and tight.iterations == 3
    band = 0.5 * cut.tol_residual
    target = 1.0 / (2.0 * cut.lam * lp_norm(f, 2))  # on the normalized data
    assert abs(tight.defect) <= band * target and tight.gap_reached > 1e-4
    assert not rep.converged
    _check_contracts(f, cut, u, r, rep)


def test_p1_certifies_past_the_exact_penalty_threshold():
    """The 46^2 Nirenberg field at p = 1, lam = 1, where the residual of the
    minimizer vanishes: the primal-dual solve certifies its objective to
    CHEAP_GAP.  The root search it replaced returned 0.3251375 there, with
    no bound; the certified bound shows that objective 0.59% above the
    optimum."""
    f = nirenberg_field(46)
    cfg = VariationalConfig(lam=1.0, p=1, max_iters=60_000)
    (u, r, rep), (state,) = _solve_recorded(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and rep.r_norm <= 1e-3 * lp_norm(f, 2)
    phi = ScalarField(f.grid, state.dual_point())
    assert tv_norm(phi, "isotropic") <= 1.0 + 1e-12 and lp_norm(phi, 2) <= 1.0 + 1e-12
    assert rep.lower_bound == inner(f, phi)  # the dual point's bound, not r's
    assert 0.3251375 > 1.0058 * rep.lower_bound
