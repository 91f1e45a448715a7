"""Property tests of the `minimize_flambda` contracts and of its probe
records, on d = 1, 2, 3 grids that are boxes, tori or mixed, with
anisotropic spacing, for p = 1 and p = 2.  Grids and budgets are small so
the suite stays fast."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdiv.examples import nirenberg_field
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


def _check_contracts(f, cfg, u, r, rep):
    """The minimize_flambda contracts, and one cell-iteration budget shared
    by every level."""
    scale = max(float(np.abs(f.values).max()), 1.0)
    resid = f.values - discrete_divergence(u).values - r.values
    assert np.abs(resid).max() <= 1e-12 * scale
    fnorm = lp_norm(f, 2)
    bound = cfg.lam * fnorm**cfg.p
    assert rep.objective <= bound
    assert sup_norm_vector(u) + cfg.lam * lp_norm(r, 2) ** cfg.p <= bound * (1 + 1e-12)
    if rep.converged:
        held = _phi_p_tv(r, cfg.p) <= (1.0 + cfg.tol_residual) / cfg.lam
        saturated = cfg.p == 1 and lp_norm(r, 2) <= SATURATION_TOL * fnorm
        assert held or saturated
    cells = f.grid.size
    assert all(q.cells == cells for q in rep.probes)
    assert sum(q.iterations for q in rep.probes) == rep.iterations
    spent = sum(q.iterations * q.cells for q in rep.coarse + rep.probes)
    assert rep.cell_iterations == spent <= cfg.max_iters * cells


@pytest.mark.parametrize("case", COARSE_CASES, ids=lambda c: f"{c[0]}-p{c[1]}-k{c[2]:g}")
def test_coarse_start_keeps_the_contracts(case):
    name, p, k = case
    f = _coarse_case(name)
    cfg = VariationalConfig(lam=k / _phi_p_tv(f, p), p=p, max_iters=20_000,
                            inner_iters=2000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and not rep.trivial
    # the coarse levels ran cheap solves only, on grids of 2^-d the cells each
    cells = f.grid.size
    assert rep.coarse and rep.probes[0].nu != 0.25  # started from the coarse root
    assert all(q.gap == 1e-4 for q in rep.coarse)
    assert {q.cells for q in rep.coarse} <= {cells >> (f.grid.d * j) for j in (1, 2, 3)}
    assert cells >> f.grid.d in {q.cells for q in rep.coarse}


@pytest.mark.parametrize("p", [1, 2])
def test_coarse_budget_is_shared(p):
    """A budget too small for any level to converge: every level draws on
    max_iters times the caller's cells, and the caller's grid runs the cold
    search on what the coarse levels left."""
    f = _coarse_case("box2d")
    cfg = VariationalConfig(lam=8.0 / _phi_p_tv(f, p), p=p, max_iters=120)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.coarse and rep.probes[0].nu == 0.25
    assert rep.cell_iterations == cfg.max_iters * f.grid.size


def test_coarse_start_skipped_on_an_odd_axis():
    f = ScalarField(Grid((47, 46), -1.0, 1.0, True),
                    np.random.default_rng(1).standard_normal((47, 46)))
    cfg = VariationalConfig(lam=8.0 / _phi_p_tv(f, 2), max_iters=20_000,
                            inner_iters=2000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and rep.coarse == [] and rep.probes[0].nu == 0.25
    assert rep.cell_iterations == rep.iterations * f.grid.size


@pytest.mark.parametrize("p", [1, 2])
def test_checkerboard_average_zero_takes_the_cold_search(p):
    """The 2x2 averages of a checkerboard are exactly 0: no coarse level
    runs and nothing divides by ||f_c|| = 0."""
    grid = Grid((46, 46), -1.0, 1.0, True)
    i, j = np.indices(grid.n)
    f = ScalarField(grid, np.where((i + j) % 2 == 0, 1.0, -1.0))
    cfg = VariationalConfig(lam=8.0 / _phi_p_tv(f, p), p=p, max_iters=20_000,
                            inner_iters=2000)
    with np.errstate(divide="raise", invalid="raise"):
        u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and rep.coarse == [] and rep.probes[0].nu == 0.25


def _cut_after_cheap_probe_in_band(shape, inner_iters, extra):
    """The full solve of a random torus field, the index i of its first
    cheap probe inside the band, and the solve again with a max_iters that
    leaves the caller's grid the iterations up to and including that probe
    plus extra, after the coarse levels' share."""
    f = ScalarField(Grid(shape, -1.0, 1.0, True),
                    np.random.default_rng(0).standard_normal(shape))
    cfg = VariationalConfig(lam=30.0 / _phi_p_tv(f, 2), max_iters=20_000,
                            inner_iters=inner_iters)
    _, _, full = minimize_flambda(f, cfg)
    band = 0.5 * cfg.tol_residual
    i = next(i for i, q in enumerate(full.probes)
             if q.gap == 1e-4 and abs(q.defect) <= band * q.scale)
    coarse = sum(q.iterations * q.cells for q in full.coarse)
    spent = sum(q.iterations for q in full.probes[: i + 1])
    cut = replace(cfg, max_iters=spent + extra - (-coarse // f.grid.size))
    return f, full, i, cut, minimize_flambda(f, cut)


@pytest.mark.parametrize("shape", [(46, 46), (47, 46)], ids=["coarse", "cold"])
def test_budget_spent_on_a_cheap_probe_in_the_band_is_not_converged(shape):
    """A budget that runs out on a cheap probe inside the band, before the
    tight solve at its nu: the search reports converged=False, since no
    tight solve backs the verdict."""
    f, full, i, cut, (u, r, rep) = _cut_after_cheap_probe_in_band(shape, 2000, 0)
    assert full.converged
    assert rep.coarse == full.coarse and rep.probes == full.probes[: i + 1]
    assert not rep.converged and not rep.gap_met
    _check_contracts(f, cut, u, r, rep)


@pytest.mark.parametrize("shape", [(46, 46), (47, 46)], ids=["coarse", "cold"])
def test_budget_cut_tight_solve_above_the_cheap_gap_is_not_converged(shape):
    """The inner_iters cap stops a cheap probe inside the band above the
    cheap gap 1e-4, and the budget ends three iterations into its tight
    solve: that record lies inside the band but ended above 1e-4, so it
    settles nothing and the search reports converged=False."""
    f, full, i, cut, (u, r, rep) = _cut_after_cheap_probe_in_band(shape, 100, 3)
    assert full.probes[i].gap_reached > 1e-4
    assert rep.coarse == full.coarse and rep.probes[:-1] == full.probes[: i + 1]
    tight = rep.probes[-1]
    assert tight.gap == cut.tol_objective and tight.iterations == 3
    band = 0.5 * cut.tol_residual
    assert abs(tight.defect) <= band * tight.scale and tight.gap_reached > 1e-4
    assert not rep.converged and not rep.gap_met
    _check_contracts(f, cut, u, r, rep)


def test_p1_coarse_level_stops_short_of_the_saturation_edge():
    """At p = 1 a coarse level whose bracket runs from an unsaturated probe
    below the root to a saturated one stops there, unconverged, and the
    caller's grid runs the cold search."""
    f = nirenberg_field(46)
    cfg = VariationalConfig(lam=1.0, p=1, max_iters=60_000, inner_iters=2000)
    u, r, rep = minimize_flambda(f, cfg)
    _check_contracts(f, cfg, u, r, rep)
    assert rep.converged and rep.probes[0].nu == 0.25
    last = rep.coarse[-1]
    assert last.defect > 0 and not last.saturated
    above = [q for q in rep.coarse if q.nu > last.nu]
    assert above and min(above, key=lambda q: q.nu).saturated
