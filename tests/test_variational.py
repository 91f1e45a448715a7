import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bdiv
from bdiv.examples import ball_field, nirenberg_field, random_field
from bdiv.fields import (
    Grid,
    ScalarField,
    discrete_divergence,
    inner,
    mean_zero,
)
from bdiv.norms import lp_norm, sup_norm_vector, tv_norm
from bdiv.variational import (
    CHEAP_GAP,
    CHECK_EVERY,
    TABLE1_SETTINGS,
    HierarchyConfig,
    VariationalConfig,
    _DualState,
    estimate_eta,
    helmholtz_solve,
    hierarchical_p1,
    hierarchical_p2,
    minimize_flambda,
    two_step,
)
from oracles import fista_reference, fista_reference_unfolded, fista_tv_and_gap


def torus_field(n=16, seed=0):
    f = random_field(seed, n, law="gaussian", periodic=True)
    return mean_zero(f)


class TestHelmholtz:
    def test_zero(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        u = helmholtz_solve(ScalarField.zeros(g))
        assert np.all(u.as_array() == 0.0)

    def test_single_mode(self):
        g = Grid((32, 32), -1.0, 1.0, periodic=True)
        x, _ = g.meshgrid()
        f = ScalarField(g, np.sin(np.pi * x))
        u = helmholtz_solve(f)
        div = discrete_divergence(u)
        assert np.abs(div.values - f.values).max() <= 1e-12
        assert np.abs(u.components[1].values).max() <= 1e-12
        # the first component is a cosine profile up to the symbol factor
        continuum = helmholtz_solve(f, mode="continuum")
        expect = -np.cos(np.pi * x) / np.pi
        assert np.abs(continuum.components[0].values - expect).max() <= 1e-10

    def test_random_round_trip(self):
        for seed in range(3):
            f = torus_field(seed=seed)
            u = helmholtz_solve(f)
            div = discrete_divergence(u)
            assert np.abs(div.values - f.values).max() <= 1e-10 * np.abs(
                f.values
            ).max()

    def test_round_trip_1d_3d(self):
        """d = 1 and 3, and a 2-D torus of unequal sides and spacing."""
        for shape, lo, hi in (((32,), -1.0, 1.0), ((8, 8, 8), -1.0, 1.0),
                              ((24, 16), (0.0, -1.0), (3.0, 0.0))):
            g = Grid(shape, lo, hi, periodic=True)
            rng = np.random.default_rng(5)
            f = mean_zero(ScalarField(g, rng.standard_normal(shape)))
            u = helmholtz_solve(f)
            div = discrete_divergence(u)
            assert np.abs(div.values - f.values).max() <= 1e-10 * np.abs(
                f.values
            ).max()

    @pytest.mark.parametrize(
        "shape, lo, hi, axis, m",
        [
            ((32,), -1.0, 1.0, 0, 1),
            ((8, 10, 12), -1.0, 1.0, 2, 2),
            ((24, 16), (0.0, -1.0), (3.0, 0.0), 0, 2),
            ((24, 16), (0.0, -1.0), (3.0, 0.0), 1, 1),
        ],
        ids=["d1", "d3", "aniso-x", "aniso-y"],
    )
    def test_continuum_single_mode(self, shape, lo, hi, axis, m):
        """Continuum mode on sin(kappa x_a), kappa = 2 pi m / L_a, returns
        u_a = -cos(kappa x_a) / kappa and zero in the other components."""
        g = Grid(shape, lo, hi, periodic=True)
        kappa = 2.0 * np.pi * m / (g.hi[axis] - g.lo[axis])
        x = g.meshgrid()[axis]
        f = ScalarField(g, np.sin(kappa * x))
        u = helmholtz_solve(f, mode="continuum").as_array()
        expect = np.zeros_like(u)
        expect[axis] = -np.cos(kappa * x) / kappa
        assert np.abs(u - expect).max() <= 1e-10

    def test_rejects_nonperiodic(self):
        g = Grid((8, 8), -1.0, 1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(ScalarField.zeros(g))

    def test_mean_zero_enforcement(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        f = ScalarField(g, np.ones(g.n))
        with pytest.raises(ValueError):
            helmholtz_solve(f)
        u = helmholtz_solve(f, strict_mean=False)  # projects the mean away
        assert np.abs(u.as_array()).max() <= 1e-12

    def test_mean_test_is_relative_for_tiny_data(self):
        """A 16^2 torus field of size 1e-11 with a non-zero mean: the mean
        test is relative to ||f||_inf, so the strict solve rejects it, and
        the lenient one solves div u = f - mean(f) with no residual left
        past 1e-10 ||f||_inf (the zero mode a solver cannot invert is the
        whole field here)."""
        g = Grid((16, 16), -1.0, 1.0, periodic=True)
        f = ScalarField(g, 1e-11 * (1.0 + torus_field(seed=4).values))
        scale = np.abs(f.values).max()
        with pytest.raises(ValueError, match="zero mean"):
            helmholtz_solve(f)
        div = discrete_divergence(helmholtz_solve(f, strict_mean=False))
        expect = f.values - f.values.mean()
        assert np.abs(div.values - expect).max() <= 1e-10 * scale


class TestMinimize:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            VariationalConfig(lam=-1.0)
        with pytest.raises(ValueError):
            VariationalConfig(lam=1.0, p=3)
        for caps in ({"inner_iters": 0}, {"inner_iters": -5}, {"max_iters": 0},
                     {"max_iters": -5}):
            with pytest.raises(ValueError):
                VariationalConfig(lam=2.0, **caps)

    def test_zero_data(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        u, r, rep = minimize_flambda(
            ScalarField.zeros(g), VariationalConfig(lam=1.0)
        )
        assert rep.objective == 0.0
        assert np.all(u.as_array() == 0.0)

    def test_below_threshold_returns_exact_zero(self):
        f = torus_field(seed=1)
        lam = 0.5 / (2.0 * tv_norm(f, "isotropic"))
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam))
        assert rep.trivial and rep.converged
        assert np.all(u.as_array() == 0.0)
        assert np.array_equal(r.values, f.values)

    def test_certificate_and_trivial_bound(self):
        for seed in range(3):
            f = torus_field(seed=seed)
            lam = 30.0 / (2.0 * tv_norm(f, "isotropic"))
            u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam))
            assert rep.converged
            assert 2.0 * lam * tv_norm(r, "isotropic") <= 1.0 + 0.011
            assert rep.objective <= lam * lp_norm(f, 2) ** 2 * (1 + 1e-12)
            div = discrete_divergence(u)
            assert np.abs(div.values + r.values - f.values).max() <= 1e-12

    def test_report_objective_consistent(self):
        f = torus_field(seed=4)
        lam = 10.0 / (2.0 * tv_norm(f, "isotropic"))
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam))
        recomputed = sup_norm_vector(u) + lam * lp_norm(r, 2) ** 2
        assert rep.objective == pytest.approx(recomputed, rel=1e-10)
        assert rep.u_sup == pytest.approx(sup_norm_vector(u), rel=1e-12)
        assert rep.r_norm == pytest.approx(lp_norm(r, 2), rel=1e-12)

    def test_reported_objective_is_the_best_feasible_probe(self):
        f = torus_field(seed=5)
        lam = 50.0 / (2.0 * tv_norm(f, "isotropic"))
        cfg = VariationalConfig(lam=lam)
        _, _, rep = minimize_flambda(f, cfg)
        band = 0.5 * cfg.tol_residual
        target = 1.0 / (2.0 * lam * lp_norm(f, 2))  # on the normalized data
        feasible = [q for q in rep.probes
                    if q.defect <= 0 or abs(q.defect) <= band * target]
        assert feasible
        assert all(rep.objective <= (1 + 1e-12) * q.objective for q in feasible)

    def test_extremality_at_convergence(self):
        f = torus_field(seed=6)
        lam = 100.0 / (2.0 * tv_norm(f, "isotropic"))
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam))
        pair = inner(discrete_divergence(u), r)
        assert pair >= 0.95 * sup_norm_vector(u) * tv_norm(r, "isotropic")

    def test_p1_exact_penalty_regime(self):
        f = torus_field(seed=7)
        lam = 8.0 * lp_norm(f, 2) / tv_norm(f, "isotropic")
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam, p=1))
        assert rep.converged
        assert lp_norm(r, 2) <= 2e-3 * lp_norm(f, 2)
        div = discrete_divergence(u)
        assert np.abs(div.values + r.values - f.values).max() <= 1e-12

    def test_p1_interior_regime_certificate(self):
        f = torus_field(seed=8)
        thr = lp_norm(f, 2) / tv_norm(f, "isotropic")  # trivial threshold
        lam = 1.5 * thr
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam, p=1))
        assert rep.converged
        rnorm = lp_norm(r, 2)
        if rnorm > 1e-6:  # interior root: |phi_1(r)|_TV ~ 1/lam
            assert lam * tv_norm(r, "isotropic") / rnorm <= 1.0 + 0.011
        assert rep.objective <= lam * lp_norm(f, 2) * (1 + 1e-12)

    def test_p1_below_threshold_zero(self):
        f = torus_field(seed=9)
        lam = 0.5 * lp_norm(f, 2) / tv_norm(f, "isotropic")
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam, p=1))
        assert rep.trivial
        assert np.all(u.as_array() == 0.0)

    def test_nonperiodic_box_supported(self):
        f = random_field(10, 16, law="gaussian", periodic=False)
        lam = 20.0 / (2.0 * tv_norm(f, "isotropic"))
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam))
        assert rep.converged
        div = discrete_divergence(u)
        assert np.abs(div.values + r.values - f.values).max() <= 1e-12

    def test_one_dimensional_torus(self):
        f = mean_zero(random_field(3, 16, d=1, periodic=True))
        u, r, rep = minimize_flambda(f, VariationalConfig(lam=50.0))
        assert rep.converged and not rep.trivial
        div = discrete_divergence(u)
        assert np.abs(div.values + r.values - f.values).max() <= 1e-12

    def test_iteration_budget_is_a_hard_cap(self):
        for p in (2, 1):
            f = torus_field(seed=11)
            lam = 30.0 / (2.0 * tv_norm(f, "isotropic"))
            if p == 1:
                lam = 1.5 * lp_norm(f, 2) / tv_norm(f, "isotropic")
            cfg = VariationalConfig(lam=lam, p=p, max_iters=120)
            u, r, rep = minimize_flambda(f, cfg)
            assert not rep.trivial
            assert rep.iterations <= cfg.max_iters
            assert rep.objective <= lam * lp_norm(f, 2) ** p * (1 + 1e-12)
            div = discrete_divergence(u)
            assert np.abs(div.values + r.values - f.values).max() <= 1e-12


def test_root_search_runs_tight_solves_only_near_the_root():
    # the `bdiv bench table1` settings on the Nirenberg 50^2 field, p = 2
    f = nirenberg_field(50)
    cfg = VariationalConfig(lam=1.0 / lp_norm(f, 2), **TABLE1_SETTINGS)
    _, _, rep = minimize_flambda(f, cfg)
    assert rep.converged
    band = 0.5 * cfg.tol_residual
    target = 1.0 / (2.0 * cfg.lam * lp_norm(f, 2))  # on the normalized data
    probes = [q for q in rep.probes if q.cells == f.grid.size]
    for i, q in enumerate(probes):
        if q.gap != cfg.tol_objective:
            continue
        # exactly one cheap solve at this nu, run just before, inside the
        # band, which the weak-duality bound did not certify
        cheap = [c for c in probes if c.nu == q.nu and c.gap == 1e-4]
        assert cheap == [probes[i - 1]]
        assert abs(cheap[0].defect) <= band * target
        assert not cheap[0].certified
    # the search settles on its first certified cheap probe in the band and
    # runs no tight solve at all
    last = probes[-1]
    assert all(q.gap == 1e-4 for q in probes)
    assert last.certified and abs(last.defect) <= band * target
    assert not any(q.certified for q in probes[:-1])
    assert rep.lower_bound == pytest.approx(last.bound, rel=1e-9)
    assert (rep.objective - rep.lower_bound) / rep.objective <= CHEAP_GAP
    assert sum(q.iterations for q in probes) == rep.iterations
    assert rep.iterations <= 1350
    # the first fine probe, 15% above the target, stops once its gap decides
    # that sign, after 450 iterations (1,100 to the cheap gap)
    assert probes[0].ending == "sign" and probes[0].defect > 0
    # the coarse start: the 25^2 average runs first, and all levels together
    # cost at most 5 M cell-iterations (the cold search took 23.9 M, the
    # search that ended on a tight solve 15.8 M, the one whose cheap solves
    # all ran to the cheap gap 5.8 M)
    assert {q.cells for q in rep.probes if q.cells < f.grid.size} == {625}
    assert rep.cell_iterations <= 5_000_000


@pytest.mark.parametrize("n, half_width, most",
                         [(32, None, 28_400), (64, None, 43_975), (64, 4.0, 7850)])
def test_deep_regime_ball_converges(n, half_width, most):
    """The ball of criterion 2 (lam = 8/pi, far past the trivial threshold)
    at 32^2 and 64^2 on its box and at 64^2 on a box of half-width 4: its
    cheap probes far from the root stop once their gap decides the sign of
    the defect, and the search still converges on a certified non-zero u,
    in no more iterations than when every cheap solve ran to the cheap gap
    (28,400, 43,975 and 7,850).  A sign rule normalised by the target
    instead of by max(TV(r), target) sends nu to its cap on the first two
    and returns the zero field; one without the SIGN_GAP cap needs 46,550
    iterations at 32^2 and runs out of budget at 64^2; one capped at
    SIGN_GAP max(TV(r), target) instead of SIGN_GAP target runs out of
    budget on the wide box."""
    f = ball_field(32.0 * np.pi, 1.0, n, half_width=half_width)
    cfg = VariationalConfig(lam=8.0 / np.pi, max_iters=52_000, inner_iters=6000)
    u, r, rep = minimize_flambda(f, cfg)
    assert rep.converged and not rep.trivial
    assert rep.u_sup > 0.0 and np.abs(u.as_array()).max() > 0.0
    assert (rep.objective - rep.lower_bound) / rep.objective <= CHEAP_GAP
    assert any(q.ending == "sign" for q in rep.probes)
    assert rep.iterations <= most


# Bit-identity pins of minimize_flambda: SHA-256 of the C-order float64 bytes
# of u (stacked (d, ...)) and r, and report.iterations.  Each grid is
# (n, lo, hi, periodic); the data are seeded standard normals, mean-zero on
# tori, with lam = 10 / (2 TV(f)) for p = 2 and 1.5 ||f||_2 / TV(f) for p = 1.
# Re-taken when the root search stopped running tight solves far from the
# root, the 2-D pins again when the 2-D magnitude changed its rounding, all
# of them when the FISTA loop folded the spacing and the step into its
# stencils (same iterations both times), and the p = 2 pins when the search
# began to stop on a cheap probe that the weak-duality bound certifies and
# again when a cheap p = 2 solve began to stop once its gap decides the sign
# of its defect, and the p = 1 pins when p = 1 moved from the root search to
# the primal-dual solve; a change that keeps the iteration path must leave
# them unchanged.
PIN_GRIDS = {
    "torus1d": ((40,), -1.0, 1.0, True),
    "box2d": ((12, 12), -1.0, 1.0, False),
    "aniso2d": ((12, 16), (0.0, -1.0), (1.0, 2.0), (True, False)),
    "torus3d": ((8, 8, 8), -1.0, 1.0, True),
    "box3d": ((8, 6, 7), (0.0, 0.0, -1.0), (1.0, 0.5, 1.0), False),
}

SOLVER_PINS = {
    ("torus1d", 2): (
        "85313e41765fa21e64ece819251c75e798e8a90c618148de6a4f4d209dd36155",
        "142d3b7d95d32776cf94a536c85bf145f1a996fea774b08648990337382aa92f",
        800,
    ),
    ("torus1d", 1): (
        "f6560da8e6c95c1c1d3b5e823569faa1d173efb1315ab5791901b06eeeaf4d8e",
        "d6acae37e9f67d1391696ba54a0ffe95785bbcb58aae24f38c39bda125ea3740",
        50,
    ),
    ("box2d", 2): (
        "bc465028417ba4e58efce9fc921576f5666a326856ba07be3e484e0c7fee39e5",
        "18d057f49af5888f004a664374eef997d496b3bd7b701cd44e228e489eadeedf",
        950,
    ),
    ("box2d", 1): (
        "8ecb5ece570de4605bc4e942b0b07c98ef0cc44d5567f33683af5ea0260d1346",
        "6e73393feff1b3dcbf28207b0d2e754d314fd17f70fe8059e086ab4904661c4b",
        50,
    ),
    ("aniso2d", 2): (
        "2ed39fa8e9057de7a6e421648e8c33a7e4c129a11e6c85116dbe4e45c8557b49",
        "4e6809c95a026079522074138dfd36381decf11cac5557b2c7ab381e5e2fedae",
        1600,
    ),
    ("aniso2d", 1): (
        "6c6781ef7394f829035ca96b7c8ac693421fed47e4ad8c0a8c1bda923b718f5f",
        "8f71f8168549a91cabd28db177bf1a27ba19973290ec090b45e561713473fd56",
        50,
    ),
    ("torus3d", 2): (
        "f8a18ecd0028cdd5633d139c92946f1c44f18b79829db037fe2148a1178f5e97",
        "09a39335ba7ca749b03a9027e50c2b7c89f532c59ba4fd853ea563f75082ec96",
        750,
    ),
    ("torus3d", 1): (
        "2d5843a2bb8e024ad1d5ea855864da6240c516675f070fd4882ff6ae53760ddd",
        "1b2a162b14f1e0ed9f04cce219e3e78ec0e795b5fa2f91413e051b863bd7967e",
        100,
    ),
    ("box3d", 2): (
        "272e128d992e1e9fecd47d63ede85e2a954e941c3d8dbbec6a741e4242179161",
        "2c1fff835582c4726ad82e3e1783c82aeefbd6b15d0af69592a936e9d02c8740",
        750,
    ),
    ("box3d", 1): (
        "e1c85a8e351d7175c1f6766bb53cbafabbc27a6637c39e3fd37e7a9b99dd2c6e",
        "9425ec9c7c008c132529f730fc85b94b17af6c1d8feb62f8ee558dd7ed5fa815",
        50,
    ),
}


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("case", SOLVER_PINS, ids=lambda c: f"{c[0]}-p{c[1]}")
def test_minimize_bit_identity_pins(case):
    name, p = case
    n, lo, hi, periodic = PIN_GRIDS[name]
    grid = Grid(n, lo, hi, periodic=periodic)
    seed = 20 + list(PIN_GRIDS).index(name)
    f = ScalarField(grid, np.random.default_rng(seed).standard_normal(n))
    if all(grid.periodic):
        f = mean_zero(f)
    tv = tv_norm(f, "isotropic")
    lam = 10.0 / (2.0 * tv) if p == 2 else 1.5 * lp_norm(f, 2) / tv
    u, r, rep = minimize_flambda(f, VariationalConfig(lam=lam, p=p))
    assert rep.converged and not rep.trivial
    got = (_sha256(u.as_array()), _sha256(r.values), rep.iterations)
    assert got == SOLVER_PINS[case]


# Bit-identity pins of solves that start from the coarse level, which every
# SOLVER_PINS grid is too small for: SHA-256 of u and r, report.iterations,
# report.cell_iterations and the cell counts of the coarse levels, on the
# Nirenberg field of side n.  p = 2 runs `bench table1`'s solve at lam =
# 1/||f||_2 (a secant start at 50^2; at 100^2 the 50^2 level itself starts
# from 25^2; re-taken when a cheap p = 2 solve began to stop once its gap
# decides the sign of its defect).
COARSE_PINS = {
    (50, 2): (
        "81450b47af7632fcfb207b9be036ee482ee658761307bcaaec56c6728d06f071",
        "24926f65237cd434ee91dc9d97bc147a43b73fe8efcd235db2f516e1a9d3f1b1",
        1350, 4_843_750, {625},
    ),
    (100, 2): (
        "c2ad010a9965e2a69731f3b50ac71fcc7a8ba2fbb45f9c9f141c19c8c7e90a1c",
        "76c3213d20f4a83416454632e78f280dbb54d3dc6edcde8eaa4e55f3da52164e",
        2600, 30_781_250, {625, 2500},
    ),
}


@pytest.mark.parametrize("case", COARSE_PINS, ids=lambda c: f"nirenberg{c[0]}-p{c[1]}")
def test_minimize_coarse_start_pins(case):
    n, p = case
    f = nirenberg_field(n)
    cfg = VariationalConfig(lam=1.0 / lp_norm(f, 2), **TABLE1_SETTINGS)
    u, r, rep = minimize_flambda(f, cfg)
    assert rep.converged
    got = (_sha256(u.as_array()), _sha256(r.values), rep.iterations,
           rep.cell_iterations, {q.cells for q in rep.probes if q.cells < f.grid.size})
    assert got == COARSE_PINS[case]


def test_minimize_p1_nirenberg_pin():
    """Bit-identity pin of the p = 1 primal-dual solve on a grid larger than
    those of SOLVER_PINS: SHA-256 of u and r, report.iterations and
    report.cell_iterations on the 46^2 Nirenberg field at lam = 1, past the
    exact-penalty threshold (the case the root search left uncertified)."""
    f = nirenberg_field(46)
    u, r, rep = minimize_flambda(f, VariationalConfig(lam=1.0, p=1, max_iters=60_000))
    assert rep.converged and not rep.probes
    got = (_sha256(u.as_array()), _sha256(r.values), rep.iterations, rep.cell_iterations)
    assert got == (
        "3e2f87f7c77ed6a6ed9d6e3ded1fca2c82c90a961316d38fede2fa4006dcbe1e",
        "dc3dd12b1514c66a7c2353316f957c18175612207d73dee352ed809f8d83c5fd",
        16_050, 33_961_800,
    )


# (n, lo, hi, periodic) of d = 2 and 3 boxes, tori and mixed grids, several
# with anisotropic spacing
TV_GRIDS = {
    "box2d": ((12, 12), -1.0, 1.0, False),
    "torus2d": ((16, 16), -1.0, 1.0, True),
    "mixed2d": ((12, 16), (0.0, -1.0), (1.0, 2.0), (True, False)),
    "aniso2d": ((20, 9), 0.0, (3.0, 0.5), False),
    "aniso-torus2d": ((10, 24), 0.0, (0.5, 4.0), True),
    "box3d": ((8, 6, 7), (0.0, 0.0, -1.0), (1.0, 0.5, 1.0), False),
    "torus3d": ((8, 8, 8), -1.0, 1.0, True),
    "mixed3d": ((6, 9, 5), 0.0, (2.0, 1.0, 0.5), (False, True, True)),
}


@pytest.mark.parametrize("name", TV_GRIDS)
def test_solver_tv_is_tv_norm(name):
    """The TV(r) the inner solve checks its certificate and its duality gap
    with is norms.tv_norm of its residual, bit for bit: one magnitude
    formula for every d >= 2.  nu stays small so r = f - nu div w is O(1)."""
    n, lo, hi, periodic = TV_GRIDS[name]
    grid = Grid(n, lo, hi, periodic=periodic)
    rng = np.random.default_rng(list(TV_GRIDS).index(name))
    for _ in range(3):
        f = ScalarField(grid, rng.standard_normal(n))
        state = _DualState(f.values / lp_norm(f, 2), grid, 1.0)
        for nu in (0.005, 0.01, 0.02):
            state.solve(nu, 20, 0.0)
            want = tv_norm(ScalarField(grid, state.residual(nu)), "isotropic")
            assert state.tv_and_gap(nu)[0] == want


BUFFER_GRIDS = {
    **TV_GRIDS,
    "box1d": ((40,), -1.0, 1.0, False),
    "torus1d": ((33,), 0.0, 2.0, True),
}

# warm-started solves (nu, max_iters, gap_rel): odd and even iteration
# counts, none and one, a gap check passed before the cap, and two gap
# exits, one from each parity of the w/w_new swap; the second solve starts
# on the second swap buffer, with the first one stale, at a nu where the
# first restart test would read the stale buffer differently
BUFFER_SOLVES = (
    (0.01, 1, 0.0),
    (0.05, 37, 0.0),
    (0.02, 300, 1e-3),
    (0.05, 0, 0.0),
    (0.05, 63, 0.0),
    (0.03, 251, 1e-2),
    (0.03, 2, 0.0),
)


@pytest.mark.parametrize("name", BUFFER_GRIDS)
def test_bound_buffers_match_reference_loop(name):
    """Successive warm-started solves on one _DualState, whose w is one of
    the two swap buffers when the next solve starts, give bit for bit the
    iterates, TV and gap of the unbound reference loop."""
    n, lo, hi, periodic = BUFFER_GRIDS[name]
    grid = Grid(n, lo, hi, periodic=periodic)
    rng = np.random.default_rng(list(BUFFER_GRIDS).index(name))
    f = ScalarField(grid, rng.standard_normal(n))
    farr = f.values / lp_norm(f, 2)
    state = _DualState(farr, grid, 1.0)
    w = np.zeros((grid.d,) + grid.n)
    early = 0
    for nu, iters, gap_rel in BUFFER_SOLVES:
        got = state.solve(nu, iters, gap_rel)
        *want, w = fista_reference(farr, grid.h, grid.periodic, w, nu, iters,
                                   gap_rel, 1.0, CHECK_EVERY)
        assert got == tuple(want)
        assert state.w.tobytes() == w.tobytes()
        assert state.tv_and_gap(nu) == fista_tv_and_gap(
            farr, grid.h, grid.periodic, w, nu)
        early += got[2] and got[1] < iters
    assert early == 2


@pytest.mark.parametrize("name", BUFFER_GRIDS)
def test_folded_iterate_matches_unfolded_loop(name):
    """The unit-spacing iteration, with the spacing and the step folded into
    its constants, follows the loop that divides by h and scales the
    gradient by the step, up to rounding: after each of three warm-started
    solves (60 iterations in all, the gap checked at the end of each) the
    dual field is within 1e-10 of it, TV(r) within 1e-10 relative, and the
    iterations, gap verdicts and relative gaps agree."""
    n, lo, hi, periodic = BUFFER_GRIDS[name]
    grid = Grid(n, lo, hi, periodic=periodic)
    rng = np.random.default_rng(100 + list(BUFFER_GRIDS).index(name))
    f = ScalarField(grid, rng.standard_normal(n))
    farr = f.values / lp_norm(f, 2)
    state = _DualState(farr, grid, 1.0)
    w = np.zeros((grid.d,) + grid.n)
    for nu, iters in ((0.02, 25), (0.05, 30), (0.03, 5)):
        tv, ran, met, gap = state.solve(nu, iters, 0.0)
        want_tv, *want, w = fista_reference_unfolded(
            farr, grid.h, grid.periodic, w, nu, iters, 0.0, 1.0, CHECK_EVERY)
        assert (ran, met) == tuple(want[:2])
        assert abs(gap - want[2]) <= 1e-10
        assert tv == pytest.approx(want_tv, rel=1e-10)
        assert np.abs(state.w - w).max() <= 1e-10 * np.abs(w).max()


_BLAS_THREADS_SOLVE = """
import hashlib
import numpy as np
from bdiv.fields import Grid, ScalarField, mean_zero
from bdiv.norms import tv_norm
from bdiv.variational import VariationalConfig, minimize_flambda

grid = Grid((72, 72), -1.0, 1.0, periodic=True)
f = mean_zero(ScalarField(grid, np.random.default_rng(3).standard_normal(grid.n)))
cfg = VariationalConfig(lam=10.0 / (2.0 * tv_norm(f, "isotropic")),
                        max_iters=3000, inner_iters=1000)
u, _, rep = minimize_flambda(f, cfg)
print(hashlib.sha256(u.as_array().tobytes()).hexdigest(), rep.iterations)
"""


def test_restart_sign_independent_of_blas_threads():
    """The restart test's dot product goes to BLAS, which may split a dot
    product of more than 10,000 entries across threads; on a 72^2 torus the
    dual field has 10,368, and the solve must not depend on the split."""
    env = dict(os.environ, PYTHONPATH=str(Path(bdiv.__file__).parents[1]))
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SOLVE],
            env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                     MKL_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1]
    assert int(outs[0][1]) > 0


class TestTwoStep:
    def test_zero(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        u, rep = two_step(ScalarField.zeros(g))
        assert np.all(u.as_array() == 0.0)

    def test_exact_divergence_and_bound(self):
        f = nirenberg_field(50)
        u, rep = two_step(f)
        assert rep.converged
        div = discrete_divergence(u)
        assert np.abs(div.values - f.values).max() <= 1e-10 * np.abs(
            f.values
        ).max()
        ratio = sup_norm_vector(u) / lp_norm(f, 2)
        assert 0.05 < ratio < 1.0  # uniformly bounded, nontrivial

    def test_rejects_nonperiodic(self):
        f = random_field(0, 16)
        with pytest.raises(ValueError):
            two_step(f)

    def test_report_is_the_first_minimization(self):
        # every field describes the one solve at lam = 1/||f||_2, so the
        # report's objective and lower_bound keep its certified gap
        f = nirenberg_field(50)
        cfg = VariationalConfig(lam=1.0, **TABLE1_SETTINGS)
        rep = two_step(f, cfg)[1]
        assert rep == minimize_flambda(f, replace(cfg, lam=1.0 / lp_norm(f, 2)))[2]
        assert rep.converged
        assert rep.objective - rep.lower_bound <= CHEAP_GAP * rep.objective


class TestHierarchicalP2:
    def test_zero_data_empty_trace(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        u, trace = hierarchical_p2(ScalarField.zeros(g))
        assert trace.levels == []
        assert np.all(u.as_array() == 0.0)

    def test_telescoping_and_decay(self):
        f = torus_field(n=16, seed=11)
        fn = lp_norm(f, 2)
        u, trace = hierarchical_p2(f, HierarchyConfig())
        # the final residual equals f - div(sum of levels) by construction
        div = discrete_divergence(u)
        leftover = np.sqrt(
            np.sum((f.values - div.values) ** 2) * f.grid.cell_volume
        )
        assert leftover == pytest.approx(trace.levels[-1].r_norm, rel=1e-10)
        assert trace.levels[-1].r_norm <= 1e-3 * fn
        # certified per-level sup-norm decay from level 2 on
        eta_m = trace.eta_measured
        lam1 = trace.levels[0].lam
        for rec in trace.levels[2:]:
            bound = 8.0 * eta_m**2 / lam1 * 2.0 ** (-rec.level)
            assert rec.u_sup <= bound * (1 + 0.02)
        assert trace.levels[-1].cumulative_sup <= 4.0 * eta_m * fn

    def test_tiny_lam_stagnates_on_trivial_levels(self):
        # below the trivial threshold every level returns u = 0, r = f
        f = torus_field(n=16, seed=700)
        u, trace = hierarchical_p2(f, HierarchyConfig(lam=1e-6))
        assert [rec.ratio for rec in trace.levels] == [1.0, 1.0, 1.0]
        assert trace.stagnated and not trace.lambda_too_small
        assert np.all(u.as_array() == 0.0)

    def test_config_needs_a_level(self):
        with pytest.raises(ValueError, match="at least one level"):
            HierarchyConfig(max_levels=0)

    def test_certificates_per_level(self):
        f = torus_field(n=12, seed=12)
        u, trace = hierarchical_p2(f, HierarchyConfig())
        for rec in trace.levels:
            assert 2.0 * rec.lam * rec.r_tv <= 1.0 + 0.011

    def test_lam_skips_the_eta_estimate(self, monkeypatch):
        def boom(f):
            raise AssertionError("estimate_eta called with lam given")

        monkeypatch.setattr("bdiv.variational.estimate_eta", boom)
        f = torus_field(n=12, seed=12)
        u, trace = hierarchical_p2(f, HierarchyConfig(lam=2.0, max_levels=3))
        assert trace.eta_used is None
        assert [rec.lam for rec in trace.levels] == [2.0, 4.0, 8.0][:len(trace.levels)]

    def test_no_lam_doubles_twice_the_eta_estimate(self):
        f = torus_field(n=12, seed=12)
        u, trace = hierarchical_p2(f, HierarchyConfig(max_levels=2))
        lam1 = 2.0 * trace.eta_used / lp_norm(f, 2)
        assert trace.eta_used == estimate_eta(f)
        assert [rec.lam for rec in trace.levels] == [lam1, 2.0 * lam1][:len(trace.levels)]

    def test_eta_estimate_positive(self):
        f = torus_field(n=12, seed=13)
        eta = estimate_eta(f)
        assert eta > 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="disc data on the [-2,2]^2 box: the residual spreads to the "
        "low edges, which carry no flux, and the digital disc has 1.164 "
        "times the perimeter, so the continuum coefficient sequence "
        "(alpha - 1/(8 pi), then 1/(4 pi 2^j)) is not reproduced; see "
        "LEDGER.md, criterion 2",
    )
    def test_ball_coefficient_sequence(self):
        alpha = 32.0 * np.pi
        f = ball_field(alpha, 1.0, 64)
        u, trace = hierarchical_p2(
            f, HierarchyConfig(lam=2.0, max_levels=3, stop_residual=1e-9)
        )
        expect1 = (alpha - 1.0 / (8.0 * np.pi)) / 2.0
        assert trace.levels[0].u_sup == pytest.approx(expect1, rel=0.05)
        expect2 = 1.0 / (4.0 * np.pi * 4.0) / 2.0
        assert trace.levels[1].u_sup == pytest.approx(expect2, rel=0.05)


class TestHierarchicalP1:
    def test_zero_data(self):
        g = Grid((8, 8), -1.0, 1.0, periodic=True)
        u, trace = hierarchical_p1(ScalarField.zeros(g))
        assert trace.levels == []

    def test_contraction_at_safe_lambda(self):
        f = torus_field(n=16, seed=14)
        u, trace = hierarchical_p1(f, HierarchyConfig())
        gamma = sup_norm_vector(helmholtz_solve(f, strict_mean=False)) / lp_norm(f, 2)
        assert all(rec.lam == 4.0 * gamma for rec in trace.levels)
        assert not trace.lambda_too_small
        assert all(rec.ratio < 1.0 for rec in trace.levels)
        assert trace.levels[-1].r_norm <= 1e-3 * lp_norm(f, 2)

    def test_ball_residuals_strictly_decrease(self):
        f = ball_field(4.0, 1.0, 32)
        cfg = HierarchyConfig(lam=4.0, max_levels=6)
        u, trace = hierarchical_p1(f, cfg)
        norms_seq = [lp_norm(f, 2)] + [rec.r_norm for rec in trace.levels]
        assert all(b < a for a, b in zip(norms_seq, norms_seq[1:]))

    def test_geometric_chain_when_contracting(self):
        f = torus_field(n=12, seed=15)
        fn = lp_norm(f, 2)
        # walk lambda down until the first level contracts mildly, then the
        # whole chain stays under the same per-level rate
        gamma = sup_norm_vector(helmholtz_solve(f)) / fn
        for lam in (2.0 * gamma, 1.5 * gamma, 1.2 * gamma):
            cfg = HierarchyConfig(lam=lam, max_levels=8)
            u, trace = hierarchical_p1(f, cfg)
            first = trace.levels[0].ratio
            if 0.2 <= first <= 0.58:
                rate = max(first + 0.02, 0.6)
                for j, rec in enumerate(trace.levels, start=1):
                    assert rec.r_norm <= rate**j * fn * (1 + 1e-9)
                break

    def test_tiny_lambda_flags(self):
        f = torus_field(n=12, seed=16)
        cfg = HierarchyConfig(lam=4e-4, max_levels=8)
        u, trace = hierarchical_p1(f, cfg)
        assert trace.lambda_too_small

    def test_nonperiodic_needs_gamma(self):
        f = random_field(17, 12)
        with pytest.raises(ValueError, match="lam is required"):
            hierarchical_p1(f, HierarchyConfig())

    def test_lam_given_runs_on_a_box_without_gamma(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("Helmholtz probe run with lam given")

        monkeypatch.setattr("bdiv.variational.helmholtz_solve", boom)
        f = random_field(17, 16)
        u, trace = hierarchical_p1(f, HierarchyConfig(lam=5.0, max_levels=4))
        assert trace.levels and all(rec.lam == 5.0 for rec in trace.levels)
        assert not trace.lambda_too_small
        r = ScalarField(f.grid, f.values - discrete_divergence(u).values)
        assert lp_norm(r, 2) == pytest.approx(trace.levels[-1].r_norm, rel=1e-10)
