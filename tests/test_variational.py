import hashlib

import numpy as np
import pytest

from bdiv.examples import ball_field, nirenberg_field, random_field
from bdiv.fields import (
    Grid,
    ScalarField,
    discrete_divergence,
    inner,
    mean_zero,
    sample_function,
)
from bdiv.norms import lp_norm, sup_norm_vector, tv_norm
from bdiv.variational import (
    HierarchyConfig,
    VariationalConfig,
    estimate_eta,
    helmholtz_solve,
    hierarchical_p1,
    hierarchical_p2,
    minimize_flambda,
    two_step,
)


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
        f = sample_function(g, lambda x, y: np.sin(np.pi * x))
        u = helmholtz_solve(f)
        div = discrete_divergence(u)
        assert np.abs(div.values - f.values).max() <= 1e-12
        assert np.abs(u.components[1].values).max() <= 1e-12
        # the first component is a cosine profile up to the symbol factor
        continuum = helmholtz_solve(f, mode="continuum")
        expect = sample_function(
            g, lambda x, y: -np.cos(np.pi * x) / np.pi
        )
        assert np.abs(
            continuum.components[0].values - expect.values
        ).max() <= 1e-10

    def test_random_round_trip(self):
        for seed in range(3):
            f = torus_field(seed=seed)
            u = helmholtz_solve(f)
            div = discrete_divergence(u)
            assert np.abs(div.values - f.values).max() <= 1e-10 * np.abs(
                f.values
            ).max()

    def test_round_trip_1d_3d(self):
        for shape in ((32,), (8, 8, 8)):
            g = Grid(shape, -1.0, 1.0, periodic=True)
            rng = np.random.default_rng(5)
            f = mean_zero(ScalarField(g, rng.standard_normal(shape)))
            u = helmholtz_solve(f)
            div = discrete_divergence(u)
            assert np.abs(div.values - f.values).max() <= 1e-10 * np.abs(
                f.values
            ).max()

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


class TestMinimize:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            VariationalConfig(lam=-1.0)
        with pytest.raises(ValueError):
            VariationalConfig(lam=1.0, p=3)

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

    def test_reported_history_monotone(self):
        f = torus_field(seed=5)
        lam = 50.0 / (2.0 * tv_norm(f, "isotropic"))
        _, _, rep = minimize_flambda(f, VariationalConfig(lam=lam))
        hist = rep.objective_history
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))

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
            cfg = VariationalConfig(lam=lam, p=p, max_iters=120, check_every=50)
            u, r, rep = minimize_flambda(f, cfg)
            assert not rep.trivial
            assert rep.iterations <= cfg.max_iters
            assert rep.objective <= lam * lp_norm(f, 2) ** p * (1 + 1e-12)
            div = discrete_divergence(u)
            assert np.abs(div.values + r.values - f.values).max() <= 1e-12


# Bit-identity pins of minimize_flambda: SHA-256 of the C-order float64 bytes
# of u (stacked (d, ...)) and r, and report.iterations.  Each grid is
# (n, lo, hi, periodic); the data are seeded standard normals, mean-zero on
# tori, with lam = 10 / (2 TV(f)) for p = 2 and 1.5 ||f||_2 / TV(f) for p = 1.
# Taken before the stencils moved to index tuples and the FISTA loop stopped
# allocating; a speed-up of either must leave them unchanged.
PIN_GRIDS = {
    "torus1d": ((40,), -1.0, 1.0, True),
    "box2d": ((12, 12), -1.0, 1.0, False),
    "aniso2d": ((12, 16), (0.0, -1.0), (1.0, 2.0), (True, False)),
    "torus3d": ((8, 8, 8), -1.0, 1.0, True),
    "box3d": ((8, 6, 7), (0.0, 0.0, -1.0), (1.0, 0.5, 1.0), False),
}

SOLVER_PINS = {
    ("torus1d", 2): (
        "b08c1aa4a307c6fecaa473617437b93ba35a04604407e3b58ee57e5bf34d1d22",
        "988d9622210fd2ff7d3955badf5b5710e22d61df1d65fb53aa07426964cba3e9",
        1250,
    ),
    ("torus1d", 1): (
        "1d312dbe24c1920a396210b54231f68c83d1a48ad8fbb4619f5c9fa7c3eb1e69",
        "b76ddecf37df202a050faee48577c5e9b80f56bb2d6849d7dbd93155ef1d6431",
        1300,
    ),
    ("box2d", 2): (
        "b51ab9d9b920d6f5f07351ede40ab2619129a3d8f43d6e72aaf88c5bf06ac42f",
        "39d6a60711f10d91c7ec9043786cee24e12e546093c94006f932c48bbd7734cb",
        4750,
    ),
    ("box2d", 1): (
        "48634ae5ca63ece729ab4de1bca5991b4ea726ac3c4d61712d800eae84f1e579",
        "2b5381628bae19c84781727c741258152cb4e7929e73a0d5dd3a03930b3a28fd",
        2150,
    ),
    ("aniso2d", 2): (
        "dc7235986b016dd881179e25196895d621f4164c60fa6907dd751417335feed5",
        "27164927074ae0c43930f5c2c5be8cc4f377c017fab0762d40ca7f5c6e4fb78b",
        3850,
    ),
    ("aniso2d", 1): (
        "f812346533f238ed0e4df7d506e56d58c784f4695074d8c8cac185a5ff994d6f",
        "166899dc47b18edc0e7054f25322d4a123ee28d9db3e7e611aa87a67b04736f8",
        8000,
    ),
    ("torus3d", 2): (
        "ca5b040b96114787f0392cd599d94d82fb87f83be27a6435253a3624fd7a18f6",
        "5c68d41006e984408f5c59d9e5b007c870a8ecd3d96a3c9e78ed75cced408c55",
        2050,
    ),
    ("torus3d", 1): (
        "234ee59f799eb94c6fb29e06cc86a778852ad3c6e0de79b23bc4823f13c5ecb8",
        "699f8c92040ecd0fec155bedd80a6f2fa13084aa1b86b18a81a436b82fcee645",
        4300,
    ),
    ("box3d", 2): (
        "6fa9b477ef0a5f7dcef0aead3cd8fef186e3092d3f4303a181bd00d771f34688",
        "e3a7492c0e6772bf4fc7004f425247ad1fcec6e1683f26ba3d5fffa387981dab",
        7400,
    ),
    ("box3d", 1): (
        "2f4df1a0c2c42353c33c31b34f303570d921bb4234c30f52da6ca61a30acb085",
        "2f2c68d22a529a630cf3edaaec83429c090af911c00135393ee5eab5107532f6",
        1750,
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

    def test_certificates_per_level(self):
        f = torus_field(n=12, seed=12)
        u, trace = hierarchical_p2(f, HierarchyConfig())
        for rec in trace.levels:
            assert 2.0 * rec.lam * rec.r_tv <= 1.0 + 0.011

    def test_eta_estimate_positive(self):
        f = torus_field(n=12, seed=13)
        eta = estimate_eta(f, HierarchyConfig())
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
            f, HierarchyConfig(lambda1=2.0, max_levels=3, stop_residual=1e-9)
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
        assert not trace.lambda_too_small
        assert all(rec.ratio < 1.0 for rec in trace.levels)
        assert trace.levels[-1].r_norm <= 1e-3 * lp_norm(f, 2)

    def test_ball_residuals_strictly_decrease(self):
        f = ball_field(4.0, 1.0, 32)
        cfg = HierarchyConfig(gamma_assumed=1.0, max_levels=6)
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
            cfg = HierarchyConfig(gamma_assumed=gamma, lam=lam, max_levels=8)
            u, trace = hierarchical_p1(f, cfg)
            first = trace.levels[0].ratio
            if 0.2 <= first <= 0.58:
                rate = max(first + 0.02, 0.6)
                for j, rec in enumerate(trace.levels, start=1):
                    assert rec.r_norm <= rate**j * fn * (1 + 1e-9)
                break

    def test_tiny_lambda_flags(self):
        f = torus_field(n=12, seed=16)
        cfg = HierarchyConfig(gamma_assumed=1e-4, max_levels=8)
        u, trace = hierarchical_p1(f, cfg)
        assert trace.lambda_too_small

    def test_nonperiodic_needs_gamma(self):
        f = random_field(17, 12)
        with pytest.raises(ValueError):
            hierarchical_p1(f, HierarchyConfig())
