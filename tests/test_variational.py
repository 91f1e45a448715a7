import hashlib
import os
import subprocess
import sys
from collections import Counter
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
    sample_function,
)
from bdiv.norms import lp_norm, sup_norm_vector, tv_norm
from bdiv.variational import (
    CHECK_EVERY,
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
from oracles import fista_reference, fista_tv_and_gap


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

    def test_reported_objective_is_the_best_feasible_probe(self):
        f = torus_field(seed=5)
        lam = 50.0 / (2.0 * tv_norm(f, "isotropic"))
        cfg = VariationalConfig(lam=lam)
        _, _, rep = minimize_flambda(f, cfg)
        band = 0.5 * cfg.tol_residual
        feasible = [q for q in rep.probes
                    if q.defect <= 0 or abs(q.defect) <= band * q.scale]
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
    cfg = VariationalConfig(
        lam=1.0 / lp_norm(f, 2), tol_objective=1e-6, tol_residual=0.02,
        inner_iters=4000,
    )
    _, _, rep = minimize_flambda(f, cfg)
    assert rep.converged
    target = 1.0 / (2.0 * cfg.lam * lp_norm(f, 2))  # TV(r) at the root
    band = 0.5 * cfg.tol_residual
    probes = rep.probes
    tight = [q for q in probes if q.gap == cfg.tol_objective]
    for i, q in enumerate(probes):
        if q.gap != cfg.tol_objective:
            continue
        # exactly one cheap solve at this nu, run just before, near the root
        cheap = [c for c in probes if c.nu == q.nu and c.gap == 1e-4]
        assert cheap == [probes[i - 1]]
        assert abs(cheap[0].defect) <= 2.0 * band * target  # defect = TV - target
    assert max(Counter(q.nu for q in tight).values()) == 1
    assert sum(q.iterations for q in probes) == rep.iterations
    assert rep.iterations <= 9550
    # the final tight solve stops at the inner_iters cap
    assert tight[-1].iterations == cfg.inner_iters and not tight[-1].gap_met
    assert not rep.gap_met


# Bit-identity pins of minimize_flambda: SHA-256 of the C-order float64 bytes
# of u (stacked (d, ...)) and r, and report.iterations.  Each grid is
# (n, lo, hi, periodic); the data are seeded standard normals, mean-zero on
# tori, with lam = 10 / (2 TV(f)) for p = 2 and 1.5 ||f||_2 / TV(f) for p = 1.
# Re-taken when the root search stopped running tight solves far from the
# root, and the 2-D pins again when the 2-D magnitude changed its rounding
# (same iterations); a change that keeps the iteration path must leave them
# unchanged.
PIN_GRIDS = {
    "torus1d": ((40,), -1.0, 1.0, True),
    "box2d": ((12, 12), -1.0, 1.0, False),
    "aniso2d": ((12, 16), (0.0, -1.0), (1.0, 2.0), (True, False)),
    "torus3d": ((8, 8, 8), -1.0, 1.0, True),
    "box3d": ((8, 6, 7), (0.0, 0.0, -1.0), (1.0, 0.5, 1.0), False),
}

SOLVER_PINS = {
    ("torus1d", 2): (
        "9fa2daf7afbe4924eeff86e81a32002e7da1f5b0fd9aacca35fe32dce83687ec",
        "0c55d730eb503b291fb4c3493d447646f815d2f70460ff313c1bd731f4406411",
        1000,
    ),
    ("torus1d", 1): (
        "4e3df52b1aded8478fd96f1cd4ea92693bb4d9d9fd312906e6993fddb3684a18",
        "62dffbc701aac25ee024c32e5a721667c90dbc1107615c73a0a117baf55d224d",
        1100,
    ),
    ("box2d", 2): (
        "0e1d3e3c1b4c3dc130de34bfa4b5b64a0f25bc6ccca49128332388af66f37edf",
        "086fe8e1da38054a8bc973d3eab1655caa5f1a8a9b18e292b417626161ad44b6",
        2050,
    ),
    ("box2d", 1): (
        "3f697107fc719c8a4691427e3b20574e2f7f6c2f58aa1ee66b629bf02a844a97",
        "406f22cb84762299087b61ba62a9d92d0dbff1374dacd6ab61657861798aa71b",
        1650,
    ),
    ("aniso2d", 2): (
        "5c74099e9633912cb61b4396dc209439f9be84b7f0e87a1f944dbc201a747d77",
        "259666540b922bd6797f5665b7a9f5ad019d65b269677385c1818562b3f8a0f1",
        3550,
    ),
    ("aniso2d", 1): (
        "e2dadddfb6ebedb5ccaed5f592072eae8eef54d5d11306642fba84a27d797406",
        "903187bb2e8f380f50554498ed5e547ac39fb579ae9c17202baee359b25dd9c8",
        7500,
    ),
    ("torus3d", 2): (
        "79e3a703c4441c6b848b5591d02f4d17c651a82f49caa6a9d06b74fff2f6788e",
        "521c493a8fa3312f962afbb82909e94ceef330357b030518fa94cc18ea8ebc44",
        1250,
    ),
    ("torus3d", 1): (
        "a99c1519150f391edc4ab5f3e9118805fdffaad25280c0e62efdaeb678b9ce06",
        "7710279a109a670ecbc9a98690c4fd6b71f695c9f78c3e0b102dde579d5af033",
        1350,
    ),
    ("box3d", 2): (
        "f28ccce0a5453e48ad97ae1c3c711289baa387f1519a3fd22dc921f795ce3470",
        "e11862bac0dec2dcea3bae6e06f2a2adc6953104327d1be16b190c7af2e291a6",
        4450,
    ),
    ("box3d", 1): (
        "8d93d24f800dcfb11c5238c8cf747943d64b7d704fe09f7ec1f58844ed83bf16",
        "f6312643410e19203205cd8eb16e0ad02b9a76e4a980430c2a6d83e76b5de0e4",
        1650,
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
        state = _DualState(f.values / lp_norm(f, 2), grid)
        for nu in (0.005, 0.01, 0.02):
            state.solve(nu, 20, 0.0, 1.0)
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
    state = _DualState(farr, grid)
    w = np.zeros((grid.d,) + grid.n)
    early = 0
    for nu, iters, gap_rel in BUFFER_SOLVES:
        got = state.solve(nu, iters, gap_rel, 1.0)
        *want, w = fista_reference(farr, grid.h, grid.periodic, w, nu, iters,
                                   gap_rel, 1.0, CHECK_EVERY)
        assert got == tuple(want)
        assert state.w.tobytes() == w.tobytes()
        assert state.tv_and_gap(nu) == fista_tv_and_gap(
            farr, grid.h, grid.periodic, w, nu)
        early += got[2] and got[1] < iters
    assert early == 2


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
