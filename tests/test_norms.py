import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdiv.fields import Grid, ScalarField
from bdiv.norms import (
    NormKind,
    component_sup_norms,
    lorentz_norm,
    lp_norm,
    morrey_norm,
    sup_norm_vector,
    tv_norm,
    weak_lp_setnorm,
)
from bdiv.fields import VectorField
from bdiv.examples import random_field, tatar_pair

from oracles import ball_sums_morrey, exhaustive_weak_setnorm


def rand_field(n=(6, 6), seed=0, lo=-1.0, hi=1.0, scale=1.0):
    grid = Grid(n, lo, hi)
    rng = np.random.default_rng(seed)
    return ScalarField(grid, scale * rng.standard_normal(grid.n))


def oracle_morrey(f):
    """ball_sums_morrey over the centres and radii morrey_norm searches."""
    grid = f.grid
    coords = np.stack([c.ravel() for c in grid.meshgrid()], axis=1)
    rstep = min(grid.h)
    rmax = float(np.linalg.norm(np.asarray(grid.hi) - np.asarray(grid.lo)))
    radii = rstep * np.arange(1, int(np.ceil(rmax / rstep)) + 2)
    return ball_sums_morrey(
        coords, np.abs(f.values).ravel(), radii, grid.d, grid.cell_volume
    )


class TestLp:
    def test_unit_mass(self):
        g = Grid((7, 9), 0.0, 1.0)
        assert lp_norm(ScalarField(g, np.ones(g.n)), 2) == pytest.approx(1.0)
        assert lp_norm(ScalarField(g, np.ones(g.n)), 3) == pytest.approx(1.0)

    def test_zero(self):
        g = Grid((4, 4), 0.0, 1.0)
        assert lp_norm(ScalarField.zeros(g), 2) == 0.0

    def test_matches_naive_sum(self):
        f = rand_field(seed=3)
        vol = f.grid.cell_volume
        expect = (sum(abs(v) ** 3 for v in f.values.ravel()) * vol) ** (1 / 3)
        assert lp_norm(f, 3) == pytest.approx(expect, rel=1e-13)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(rand_field(), 0.5)

    def test_sup_norm(self):
        f = rand_field(seed=1)
        assert lp_norm(f, np.inf) == np.abs(f.values).max()


class TestLorentz:
    def test_diagonal_equals_lp(self):
        for p in (1.0, 2.0, 3.0):
            f = rand_field(seed=4)
            assert lorentz_norm(f, p, p) == pytest.approx(
                lp_norm(f, p), rel=1e-12
            )

    def test_indicator_closed_form(self):
        g = Grid((8, 8), 0.0, 1.0)
        vals = np.zeros(g.n)
        vals.ravel()[:10] = 1.0
        f = ScalarField(g, vals)
        m = 10 * g.cell_volume
        for p, q in ((2.0, 1.0), (3.0, 2.0), (2.0, 4.0)):
            expect = (p / q) ** (1 / q) * m ** (1 / p)
            assert lorentz_norm(f, p, q) == pytest.approx(expect, rel=1e-12)

    def test_zero(self):
        g = Grid((4, 4), 0.0, 1.0)
        assert lorentz_norm(ScalarField.zeros(g), 2, 1) == 0.0

    def test_rejects_infinite_q(self):
        with pytest.raises(ValueError):
            lorentz_norm(rand_field(), 2, np.inf)


class TestWeakSetNorm:
    def test_indicator(self):
        g = Grid((8, 8), 0.0, 1.0)
        vals = np.zeros(g.n)
        vals.ravel()[:7] = 1.0
        f = ScalarField(g, vals)
        m = 7 * g.cell_volume
        # the supremum over nested super-level sets peaks at E itself
        for p in (1.5, 2.0, 3.0):
            assert weak_lp_setnorm(f, p) == pytest.approx(m ** (1 / p), rel=1e-12)

    def test_zero(self):
        g = Grid((4, 4), 0.0, 1.0)
        assert weak_lp_setnorm(ScalarField.zeros(g), 2) == 0.0

    def test_exhaustive_subsets_4x4(self):
        for seed in range(4):
            f = rand_field(n=(4, 4), seed=seed)
            expect = exhaustive_weak_setnorm(f.values, 2.0, f.grid.cell_volume)
            assert weak_lp_setnorm(f, 2.0) == pytest.approx(expect, rel=1e-13)

    def test_rejects_p_one(self):
        with pytest.raises(ValueError):
            weak_lp_setnorm(rand_field(), 1.0)


class TestMorrey:
    def test_zero(self):
        g = Grid((5, 5), 0.0, 1.0)
        assert morrey_norm(ScalarField.zeros(g)) == 0.0

    def test_single_cell(self):
        g = Grid((6, 6), 0.0, 1.0)
        vals = np.zeros(g.n)
        vals[2, 3] = 1.0
        f = ScalarField(g, vals)
        # R^{1-d} * vol decreases in R, so the smallest radius wins
        expect = min(g.h) ** (1 - 2) * g.cell_volume
        assert morrey_norm(f) == pytest.approx(expect, rel=1e-12)

    def test_matches_enumeration(self):
        for seed, n in ((0, (5, 4)), (1, (3, 3, 3))):
            f = rand_field(n=n, seed=seed)
            assert morrey_norm(f) == pytest.approx(oracle_morrey(f), rel=1e-12)

    def test_boundary_ties_follow_the_oracle(self):
        # cell centres at distance exactly k*h from a centre, on axis or on
        # Pythagorean offsets: the float test decides them by rounding, and
        # exact integer membership misses the oracle by 15% to 41% here
        unit = Grid((12, 12), 0.0, 1.0)
        fields = [
            random_field(3, 12, law="spikes"),
            random_field(14, 12, law="spikes"),
            rand_field(n=(3, 3, 3), seed=1),
            ScalarField(unit, random_field(1, 12, law="spikes").values),
        ]
        for f in fields:
            assert morrey_norm(f) == pytest.approx(oracle_morrey(f), rel=1e-12)


BOXES = [(0.0, 1.0), (-1.0, 1.0), (-2.0, 2.0)]


@st.composite
def morrey_fields(draw):
    d = draw(st.integers(1, 3))
    # the oracle visits cells x centres x radii, so 3-D grids stay small
    n = draw(st.tuples(*[st.integers(2, 9 if d < 3 else 5)] * d))
    box = draw(st.tuples(*[st.sampled_from(BOXES)] * d))
    periodic = draw(st.tuples(*[st.booleans()] * d))
    grid = Grid(n, [b[0] for b in box], [b[1] for b in box], periodic=periodic)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ScalarField(grid, rng.standard_normal(grid.n))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(f=morrey_fields())
def test_morrey_matches_oracle(f):
    # anisotropic spacing from mixed boxes and counts; on periodic axes the
    # balls stay Euclidean and do not wrap
    assert morrey_norm(f) == pytest.approx(oracle_morrey(f), rel=1e-12)


class TestTV:
    def test_constant_vanishes(self):
        g = Grid((6, 6), 0.0, 1.0, periodic=True)
        f = ScalarField(g, np.full(g.n, 4.2))
        assert tv_norm(f, "isotropic") == 0.0
        assert tv_norm(f, "anisotropic") == 0.0

    def test_rectangle_perimeter(self):
        g = Grid((20, 20), 0.0, 1.0)
        x, y = g.meshgrid()
        a, b = 0.35, 0.25  # side lengths aligned to the h = 0.05 lattice
        inside = (
            (x > 0.25) & (x < 0.25 + a) & (y > 0.3) & (y < 0.3 + b)
        )
        f = ScalarField(g, inside.astype(float))
        assert tv_norm(f, "anisotropic") == pytest.approx(2 * (a + b), rel=1e-12)

    def test_iso_aniso_equivalence(self):
        f = rand_field(seed=9)
        iso = tv_norm(f, "isotropic")
        aniso = tv_norm(f, "anisotropic")
        assert iso <= aniso * (1 + 1e-12)
        assert aniso <= np.sqrt(2) * iso * (1 + 1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            tv_norm(rand_field(), "diagonal")

    def test_coarea_integer_torus(self):
        g = Grid((9, 7), -1.0, 1.0, periodic=True)
        rng = np.random.default_rng(12)
        vals = rng.integers(-3, 5, size=g.n).astype(float)
        f = ScalarField(g, vals)
        total = tv_norm(f, "anisotropic")
        parts = sum(
            tv_norm(ScalarField(g, (vals > t).astype(float)), "anisotropic")
            for t in range(int(vals.min()), int(vals.max()))
        )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_coarea_nonnegative_box(self):
        g = Grid((8, 8), 0.0, 1.0)
        rng = np.random.default_rng(13)
        vals = rng.integers(0, 5, size=g.n).astype(float)
        f = ScalarField(g, vals)
        total = tv_norm(f, "anisotropic")
        parts = sum(
            tv_norm(ScalarField(g, (vals > t).astype(float)), "anisotropic")
            for t in range(0, int(vals.max()))
        )
        assert total == pytest.approx(parts, rel=1e-12)


class TestVectorNorms:
    def test_sup_norm_is_pointwise_magnitude(self):
        g = Grid((4, 4), 0.0, 1.0)
        a = np.zeros(g.n)
        b = np.zeros(g.n)
        a[1, 1] = 3.0
        b[1, 1] = 4.0
        v = VectorField.from_arrays(g, [a, b])
        assert sup_norm_vector(v) == pytest.approx(5.0)
        assert component_sup_norms(v) == (3.0, 4.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 5000), c=st.floats(0.01, 100.0))
def test_homogeneity_all_kinds(seed, c):
    f = rand_field(n=(5, 5), seed=seed)
    scaled = ScalarField(f.grid, c * f.values)
    kinds = [
        lambda x: lp_norm(x, 2),
        lambda x: lp_norm(x, np.inf),
        lambda x: lorentz_norm(x, 2, 1),
        lambda x: weak_lp_setnorm(x, 2),
        lambda x: morrey_norm(x),
        lambda x: tv_norm(x, "isotropic"),
        lambda x: tv_norm(x, "anisotropic"),
    ]
    for norm in kinds:
        assert norm(scaled) == pytest.approx(c * norm(f), rel=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 5000))
def test_monotonicity_all_kinds(seed):
    rng = np.random.default_rng(seed)
    g = Grid((5, 5), 0.0, 1.0)
    small = rng.standard_normal(g.n)
    big = small * (1.0 + rng.uniform(0.0, 2.0, size=g.n))
    fs, fb = ScalarField(g, small), ScalarField(g, big)
    kinds = [
        lambda x: lp_norm(x, 2),
        lambda x: lorentz_norm(x, 2, 1),
        lambda x: weak_lp_setnorm(x, 2),
        lambda x: morrey_norm(x),
    ]
    for norm in kinds:
        assert norm(fs) <= norm(fb) * (1 + 1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 5000))
def test_weak_setnorm_below_lp(seed):
    f = rand_field(n=(6, 6), seed=seed)
    assert weak_lp_setnorm(f, 2) <= lp_norm(f, 2) * (1 + 1e-12)


class TestNormKind:
    def test_parse_and_evaluate(self):
        f = rand_field(seed=10)
        assert NormKind.parse("lp:2").evaluate(f) == lp_norm(f, 2)
        assert NormKind.parse("lorentz:2:1").evaluate(f) == lorentz_norm(f, 2, 1)
        assert NormKind.parse("weak:2").evaluate(f) == weak_lp_setnorm(f, 2)
        assert NormKind.parse("tv:anisotropic").evaluate(f) == tv_norm(
            f, "anisotropic"
        )
        assert NormKind.parse("linf").evaluate(f) == lp_norm(f, np.inf)

    def test_parse_rejects_unknown(self):
        for spec in ("sobolev:1", "bogus", "lp", "lorentz:2"):
            with pytest.raises(ValueError):
                NormKind.parse(spec)

    def test_parse_rejects_out_of_range(self):
        for spec in ("tv:bogus", "lp:0.5", "weak:1", "lorentz:2:0.5",
                     "lorentz:2:inf", "lorentz:0.5:1", "lp:nan", "weak:nan"):
            with pytest.raises(ValueError):
                NormKind.parse(spec)


def test_lorentz_q_messages():
    f = rand_field(seed=4)
    with pytest.raises(ValueError, match="need 1 <= q < inf, got q=0.5"):
        lorentz_norm(f, 2, 0.5)
    with pytest.raises(ValueError, match="q = inf is not a Lorentz integral"):
        lorentz_norm(f, 2, np.inf)


class TestSetNormSlopes:
    """Signed one-sided difference quotients of the weak-L2 set norm along
    the dyadic pair; the measured values match the closed forms of the
    truncated pair, which is the content of the non-differentiability
    example."""

    def test_measured_slopes_match_prediction(self):
        levels, n = 10, 2**14
        f, g = tatar_pair(2.0, levels, n)
        base = weak_lp_setnorm(f, 2.0)
        rho = 2.0 ** (-0.5)
        # along +g the whole line (0,1) is the optimizing prefix: int_0^1 g
        alpha_plus = (1.0 - rho**levels) / (2.0 * (1.0 + rho))
        # along -g (even levels) the finest block alone gives 1/2
        alpha_minus = 0.5
        for k in (4, 6, 8):
            eps = 2.0**-k
            pert = ScalarField(f.grid, f.values + eps * g.values)
            quot = (weak_lp_setnorm(pert, 2.0) - base) / eps
            assert quot == pytest.approx(alpha_plus, abs=0.02)
        for k in (5, 7):
            eps = 2.0**-k
            pert = ScalarField(f.grid, f.values - eps * g.values)
            quot = (weak_lp_setnorm(pert, 2.0) - base) / eps
            assert quot == pytest.approx(alpha_minus, abs=0.02)
