import numpy as np
import pytest

from bdiv.examples import (
    ball_field,
    nirenberg_field,
    nirenberg_potential,
    random_field,
    tatar_pair,
)
from bdiv.fields import integrate
from bdiv.norms import lp_norm, tv_norm, weak_lp_setnorm

from oracles import rectangle_face_count


class TestNirenberg:
    def test_odd_in_first_coordinate(self):
        f = nirenberg_field(40)
        flipped = -f.values[::-1, :]
        assert np.abs(f.values - flipped).max() <= 1e-12 * np.abs(f.values).max()

    def test_mean_zero(self):
        f = nirenberg_field(32)
        assert abs(f.values.sum() / f.grid.size) <= 1e-12

    def test_l2_norm_grid_trend(self):
        norms = [lp_norm(nirenberg_field(n), 2) for n in (50, 100, 200, 400)]
        assert all(np.isfinite(norms))
        gaps = [abs(b - a) for a, b in zip(norms, norms[1:])]
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_potential_vanishes_outside_disc(self):
        v = nirenberg_potential(48)
        x1, x2 = v.grid.meshgrid()
        outside = x1 * x1 + x2 * x2 >= 1.0
        assert np.all(v.values[outside] == 0.0)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            nirenberg_field(8)


class TestBall:
    def test_zero_amplitude(self):
        f = ball_field(0.0, 1.0, 32)
        assert np.all(f.values == 0.0)

    def test_integral_close_to_disc_area(self):
        alpha, R, n = 3.0, 1.0, 64
        f = ball_field(alpha, R, n)
        h = f.grid.h[0]
        assert integrate(f) == pytest.approx(
            alpha * np.pi * R**2, abs=alpha * 2 * np.pi * R * h
        )

    def test_anisotropic_tv_counts_faces(self):
        f = ball_field(1.0, 1.0, 48)
        mask = f.values > 0.0
        h = f.grid.h[0]
        expect = rectangle_face_count(mask) * h
        assert tv_norm(f, "anisotropic") == pytest.approx(expect, rel=1e-12)

    def test_membership_is_center_in_ball(self):
        f = ball_field(1.0, 1.0, 16)
        x1, x2 = f.grid.meshgrid()
        inside = x1 * x1 + x2 * x2 <= 1.0
        assert np.array_equal(f.values > 0.0, inside)

    def test_radius_must_fit(self):
        with pytest.raises(ValueError):
            ball_field(1.0, 3.0, 32, half_width=2.0)


class TestTatarPair:
    def test_domination(self):
        f, g = tatar_pair(2.0, 8, 4096)
        assert np.all(np.abs(g.values) <= f.values + 1e-12)

    def test_block_integrals_exact(self):
        p, levels, n = 2.0, 8, 4096
        f, g = tatar_pair(p, levels, n)
        x = g.grid.axis_centers(0)
        h = g.grid.h[0]
        for k in range(levels):
            in_block = (x > 2.0 ** -(k + 1)) & (x < 2.0**-k)
            block_sum = g.values[in_block].sum() * h
            expect = (-1.0) ** k * 2.0 ** (k / p) * 2.0 ** -(k + 1)
            assert block_sum == pytest.approx(expect, rel=1e-12)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            tatar_pair(2.0, 10, 1024)
        with pytest.raises(ValueError):
            tatar_pair(2.0, 3, 4096)

    def test_prefixes_attain_weak_norm(self):
        for p in (2.0, 3.0):
            f, _ = tatar_pair(p, 8, 4096)
            q = p / (p - 1.0)
            assert weak_lp_setnorm(f, p) == pytest.approx(q, abs=1e-12)
            h = f.grid.h[0]
            t = h * np.arange(1, f.grid.n[0] + 1)
            prefix = np.cumsum(f.values) * h * t ** (-1.0 / q)
            np.testing.assert_allclose(prefix, q, rtol=0.0, atol=1e-12)

    def test_rejects_p_at_most_one(self):
        for p in (1.0, 0.5):
            with pytest.raises(ValueError):
                tatar_pair(p, 8, 4096)

    def test_truncation_below_finest_level(self):
        _, g = tatar_pair(2.0, 5, 1024)
        x = g.grid.axis_centers(0)
        assert np.all(g.values[x < 2.0**-5] == 0.0)


class TestRandomField:
    def test_same_seed_identical(self):
        a = random_field(42, 16)
        b = random_field(42, 16)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = random_field(1, 16)
        b = random_field(2, 16)
        assert not np.array_equal(a.values, b.values)

    def test_spikes_exactly_k_above_half_amplitude(self):
        for seed in range(5):
            f = random_field(seed, 16, law="spikes", spikes=9, amplitude=20.0)
            assert int((np.abs(f.values) > 10.0).sum()) == 9

    def test_gaussian_moments(self):
        f = random_field(123, 64)
        vals = f.values.ravel()
        n = vals.size
        assert abs(vals.mean()) <= 5.0 / np.sqrt(n)
        assert abs(vals.std() - 1.0) <= 5.0 * np.sqrt(2.0 / (n - 1))

    def test_dimension_and_periodicity(self):
        f3 = random_field(0, 8, d=3, periodic=True)
        assert f3.grid.d == 3
        assert all(f3.grid.periodic)

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            random_field(0, 8, law="cauchy")



class TestExampleSpec:
    # an example's spec is the `bdiv gen` command line; GENERATORS maps its
    # parsed kind and parameters to the generator call
    def test_dispatch_matches_generators(self):
        from bdiv.cli import GENERATORS, build_parser

        def generate(*argv):
            args = build_parser().parse_args(["gen", *argv, "--out", "x"])
            reads, make = GENERATORS[args.kind]
            return make(args.n, **{k: v for k, v in vars(args).items() if k in reads})

        ball = generate("--kind", "ball", "--n", "32", "--alpha", "2.0",
                        "--radius", "1.0")
        assert np.array_equal(ball.values, ball_field(2.0, 1.0, 32).values)
        f, g = generate("--kind", "tatar", "--n", "512", "--levels", "6")
        f2, g2 = tatar_pair(2.0, 6, 512)
        assert np.array_equal(f.values, f2.values)
        assert np.array_equal(g.values, g2.values)
        rnd = generate("--kind", "random", "--n", "16", "--seed", "5",
                       "--law", "spikes")
        assert np.array_equal(
            rnd.values, random_field(5, 16, law="spikes").values
        )
        nir = generate("--kind", "nirenberg", "--n", "32")
        assert np.array_equal(nir.values, nirenberg_field(32).values)
