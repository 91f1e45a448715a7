import hashlib

import numpy as np
import pytest

from bdiv.examples import random_field
from bdiv.explicit import (
    decompose_weak_l2,
    split_disjoint_2d,
    split_inductive_nd,
    split_onestep_2d,
)
from bdiv.fields import Grid, ScalarField, discrete_divergence
from bdiv.norms import component_sup_norms, lp_norm, weak_lp_setnorm

from oracles import loop_prefix_integral, stencil_divergence

SLACK = 1.0 + 1e-10


def box_field(n=(6, 6), seed=0, lo=-1.0, hi=1.0):
    grid = Grid(n, lo, hi)
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.n))


def check_divergence(result, f, rel=1e-10):
    """Independent check of div u = f: loop prefix sums + loop stencil."""
    div = discrete_divergence(result.u)
    scale = max(np.abs(f.values).max(), 1e-30)
    assert np.abs(div.values - f.values).max() <= rel * scale
    comps = [c.values for c in result.u.components]
    oracle = stencil_divergence(comps, f.grid.h, f.grid.periodic)
    assert np.abs(oracle - f.values).max() <= rel * scale


def check_parts_sum(result, f, rel=1e-12):
    total = sum(p.values for p in result.parts)
    scale = max(np.abs(f.values).max(), 1e-30)
    assert np.abs(total - f.values).max() <= rel * scale


class TestOneStep2d:
    def test_zero_field(self):
        g = Grid((5, 5), -1.0, 1.0)
        res = split_onestep_2d(ScalarField.zeros(g))
        assert all(np.all(p.values == 0.0) for p in res.parts)
        assert np.all(res.u.as_array() == 0.0)

    def test_symmetric_data_transposes(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0.5, 2.0, size=(6, 6))
        sym = base + base.T  # f(x, y) = f(y, x) > 0 on a square grid
        f = ScalarField(Grid((6, 6), -1.0, 1.0), sym)
        res = split_onestep_2d(f)
        assert np.allclose(res.parts[0].values, res.parts[1].values.T, rtol=1e-12)

    def test_bounds_and_divergence(self):
        for seed in range(5):
            f = box_field(seed=seed)
            f = ScalarField(f.grid, f.values / lp_norm(f, 2))  # unit L2
            res = split_onestep_2d(f)
            check_parts_sum(res, f)
            check_divergence(res, f)
            assert all(c <= SLACK for c in component_sup_norms(res.u))
            assert all(c.satisfied for c in res.certificates)

    def test_certificates_are_line_integrals(self):
        f = box_field(seed=7)
        res = split_onestep_2d(f)
        cert = next(c for c in res.certificates if c.axis == 1 and c.index == 3)
        manual = np.sum(np.abs(res.parts[1].values[3, :])) * f.grid.h[1]
        assert cert.value == pytest.approx(manual, rel=1e-14)
        assert cert.bound == pytest.approx(lp_norm(f, 2), rel=1e-14)

    def test_scaling_equivariance(self):
        f = box_field(seed=9)
        res1 = split_onestep_2d(f)
        res3 = split_onestep_2d(ScalarField(f.grid, 3.0 * f.values))
        for p1, p3 in zip(res1.parts, res3.parts):
            assert np.allclose(3.0 * p1.values, p3.values, rtol=1e-12)
        assert np.allclose(
            3.0 * res1.u.as_array(), res3.u.as_array(), rtol=1e-12
        )

    def test_rejects_wrong_dimension(self):
        g = Grid((4, 4, 4), 0.0, 1.0)
        with pytest.raises(ValueError):
            split_onestep_2d(ScalarField.zeros(g))
        g2 = Grid((4, 4), 0.0, 1.0, periodic=True)
        with pytest.raises(ValueError):
            split_onestep_2d(ScalarField.zeros(g2))


class TestDisjoint2d:
    def test_zero_field_empty_support(self):
        g = Grid((5, 5), -1.0, 1.0)
        res = split_disjoint_2d(ScalarField.zeros(g))
        assert np.all(res.parts[0].values == 0.0)
        assert np.all(res.parts[1].values == 0.0)

    def test_masks_partition_cellwise(self):
        f = box_field(seed=3)
        res = split_disjoint_2d(f)
        m1, m2 = res.masks
        assert not (m1 & m2).any()
        assert (m1 | m2).all()
        # independent cellwise recomputation of the comparison
        vals = f.values
        h1, h2 = f.grid.h
        v_line = np.sqrt((vals**2).sum(axis=1) * h2)
        h_line = np.sqrt((vals**2).sum(axis=0) * h1)
        for i in range(6):
            for j in range(6):
                expect = h_line[j] <= v_line[i]
                assert m1[i, j] == expect

    def test_row_concentration(self):
        g = Grid((8, 8), -1.0, 1.0)
        vals = np.zeros(g.n)
        vals[:, 3] = 5.0  # one hot row: H(y=3) large, V(x) moderate
        vals[2, 6] = 0.5
        f = ScalarField(g, vals)
        res = split_disjoint_2d(f)
        # on the hot row H > V at every cell, so the row goes to f2
        assert np.all(res.parts[1].values[:, 3] == vals[:, 3])
        assert np.all(res.parts[0].values[:, 3] == 0.0)

    def test_tie_goes_to_first_part(self):
        g = Grid((4, 4), 0.0, 1.0)
        vals = np.zeros(g.n)
        vals[1, 2] = 1.0  # square cells: H(y=2) == V(x=1) exactly
        f = ScalarField(g, vals)
        res = split_disjoint_2d(f)
        assert res.parts[0].values[1, 2] == 1.0
        assert res.parts[1].values[1, 2] == 0.0

    def test_bounds_and_divergence(self):
        for seed in range(5):
            f = box_field(seed=20 + seed)
            res = split_disjoint_2d(f)
            check_parts_sum(res, f)
            check_divergence(res, f)
            bound = lp_norm(f, 2) * SLACK
            assert all(c <= bound for c in component_sup_norms(res.u))
            assert all(c.satisfied for c in res.certificates)
            support = f.values != 0.0
            union = res.masks[0] | res.masks[1]
            assert union[support].all()


class TestInductive:
    def test_1d_whole_line(self):
        g = Grid((16,), 0.0, 1.0)
        rng = np.random.default_rng(4)
        f = ScalarField(g, rng.standard_normal(16))
        res = split_inductive_nd(f)
        assert res.masks[0].all()
        assert np.allclose(
            res.u.components[0].values,
            loop_prefix_integral(f.values, 0, g.h[0]),
            rtol=1e-13,
        )
        assert component_sup_norms(res.u)[0] <= lp_norm(f, 1) * SLACK

    def test_zero_field(self):
        g = Grid((4, 4), 0.0, 1.0)
        res = split_inductive_nd(ScalarField.zeros(g))
        assert all(not m.any() for m in res.masks)
        assert np.all(res.u.as_array() == 0.0)

    def test_2d_line_bounds(self):
        for seed in range(4):
            f = box_field(seed=30 + seed)
            res = split_inductive_nd(f)
            check_parts_sum(res, f)
            check_divergence(res, f)
            bound = lp_norm(f, 2) * SLACK
            assert all(c.satisfied for c in res.certificates)
            assert all(c <= bound for c in component_sup_norms(res.u))

    def test_3d_partition_and_certificates(self):
        for seed in range(3):
            f = box_field(n=(4, 4, 4), seed=40 + seed)
            res = split_inductive_nd(f)
            assert len(res.certificates) == 48  # 3 axes x 16 lines
            check_parts_sum(res, f)
            check_divergence(res, f)
            union = np.zeros(f.grid.n, dtype=bool)
            for m in res.masks:
                assert not (union & m).any()
                union |= m
            assert union[f.values != 0.0].all()
            bound = lp_norm(f, 3) * SLACK
            assert all(c.value <= bound for c in res.certificates)

    def test_scaling_equivariance(self):
        f = box_field(n=(5, 5), seed=50)
        res1 = split_inductive_nd(f)
        res3 = split_inductive_nd(ScalarField(f.grid, 3.0 * f.values))
        for m1, m3 in zip(res1.masks, res3.masks):
            assert np.array_equal(m1, m3)
        for p1, p3 in zip(res1.parts, res3.parts):
            assert np.allclose(3.0 * p1.values, p3.values, rtol=1e-12)


class TestWeakL2Strips:
    def test_all_rows_small_single_pass(self):
        g = Grid((8, 8), -1.0, 1.0)
        f = ScalarField(g, np.full(g.n, 0.05))
        res, trace = decompose_weak_l2(f, tau=2.0)
        assert len(trace.passes) == 1
        assert np.array_equal(res.parts[0].values, f.values)
        assert np.all(res.parts[1].values == 0.0)

    def test_measure_contraction_tau2(self):
        for seed in range(5):
            f = random_field(seed, 16, law="spikes", amplitude=30.0)
            res, trace = decompose_weak_l2(f, tau=2.0)
            meas = trace.measures()
            for m0, m1 in zip(meas, meas[1:]):
                assert m1 <= m0 / 4.0 + 1e-12
            assert not trace.incomplete

    def test_certificates_partition_divergence(self):
        for seed in range(4):
            f = random_field(100 + seed, 16, law="spikes", amplitude=25.0)
            res, trace = decompose_weak_l2(f, tau=2.0)
            check_parts_sum(res, f)
            check_divergence(res, f)
            bound = 2.0 * weak_lp_setnorm(f, 2.0) * SLACK
            assert all(c.value <= bound for c in res.certificates)
            m1, m2 = res.masks
            assert not (m1 & m2).any()
            assert (m1 | m2)[f.values != 0.0].all()

    def test_termination_bound(self):
        f = random_field(7, 32, law="spikes", amplitude=40.0)
        res, trace = decompose_weak_l2(f, tau=1.5)
        grid = f.grid
        limit = np.log(grid.size) / np.log(1.5**2) + 1
        assert len(trace.passes) <= limit
        assert not trace.incomplete

    def test_max_iter_flags_incomplete(self):
        f = random_field(11, 32, law="spikes", amplitude=80.0, spikes=40)
        res, trace = decompose_weak_l2(f, tau=1.05, max_iter=1)
        if trace.incomplete:  # leftovers folded into the first part
            check_parts_sum(res, f)
        res_full, trace_full = decompose_weak_l2(f, tau=1.05)
        assert not trace_full.incomplete

    def test_cross_hatch_needs_two_passes(self):
        # heavy rows and columns crossing: their line energies exceed
        # tau times the set norm, so the first pass only strips the
        # light lines and the recursion runs on the heavy product set
        n, k, amp = 128, 8, 1.0
        g = Grid((n, n), -1.0, 1.0)
        vals = np.zeros((n, n))
        heavy = np.arange(0, n, n // k)
        vals[heavy, :] = amp
        vals[:, heavy] = amp
        f = ScalarField(g, vals)
        res, trace = decompose_weak_l2(f, tau=2.0)
        assert len(trace.passes) >= 2
        assert not trace.incomplete
        meas = trace.measures()
        for m0, m1 in zip(meas, meas[1:]):
            assert m1 <= m0 / 4.0 + 1e-12
        check_parts_sum(res, f)
        check_divergence(res, f)
        bound = 2.0 * weak_lp_setnorm(f, 2.0) * SLACK
        assert all(c.value <= bound for c in res.certificates)

    def test_rejects_tau_at_most_one(self):
        f = box_field()
        with pytest.raises(ValueError):
            decompose_weak_l2(f, tau=1.0)

    def test_scaling_equivariance(self):
        f = random_field(3, 12, law="spikes")
        r1, _ = decompose_weak_l2(f, tau=2.0)
        r3, _ = decompose_weak_l2(ScalarField(f.grid, 3.0 * f.values), tau=2.0)
        for m1, m3 in zip(r1.masks, r3.masks):
            assert np.array_equal(m1, m3)
        for p1, p3 in zip(r1.parts, r3.parts):
            assert np.allclose(3.0 * p1.values, p3.values, rtol=1e-12)


# Pins of the explicit splittings' outputs that the CLI goldens do not
# cover: SHA-256 of every mask (its cells row-major, one byte each) and the
# strip trace of the weak-L2 decomposition, on seeded inputs.  A refactor
# of the splittings must leave them unchanged.
def _hatch():
    """Seeded box data on a 36 x 30 grid: small noise plus heavy rows and
    columns of growing weight, which the strip decomposition needs two
    passes to take apart."""
    f = random_field(65, (36, 30))
    vals = 0.05 * f.values
    for i, a in enumerate(range(0, 36, 4)):
        vals[a, :] += 0.2 * (i + 1)
    for j, b in enumerate(range(0, 30, 3)):
        vals[:, b] += 0.2 * (j + 1)
    return ScalarField(f.grid, vals)


MASK_PINS = {
    "disjoint2d": (
        lambda: split_disjoint_2d(random_field(60, (12, 10))),
        ("d5fa74341ca8d1470358acc6d57f7a54e0acd9b550e2854dcb29a0520a5c78b7",
         "10bbe323f44af1848341519a5dd9f906a7a52f8689e961302dbe9bc6a8c74638"),
    ),
    "inductive2d": (
        lambda: split_inductive_nd(random_field(61, (12, 10))),
        ("7004c0bf3f3224a59371fada770b2a1dfdd5a049369d04f44f20a82a20526b0e",
         "4d1bb72ed78acdaee93054d357c101fce4bffa75874ec27f1ee75e9d177907d2"),
    ),
    "inductive3d": (
        lambda: split_inductive_nd(random_field(62, (6, 5, 4), d=3)),
        ("9a5f1c3f6bcbe6516c08926771fd9953428ae95e90294a51da824b2b07501aa0",
         "6ad0f4ac49d8ed83c5dd38a61fce34dbbc0f162686ac5121f355b8e2e0864f96",
         "ba709f42348caf2b95af7fc2d881fe234d381eeb0b796551c02ed1e7fb8c0d62"),
    ),
    "inductive-zero": (
        lambda: split_inductive_nd(ScalarField.zeros(Grid((6, 5, 4), -1.0, 1.0))),
        ("6edd9f6f9cc92cded36e6c4a580933f9c9f1b90562b46903b806f21902a1a54f",) * 3,
    ),
    "weakl2": (
        lambda: decompose_weak_l2(_hatch(), 1.5)[0],
        ("10c14a372a6b6e9a4ca77bf29520ea07444a077743f4fd8c42401b3eabe6c65b",
         "af07e624723753730e086c3e657c7797034839b6e6dd7bc4401c8bb306d297a8"),
    ),
    # the leftovers of the capped run join the first part, as its second
    # pass would have put them
    "weakl2-capped": (
        lambda: decompose_weak_l2(_hatch(), 1.5, max_iter=1)[0],
        ("10c14a372a6b6e9a4ca77bf29520ea07444a077743f4fd8c42401b3eabe6c65b",
         "af07e624723753730e086c3e657c7797034839b6e6dd7bc4401c8bb306d297a8"),
    ),
}


@pytest.mark.parametrize("case", MASK_PINS)
def test_split_mask_pins(case):
    split, pins = MASK_PINS[case]
    res = split()
    assert all(m.dtype == bool for m in res.masks)
    got = tuple(hashlib.sha256(m.tobytes()).hexdigest() for m in res.masks)
    assert got == pins


def test_strip_trace_pins():
    f = _hatch()
    _, trace = decompose_weak_l2(f, 1.5)
    assert trace.measures() == [3.9999999999999996, 0.07407407407407407, 0.0]
    assert (len(trace.passes), trace.incomplete) == (2, False)
    _, trace = decompose_weak_l2(f, 1.5, max_iter=1)
    assert trace.measures() == [3.9999999999999996, 0.07407407407407407]
    assert (len(trace.passes), trace.incomplete) == (1, True)
