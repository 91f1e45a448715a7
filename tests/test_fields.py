import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdiv.fields import (
    Grid,
    ScalarField,
    VectorField,
    _diff_calls,
    _divergence_calls,
    _gradient_calls,
    _run,
    cumulative_primitive,
    discrete_divergence,
    divergence_array,
    forward_gradient,
    gradient_array,
    inner,
    integrate,
    mean_zero,
    read_field,
    write_field,
)

from oracles import loop_prefix_integral, stencil_divergence


# (n, lo, hi) for d = 1, 2, 3; the last two have anisotropic spacing
STENCIL_GRIDS = [
    ((3, 3), 0.0, 1.0),
    ((7,), -1.0, 2.0),
    ((6, 5), -1.0, (1.0, 2.0)),
    ((4, 3, 5), (0.0, -1.0, 0.0), (1.0, 2.0, 0.25)),
]


def rand_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, scale * rng.standard_normal(grid.n))


class TestGrid:
    def test_spacing_and_volume(self):
        g = Grid((4, 8), lo=(0.0, -1.0), hi=(2.0, 1.0))
        assert g.h == (0.5, 0.25)
        assert g.cell_volume == pytest.approx(0.125)
        assert g.d == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid((1, 4), 0.0, 1.0)
        with pytest.raises(ValueError):
            Grid((4, 4), 1.0, 0.0)
        with pytest.raises(ValueError):
            Grid((2, 2, 2, 2), 0.0, 1.0)

    def test_rejects_non_finite_bounds(self):
        for lo, hi in ((float("nan"), 1.0), (0.0, float("inf")), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite"):
                Grid((8, 8), lo, hi)

    def test_centers(self):
        g = Grid((2,), 0.0, 1.0)
        assert np.allclose(g.axis_centers(0), [0.25, 0.75])

    def test_nonfinite_values_rejected(self):
        g = Grid((2, 2), 0.0, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.array([[1.0, np.nan], [0.0, 0.0]]))


class TestDivergence:
    def test_constant_field_periodic(self):
        g = Grid((6, 6), -1.0, 1.0, periodic=True)
        v = VectorField.from_arrays(g, [np.full(g.n, 2.5), np.full(g.n, -1.0)])
        div = discrete_divergence(v)
        assert np.abs(div.values).max() == 0.0

    def test_ramp_unit_divergence(self):
        g = Grid((5, 4), 0.0, (1.0, 1.0))
        i = np.arange(5)[:, None] * np.ones((1, 4))
        v1 = i * g.h[0]
        v = VectorField.from_arrays(g, [v1, np.zeros(g.n)])
        div = discrete_divergence(v).values
        assert np.allclose(div[1:, :], 1.0)
        assert np.allclose(div[0, :], v1[0, 0] / g.h[0])

    def test_matches_stencil_oracle(self):
        for n, lo, hi in STENCIL_GRIDS:
            d = len(n)
            for periodic in (False, True, (True,) + (False,) * (d - 1)):
                g = Grid(n, lo, hi, periodic=periodic)
                rng = np.random.default_rng(3)
                comps = [rng.standard_normal(g.n) for _ in range(d)]
                v = VectorField.from_arrays(g, comps)
                expect = stencil_divergence(comps, g.h, g.periodic)
                assert np.allclose(discrete_divergence(v).values, expect, atol=1e-14)

    def test_gradient_high_box_edge_of_eight_cells(self):
        # the edge cells along the last axis are views with a 64-byte
        # stride, which numpy 2.4.6's np.negative reads as contiguous
        for n in ((3, 8), (2, 5, 8)):
            g = Grid(n, 0.0, 1.0)
            vals = rand_field(g, seed=5).values
            grad = gradient_array(vals, g)
            assert np.array_equal(grad[-1][..., -1], -vals[..., -1] / g.h[-1])

    def test_unit_spacing_binds_the_plain_difference(self):
        # h == 1.0 binds the subtract and the edge fix and no division,
        # and x / 1.0 == x, so the bits are those of the divided stencil
        vals = np.random.default_rng(6).standard_normal((5, 4))
        out = np.empty_like(vals)
        for forward in (False, True):
            for periodic in (False, True):
                calls = _diff_calls(vals, 1, 1.0, periodic, out, forward)
                assert [c.func for c in calls][-1] is not np.divide
                _run(calls)
                if forward:
                    plain = np.diff(vals, axis=1, append=vals[:, :1] if periodic else 0.0)
                else:
                    plain = np.diff(vals, axis=1, prepend=vals[:, -1:] if periodic else 0.0)
                assert np.array_equal(out, plain)
                divided = _diff_calls(vals, 1, 2.0, periodic, np.empty_like(vals), forward)
                assert len(divided) == len(calls) + 1

    def test_component_grid_mismatch_rejected(self):
        a = ScalarField(Grid((4, 4), 0.0, 1.0), np.zeros((4, 4)))
        b = ScalarField(Grid((4, 4), 0.0, 2.0), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            VectorField([a, b])


class TestCumulativePrimitive:
    def test_zero(self):
        g = Grid((4, 4), 0.0, 1.0)
        out = cumulative_primitive(ScalarField.zeros(g), 0)
        assert np.all(out.values == 0.0)

    def test_constant(self):
        g = Grid((4,), 0.0, 2.0)  # h = 0.5
        out = cumulative_primitive(ScalarField(g, np.ones(4)), 0)
        assert np.allclose(out.values, [0.5, 1.0, 1.5, 2.0])

    def test_matches_loop_oracle(self):
        g = Grid((8,), 0.0, 2.0)  # one row of 8 cells
        f = rand_field(g, seed=5)
        out = cumulative_primitive(f, 0)
        expect = loop_prefix_integral(f.values, 0, g.h[0])
        assert np.allclose(out.values, expect, rtol=1e-15)

    def test_matches_loop_oracle_2d(self):
        g = Grid((3, 8), 0.0, (1.0, 2.0))
        f = rand_field(g, seed=5)
        out = cumulative_primitive(f, 1)
        expect = loop_prefix_integral(f.values, 1, g.h[1])
        assert np.allclose(out.values, expect, rtol=1e-15)

    def test_periodic_axis_rejected(self):
        g = Grid((4, 4), 0.0, 1.0, periodic=(False, True))
        with pytest.raises(ValueError):
            cumulative_primitive(ScalarField.zeros(g), 1)
        with pytest.raises(ValueError):
            cumulative_primitive(ScalarField.zeros(g), 2)

    def test_backward_difference_inverts(self):
        g = Grid((7, 5), -1.0, (1.0, 3.0))
        f = rand_field(g, seed=11)
        for axis in range(2):
            comps = [ScalarField.zeros(g), ScalarField.zeros(g)]
            comps[axis] = cumulative_primitive(f, axis)
            back = discrete_divergence(VectorField(comps))
            assert np.allclose(back.values, f.values, rtol=1e-12, atol=1e-13)


class TestSampleAndMean:
    def test_pointwise_reevaluation(self):
        g = Grid((6, 5), -2.0, (1.0, 2.0))
        fn = lambda x, y: np.sin(x) * np.exp(-(y**2)) + x * y
        values = fn(*g.meshgrid())
        xs = g.axis_centers(0)
        ys = g.axis_centers(1)
        for i in range(6):
            for j in range(5):
                assert values[i, j] == pytest.approx(fn(xs[i], ys[j]), rel=1e-15)

    def test_mean_zero_constant(self):
        g = Grid((4, 4), 0.0, 1.0)
        out = mean_zero(ScalarField(g, np.full(g.n, 3.3)))
        assert np.abs(out.values).max() <= 1e-15

    def test_mean_zero_idempotent(self):
        g = Grid((4, 4), 0.0, 1.0)
        f = rand_field(g, seed=2)
        f0 = mean_zero(f)
        again = mean_zero(f0)
        assert np.allclose(again.values, f0.values, atol=1e-15)

    def test_mean_zero_random(self):
        g = Grid((9, 9), -1.0, 1.0)
        f = rand_field(g, seed=8, scale=40.0)
        out = mean_zero(f)
        mean = integrate(out) / (g.size * g.cell_volume)
        assert abs(mean) <= 1e-12 * np.abs(f.values).max()


class TestFieldFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        g = Grid((5, 3), (-1.0, 0.0), (2.0, 4.0), periodic=(True, False))
        values = np.random.default_rng(0).standard_normal(g.n)
        values[0, 0] = 5e-324  # denormal survives
        values[1, 1] = 1e308
        f = ScalarField(g, values)
        path = tmp_path / "f.bdiv"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, values)

    def test_truncated_rejected(self, tmp_path):
        g = Grid((4, 4), 0.0, 1.0)
        path = tmp_path / "f.bdiv"
        write_field(rand_field(g), path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError):
            read_field(path)

    def test_oversized_header_rejected(self, tmp_path):
        # 2^22 * 2^22 * 2^20 cells wraps to 0 in int64; must not pass as an
        # empty payload
        payload = b"BDIV1" + struct.pack("<B", 3)
        payload += struct.pack("<3I", 2**22, 2**22, 2**20)
        payload += struct.pack("<3d", 0.0, 0.0, 0.0)
        payload += struct.pack("<3d", 1.0, 1.0, 1.0)
        payload += struct.pack("<B", 0)
        path = tmp_path / "huge.bdiv"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="payload bytes"):
            read_field(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bdiv"
        path.write_bytes(b"NOPE!" + bytes(64))
        with pytest.raises(ValueError):
            read_field(path)

    def test_known_payload_bytes(self, tmp_path):
        # hand-assembled 2x2 file on [0,1]x[0,2], axis-1 periodic
        payload = b"BDIV1" + struct.pack("<B", 2)
        payload += struct.pack("<2I", 2, 2)
        payload += struct.pack("<2d", 0.0, 0.0)
        payload += struct.pack("<2d", 1.0, 2.0)
        payload += struct.pack("<B", 0b10)
        payload += struct.pack("<4d", 1.5, -2.25, 3.0, 0.125)
        path = tmp_path / "fixture.bdiv"
        path.write_bytes(payload)
        f = read_field(path)
        assert f.grid.n == (2, 2)
        assert f.grid.periodic == (False, True)
        assert np.array_equal(f.values, [[1.5, -2.25], [3.0, 0.125]])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    periodic=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_divergence_gradient_adjoint(seed, periodic):
    for n, lo, hi in STENCIL_GRIDS:
        g = Grid(n, lo, hi, periodic=periodic[: len(n)])
        rng = np.random.default_rng(seed)
        scal = ScalarField(g, rng.standard_normal(g.n))
        vec = VectorField.from_arrays(
            g, [rng.standard_normal(g.n) for _ in range(g.d)]
        )
        lhs = inner(scal, discrete_divergence(vec))
        rhs = -sum(map(inner, forward_gradient(scal).components, vec.components))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@st.composite
def stencil_grids(draw):
    """A grid of dimension 1-3 with 2-9 cells, a periodicity and a spacing
    per axis."""
    d = draw(st.integers(1, 3))
    axes = st.lists(st.integers(2, 9), min_size=d, max_size=d)
    flags = st.lists(st.booleans(), min_size=d, max_size=d)
    lo = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    length = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    hi = [a + b for a, b in zip(lo, length)]
    return Grid(draw(axes), lo, hi, periodic=draw(flags))


def in_layout(arr, layout):
    """arr's values in a Fortran-ordered array, a view with its axes
    cyclically transposed, or a step-2 strided view."""
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "transposed":
        perm = np.roll(np.arange(arr.ndim), 1)
        return np.ascontiguousarray(arr.transpose(perm)).transpose(np.argsort(perm))
    every_other = (slice(None, None, 2),) * arr.ndim
    out = np.full(tuple(2 * s for s in arr.shape), np.nan)
    out[every_other] = arr
    return out[every_other]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    grid=stencil_grids(),
    layout=st.sampled_from(["F", "transposed", "strided"]),
    seed=st.integers(0, 10_000),
)
def test_allocating_operators_ignore_input_layout(grid, layout, seed):
    """The allocating operators give a non-C input the bits of its C copy."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((grid.d,) + grid.n)
    g = rng.standard_normal(grid.n)
    v_in, g_in = in_layout(v, layout), in_layout(g, layout)
    if grid.d > 1 or layout == "strided":
        assert not g_in.flags.c_contiguous
    assert np.array_equal(divergence_array(v_in, grid), divergence_array(v, grid))
    assert np.array_equal(gradient_array(g_in, grid), gradient_array(g, grid))


@pytest.mark.parametrize("layout", ["F", "strided"])
@pytest.mark.parametrize("forward", [False, True])
def test_diff_calls_reject_non_c_buffers(layout, forward):
    """The bound stencils run on flat C-ordered buffers; any other src or
    out is refused when the calls are bound."""
    vals = np.random.default_rng(2).standard_normal((4, 6))
    bad = in_layout(vals, layout)
    with pytest.raises(ValueError, match="C-contiguous"):
        _diff_calls(bad, 1, 1.0, False, np.empty_like(vals), forward)
    with pytest.raises(ValueError, match="C-contiguous"):
        _diff_calls(vals, 1, 1.0, False, in_layout(np.empty_like(vals), layout), forward)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=stencil_grids(), seed=st.integers(0, 10_000))
def test_in_place_kernel_matches_allocating_operators(grid, seed):
    """The in-place stencils the solver calls write every cell of a C
    buffer (the gradient into out[a] views), with the same bits as the
    allocating operators."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((grid.d,) + grid.n)
    g = rng.standard_normal(grid.n)

    div = np.full(grid.n, np.nan)
    tmp = np.full(grid.n, np.nan) if grid.d > 1 else None
    _run(_divergence_calls(v, grid.h, grid.periodic, div, tmp))
    assert np.array_equal(div, divergence_array(v, grid))
    expect = stencil_divergence(list(v), grid.h, grid.periodic)
    assert np.allclose(div, expect, atol=1e-14)

    grad = np.full((grid.d,) + grid.n, np.nan)
    _run(_gradient_calls(g, grid.h, grid.periodic, grad))
    assert np.array_equal(grad, gradient_array(g, grid))


def test_primitive_then_divergence_recovers_field():
    g = Grid((8, 6), 0.0, (2.0, 3.0))
    f = rand_field(g, seed=4)
    for axis in range(2):
        prim = cumulative_primitive(f, axis)
        comps = [np.zeros(g.n), np.zeros(g.n)]
        comps[axis] = prim.values
        v = VectorField.from_arrays(g, comps)
        div = discrete_divergence(v)
        assert np.allclose(div.values, f.values, rtol=1e-12, atol=1e-13)
