"""Grids, scalar/vector fields, discrete operators, and field-file I/O.

Conventions used throughout the package:

* values live at cell centers; integrals are midpoint sums weighted by the
  cell volume,
* divergence is the backward difference, gradient the forward difference;
  the pair is an exact adjoint (up to sign) both on periodic grids and on
  boxes with the zero-outside extension,
* this module holds the only implementation of that stencil pair,
  ``_diff_calls``: it binds, once, the few ufunc calls that write a
  difference into a preallocated buffer, one subtract over the flat
  buffers for the interior and then one call on the edge slice :1 or -1:
  along the axis (index tuples built once per (ndim, axis)), which must
  run after the interior call since it overwrites the edge cells the flat
  subtract gets wrong; src and out must be C-contiguous, so the functions
  below take a C copy of their input, allocate C-ordered outputs and
  ``_run`` the bound lists of ``_divergence_calls`` or ``_gradient_calls``
  once, while solver hot loops keep those lists and rerun them; with h = 1
  ``_diff_calls`` binds the plain difference, no division, which is how
  the FISTA loop runs its stencils in unit spacing,
* reductions go through ``np.sum`` (fixed pairwise tree), so results are
  bit-stable across runs.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MAGIC = b"BDIV1"


def _as_tuple(x, d: int, cast) -> tuple:
    """Broadcast a scalar or sequence to a d-tuple."""
    if np.isscalar(x) or isinstance(x, (bool, int, float)):
        return tuple(cast(x) for _ in range(d))
    t = tuple(cast(v) for v in x)
    if len(t) != d:
        raise ValueError(f"expected {d} per-axis entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice of cell centers, d in {1, 2, 3}."""

    n: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    periodic: tuple[bool, ...]

    def __init__(self, n, lo, hi, periodic=False):
        n = tuple(int(v) for v in (n if not np.isscalar(n) else (n,)))
        d = len(n)
        if d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
        lo = _as_tuple(lo, d, float)
        hi = _as_tuple(hi, d, float)
        periodic = _as_tuple(periodic, d, bool)
        if any(ni < 2 for ni in n):
            raise ValueError(f"need at least 2 points per axis, got {n}")
        if any(h <= lo_ for h, lo_ in zip(hi, lo)):
            raise ValueError("hi must exceed lo on every axis")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", periodic)
        if not all(0.0 < h < math.inf for h in self.h):  # also NaN or infinite lo, hi
            raise ValueError(f"need finite bounds and spacings > 0, got lo={lo} hi={hi}")

    @property
    def d(self) -> int:
        return len(self.n)

    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((hi - lo) / ni for ni, lo, hi in zip(self.n, self.lo, self.hi))

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for h in self.h:
            vol *= h
        return vol

    @property
    def size(self) -> int:
        return math.prod(self.n)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.h[axis]
        return self.lo[axis] + h * (np.arange(self.n[axis]) + 0.5)

    def meshgrid(self) -> list[np.ndarray]:
        """Broadcast coordinate arrays for all axes (ij indexing)."""
        axes = [self.axis_centers(a) for a in range(self.d)]
        return list(np.meshgrid(*axes, indexing="ij"))


class ScalarField:
    """Real values on a grid, one per cell center."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.n:
            if values.size == grid.size:
                values = values.reshape(grid.n)
            else:
                raise ValueError(
                    f"values shape {values.shape} does not match grid {grid.n}"
                )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


class VectorField:
    """d scalar components on one shared grid."""

    __slots__ = ("grid", "components")

    def __init__(self, components: Sequence[ScalarField]):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        grid = components[0].grid
        if any(c.grid != grid for c in components):
            raise ValueError("all components must share one grid")
        if len(components) != grid.d:
            raise ValueError(
                f"expected {grid.d} components for a {grid.d}-d grid, "
                f"got {len(components)}"
            )
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls([ScalarField.zeros(grid) for _ in range(grid.d)])

    @classmethod
    def from_arrays(cls, grid: Grid, arrays: Sequence[np.ndarray]) -> "VectorField":
        return cls([ScalarField(grid, a) for a in arrays])

    def as_array(self) -> np.ndarray:
        """The components stacked into a new (d, n1, ..., nd) array."""
        return np.stack([c.values for c in self.components])


# -- raw-array difference stencils -------------------------------------------
#
# Zero-outside convention on non-periodic axes: the backward difference sees
# no inflow at the low edge, the forward difference differences against 0
# past the high edge.  This makes the pair exactly adjoint on boxes too.


@functools.cache
def _edge_slices(ndim: int, axis: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples selecting, along one axis of an ndim array, the cells
    :1 and -1: (trailing axes are left whole)."""
    lead = (slice(None),) * axis
    return lead + (slice(None, 1),), lead + (slice(-1, None),)


def _diff_calls(
    src: np.ndarray, axis: int, h: float, periodic: bool, out: np.ndarray,
    forward: bool,
) -> list[Callable[[], np.ndarray]]:
    """Bound ufunc calls that set out to the backward (forward) difference
    of src along axis divided by h: one subtract, one edge fix and one
    division, over views taken here once; no division when h == 1.0, since
    x / 1.0 == x exactly.

    src and out must be C-contiguous (ValueError otherwise).  Along an axis
    whose stride is s elements, the interior is one subtract of the flat
    buffers shifted by s, src[k + s] - src[k] written to out[k] (forward)
    or out[k + s] (backward): each cell off the edge slab gets the same
    IEEE subtraction of the same two operands as a slice along the axis
    would give it.  The cells of the edge slab -1: (forward) or :1
    (backward) pair across it and come out wrong, so the edge call must run
    after the interior call: it overwrites exactly those cells."""
    if not (src.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("difference stencils need C-contiguous src and out")
    first, last = _edge_slices(src.ndim, axis)
    s = math.prod(src.shape[axis + 1:])
    flat_src, flat_out = src.reshape(-1), out.reshape(-1)
    interior = flat_out[:-s] if forward else flat_out[s:]
    calls = [functools.partial(np.subtract, flat_src[s:], flat_src[:-s], interior)]
    if periodic:  # edge slices, not src[0]: in 1-D that is a scalar out= rejects
        edge = last if forward else first
        calls.append(functools.partial(np.subtract, src[first], src[last], out[edge]))
    elif forward:  # x * -1.0 is -x; numpy 2.4.6's np.negative misreads 64-byte strides
        calls.append(functools.partial(np.multiply, src[last], -1.0, out[last]))
    else:
        calls.append(functools.partial(np.copyto, out[first], src[first]))
    if h != 1.0:
        calls.append(functools.partial(np.divide, out, h, out))
    return calls


def _divergence_calls(
    v: np.ndarray, h: Sequence[float], periodic: Sequence[bool], out: np.ndarray,
    tmp: np.ndarray | None,
) -> list[Callable[[], np.ndarray]]:
    """Bound calls setting out to the divergence of the stacked (d, ...)
    array v with per-axis spacing h; tmp is scratch."""
    calls = _diff_calls(v[0], 0, h[0], periodic[0], out, False)
    for a in range(1, len(h)):
        calls += _diff_calls(v[a], a, h[a], periodic[a], tmp, False)
        calls.append(functools.partial(np.add, out, tmp, out))
    return calls


def _gradient_calls(
    g: np.ndarray, h: Sequence[float], periodic: Sequence[bool], out: np.ndarray
) -> list[Callable[[], np.ndarray]]:
    """Bound calls setting out to the forward-difference gradient of g with
    per-axis spacing h, stacked as (d, ...)."""
    calls = []
    for a in range(len(h)):
        calls += _diff_calls(g, a, h[a], periodic[a], out[a], True)
    return calls


def _run(calls) -> None:
    for call in calls:
        call()


def divergence_array(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Backward-difference divergence of a stacked (d, ...) component array."""
    v = np.ascontiguousarray(v)
    out = np.empty(v.shape[1:])
    tmp = np.empty(out.shape) if grid.d > 1 else None
    _run(_divergence_calls(v, grid.h, grid.periodic, out, tmp))
    return out


def gradient_array(g: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward-difference gradient, stacked as a (d, ...) array."""
    g = np.ascontiguousarray(g)
    out = np.empty((grid.d,) + g.shape)
    _run(_gradient_calls(g, grid.h, grid.periodic, out))
    return out


def discrete_divergence(v: VectorField) -> ScalarField:
    """Backward-difference divergence; exact adjoint (up to sign) of
    forward_gradient."""
    return ScalarField(v.grid, divergence_array(v.as_array(), v.grid))


def forward_gradient(g: ScalarField) -> VectorField:
    return VectorField.from_arrays(g.grid, gradient_array(g.values, g.grid))


def cumulative_primitive(f: ScalarField, axis: int) -> ScalarField:
    """Running integral h * sum_{m<=k} f[m] along one non-periodic axis.

    The backward difference of the output recovers f exactly, which is what
    lets the splitting constructions certify div u = f in exact arithmetic.
    """
    grid = f.grid
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for dimension {grid.d}")
    if grid.periodic[axis]:
        raise ValueError("cumulative primitive is undefined along a periodic axis")
    out = np.cumsum(f.values, axis=axis) * grid.h[axis]
    return ScalarField(grid, out)


def integrate(f: ScalarField) -> float:
    return float(np.sum(f.values)) * f.grid.cell_volume


def inner(f: ScalarField, g: ScalarField) -> float:
    """Cell-volume-weighted L2 pairing."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum(f.values * g.values)) * f.grid.cell_volume


def mean_zero(f: ScalarField) -> ScalarField:
    """Subtract the volume-weighted mean."""
    mean = np.sum(f.values) / f.values.size
    return ScalarField(f.grid, f.values - mean)


# -- field-file format --------------------------------------------------------
#
# magic "BDIV1" | u8 d | d*u32 sizes | d*f64 lo | d*f64 hi | u8 periodic
# bitmask | prod(n) f64 values, row-major (last axis fastest).  All integers
# and floats little-endian.


def write_field(f: ScalarField, path) -> None:
    grid = f.grid
    d = grid.d
    mask = 0
    for a, per in enumerate(grid.periodic):
        if per:
            mask |= 1 << a
    header = MAGIC + struct.pack("<B", d)
    header += struct.pack(f"<{d}I", *grid.n)
    header += struct.pack(f"<{d}d", *grid.lo)
    header += struct.pack(f"<{d}d", *grid.hi)
    header += struct.pack("<B", mask)
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path) -> ScalarField:
    """Read a BDIV1 file.  The header is read and checked first, and the
    file size must equal what it implies, before the payload is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 1)
        if len(head) < len(MAGIC) + 1 or head[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a BDIV1 field file")
        d = head[-1]
        if d not in (1, 2, 3):
            raise ValueError(f"{path}: unsupported dimension {d}")
        need = d * 4 + 2 * d * 8 + 1
        meta = fh.read(need)
        if len(meta) < need:
            raise ValueError(f"{path}: truncated header")
        n = struct.unpack_from(f"<{d}I", meta, 0)
        lo = struct.unpack_from(f"<{d}d", meta, d * 4)
        hi = struct.unpack_from(f"<{d}d", meta, d * 12)
        periodic = tuple(bool(meta[-1] >> a & 1) for a in range(d))
        grid = Grid(n, lo, hi, periodic)
        count = grid.size
        off = len(head) + len(meta)
        if size != off + 8 * count:
            raise ValueError(
                f"{path}: expected {8 * count} payload bytes, got {size - off}"
            )
        data = fh.read(8 * count)
    values = np.frombuffer(data, dtype="<f8", count=count)
    return ScalarField(grid, values.astype(np.float64).reshape(n))
