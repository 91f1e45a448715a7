"""Tests of the benchmark's own arithmetic on synthetic spans.

    python3 -m pytest perfbench/test_tracing.py
"""

import itertools
import sys
import types

import pytest

import tracing


def make_tracer(spans):
    """Tracer holding (name, start, end, parent, job) spans as given."""
    t = tracing.Tracer()
    for name, start, end, parent, job in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.jobs.append(job)
    return t


NESTED = [
    ("bench.job", 0.0, 10.0, -1, "a"),
    ("variational.two_step", 1.0, 8.0, 0, "a"),
    ("variational.minimize_flambda", 2.0, 6.0, 1, "a"),
    ("norms.lp_norm", 3.0, 3.5, 2, "a"),
    ("norms.lp_norm", 6.5, 7.0, 1, "a"),
    ("bench.job", 10.0, 12.0, -1, "b"),
    ("norms.lp_norm", 10.5, 11.0, 5, "b"),
]


def test_self_time_subtracts_direct_children_only():
    t = make_tracer(NESTED)
    selfs = tracing.self_times(t.starts, t.ends, t.parents)
    assert selfs == pytest.approx([3.0, 2.5, 3.5, 0.5, 0.5, 1.5, 0.5])


def test_self_times_of_a_job_add_up_to_its_root_span():
    t = make_tracer(NESTED)
    names = tracing.by_name(t, ["a"])
    assert sum(rec["self"] for rec in names.values()) == pytest.approx(10.0)
    layers = tracing.layer_self(names)
    assert layers["bench"] == pytest.approx(3.0)
    assert layers["variational"] == pytest.approx(6.0)
    assert layers["norms"] == pytest.approx(1.0)
    assert layers["fields"] == 0.0
    assert names["norms.lp_norm"]["calls"] == 2


def test_by_name_keeps_only_the_requested_jobs():
    t = make_tracer(NESTED)
    names = tracing.by_name(t, ["b"])
    assert set(names) == {"bench.job", "norms.lp_norm"}
    assert names["bench.job"]["self"] == pytest.approx(1.5)


def test_per_layer_metrics_of_a_synthetic_pass():
    t = make_tracer(NESTED)
    t.info[2] = {"iterations": 100, "converged": 1, "cell_iters": 100 * 2500}
    m = tracing.per_layer_metrics(tracing.by_name(t, ["a"]), wall_s=10.0)
    assert m["variational.inner_iters"] == 100
    assert m["variational.minimize_calls"] == 1
    assert m["variational.converged_frac"] == 1.0
    assert m["variational.minimize_s"] == pytest.approx(3.5)
    assert m["variational.ns_per_cell_iter"] == pytest.approx(3.5e9 / 250_000)
    assert m["norms.lp_s"] == pytest.approx(1.0)
    assert m["fields.stencil_ns_per_cell"] == 0.0
    shares = sum(m[f"{layer}.share"] for layer in tracing.LAYERS + (tracing.BENCH,))
    assert shares == pytest.approx(1.0)
    assert m["trace.spans"] == 5


@pytest.fixture
def fake_package():
    """A package 'fakepkg' with every layer module; fakepkg.norms calls a
    fields function it imported by name."""
    mods = {}
    for layer in tracing.LAYERS:
        mod = types.ModuleType(f"fakepkg.{layer}")
        mods[layer] = mod
        sys.modules[mod.__name__] = mod
    sys.modules["fakepkg"] = types.ModuleType("fakepkg")

    def stencil(x):
        return x + 1

    def lp_norm(x):
        return mods["norms"].stencil(x) * 2

    for fn, layer in ((stencil, "fields"), (lp_norm, "norms")):
        fn.__module__ = f"fakepkg.{layer}"
        setattr(mods[layer], fn.__name__, fn)
    mods["norms"].stencil = stencil  # as `from .fields import stencil` does
    yield mods
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_tracer_rebinds_imported_names_and_restores_them(fake_package):
    ticks = itertools.count()
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    original = fake_package["fields"].stencil
    t.install("fakepkg", {"fields.stencil": lambda args, out: {"cells": args[0]}})
    t.job = 7
    assert fake_package["norms"].lp_norm(3) == 8
    t.uninstall()
    assert fake_package["norms"].stencil is original
    assert fake_package["fields"].stencil is original
    assert t.names == ["norms.lp_norm", "fields.stencil"]
    assert t.parents == [-1, 0]
    assert t.jobs == [7, 7]
    assert t.info == {1: {"cells": 3}}
    # clock reads: outer start 0, inner start 1, inner end 2, outer end 3
    assert tracing.self_times(t.starts, t.ends, t.parents) == [2.0, 1.0]


def test_failure_fraction():
    assert tracing.failure_fraction(0, 8) == 0.0
    assert tracing.failure_fraction(3, 12) == 0.25
    with pytest.raises(ValueError):
        tracing.failure_fraction(0, 0)
    with pytest.raises(ValueError):
        tracing.failure_fraction(5, 4)


def test_median_with_count():
    assert tracing.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert tracing.median_with_count([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        tracing.median_with_count([])


def test_quartile_spread():
    values = [float(v) for v in range(1, 11)]  # quartiles 2.75 and 8.25
    assert tracing.quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert tracing.quartile_spread([2.0] * 5) == 0.0
