"""Span tracing and the arithmetic the benchmark reports.

The tracer wraps bdiv's public functions from outside the package: it
replaces each function object wherever a bdiv module holds a reference to
it, so names brought in with ``from .x import y`` are traced in the
importing module too.  Spans stay in memory as parallel lists and are
reduced when the run ends.

A span is (name, start, end, parent, job).  Calls are single-threaded and
properly nested, so a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("fields", "norms", "explicit", "variational", "examples", "cli")
BENCH = "bench"  # the benchmark's own job span; its self time is harness time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[object] = []
        self.info: dict[int, dict] = {}
        self.job: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, probe=None):
        """Traced stand-in for fn; probe(args, result) returns the counts
        recorded on the span.  It runs after the span closes, so its cost
        lands in the caller's self time, not in the layer's."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if probe is not None:
                self.info[idx] = probe(args, out)
            return out

        return traced

    def install(self, package: str, probes: dict) -> None:
        """Wrap every public function defined in package.<layer> and rebind
        it in every loaded module of the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, probes.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


# -- reductions ---------------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def by_name(tracer: Tracer, jobs) -> dict[str, dict]:
    """Per span name over the given jobs: summed self time, call count and
    the summed probe counts."""
    jobs = set(jobs)
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    out: dict[str, dict] = {}
    for i, name in enumerate(tracer.names):
        if tracer.jobs[i] not in jobs:
            continue
        rec = out.setdefault(name, {"self": 0.0, "calls": 0, "counts": {}})
        rec["self"] += selfs[i]
        rec["calls"] += 1
        for key, val in tracer.info.get(i, {}).items():
            rec["counts"][key] = rec["counts"].get(key, 0) + val
    return out


def layer_self(names: dict[str, dict]) -> dict[str, float]:
    """Self time per layer, the layer being the span name's prefix."""
    out = {layer: 0.0 for layer in LAYERS + (BENCH,)}
    for name, rec in names.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + rec["self"]
    return out


def self_of(names: dict[str, dict], *span_names: str) -> float:
    return sum(names[n]["self"] for n in span_names if n in names)


def count_of(names: dict[str, dict], span_name: str, key: str) -> float:
    rec = names.get(span_name)
    return rec["counts"].get(key, 0) if rec else 0


def calls_of(names: dict[str, dict], span_name: str) -> int:
    rec = names.get(span_name)
    return rec["calls"] if rec else 0


def ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was measured (den == 0)."""
    return num / den if den else 0.0


# -- counts recorded at layer boundaries and the per-layer metrics ------------


def _certificates(args, out):
    return {"certificates": len(out.certificates)}


PROBES = {
    "variational.minimize_flambda": lambda args, out: {
        "iterations": out[2].iterations,
        "converged": int(out[2].converged),
        "cell_iters": out[2].iterations * args[0].grid.size,
    },
    "variational.hierarchical_p2": lambda args, out: {"levels": len(out[1].levels)},
    "variational.hierarchical_p1": lambda args, out: {"levels": len(out[1].levels)},
    "explicit.split_onestep_2d": _certificates,
    "explicit.split_disjoint_2d": _certificates,
    "explicit.split_inductive_nd": _certificates,
    "explicit.decompose_weak_l2": lambda args, out: _certificates(args, out[0]),
    "fields.divergence_array": lambda args, out: {"cells": args[0][0].size},
    "fields.gradient_array": lambda args, out: {"cells": args[0].size},
    "fields.read_field": lambda args, out: {"bytes": out.values.nbytes},
    "fields.write_field": lambda args, out: {"bytes": args[0].values.nbytes},
}

STENCILS = tuple(
    f"fields.{n}"
    for n in (
        "backward_diff",
        "forward_diff",
        "divergence_array",
        "gradient_array",
        "discrete_divergence",
        "forward_gradient",
    )
)
SPLITS = {
    "onestep2d": "explicit.split_onestep_2d",
    "disjoint2d": "explicit.split_disjoint_2d",
    "weakl2": "explicit.decompose_weak_l2",
    "inductive": "explicit.split_inductive_nd",
}


def per_layer_metrics(names: dict[str, dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of wall time wall_s.  Every
    time is a self time, so the layer times add up to the pass."""
    mf = "variational.minimize_flambda"
    calls = calls_of(names, mf)
    io = ("fields.read_field", "fields.write_field")
    io_s = self_of(names, *io)
    io_bytes = sum(count_of(names, n, "bytes") for n in io)
    cells = count_of(names, "fields.divergence_array", "cells") + count_of(
        names, "fields.gradient_array", "cells"
    )
    out = {
        "variational.inner_iters": count_of(names, mf, "iterations"),
        "variational.ns_per_cell_iter": 1e9
        * ratio(self_of(names, mf), count_of(names, mf, "cell_iters")),
        "variational.minimize_calls": calls,
        "variational.hierarchy_levels": count_of(
            names, "variational.hierarchical_p2", "levels"
        )
        + count_of(names, "variational.hierarchical_p1", "levels"),
        "variational.converged_frac": ratio(count_of(names, mf, "converged"), calls),
        "variational.minimize_s": self_of(names, mf),
        "variational.helmholtz_s": self_of(names, "variational.helmholtz_solve"),
        "norms.morrey_s": self_of(names, "norms.morrey_norm"),
        "norms.rearrangement_s": self_of(
            names, "norms.lorentz_norm", "norms.weak_lp_setnorm"
        ),
        "norms.tv_s": self_of(names, "norms.tv_norm"),
        "norms.lp_s": self_of(
            names, "norms.lp_norm", "norms.sup_norm_vector", "norms.component_sup_norms"
        ),
    }
    for short, span in SPLITS.items():
        out[f"explicit.{short}_s"] = self_of(names, span)
    out["explicit.certificates"] = sum(
        count_of(names, span, "certificates") for span in SPLITS.values()
    )
    out["fields.stencil_ns_per_cell"] = 1e9 * ratio(self_of(names, *STENCILS), cells)
    out["fields.io_s"] = io_s
    out["fields.io_mb_per_s"] = ratio(io_bytes / 1e6, io_s)
    layers = layer_self(names)
    out["cli.self_s"] = layers["cli"]
    for layer in LAYERS + (BENCH,):
        out[f"{layer}.share"] = ratio(layers[layer], wall_s)
    out["trace.spans"] = sum(rec["calls"] for rec in names.values())
    return out


# -- statistics ---------------------------------------------------------------


def median_with_count(values) -> tuple[float, int]:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def failure_fraction(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
