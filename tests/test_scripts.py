"""The measurement scripts against the current solver API: the FISTA layer
row of scripts/bench_snapshot.py and the probe table of scripts/ledger.py
read the solver's internals, so a change to _DualState or Probe must keep
them running."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from bdiv.fields import Grid, ScalarField, mean_zero
from bdiv.norms import tv_norm
from bdiv.variational import VariationalConfig, minimize_flambda

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fista_layer_runs_on_this_checkout():
    """The FISTA row at n = 16 for 10 iterations, in a child process on
    this checkout's src/, as bench_snapshot.py runs it."""
    snap = _load("bench_snapshot")
    out = snap.layer(snap.ROOT, snap.FISTA_LAYER, "16", str(snap.FISTA_NU), "10", "1")
    assert list(out) == ["16"] and out["16"] > 0.0


def test_ledger_prints_one_line_per_level(capsys):
    """scripts/ledger.py's probe table on a solve that starts from the
    coarse level: one line per grid, coarsest first, whose endings add up
    to its solves."""
    grid = Grid((46, 46), -1.0, 1.0, True)
    f = mean_zero(ScalarField(grid, np.random.default_rng(0).standard_normal(grid.n)))
    _, _, rep = minimize_flambda(f, VariationalConfig(lam=10.0 / (2.0 * tv_norm(f, "isotropic"))))
    _load("ledger")._print_probes("torus46", rep)
    head, *levels = capsys.readouterr().out.splitlines()
    assert head.startswith(f"torus46: {rep.iterations} iterations")
    assert [line.split()[0] for line in levels] == ["529", "2116"]
    for line in levels:
        solves, gap, sign, cap = map(int, re.search(
            r"(\d+) solves .*ended (\d+) at the gap, (\d+) sign decided, (\d+) at the cap",
            line).groups())
        assert gap + sign + cap == solves
