import csv
import dataclasses
import json
import struct

import numpy as np
import pytest

from bdiv import cli, examples, fields, norms, variational


def run(argv):
    return cli.main(argv)


# kind -> (`bdiv gen` arguments, the generator call they stand for)
GEN_CASES = {
    "nirenberg": (["--n", "32"], lambda: [examples.nirenberg_field(32)]),
    "ball": (["--n", "32", "--alpha", "2.0", "--radius", "1.0"],
             lambda: [examples.ball_field(2.0, 1.0, 32)]),
    "tatar": (["--n", "512", "--levels", "6"],
              lambda: examples.tatar_pair(2.0, 6, 512)),
    "random": (["--n", "16", "--seed", "5", "--law", "spikes"],
               lambda: [examples.random_field(5, 16, law="spikes")]),
}


def test_gen_regeneration_matches_generator(tmp_path, capsys):
    outs = [tmp_path / "f.bdiv", tmp_path / "g.bdiv"]
    for kind, (args, direct) in GEN_CASES.items():
        code = run(["gen", "--kind", kind, *args, "--out", str(outs[0]),
                    "--out2", str(outs[1])])
        assert code == 0
        want = direct()
        for path, field in zip(outs, want):
            back = fields.read_field(path)
            assert back.grid == field.grid
            assert np.array_equal(back.values, field.values)
        assert len(want) == (2 if kind == "tatar" else 1)


def test_gen_rejects_each_bad_parameter(tmp_path, capsys):
    out, out2 = str(tmp_path / "f.bdiv"), str(tmp_path / "g.bdiv")
    cases = [
        (["--kind", "random", "--n", "4", "--out", out],
         cli.EXIT_INVARIANT, "need n >= 8, got 4"),
        (["--kind", "tatar", "--n", "512", "--levels", "3", "--out", out,
          "--out2", out2], cli.EXIT_INVARIANT, "need levels >= 4, got 3"),
        (["--kind", "tatar", "--n", "512", "--out", out],
         cli.EXIT_USAGE, "needs --out2"),
    ]
    for argv, code, message in cases:
        assert run(["gen", *argv]) == code
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gen_same_spec_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.bdiv", tmp_path / "b.bdiv"
    for path in (a, b):
        assert run([
            "gen", "--kind", "random", "--n", "16", "--seed", "5",
            "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_kind_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--kind", "parabola", "--n", "8", "--out", "x.bdiv"])
    assert exc.value.code == 2


def test_gen_tatar_two_files(tmp_path, capsys):
    f1, f2 = tmp_path / "tf.bdiv", tmp_path / "tg.bdiv"
    assert run([
        "gen", "--kind", "tatar", "--n", "512", "--levels", "6",
        "--out", str(f1), "--out2", str(f2),
    ]) == 0
    fa = fields.read_field(f1)
    ga = fields.read_field(f2)
    assert np.all(np.abs(ga.values) <= fa.values + 1e-12)


def test_solve_onestep_report_self_check(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "3",
         "--out", str(data)])
    report_path = tmp_path / "rep.json"
    code = run([
        "solve", "--method", "onestep2d", "--input", str(data),
        "--out-prefix", str(tmp_path / "sol"), "--report", str(report_path),
    ])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["verification"]["ok"]
    assert rep["verification"]["div_residual_rel"] <= 1e-10
    assert (tmp_path / "sol_u1.bdiv").exists()
    assert (tmp_path / "sol_u2.bdiv").exists()
    assert (tmp_path / "sol_certs.csv").exists()
    with open(tmp_path / "sol_certs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "index", "value", "bound"]
    assert len(rows) == 1 + 24  # 12 lines per axis


def test_solve_zero_field_zero_outputs(tmp_path, capsys):
    g = fields.Grid((8, 8), -1.0, 1.0)
    data = tmp_path / "z.bdiv"
    fields.write_field(fields.ScalarField.zeros(g), data)
    code = run([
        "solve", "--method", "disjoint2d", "--input", str(data),
        "--out-prefix", str(tmp_path / "z"), "--report", str(tmp_path / "z.json"),
    ])
    assert code == 0
    u1 = fields.read_field(tmp_path / "z_u1.bdiv")
    assert np.all(u1.values == 0.0)
    assert json.loads((tmp_path / "z.json").read_text())["verification"][
        "div_residual_rel"] == 0.0


def test_solve_tiny_data_held_to_its_own_scale(tmp_path, monkeypatch, capsys):
    # a claimed-exact u = 0 leaves r = f; with |f|_inf = 3e-11 an absolute
    # floor of 1e-10 would accept it
    f = fields.mean_zero(examples.random_field(3, 16, periodic=True))
    f = fields.ScalarField(f.grid, f.values * (3e-11 / np.abs(f.values).max()))
    data, rep = tmp_path / "tiny.bdiv", tmp_path / "rep.json"
    fields.write_field(f, data)
    monkeypatch.setattr(variational, "helmholtz_solve",
                        lambda g, **kw: fields.VectorField.zeros(g.grid))
    code = run(["solve", "--method", "helmholtz", "--input", str(data),
                "--out-prefix", str(tmp_path / "t"), "--report", str(rep)])
    assert code == cli.EXIT_INVARIANT
    assert json.loads(rep.read_text())["verification"]["ok"] is False


def test_solve_unknown_method_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--method", "magic", "--input", "x", "--out-prefix", "y"])
    assert exc.value.code == 2


def test_solve_corrupt_input_invariant_exit(tmp_path, capsys):
    bad = tmp_path / "bad.bdiv"
    bad.write_bytes(b"BDIV1" + bytes(10))
    code = run([
        "solve", "--method", "onestep2d", "--input", str(bad),
        "--out-prefix", str(tmp_path / "s"),
    ])
    assert code == cli.EXIT_INVARIANT


def test_norms_rejects_wrong_payload_length_before_reading_it(
    tmp_path, capsys, monkeypatch
):
    # a valid header of a 4 x 4 box, followed by too long or too short a payload
    header = b"BDIV1" + struct.pack("<B", 2) + struct.pack("<2I", 4, 4)
    header += struct.pack("<4d", 0.0, 0.0, 1.0, 1.0) + struct.pack("<B", 0)
    asked = []

    class SpyFile:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def read(self, size=-1):
            asked.append(size)
            return self._fh.read(size)

        def __getattr__(self, name):
            return getattr(self._fh, name)

    monkeypatch.setattr(fields, "open", lambda *a: SpyFile(open(*a)), raising=False)
    for payload in (bytes(2**20), bytes(8 * 16 - 8)):
        path = tmp_path / "hostile.bdiv"
        path.write_bytes(header + payload)
        asked.clear()
        code = run(["norms", "--input", str(path), "--kinds", "lp:2"])
        assert code == cli.EXIT_INVARIANT
        assert "payload bytes" in capsys.readouterr().err
        assert asked and all(0 <= size <= len(header) for size in asked)


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "2", "--periodic",
         "--mean-zero", "--out", str(data)])
    solve = ["solve", "--method", "hier-p1", "--input", str(data),
             "--out-prefix", str(tmp_path / "h"), "--levels", "5"]
    # an absurdly small lambda makes every level fail to contract
    assert run(solve + ["--lambda", "4e-5"]) == cli.EXIT_NOCONV
    # with no --lambda the hierarchy runs at 4 gamma, gamma from Helmholtz
    rep_path = tmp_path / "rep.json"
    assert run(solve + ["--report", str(rep_path)]) == cli.EXIT_OK
    f = fields.read_field(data)
    u = variational.helmholtz_solve(f, strict_mean=False)
    lam = 4.0 * (norms.sup_norm_vector(u) / norms.lp_norm(f, 2))
    levels = json.loads(rep_path.read_text())["trace"]["levels"]
    assert levels and all(rec["lam"] == lam for rec in levels)
    # below the trivial threshold hier-p2 stagnates on three zero levels
    assert run(["solve", "--method", "hier-p2", "--input", str(data),
                "--out-prefix", str(tmp_path / "h"), "--lambda", "1e-6"]) == cli.EXIT_NOCONV


def test_hier_p1_on_a_box_needs_no_gamma(tmp_path, monkeypatch, capsys):
    # with --lambda given no Helmholtz probe of gamma runs
    def boom(*args, **kwargs):
        raise AssertionError("Helmholtz probe run with --lambda given")

    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "11", "--out", str(data)])
    monkeypatch.setattr(variational, "helmholtz_solve", boom)
    code = run(["solve", "--method", "hier-p1", "--input", str(data),
                "--out-prefix", str(tmp_path / "h"), "--lambda", "1.0"])
    assert code == cli.EXIT_OK


def test_solve_without_lambda_where_none_is_estimated(tmp_path, capsys):
    # hier-p1 on a box has no Helmholtz probe, and minimize no estimate
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "11", "--out", str(data)])
    for method, message in (("hier-p1", "lam is required"),
                            ("minimize", "minimize needs --lambda")):
        capsys.readouterr()
        code = run(["solve", "--method", method, "--input", str(data),
                    "--out-prefix", str(tmp_path / "s")])
        assert code == cli.EXIT_INVARIANT
        assert message in capsys.readouterr().err


def test_non_finite_domain_bounds_rejected_before_the_payload(tmp_path, capsys):
    header = b"BDIV1" + struct.pack("<B", 2) + struct.pack("<2I", 4, 4)
    path = tmp_path / "hostile.bdiv"
    for lo, hi in ((float("nan"), 1.0), (0.0, float("inf"))):
        path.write_bytes(header + struct.pack("<4d", lo, lo, hi, hi)
                         + struct.pack("<B", 0) + bytes(8 * 16))
        for argv in (["norms", "--kinds", "lp:2"],
                     ["solve", "--method", "onestep2d", "--out-prefix", str(tmp_path / "s")]):
            assert run([*argv, "--input", str(path)]) == cli.EXIT_INVARIANT
            assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("s_*"))


def test_solve_rejects_an_option_its_method_does_not_read(tmp_path, capsys):
    data = _torus_input(tmp_path)
    out = ["--input", str(data), "--out-prefix", str(tmp_path / "s")]
    for argv, flag in ((["hier-p2", "--p", "1"], "--p"),
                       (["onestep2d", "--tau", "3"], "--tau"),
                       (["minimize", "--lambda", "3.0", "--levels", "3"], "--levels")):
        assert run(["solve", "--method", *argv, *out]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.strip().endswith(f"does not read {flag}")
    assert not list(tmp_path.glob("s_*"))
    # the manifest records the method options given, and only those
    rep_path = tmp_path / "rep.json"
    assert run(["solve", "--method", "hier-p1", "--lambda", "1.0", *out,
                "--report", str(rep_path)]) == cli.EXIT_OK
    config = json.loads(rep_path.read_text())["manifest"]["config"]
    assert config["lam"] == 1.0
    assert not {"p", "tau", "mode", "levels", "max_iter"} & set(config)


def test_gen_rejects_an_option_its_kind_does_not_read(tmp_path, capsys):
    out = str(tmp_path / "f.bdiv")
    for argv, flag in ((["nirenberg", "--seed", "5"], "--seed"),
                       (["nirenberg", "--n", "16", "--alpha", "3"], "--alpha"),
                       (["ball", "--law", "spikes"], "--law"),
                       (["random", "--levels", "6"], "--levels"),
                       (["tatar", "--n", "512", "--mean-zero", "--out2", out], "--mean-zero")):
        argv = argv if "--n" in argv else [*argv, "--n", "16"]
        assert run(["gen", "--kind", *argv, "--out", out]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.strip().endswith(f"does not read {flag}")
    assert not list(tmp_path.iterdir())
    # the manifest records the kind options given, and only those
    rep_path = tmp_path / "rep.json"
    assert run(["gen", "--kind", "random", "--n", "16", "--seed", "5", "--out", out,
                "--report", str(rep_path)]) == cli.EXIT_OK
    config = json.loads(rep_path.read_text())["manifest"]["config"]
    assert config["seed"] == 5
    assert not set(cli.GEN_OPTIONS) - {"seed"} & set(config)


def test_norms_command_matches_library(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "10", "--seed", "1",
         "--out", str(data)])
    capsys.readouterr()
    code = run(["norms", "--input", str(data), "--kinds", "lp:2,weak:2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    f = fields.read_field(data)
    assert out["lp:2"] == pytest.approx(norms.lp_norm(f, 2), rel=1e-15)
    assert out["weak:2"] == pytest.approx(
        norms.weak_lp_setnorm(f, 2), rel=1e-15
    )


def test_norms_bad_kinds_usage_error(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "10", "--seed", "1",
         "--out", str(data)])
    for kinds in ("lp", "lorentz:2", "bogus", "lp:2,bogus", "tv:bogus", "lp:0.5",
                  "weak:1", "lorentz:2:0.5", "lorentz:2:inf", "lp:nan", "weak:nan"):
        with pytest.raises(SystemExit) as exc:
            run(["norms", "--input", str(data), "--kinds", kinds])
        assert exc.value.code == 2


def test_bench_empty_grid_list(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["bench", "table1", "--grids", "", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["N", "helmholtz_ratio", "twostep_ratio", "runtime",
                     "error"]]


VERIFY_STDOUT = """\
PASS fields.adjointness
PASS fields.primitive_inversion
PASS fields.io_roundtrip
PASS norms.lorentz_pp_equals_lp
PASS norms.weak_le_lp
PASS norms.coarea_anisotropic
PASS norms.homogeneity
PASS explicit.onestep2d
PASS explicit.weakl2_strips
PASS explicit.inductive_3d
PASS variational.helmholtz_roundtrip
PASS variational.trivial_below_threshold
PASS variational.residual_tv_certificate
PASS examples.regeneration
PASS examples.tatar_domination
PASS examples.nirenberg_mean_zero
PASS examples.ball_area
all invariants hold
"""


def test_verify_full_suite_passes(capsys):
    """The whole stdout of `bdiv verify`, line for line."""
    assert run(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT


def test_verify_module_filter(capsys):
    assert run(["verify", "--module", "fields"]) == 0
    out = capsys.readouterr().out
    assert "fields." in out
    assert "norms." not in out


def test_verify_unknown_module(capsys):
    assert run(["verify", "--module", "plasma"]) == cli.EXIT_USAGE


def test_weakl2_solve_emits_trace(tmp_path, capsys):
    data = tmp_path / "s.bdiv"
    run(["gen", "--kind", "random", "--n", "16", "--law", "spikes",
         "--seed", "4", "--out", str(data)])
    rep_path = tmp_path / "rep.json"
    code = run([
        "solve", "--method", "weakl2", "--input", str(data),
        "--out-prefix", str(tmp_path / "w"), "--tau", "2.0",
        "--report", str(rep_path),
    ])
    assert code == 0
    rep = json.loads(rep_path.read_text())
    meas = rep["strip_trace"]["measures"]
    assert all(b <= a / 4 + 1e-12 for a, b in zip(meas, meas[1:]))


def test_report_determinism_excluding_wall_time(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "10", "--seed", "9",
         "--out", str(data)])
    reports = []
    for tag in ("r1", "r2"):
        rep_path = tmp_path / f"{tag}.json"
        run([
            "solve", "--method", "inductive", "--input", str(data),
            "--out-prefix", str(tmp_path / tag), "--report", str(rep_path),
        ])
        rep = json.loads(rep_path.read_text())
        rep["manifest"].pop("wall_time_s")
        rep["manifest"].pop("phases_s")
        rep["manifest"]["config"].pop("out_prefix")
        rep["manifest"]["config"].pop("report")
        rep["manifest"]["outputs"] = sorted(rep["manifest"]["outputs"].values())
        rep["manifest"]["command"] = None
        reports.append(rep)
    assert reports[0] == reports[1]


def test_solve_manifest_times_its_phases(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    gen_rep = tmp_path / "gen.json"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "6", "--periodic",
         "--mean-zero", "--out", str(data), "--report", str(gen_rep)])
    assert "phases_s" not in json.loads(gen_rep.read_text())["manifest"]
    rep_path = tmp_path / "rep.json"
    assert run(["solve", "--method", "twostep", "--input", str(data),
                "--out-prefix", str(tmp_path / "t"), "--report", str(rep_path)]) == 0
    manifest = json.loads(rep_path.read_text())["manifest"]
    phases = manifest["phases_s"]
    assert set(phases) == {"read", "solve", "write", "verify"}
    assert all(t >= 0.0 for t in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]


def test_bench_rejects_unsupported_grid(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for grids in ("50,64", "50,abc"):
        assert run(["bench", "table1", "--grids", grids, "--out", str(out)]) \
            == cli.EXIT_USAGE
        assert "unsupported bench grids" in capsys.readouterr().err
        assert not out.exists()


def test_hierarchy_trace_csv(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "6", "--periodic",
         "--mean-zero", "--out", str(data)])
    rep_path = tmp_path / "rep.json"
    code = run([
        "solve", "--method", "hier-p2", "--input", str(data),
        "--out-prefix", str(tmp_path / "h"), "--report", str(rep_path),
    ])
    assert code == 0
    with open(tmp_path / "h_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "level"
    rep = json.loads(rep_path.read_text())
    assert len(rows) - 1 == len(rep["trace"]["levels"])


@pytest.mark.parametrize("method", ["hier-p2", "hier-p1"])
def test_hierarchy_trace_csv_cells_are_numbers(tmp_path, method, capsys):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "12", "--periodic",
         "--mean-zero", "--out", str(data)])
    assert run(["solve", "--method", method, "--input", str(data),
                "--out-prefix", str(tmp_path / "h")]) == 0
    with open(tmp_path / "h_trace.csv") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row:
            float(cell)


def test_manifest_command_is_parsed_argv(tmp_path, capsys):
    data = tmp_path / "f.bdiv"
    gen = ["gen", "--kind", "random", "--n", "12", "--seed", "3",
           "--out", str(data), "--report", str(tmp_path / "gen.json")]
    solve = ["solve", "--method", "onestep2d", "--input", str(data),
             "--out-prefix", str(tmp_path / "s"),
             "--report", str(tmp_path / "solve.json")]
    for argv, name in ((gen, "gen.json"), (solve, "solve.json")):
        assert run(argv) == 0
        rep = json.loads((tmp_path / name).read_text())
        assert rep["manifest"]["command"] == argv
        assert "argv" not in rep["manifest"]["config"]


def _torus_input(tmp_path):
    data = tmp_path / "f.bdiv"
    run(["gen", "--kind", "random", "--n", "12", "--seed", "6", "--periodic",
         "--mean-zero", "--out", str(data)])
    return data


def test_solve_minimize_tampered_residual_is_invariant_violation(
    tmp_path, capsys, monkeypatch
):
    solve = variational.minimize_flambda

    def tampered(f, cfg):
        u, r, rep = solve(f, cfg)
        return u, fields.ScalarField(r.grid, r.values + 1e-6), rep

    monkeypatch.setattr(variational, "minimize_flambda", tampered)
    rep_path = tmp_path / "rep.json"
    code = run(["solve", "--method", "minimize", "--lambda", "3.0",
                "--input", str(_torus_input(tmp_path)),
                "--out-prefix", str(tmp_path / "m"), "--report", str(rep_path)])
    assert code == cli.EXIT_INVARIANT
    verification = json.loads(rep_path.read_text())["verification"]
    assert not verification["ok"]
    assert verification["residual_claim_miss"] == pytest.approx(1e-6)


def test_solve_hierarchy_tampered_u_is_invariant_violation(
    tmp_path, capsys, monkeypatch
):
    run_p2 = variational.hierarchical_p2

    def tampered(f, cfg):
        u, trace = run_p2(f, cfg)
        return fields.VectorField.from_arrays(u.grid, list(1.01 * u.as_array())), trace

    monkeypatch.setattr(variational, "hierarchical_p2", tampered)
    rep_path = tmp_path / "rep.json"
    code = run(["solve", "--method", "hier-p2",
                "--input", str(_torus_input(tmp_path)),
                "--out-prefix", str(tmp_path / "h"), "--report", str(rep_path)])
    assert code == cli.EXIT_INVARIANT
    assert not json.loads(rep_path.read_text())["verification"]["ok"]


def _minimize_report(tmp_path, p="2"):
    """Solve the torus input with `minimize` at lambda 3; returns the exit
    code and the verification block."""
    rep_path = tmp_path / "rep.json"
    code = run(["solve", "--method", "minimize", "--lambda", "3.0", "--p", p,
                "--input", str(_torus_input(tmp_path)),
                "--out-prefix", str(tmp_path / "m"), "--report", str(rep_path)])
    return code, json.loads(rep_path.read_text())["verification"]


def test_solve_minimize_reports_bound_and_certificate(tmp_path, capsys):
    for p in ("2", "1"):
        code, verification = _minimize_report(tmp_path, p)
        assert code == cli.EXIT_OK and verification["ok"]
        assert verification["objective"] <= verification["trivial_bound"]
        assert verification["phi_tv"] >= 0.0
        assert verification["certificate_bound"] == pytest.approx(1.01 / 3.0)
        assert verification["lower_bound"] <= verification["objective"]
        if p == "2":  # converged: the weak-duality bound certifies the objective
            assert 0.0 <= verification["rel_gap"] <= variational.CHEAP_GAP
        else:  # exact penalty at lambda 3: r nearly vanishes, and its bound with it
            assert verification["rel_gap"] > 0.5


def test_solve_minimize_tampered_u_breaks_weak_duality(
    tmp_path, capsys, monkeypatch
):
    """Weak duality holds for every u with r = f - div u, so only a u that
    does not produce the written r can sit below the bound: half the
    returned u lowers sup|u|, and the objective falls under the lower
    bound recomputed from f and r."""
    solve = variational.minimize_flambda

    def tampered(f, cfg):
        u, r, rep = solve(f, cfg)
        return fields.VectorField.from_arrays(u.grid, list(0.5 * u.as_array())), r, rep

    monkeypatch.setattr(variational, "minimize_flambda", tampered)
    code, verification = _minimize_report(tmp_path)
    assert code == cli.EXIT_INVARIANT
    assert not verification["ok"]
    assert verification["lower_bound"] > verification["objective"]
    assert verification["rel_gap"] < 0.0


def test_solve_minimize_tampered_u_breaks_trivial_bound(
    tmp_path, capsys, monkeypatch
):
    solve = variational.minimize_flambda

    def tampered(f, cfg):
        # a constant field is divergence-free on the torus: r stays right,
        # but sup|u| now exceeds the zero field's objective
        u, r, rep = solve(f, cfg)
        shift = 2.0 * cfg.lam * norms.lp_norm(f, 2) ** cfg.p
        shifted = fields.VectorField.from_arrays(u.grid, list(u.as_array() + shift))
        return shifted, r, rep

    monkeypatch.setattr(variational, "minimize_flambda", tampered)
    code, verification = _minimize_report(tmp_path)
    assert code == cli.EXIT_INVARIANT
    assert not verification["ok"]
    assert verification["residual_claim_miss"] <= 1e-10
    assert verification["objective"] > verification["trivial_bound"]


def test_solve_minimize_false_convergence_breaks_certificate(
    tmp_path, capsys, monkeypatch
):
    solve = variational.minimize_flambda

    def tampered(f, cfg):
        u, r, rep = solve(f, dataclasses.replace(cfg, max_iters=10))
        return u, r, dataclasses.replace(rep, converged=True)

    monkeypatch.setattr(variational, "minimize_flambda", tampered)
    code, verification = _minimize_report(tmp_path)
    assert code == cli.EXIT_INVARIANT
    assert verification["residual_claim_miss"] == 0.0
    assert verification["objective"] <= verification["trivial_bound"]
    assert verification["phi_tv"] > verification["certificate_bound"]
    assert verification["rel_gap"] > variational.CHEAP_GAP
