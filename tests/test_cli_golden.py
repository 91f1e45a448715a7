"""Golden digests of `bdiv solve`: every method on seeded inputs writes the
same bytes, exits with the same code and reports the same verification
entries.  The pins were taken before the method table replaced the
per-method branches of cmd_solve (those of the variational cases hier-p2,
minimize-p2 and twostep re-taken when the root search changed its
iteration path, and those of all five variational cases when the solver's
2-D magnitude changed its rounding, the hier-p2 trace.csv when its lam
column stopped being written as a numpy scalar repr, and those of all five
variational cases again when the FISTA loop folded the grid spacing and the
step into its stencils, and those of hier-p2, minimize-p2 and twostep when
the root search began to stop on a cheap probe that the weak-duality bound
certifies, and again when a cheap p = 2 solve began to stop once its gap
decides the sign of its defect, and those of minimize-p1 and hier-p1 when
p = 1 moved to the primal-dual solve); a refactor of the CLI must leave
them unchanged.  The hier-p1 case passes --lambda 1.0, the value the CLI
passed by default when the pins were taken."""

import hashlib
import json

import pytest

from bdiv import cli

# input name -> `bdiv gen` arguments
INPUTS = {
    "box12": ["--kind", "random", "--n", "12", "--seed", "11"],
    "torus12": ["--kind", "random", "--n", "12", "--seed", "12", "--periodic",
                "--mean-zero"],
    "cube8": ["--kind", "random", "--n", "8", "--d", "3", "--seed", "13"],
}

# case -> (input, extra `bdiv solve` arguments)
CASES = {
    "onestep2d": ("box12", ["--method", "onestep2d"]),
    "disjoint2d": ("box12", ["--method", "disjoint2d"]),
    "weakl2": ("box12", ["--method", "weakl2", "--tau", "2.0"]),
    "inductive": ("cube8", ["--method", "inductive"]),
    "helmholtz": ("torus12", ["--method", "helmholtz"]),
    "twostep": ("torus12", ["--method", "twostep"]),
    "minimize-p1": ("torus12", ["--method", "minimize", "--p", "1",
                                "--lambda", "3.0"]),
    "minimize-p2": ("torus12", ["--method", "minimize", "--p", "2",
                                "--lambda", "3.0"]),
    "hier-p2": ("torus12", ["--method", "hier-p2"]),
    "hier-p1": ("torus12", ["--method", "hier-p1", "--lambda", "1.0"]),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(tmp_path, case: str) -> dict:
    """Generate the case's input and solve it; returns the exit code, the
    SHA-256 of every file written (keyed by the name after the prefix) and
    the verification block."""
    name, solve_args = CASES[case]
    data = tmp_path / f"{name}.bdiv"
    assert cli.main(["gen", *INPUTS[name], "--out", str(data),
                     "--report", str(tmp_path / "gen.json")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    rep_path = tmp_path / "report.json"
    code = cli.main(["solve", *solve_args, "--input", str(data),
                     "--out-prefix", str(out / "s"), "--report", str(rep_path)])
    report = json.loads(rep_path.read_text())
    return {
        "input": _sha(data),
        "code": code,
        "files": {p.name[2:]: _sha(p) for p in sorted(out.iterdir())},
        "verification": report["verification"],
    }


GOLDEN = {'disjoint2d': {'code': 0,
                         'files': {'certs.csv': 'fa11e47a94779ca4a98ef883d262b332f94aade2eb09b6cdf82f68102f0035b1',
                                   'f1.bdiv': 'd9efb15d4d22c030717b695931b10184982ae8ef092741dab57308e5de340ea1',
                                   'f2.bdiv': '08982f406fbb02b4c67827d73735668a2db0150f7dfd7f8004460b21a6e8ff6d',
                                   'u1.bdiv': '143c85d4c7a4b8fbdf73b6c9b3bddcfb3e47e10c60eb48b37b3ed5d402490dee',
                                   'u2.bdiv': 'ba0ec816f328501bc7b5aa0fa3fa0652e5d84f4f16e53d619a77a5a547fde137'},
                         'input': '4240bef8c6aa89cce08d39a5eb9ce4ba519d10cef1ddb0014b20be7cb572b4ca',
                         'verification': {'certificates_failed': 0,
                                          'certificates_total': 24,
                                          'component_sup_norms': [1.0016804141413882, 0.6112155667219259],
                                          'div_residual_rel': 2.5924531235114715e-16,
                                          'div_residual_sup': 6.661338147750939e-16,
                                          'ok': True,
                                          'vector_sup_norm': 1.111586317562108}},
          'helmholtz': {'code': 0,
                        'files': {'u1.bdiv': '274609468a03992736f2c9574df9a9aca95bf9fdb52fce5b9821d597e12634c3',
                                  'u2.bdiv': 'f04a41b41f9f3cdb8d81e1f50ba00bd0dd974b01fb5fd92136484cfabbffc7b2'},
                        'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                        'verification': {'component_sup_norms': [0.2154901351936288, 0.15878132993476993],
                                         'div_residual_rel': 3.442056915879e-16,
                                         'div_residual_sup': 8.881784197001252e-16,
                                         'ok': True,
                                         'vector_sup_norm': 0.22093210866769905}},
          'hier-p1': {'code': 0,
                      'files': {'trace.csv': 'd489f40895a7b7a3297f74a4f7ca8efcb47ee74a66b9db0ec34eb6fdc021f7cc',
                                'u1.bdiv': 'a9bbed017a0d0fa8ea0b7dd53d1775a860604705b4c1d93d03ead1587a254ff1',
                                'u2.bdiv': '6e6eef6213e1807d94ac7dbe577674d34d56c92779af2e0320598f1c29e035a2'},
                      'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                      'verification': {'component_sup_norms': [0.12596214766925642, 0.12596214766924682],
                                       'ok': True,
                                       'vector_sup_norm': 0.12596214766941138}},
          'hier-p2': {'code': 0,
                      'files': {'trace.csv': 'd77487a59c737acbdf4a714c45d0316951c87f6d1acc3f39b050a2319fae5376',
                                'u1.bdiv': 'e29c67e4ac388638cbc9a1849e879c535b83d7c4dcc376f22823782ee780111f',
                                'u2.bdiv': '64dbeff56da128b10a23a82c413a51104f6b8417da0a613e7bad8db7871ac7c4'},
                      'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                      'verification': {'component_sup_norms': [0.12539142212086146, 0.1258295203774798],
                                       'ok': True,
                                       'vector_sup_norm': 0.12612409776228234}},
          'inductive': {'code': 0,
                        'files': {'certs.csv': 'a8b608cc4cb3962f92fc1f091b94ce518381c0af4c1a6dfd210a5287fb7577f1',
                                  'f1.bdiv': '37f616af56fd5f0189cc63cc8eeb0fa73f6c465bad9b9e8b88c06e4ccd82c372',
                                  'f2.bdiv': '4c5ca94c9fcdfa149b0a8e9ed5da3672946f381f48bae255aaac3b0bbd25c5aa',
                                  'f3.bdiv': '02a0edaa90193b20588cf8af66242dfa8af917f2d96b96ab3493cf4b6a17391e',
                                  'u1.bdiv': '666d8a3be38aa2d2da2e09438df8ce302c8963c9d261f1c4684b4ffa3d16a279',
                                  'u2.bdiv': '9296119037c9cf96fe7db883bbec13b39a118cf4a0d06a0de7527f6c3e8b6176',
                                  'u3.bdiv': 'dbe511ecc09750c584c9189a5dea3076754a3343f07e6aa810e341a044ce3fce'},
                        'input': '91ea84ff517122aed81d87add10e6a67979b7ed1fe344bfc879949d2562de585',
                        'verification': {'certificates_failed': 0,
                                         'certificates_total': 192,
                                         'component_sup_norms': [1.5212595830742432,
                                                                 0.9917861877898844,
                                                                 0.18726217107510268],
                                         'div_residual_rel': 1.1060724449118681e-16,
                                         'div_residual_sup': 4.440892098500626e-16,
                                         'ok': True,
                                         'vector_sup_norm': 1.589868641393516}},
          'minimize-p1': {'code': 0,
                          'files': {'r.bdiv': 'd5b5ea69c72fe621560812213686d293e044f150707ed99185d17436c6edb88b',
                                    'u1.bdiv': 'a9bbed017a0d0fa8ea0b7dd53d1775a860604705b4c1d93d03ead1587a254ff1',
                                    'u2.bdiv': '6e6eef6213e1807d94ac7dbe577674d34d56c92779af2e0320598f1c29e035a2'},
                          'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                          'verification': {'component_sup_norms': [0.12596214766925642, 0.12596214766924682],
                                           'ok': True,
                                           'vector_sup_norm': 0.12596214766941138}},
          'minimize-p2': {'code': 0,
                          'files': {'r.bdiv': 'd1fa6f79e7bf166f0a98d534ad9c9654e98804dd0404c2c2e1fc5d94f67f7f19',
                                    'u1.bdiv': '711bc54f12fa29a6fe239209dd1deced1f31bda74785b1fd7f0edc4b39b5f1c7',
                                    'u2.bdiv': 'ff03fdfd080308c8a7836edb8f4fd6ba5e5705df639061c3fa025efb37cdee63'},
                          'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                          'verification': {'component_sup_norms': [0.119270926251215, 0.11927092599398935],
                                           'ok': True,
                                           'vector_sup_norm': 0.11927092625232068}},
          'onestep2d': {'code': 0,
                        'files': {'certs.csv': 'abef8dc508ff467c30c6e936c720962be0e1571c2a2fe43b7baed18f549a39e3',
                                  'f1.bdiv': '02e930c859b7253f19982ac57930638c995d2830b229f2a20bb1152c16f726e3',
                                  'f2.bdiv': '56ec8cbd679ca5c1d8141b821ea278d31288eac4428a1b90ff14387e58b66e9b',
                                  'u1.bdiv': '788ad9216bd27b5100479dc7ad8bfa21ca64ccc81d7abb35c93bc07bab5516c0',
                                  'u2.bdiv': '73b7a195b8205679d432cc779bd3297a7342268303636b965288ecc468efe336'},
                        'input': '4240bef8c6aa89cce08d39a5eb9ce4ba519d10cef1ddb0014b20be7cb572b4ca',
                        'verification': {'certificates_failed': 0,
                                         'certificates_total': 24,
                                         'component_sup_norms': [0.6279583867734356, 0.4818504405373978],
                                         'div_residual_rel': 1.728302082340981e-16,
                                         'div_residual_sup': 4.440892098500626e-16,
                                         'ok': True,
                                         'vector_sup_norm': 0.7381158881565612}},
          'twostep': {'code': 0,
                      'files': {'u1.bdiv': 'e53c30f8937f59b5d2f17e626615f4099b2d6c806d3a4291c2d1030ddeddfd86',
                                'u2.bdiv': 'a7c82f6e926a3b2c3f5013d41b6b61b8ae7dcd602520ba7902a8a79cd66d6b9e'},
                      'input': '90167e625e6ef1bd7809724e3af789ada60da18c803acc55540c5e2c8d1da218',
                      'verification': {'component_sup_norms': [0.12925201887782406, 0.12594427290234886],
                                       'div_residual_rel': 1.7210284579395e-16,
                                       'div_residual_sup': 4.440892098500626e-16,
                                       'ok': True,
                                       'vector_sup_norm': 0.12926913235127027}},
          'weakl2': {'code': 0,
                     'files': {'certs.csv': '8b987cd0c0b7dca47556244e095b861e83711f703498eefbd1bddee1eaafa2d3',
                               'f1.bdiv': '4240bef8c6aa89cce08d39a5eb9ce4ba519d10cef1ddb0014b20be7cb572b4ca',
                               'f2.bdiv': '3c6a5a419b659f203cbd7c486d9aa2048e8b7d10502e5e54be4ba541fd2d1f6b',
                               'u1.bdiv': '74548b9e1bbb363749c16688a092f3017e74506cc739be809145a94743b3781c',
                               'u2.bdiv': '3c6a5a419b659f203cbd7c486d9aa2048e8b7d10502e5e54be4ba541fd2d1f6b'},
                     'input': '4240bef8c6aa89cce08d39a5eb9ce4ba519d10cef1ddb0014b20be7cb572b4ca',
                     'verification': {'certificates_failed': 0,
                                      'certificates_total': 24,
                                      'component_sup_norms': [1.223574490275528, 0.0],
                                      'div_residual_rel': 5.184906247022943e-16,
                                      'div_residual_sup': 1.3322676295501878e-15,
                                      'ok': True,
                                      'vector_sup_norm': 1.223574490275528}}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_golden_digests(tmp_path, case, capsys):
    want = GOLDEN[case]
    got = run_case(tmp_path, case)
    assert got["input"] == want["input"]
    assert got["code"] == want["code"]
    assert got["files"] == want["files"]
    for key, value in want["verification"].items():
        assert got["verification"][key] == value, key
