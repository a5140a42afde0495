import json
import subprocess
import sys
import time

import pytest

from lie2alg.cli import fixture_dir, run
from lie2alg.cohomology import (adjoint_rep, algebra_to_json, cochain_to_json, rep_to_json,
                                sl_algebra, trivial_rep)
from conftest import rand_cochain
from test_sweep_oracles import coboundary_pointwise


def fx(name: str) -> str:
    return str(fixture_dir() / name)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_check_linfty_pass(capsys):
    code, rep = run(["check-linfty", fx("ghbar_so3_1.json")])
    assert code == 0
    assert rep.passed
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    """The parser is built once per process.  Runs with different
    subcommands, a non-default option, its default again, parse errors
    and no subcommand give the same exit codes, standard output and
    standard error as runs that each build a fresh parser."""
    from lie2alg import cli

    argvs = [["--json", "killing", fx("so3.json")],
             ["--json", "cohomology", "--degree", "2", fx("so3.json"), "--rep", fx("so3.json")],
             ["cohomology", fx("sl2.json")],
             ["--json", "cohomology", "--degree", "2", fx("so3.json")],
             ["--json", "ybe", fx("broken_jacobi3.json")],
             ["--bogus"],
             [],
             ["--json", "build-ghbar", "--hbar", "1/0", fx("so3.json")],
             ["--json", "check-linfty", fx("broken_abelian4.json")]]

    def outcomes():
        out = []
        for argv in argvs:
            code, _ = run(argv)
            std = capsys.readouterr()
            report = json.loads(std.out) if argv and argv[0] == "--json" and code != 2 else None
            if report is not None:
                report.pop("elapsed_s")
            out.append((code, report if report is not None else std.out, std.err))
        return out
    cached = outcomes()
    assert cli.build_parser() is cli.build_parser()
    # a command re-bound after the parser is built is the one that runs
    calls = []
    ybe = cli.cmd_ybe
    monkeypatch.setattr(cli, "cmd_ybe", lambda args, rep: calls.append(ybe(args, rep)))
    assert run(argvs[4])[0] == 1 and len(calls) == 1
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == cached
    assert [code for code, _, _ in cached] == [0, 2, 2, 0, 1, 2, 2, 2, 1]


def test_check_linfty_broken_names_condition(capsys):
    code, rep = run(["check-linfty", fx("broken_abelian4.json")])
    assert code == 1
    bad = [c for r in rep.reports for c in r.checks if not c.passed]
    assert [c.name for c in bad] == ["i_jacobiator_coherence"]
    assert bad[0].first_violation[0] == (0, 1, 2, 3)


def test_ybe_exit_codes():
    assert run(["ybe", fx("abelian3.json")])[0] == 0
    assert run(["ybe", fx("so3.json")])[0] == 0
    assert run(["ybe", fx("broken_jacobi3.json")])[0] == 1


def test_ybe_reports_non_antisymmetric_bracket_as_failed_check(tmp_path):
    algebra = read_json(fx("so3.json"))
    algebra["bracket"][0][1][2] = "5"
    f = tmp_path / "so3_not_antisymmetric.json"
    f.write_text(json.dumps(algebra))
    reports = {}
    for cmd in ("ybe", "killing"):
        code, rep = run([cmd, str(f)])
        assert code == 1
        reports[cmd] = rep.reports[0].result("antisymmetry").first_violation
    assert reports["ybe"] == reports["killing"] == ((0, 1), [0, 0, 4])


def test_parse_error_exit_two(tmp_path, capsys):
    missing = run(["check-linfty", str(tmp_path / "nope.json")])
    assert missing[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dim0\": 3}")
    assert run(["check-linfty", str(bad)])[0] == 2
    err = capsys.readouterr().err
    assert "dim1" in err
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"dim0": "\xff"}')
    assert run(["check-linfty", str(not_utf8)])[0] == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_malformed_field_named(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text(json.dumps({"dim0": 1, "dim1": 1, "d": [["1/0x"]],
                             "l2_00": [[["0"]]], "l2_01": [[["0"]]],
                             "l3": [[[["0"]]]]}))
    assert run(["check-linfty", str(f)])[0] == 2
    assert "'d'" in capsys.readouterr().err


def test_unknown_subcommand_exit_two():
    assert run(["frobnicate"])[0] == 2


def test_json_report_round_trips(capsys):
    code, rep = run(["--json", "check-lie2", fx("ghbar_so3_2.json")])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == rep.to_json()
    assert parsed["passed"] is True
    assert parsed["passed"] == all(c["passed"] for c in parsed["checks"])


def test_check_lie2_agreement_on_broken(capsys):
    code, rep = run(["check-lie2", fx("broken_abelian4.json")])
    assert code == 1
    names = {c.name: c.passed for r in rep.reports for c in r.checks}
    assert names["octagon_matches_condition_i"] is True
    assert names["octagon"] is False


def test_check_lie2_fractional_broken_reports_exact_residual(tmp_path, capsys):
    """The octagon sweeps D v over the integers; the --json residual is
    still the per-tuple oracle's, in the structure's own rationals."""
    from conftest import broken_abelian4_thirds
    from lie2alg.lie2 import from_linfty
    from lie2alg.linfty import linf_to_json
    from test_sweep_oracles import check_jacobiator_identity_categorical_per_tuple
    v = broken_abelian4_thirds()
    f = tmp_path / "broken_abelian4_thirds.json"
    f.write_text(json.dumps(linf_to_json(v)))
    code, _ = run(["--json", "check-lie2", str(f)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    oracle = check_jacobiator_identity_categorical_per_tuple(from_linfty(v))
    want = oracle.result("octagon").to_json()
    assert checks["octagon"]["location"] == want["location"] == [0, 1, 2, 3]
    assert checks["octagon"]["residual"] == want["residual"] == ["0", "0", "0", "0", "1/3"]


def test_check_dcm(capsys):
    assert run(["check-dcm", fx("dcm_so3_adjoint.json")])[0] == 0


def test_cohomology_command(capsys):
    code, rep = run(["cohomology", "--degree", "3", fx("so3.json")])
    assert code == 0
    assert rep.payload == {"degree": 3, "dimension": 1}


def test_is_cocycle_and_coboundary_commands(tmp_path, capsys):
    cochain = {"algebra": read_json(fx("so3.json")),
               "degree": 1, "values": {"0": ["1"]}}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(cochain))
    code, rep = run(["coboundary", str(f), "-o", str(tmp_path / "dw.json")])
    assert code == 0
    dw = read_json(tmp_path / "dw.json")
    assert dw["degree"] == 2
    assert dw["values"] == {"1<2": ["-1"]}
    cochain3 = {"algebra": read_json(fx("so3.json")),
                "degree": 3, "values": {"0<1<2": ["-2"]}}
    f3 = tmp_path / "w3.json"
    f3.write_text(json.dumps(cochain3))
    code, rep = run(["is-cocycle", str(f3)])
    assert code == 0
    assert rep.payload == {"is_cocycle": True, "is_coboundary": False}


def test_is_cocycle_reports_first_nonzero_key_of_delta(tmp_path, capsys):
    """delta of the unit 2-cochain of sl3 on (H_0, H_1) vanishes on the
    first 10 keys; the report names the first key where it does not."""
    cochain = {"algebra": algebra_to_json(sl_algebra(3)), "degree": 2, "values": {"6<7": ["1"]}}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(cochain))
    code, rep = run(["--json", "is-cocycle", str(f)])
    assert code == 1
    assert rep.payload == {"is_cocycle": False, "is_coboundary": False}
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check == {"name": "delta_vanishes", "passed": False,
                     "location": [0, 2, 7], "residual": ["-1"]}
    run(["is-cocycle", str(f)])
    assert "at (0, 2, 7): residual [\"-1\"]" in capsys.readouterr().out


def test_coboundary_command_matches_pointwise_oracle(tmp_path, rng, capsys):
    g = sl_algebra(3)
    for r in (trivial_rep(g, 1), adjoint_rep(g)):
        for degree in range(4):
            w = rand_cochain(rng, r, degree)
            f = tmp_path / "w.json"
            f.write_text(json.dumps({"algebra": algebra_to_json(g), "rep": rep_to_json(r),
                                     **cochain_to_json(w)}))
            assert run(["--json", "coboundary", str(f)])[0] == 0
            payload = json.loads(capsys.readouterr().out)["payload"]
            assert payload == cochain_to_json(coboundary_pointwise(w))


def test_build_ghbar_and_check(tmp_path):
    out = tmp_path / "gh.json"
    code, rep = run(["build-ghbar", "--hbar=-1/2", fx("so3.json"), "-o", str(out)])
    assert code == 0
    built = read_json(out)
    shipped = read_json(fx("cross_product.json"))
    assert built == shipped
    assert run(["check-linfty", str(out)])[0] == 0


def test_killing_command(capsys):
    code, rep = run(["killing", fx("sl2.json")])
    assert code == 0
    assert rep.payload["killing"] == [["8", "0", "0"], ["0", "0", "4"], ["0", "4", "0"]]


@pytest.mark.parametrize("key", ["0<5", "1<0", "0<1<2"])
def test_bad_cochain_key_exit_two(tmp_path, capsys, key):
    cochain = {"algebra": read_json(fx("so3.json")), "degree": 2, "values": {key: ["1"]}}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(cochain))
    for cmd in ("is-cocycle", "coboundary"):
        assert run([cmd, str(f)])[0] == 2
        assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["coboundary", "COCHAIN"], ["build-ghbar", "--hbar", "1", "SO3"],
                                  ["skeletalize", "SO3_1"]], ids=lambda argv: argv[0])
def test_unwritable_out_path_exit_two(tmp_path, capsys, argv):
    cochain = {"algebra": read_json(fx("so3.json")), "degree": 1, "values": {"0": ["1"]}}
    (tmp_path / "w.json").write_text(json.dumps(cochain))
    files = {"COCHAIN": str(tmp_path / "w.json"), "SO3": fx("so3.json"),
             "SO3_1": fx("ghbar_so3_1.json")}
    out = tmp_path / "missing_dir" / "x.json"
    assert run([files.get(a, a) for a in argv] + ["-o", str(out)])[0] == 2
    assert str(out) in capsys.readouterr().err


def test_unwritable_copy_to_exit_two(tmp_path, capsys):
    target = tmp_path / "missing_dir"
    assert run(["fixtures", "--copy-to", str(target)])[0] == 2
    assert str(target) in capsys.readouterr().err
    assert run(["fixtures", "--copy-to", str(tmp_path)])[0] == 0
    assert (tmp_path / "so3.json").read_text() == (fixture_dir() / "so3.json").read_text()


def test_zero_denominator_exit_two(tmp_path, capsys):
    algebra = read_json(fx("so3.json"))
    algebra["bracket"][0][1][2] = "1/0"
    f = tmp_path / "so3_zero_denominator.json"
    f.write_text(json.dumps(algebra))
    assert run(["killing", str(f)])[0] == 2
    assert "bracket" in capsys.readouterr().err


def test_oversized_integer_exit_two(tmp_path, capsys):
    """A 5,000-digit entry is refused by exactlin's own digit limit, as a
    string field and as a bare JSON number, without the interpreter's advice."""
    obj = read_json(fx("ghbar_so3_1.json"))
    obj["d"][0][0] = "7" * 5000
    as_string = tmp_path / "big_string.json"
    as_string.write_text(json.dumps(obj))
    as_number = tmp_path / "big_number.json"
    as_number.write_text(json.dumps(obj).replace(f'"{"7" * 5000}"', "7" * 5000))
    for f, where in ((as_string, "field 'd'"), (as_number, "invalid JSON")):
        assert run(["check-linfty", str(f)])[0] == 2
        err = capsys.readouterr().err
        assert where in err
        assert "5000 digits" in err and "limit of 4300" in err
        assert "set_int_max_str_digits" not in err


def test_long_computed_residual_rendered_exactly(tmp_path, capsys):
    """Two 3,000-digit entries are accepted; their 6,000-digit product, the
    Jacobi residual at (0, 1, 2), is past the interpreter's conversion
    limit and is still printed in full."""
    a, b = "7" * 3000, "3" * 3000
    obj = read_json(fx("ghbar_so3_1.json"))
    obj["d"][0][0], obj["l3"][0][1][2] = a, [b]
    f = tmp_path / "long_residual.json"
    f.write_text(json.dumps(obj))
    assert run(["--json", "check-linfty", str(f)])[0] == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    jacobi = checks["g_jacobi_up_to_d"]
    assert jacobi["location"] == [0, 1, 2]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = str(int(a) * int(b))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 6000 and jacobi["residual"][0] == want


def test_skeletalize_command(tmp_path):
    f = tmp_path / "cx.json"
    f.write_text(json.dumps({"dim0": 2, "dim1": 2,
                             "d": [["1", "0"], ["0", "0"]]}))
    code, rep = run(["skeletalize", str(f), "-o", str(tmp_path / "sk.json")])
    assert code == 0
    sk = read_json(tmp_path / "sk.json")
    assert sk["skeletal"] == {"dim0": 1, "dim1": 1, "d": [["0"]]}


def test_classify_command(capsys):
    code, rep = run(["classify", fx("ghbar_so3_1.json")])
    assert code == 0
    assert rep.payload["cocycle"]["values"] == {"0<1<2": ["-2"]}


def test_fixtures_listing(capsys):
    code, rep = run(["fixtures"])
    assert code == 0
    names = rep.payload["fixtures"]
    for expected in ("abelian3.json", "so3.json", "sl2.json", "broken_jacobi3.json",
                     "ghbar_so3_0.json", "ghbar_so3_1.json", "ghbar_so3_2.json",
                     "cross_product.json", "broken_abelian4.json",
                     "dcm_so3_adjoint.json"):
        assert expected in names


def hom_json(rng):
    from lie2alg.linfty import linf_to_json
    from lie2alg.serialize import mat_to_json, tensor_to_json
    from test_linfty import twist_hom
    f = twist_hom(rng)
    return f, {"source": linf_to_json(f.source), "target": linf_to_json(f.target),
               "phi0": mat_to_json(f.chain.phi0), "phi1": mat_to_json(f.chain.phi1),
               "phi2": tensor_to_json(f.phi2)}


def test_check_hom_command(tmp_path, rng):
    f, obj = hom_json(rng)
    p = tmp_path / "hom.json"
    p.write_text(json.dumps(obj))
    assert run(["check-hom", str(p)])[0] == 0
    obj["phi2"][0][1][0] = "1000"
    p.write_text(json.dumps(obj))
    assert run(["check-hom", str(p)])[0] == 1


def test_check_2hom_command(tmp_path, rng):
    f, obj = hom_json(rng)
    two = {"source": obj["source"], "target": obj["target"],
           "from": {"phi0": obj["phi0"], "phi1": obj["phi1"], "phi2": obj["phi2"]},
           "to": {"phi0": obj["phi0"], "phi1": obj["phi1"], "phi2": obj["phi2"]},
           "tau": [["0", "0", "0"]]}
    p = tmp_path / "twohom.json"
    p.write_text(json.dumps(two))
    assert run(["check-2hom", str(p)])[0] == 0
    two["tau"] = [["1", "0", "0"]]
    p.write_text(json.dumps(two))
    assert run(["check-2hom", str(p)])[0] == 1


def test_check_hom_bad_shapes_exit_two(tmp_path, rng, capsys):
    _, obj = hom_json(rng)
    obj["phi0"] = [["1", "0"]]  # wrong shape for a 3 -> 3 map
    p = tmp_path / "hom.json"
    p.write_text(json.dumps(obj))
    assert run(["check-hom", str(p)])[0] == 2
    assert "phi0" in capsys.readouterr().err


def test_cohomology_with_rep_file(tmp_path):
    from lie2alg.cohomology import adjoint_rep, rep_to_json, sl2_algebra
    rep_file = tmp_path / "adj.json"
    rep_file.write_text(json.dumps(rep_to_json(adjoint_rep(sl2_algebra()))))
    code, rep = run(["cohomology", "--degree", "3", fx("sl2.json"),
                     "--rep", str(rep_file)])
    assert code == 0
    assert rep.payload == {"degree": 3, "dimension": 0}


def test_cohomology_refuses_a_non_representation(tmp_path, capsys, monkeypatch):
    """rho(e_2) = 1 on Q with rho(e_1) = rho(e_3) = 0 breaks rho([e_1, e_3])
    = [rho e_1, rho e_3] for so3: exit 1 with no dimension, and no
    coboundary matrix is built."""
    from lie2alg import cohomology
    rfile = tmp_path / "R.json"
    rfile.write_text(json.dumps({"dimV": 1, "rho": [[["0"]], [["1"]], [["0"]]]}))
    built = []
    monkeypatch.setattr(cohomology, "coboundary_matrix", lambda rep, n: built.append(n))
    code, rep = run(["--json", "cohomology", "--degree", "1", fx("so3.json"),
                     "--rep", str(rfile)])
    assert code == 1 and built == []
    assert rep.payload == {"degree": 1, "dimension": None}
    assert rep.notes == ["H^1 not computed: rho is not a representation of a Lie algebra "
                         "(bracket_to_commutator fails)"]
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["dimension"] is None and not report["passed"]


def test_tetrahedron_broken_names_condition_i(capsys):
    code, rep = run(["tetrahedron", fx("broken_abelian4.json")])
    assert code == 1
    names = {c.name: c for r in rep.reports for c in r.checks}
    assert not names["component_equality"].passed
    assert names["agreement"].passed
    assert any("(0, 1, 2, 3)" in note for note in rep.notes)


@pytest.mark.parametrize("edits, failing", [
    # e0 added to [e0, e1], antisymmetrically: the Jacobi identity fails, and
    # so does the target row of one of Y's components
    ({("l2_00", 0, 1, 0): "1", ("l2_00", 1, 0, 0): "-1"},
     {"g_jacobi_up_to_d": ([0, 1, 2], ["0", "-1", "0"]),
      "y_target_row": ([2, 27], "-1")}),
    # an action of e0 on the morphisms: l3 is not natural, nor is Y
    ({("l2_01", 0, 0, 0): "1"},
     {"h_l3_naturality": ([0, 1, 2], ["1"]), "y_naturality": ([4, 21], "1")}),
    # [e0, e0] = e1: not antisymmetric, and the tetrahedron fails too
    ({("l2_00", 0, 0, 1): "1"},
     {"a_bracket_antisymmetry": ([0, 0], ["0", "2", "0"]),
      "g_jacobi_up_to_d": ([0, 0, 0], ["0", "0", "-1"]),
      "y_target_row": ([1, 23], "1"),
      "component_equality": ([1, 1, 1, 3], {"length": 625, "nonzero": {"4": "-2"}})}),
])
def test_tetrahedron_reports_failing_y_hypotheses(tmp_path, capsys, edits, failing):
    """Edits of one entry (or one antisymmetric pair) of ghbar_so3_1 that
    break Y's hypotheses: every failing check, with its first location and
    residual."""
    obj = read_json(fx("ghbar_so3_1.json"))
    for (name, i, j, k), x in edits.items():
        obj[name][i][j][k] = x
    f = tmp_path / "edited.json"
    f.write_text(json.dumps(obj))
    assert run(["--json", "tetrahedron", str(f)])[0] == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: (c["location"], c["residual"])
            for c in checks if not c["passed"]} == failing


class Built(Exception):
    """Raised by a stubbed builder: the command passed its preflight."""


def test_tetrahedron_size_preflight(tmp_path, capsys, monkeypatch):
    """g_hbar(sl6) has a morphism basis of 37^4 = 1,874,161 on (k+L)^4, over
    the limit: exit 2 before anything is built, refused one below its basis
    and admitted at it.  g_hbar(sl5), at 26^4 = 456,976, is admitted."""
    from lie2alg import braid, cli
    from lie2alg.cohomology import build_g_hbar, sl_algebra
    from lie2alg.linfty import linf_to_json

    def build_y(L):
        raise Built
    monkeypatch.setattr(braid, "build_Y", build_y)
    sl5, sl6 = tmp_path / "ghbar_sl5.json", tmp_path / "ghbar_sl6.json"
    sl5.write_text(json.dumps(linf_to_json(build_g_hbar(sl_algebra(5), 1).data)))
    sl6.write_text(json.dumps(linf_to_json(build_g_hbar(sl_algebra(6), 1).data)))
    with pytest.raises(Built):
        run(["tetrahedron", str(sl5)])
    assert run(["tetrahedron", str(sl6)])[0] == 2
    err = capsys.readouterr().err
    assert "1874161" in err and f"limit of {cli.TETRA_MAX_BASIS}" in err
    monkeypatch.setattr(cli, "TETRA_MAX_BASIS", 1874160)
    assert run(["tetrahedron", str(sl6)])[0] == 2
    assert "1874161" in capsys.readouterr().err
    monkeypatch.setattr(cli, "TETRA_MAX_BASIS", 1874161)
    with pytest.raises(Built):
        run(["tetrahedron", str(sl6)])


def test_tetrahedron_ghbar_sl3_passes(tmp_path):
    """The g_hbar(sl3) sweep, 6,561 objects on a morphism basis of 10^4,
    runs under the default limit and passes within criterion 5's bound."""
    from lie2alg.cohomology import build_g_hbar, sl_algebra
    from lie2alg.linfty import linf_to_json

    f = tmp_path / "ghbar_sl3.json"
    f.write_text(json.dumps(linf_to_json(build_g_hbar(sl_algebra(3), 1).data)))
    start = time.monotonic()
    code, rep = run(["tetrahedron", str(f)])
    assert time.monotonic() - start < 60.0
    assert code == 0 and rep.passed
    assert rep.reports[1].result("component_equality").passed


def test_tetrahedron_ghbar_sl4_passes(tmp_path):
    """g_hbar(sl4), 16^4 = 65,536 objects on a morphism basis of
    17^4 = 83,521, runs under the default limit and passes."""
    from lie2alg.cohomology import build_g_hbar, sl_algebra
    from lie2alg.linfty import linf_to_json

    f = tmp_path / "ghbar_sl4.json"
    f.write_text(json.dumps(linf_to_json(build_g_hbar(sl_algebra(4), 1).data)))
    code, rep = run(["--json", "tetrahedron", str(f)])
    assert code == 0 and rep.passed


@pytest.fixture
def no_delta(monkeypatch):
    """Every builder of a coboundary matrix and every stream of its cells
    raises Built, so a test sees whether a command passed its preflight
    without running anything heavy."""
    from lie2alg import cohomology

    def built(*args):
        raise Built
    monkeypatch.setattr(cohomology, "coboundary_matrix", built)
    monkeypatch.setattr(cohomology, "_coboundary_cells", built)


def write_rep(tmp_path, g, r) -> list:
    """The algebra and representation files of `cohomology`, as arguments."""
    gfile, rfile = tmp_path / "g.json", tmp_path / "rep.json"
    gfile.write_text(json.dumps(algebra_to_json(g)))
    rfile.write_text(json.dumps(rep_to_json(r)))
    return [str(gfile), "--rep", str(rfile)]


def test_cohomology_size_preflight(tmp_path, capsys, monkeypatch, no_delta):
    """H^5(sl4, adjoint) may hold 1,345,344 nonzeros in delta_4 and delta_5,
    over the limit: exit 2 before any coboundary matrix is built, refused
    one below its bound and admitted at it.  H^4 (524,160) is admitted."""
    from lie2alg import cli

    g = sl_algebra(4)
    base = ["cohomology"] + write_rep(tmp_path, g, adjoint_rep(g))
    with pytest.raises(Built):
        run(base + ["--degree", "4"])
    assert run(base + ["--degree", "5"])[0] == 2
    err = capsys.readouterr().err
    assert "1345344" in err and f"limit of {cli.COHOMOLOGY_MAX_NNZ}" in err
    monkeypatch.setattr(cli, "COHOMOLOGY_MAX_NNZ", 1345343)
    assert run(base + ["--degree", "5"])[0] == 2
    assert "1345344" in capsys.readouterr().err
    monkeypatch.setattr(cli, "COHOMOLOGY_MAX_NNZ", 1345344)
    with pytest.raises(Built):
        run(base + ["--degree", "5"])


def test_cohomology_sl4_trivial_degree_8_passes_preflight(tmp_path, no_delta):
    """H^8(sl4, trivial) bounds at 219,648 nonzeros and visits 360,360 index
    pairs: admitted."""
    g = sl_algebra(4)
    with pytest.raises(Built):
        run(["cohomology", "--degree", "8"] + write_rep(tmp_path, g, trivial_rep(g)))


def test_is_cocycle_bounds_the_delta_it_eliminates(tmp_path, capsys, no_delta):
    """is-cocycle of a zero 4-cochain over sl5 adjoint would eliminate
    delta_3, which may hold 1,235,696 nonzeros, if the cochain is a cocycle:
    exit 2 within a second, before any delta is built or streamed."""
    from lie2alg import cli

    g = sl_algebra(5)
    f = tmp_path / "zero4.json"
    f.write_text(json.dumps({"algebra": algebra_to_json(g), "rep": rep_to_json(adjoint_rep(g)),
                             "degree": 4, "values": {}}))
    start = time.monotonic()
    assert run(["is-cocycle", str(f)])[0] == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "1235696" in err and f"limit of {cli.COHOMOLOGY_MAX_NNZ}" in err


@pytest.mark.parametrize("degree, nnz", [(4, 402688), (5, 942656)])
def test_coboundary_is_bounded_by_pairs_only(tmp_path, no_delta, degree, nnz):
    """coboundary only streams delta_n, so no nonzero bound applies: a
    cochain over sl4 adjoint is admitted at degree 4 and at degree 5,
    whose delta_5 bounds over the limit that `cohomology` applies."""
    from lie2alg import cohomology

    g = sl_algebra(4)
    r = adjoint_rep(g)
    assert cohomology.coboundary_nnz_bound(r, degree) == nnz
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"algebra": algebra_to_json(g), "rep": rep_to_json(r),
                             "degree": degree, "values": {}}))
    with pytest.raises(Built):
        run(["coboundary", str(f)])


@pytest.mark.parametrize("argv, pairs", [
    (["cohomology", "--degree", "10", "<g>"], 17551820),
    (["is-cocycle", "<w>"], 14360580),
    (["coboundary", "<w>"], 8314020),
])
def test_delta_work_preflight(tmp_path, capsys, argv, pairs):
    """A 20-dimensional abelian algebra has no bracket nonzeros, but delta_9
    visits every pair of each of its comb(20, 10) keys: each command that
    would build it exits 2 within a second, naming the limit."""
    from lie2alg import cli
    from lie2alg.cohomology import abelian_algebra

    g = algebra_to_json(abelian_algebra(20))
    gfile, wfile = tmp_path / "abelian20.json", tmp_path / "zero9.json"
    gfile.write_text(json.dumps(g))
    wfile.write_text(json.dumps({"algebra": g, "degree": 9, "values": {}}))
    argv = [{"<g>": str(gfile), "<w>": str(wfile)}.get(a, a) for a in argv]
    start = time.monotonic()
    assert run(argv)[0] == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert f"visits {pairs} index pairs" in err and f"limit of {cli.DELTA_MAX_PAIRS}" in err


@pytest.mark.parametrize("degree", [10 ** 6, 10 ** 30], ids=["1e6", "1e30"])
@pytest.mark.parametrize("command, payload", [
    ("cohomology", lambda n: {"degree": n, "dimension": 0}),
    ("is-cocycle", lambda n: {"is_cocycle": True, "is_coboundary": True}),
    ("coboundary", lambda n: {"degree": n + 1, "values": {}}),
], ids=["cohomology", "is-cocycle", "coboundary"])
def test_degree_above_dimension_is_immediate(tmp_path, capsys, command, payload, degree):
    """A degree above dim g has no cochain keys: each command answers at
    once, in under a second and 1 MB of traced allocations, without listing
    index pairs or allocating a slot per degree."""
    import tracemalloc

    g = read_json(fx("so3.json"))
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"algebra": g, "degree": degree, "values": {}}))
    argv = (["--json", "cohomology", "--degree", str(degree), fx("so3.json")]
            if command == "cohomology" else ["--json", command, str(f)])
    tracemalloc.start()
    try:
        start = time.monotonic()
        code, _ = run(argv)
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["payload"] == payload(degree)
    assert elapsed < 1.0 and peak < 1 << 20


def test_coboundary_nnz_bound_holds():
    """The preflight's bound is never below the nonzeros of delta_n."""
    from lie2alg.cohomology import (adjoint_rep, coboundary_matrix, coboundary_nnz_bound,
                                    sl_algebra, so3_algebra, trivial_rep)
    reps = [adjoint_rep(sl_algebra(3)), trivial_rep(sl_algebra(3), 2),
            adjoint_rep(so3_algebra()), adjoint_rep(sl_algebra(4))]
    for rep in reps:
        for n in range(-1, 4 if rep.algebra.dim < 15 else 2):
            nnz = sum(len(row) for row in coboundary_matrix(rep, n).entries) if n >= 0 else 0
            assert nnz <= coboundary_nnz_bound(rep, n)
    assert coboundary_nnz_bound(adjoint_rep(sl_algebra(4)), 3) == 121472


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lie2alg.cli", "killing", fx("so3.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "killing form rows" in proc.stdout
