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
             ["--json", "cohomology", "--degree", "2", fx("so3.json"), "--max-nnz", "0"],
             ["cohomology", fx("sl2.json")],
             ["--json", "cohomology", "--degree", "2", fx("so3.json")],
             ["--json", "ybe", fx("broken_jacobi3.json")],
             ["--bogus"],
             [],
             ["--json", "tetrahedron", fx("ghbar_so3_0.json"), "--max-basis", "10"],
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


def test_tetrahedron_broken_names_condition_i(capsys):
    code, rep = run(["tetrahedron", fx("broken_abelian4.json")])
    assert code == 1
    names = {c.name: c for r in rep.reports for c in r.checks}
    assert not names["component_equality"].passed
    assert names["agreement"].passed
    assert any("(0, 1, 2, 3)" in note for note in rep.notes)


def test_tetrahedron_size_preflight(tmp_path, capsys, monkeypatch):
    """g_hbar(sl5) has a morphism basis of 26^4 = 456,976 on (k+L)^4, over
    the default limit: exit 2 before anything is built.  --max-basis lifts it."""
    from lie2alg import braid, cli
    from lie2alg.cohomology import build_g_hbar, sl_algebra
    from lie2alg.linfty import linf_to_json

    class Built(Exception):
        pass

    def build_y(L):
        raise Built
    monkeypatch.setattr(braid, "build_Y", build_y)
    f = tmp_path / "ghbar_sl5.json"
    f.write_text(json.dumps(linf_to_json(build_g_hbar(sl_algebra(5), 1).data)))
    assert cli.TETRA_MAX_BASIS >= 17 ** 4  # g_hbar(sl4)
    assert run(["tetrahedron", str(f)])[0] == 2
    err = capsys.readouterr().err
    assert "456976" in err and f"limit of {cli.TETRA_MAX_BASIS}" in err
    assert run(["tetrahedron", str(f), "--max-basis", "456975"])[0] == 2
    with pytest.raises(Built):
        run(["tetrahedron", str(f), "--max-basis", "456976"])


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


def test_cohomology_size_preflight(tmp_path, capsys, monkeypatch):
    """H^4(sl4, adjoint) may hold 524,160 nonzeros in delta_3 and delta_4,
    over the default limit: exit 2 before any coboundary matrix is built.
    H^3 is admitted, and --max-nnz lifts the limit."""
    from lie2alg import cli, cohomology
    from lie2alg.cohomology import adjoint_rep, algebra_to_json, rep_to_json, sl_algebra

    class Built(Exception):
        pass

    def coboundary_matrix(rep, n):
        raise Built
    monkeypatch.setattr(cohomology, "coboundary_matrix", coboundary_matrix)
    g = sl_algebra(4)
    gfile, rfile = tmp_path / "sl4.json", tmp_path / "adjoint.json"
    gfile.write_text(json.dumps(algebra_to_json(g)))
    rfile.write_text(json.dumps(rep_to_json(adjoint_rep(g))))
    base = ["cohomology", str(gfile), "--rep", str(rfile)]
    assert run(base + ["--degree", "4"])[0] == 2
    err = capsys.readouterr().err
    assert "524160" in err and f"limit of {cli.COHOMOLOGY_MAX_NNZ}" in err
    assert run(base + ["--degree", "4", "--max-nnz", "524159"])[0] == 2
    with pytest.raises(Built):
        run(base + ["--degree", "4", "--max-nnz", "524160"])
    with pytest.raises(Built):
        run(base + ["--degree", "3"])


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
