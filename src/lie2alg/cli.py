"""Command-line front end: fixture parsing, verification, classification.

All mathematics lives in the library modules; this is a thin shell that
loads JSON fixtures, runs checks and renders a report.  Exit codes:
0 every check passed, 1 a mathematical check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from math import comb

from . import braid, cohomology, lie2, linfty, twoterm
from .exactlin import DimensionMismatch, rational
from .report import CheckReport, first_violation
from .serialize import (FixtureError, load_json_file, mat_from_json, mat_to_json, need,
                        tensor_from_json)


@dataclass
class Report:
    command: list
    reports: list = field(default_factory=list)
    elapsed_s: float = 0.0
    notes: list = field(default_factory=list)
    payload: dict | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> dict:
        checks = [c.to_json() for r in self.reports for c in r.checks]
        out = {"command": self.command, "passed": self.passed,
               "checks": checks, "elapsed_s": self.elapsed_s}
        if self.notes:
            out["notes"] = self.notes
        if self.payload is not None:
            out["payload"] = self.payload
        return out


def _render_human(rep: Report) -> str:
    lines = []
    for r in rep.reports:
        for c in r.checks:
            status = "ok" if c.passed else "FAIL"
            line = f"  {r.name}.{c.name:<28s} {status}"
            if not c.passed and c.first_violation is not None:
                resid = json.dumps(c.to_json()["residual"])
                line += f"  at {c.first_violation[0]}: residual {resid}"
            lines.append(line)
    for note in rep.notes:
        lines.append(f"  note: {note}")
    verdict = "PASS" if rep.passed else "FAIL"
    lines.append(f"{verdict} ({rep.elapsed_s:.2f}s)")
    return "\n".join(lines)


def _load_linf(path: str) -> linfty.TwoTermLInfinity:
    return linfty.linf_from_json(load_json_file(path))


def _load_algebra(path: str) -> cohomology.LieAlgebra:
    return cohomology.algebra_from_json(load_json_file(path))


def _load_rep(g, path: str | None) -> cohomology.Representation:
    if path is None:
        return cohomology.trivial_rep(g, 1)
    return cohomology.rep_from_json(g, load_json_file(path))


def _load_cochain(path: str):
    obj = load_json_file(path)
    g = cohomology.algebra_from_json(need(obj, "algebra"))
    rep = (cohomology.rep_from_json(g, obj["rep"]) if "rep" in obj
           else cohomology.trivial_rep(g, 1))
    return cohomology.cochain_from_json(rep, obj)


def _load_hom(path: str) -> linfty.LInfHom:
    obj = load_json_file(path)
    src = linfty.linf_from_json(need(obj, "source"))
    dst = linfty.linf_from_json(need(obj, "target"))
    return _hom_fields(src, dst, obj)


def _hom_fields(src, dst, obj) -> linfty.LInfHom:
    phi0 = mat_from_json(obj, "phi0", dst.dim0, src.dim0)
    phi1 = mat_from_json(obj, "phi1", dst.dim1, src.dim1)
    phi2 = tensor_from_json(need(obj, "phi2"),
                            (src.dim0, src.dim0, dst.dim1), "phi2")
    chain = twoterm.ChainMap(src.complex, dst.complex, phi0, phi1)
    return linfty.LInfHom(src, dst, chain, phi2)


def cmd_check_linfty(args, rep: Report) -> None:
    v = _load_linf(args.file)
    rep.reports.append(linfty.check_axioms(v))


def cmd_check_hom(args, rep: Report) -> None:
    rep.reports.append(linfty.check_hom(_load_hom(args.file)))


def cmd_check_2hom(args, rep: Report) -> None:
    obj = load_json_file(args.file)
    src = linfty.linf_from_json(need(obj, "source"))
    dst = linfty.linf_from_json(need(obj, "target"))
    f = _hom_fields(src, dst, need(obj, "from"))
    g = _hom_fields(src, dst, need(obj, "to"))
    tau = mat_from_json(obj, "tau", dst.dim1, src.dim0)
    hom2 = linfty.LInfTwoHom(f, g, twoterm.ChainHomotopy(f.chain, g.chain, tau))
    rep.reports.append(linfty.check_two_hom(hom2))


def cmd_check_lie2(args, rep: Report) -> None:
    v = _load_linf(args.file)
    L = lie2.from_linfty(v)
    axioms = linfty.check_axioms(v)
    octagon = lie2.check_jacobiator_identity_categorical(L)
    rep.reports.append(axioms)
    rep.reports.append(octagon)
    agreement = CheckReport("presentation_agreement")
    same = axioms.result("i_jacobiator_coherence").passed == octagon.passed
    agreement.add("octagon_matches_condition_i", [] if same else [((), "disagreement")])
    rep.reports.append(agreement)


def cmd_check_dcm(args, rep: Report) -> None:
    m = lie2.dcm_from_json(load_json_file(args.file))
    rep.reports.append(lie2.check_crossed_module(m))


# Largest number of nonzeros, by cohomology.coboundary_nnz_bound, of the deltas a
# command eliminates: delta_(n-1) and delta_n for `cohomology --degree n`, delta_(n-1)
# for `is-cocycle`.  H^8(sl4, trivial) bounds at 219,648 and takes 0.7 s at 36 MB peak
# RSS; H^4(sl4, adjoint) at 524,160 and 3 s at 110 MB, nearly all of it eliminating
# delta_4.  Refused: H^5(sl4, adjoint) at 1,345,344 (13 s at 280 MB with the limit
# lifted), and is-cocycle of a zero 4-cochain over sl5 adjoint, whose delta_3 bounds at
# 1,235,696 (9 s at 308 MB).  (CLI runs on 2 CPUs, Python 3.11.)
COHOMOLOGY_MAX_NNZ = 600_000


# Largest number of index pairs, comb(dim, n+1) C(n+1, 2) per delta_n, that the deltas a
# command builds or streams may visit in `cohomology._coboundary_cells`, and the only
# bound on the comb(dim, n+1) keys of the cochains that even a zero delta allocates.  A
# bracket nonzero on every pair visits them all: `coboundary` of a degree-8 cochain over
# such a 16-dimensional bracket visits 411,840 in 0.8 s at 21 MB.  A zero bracket visits
# none: abelian `cohomology` takes 0.03 s at 26 MB for dim 16, degree 8 (772,200 pairs),
# and with the limit lifted 0.6 s at 141 MB for dim 20, degree 10 (17.5 million) and 2.2 s
# at 493 MB for dim 22, degree 11 (81.5 million), nearly all of it `rank_kernel`
# returning unit kernel bases.  (CLI runs on 2 CPUs, Python 3.11.)
DELTA_MAX_PAIRS = 1_000_000


def _delta_preflight(command: str, r: cohomology.Representation, eliminated: tuple,
                     streamed: tuple = ()) -> None:
    """The one size check of the commands that build a Chevalley-Eilenberg
    differential: before anything is built, the deltas a command eliminates
    must bound within COHOMOLOGY_MAX_NNZ nonzeros, and these with the ones it
    only streams within DELTA_MAX_PAIRS index pairs."""
    nnz = sum(cohomology.coboundary_nnz_bound(r, n) for n in eliminated)
    if nnz > COHOMOLOGY_MAX_NNZ:
        deltas = " and ".join(f"delta_{n}" for n in eliminated)
        raise FixtureError(f"{command}: {deltas} may hold up to {nnz} nonzeros, "
                           f"over the limit of {COHOMOLOGY_MAX_NNZ}")
    degrees, dim = eliminated + streamed, r.algebra.dim
    pairs = sum(comb(dim, n + 1) * comb(n + 1, 2) for n in degrees if n >= 0)
    if pairs > DELTA_MAX_PAIRS:
        raise FixtureError(f"{command}: delta_{degrees[-1]} of a {dim}-dimensional algebra "
                           f"visits {pairs} index pairs, over the limit of {DELTA_MAX_PAIRS}")


def cmd_cohomology(args, rep: Report) -> None:
    g = _load_algebra(args.gfile)
    r = _load_rep(g, args.rep)
    n = args.degree
    _delta_preflight("cohomology", r, (n - 1, n))
    checked = cohomology.check_representation(r)
    rep.reports.append(checked)
    if not checked.passed:
        # delta_n delta_(n-1) = 0 needs a Lie bracket and a representation of it; without
        # them the kernel and image counts mean nothing
        rep.payload = {"degree": n, "dimension": None}
        rep.notes.append(f"H^{n} not computed: rho is not a representation of a Lie algebra "
                         f"({checked.first_failure.name} fails)")
        return
    dim = cohomology.cohomology_dim(r, n)
    rep.payload = {"degree": n, "dimension": dim}
    rep.notes.append(f"dim H^{n} = {dim}")


def cmd_is_cocycle(args, rep: Report) -> None:
    w = _load_cochain(args.file)
    _delta_preflight("is-cocycle", w.rep, (w.degree - 1,), (w.degree,))
    out = CheckReport("cocycle")
    out.add("delta_vanishes", first_violation(sorted(cohomology.coboundary(w).values.items())))
    rep.reports.append(out)
    rep.payload = {"is_cocycle": out.passed,
                   "is_coboundary": out.passed and cohomology.is_coboundary(w)}


def cmd_coboundary(args, rep: Report) -> None:
    w = _load_cochain(args.file)
    _delta_preflight("coboundary", w.rep, (), (w.degree,))
    rep.payload = cohomology.cochain_to_json(cohomology.coboundary(w))


def cmd_build_ghbar(args, rep: Report) -> None:
    g = _load_algebra(args.gfile)
    try:
        hbar = rational(args.hbar)
    except ValueError:
        raise FixtureError(f"--hbar must be rational, got {args.hbar!r}") from None
    L = cohomology.build_g_hbar(g, hbar)
    rep.reports.append(linfty.check_axioms(L.data))
    rep.payload = linfty.linf_to_json(L.data)


def cmd_killing(args, rep: Report) -> None:
    g = _load_algebra(args.gfile)
    k = mat_to_json(cohomology.killing_form(g))
    rep.reports.append(cohomology.check_lie_algebra(g))
    rep.payload = {"killing": k}
    rep.notes.append("killing form rows: " + "; ".join("[" + ", ".join(row) + "]" for row in k))


def cmd_ybe(args, rep: Report) -> None:
    g = _load_algebra(args.gfile)
    asym = linfty.antisymmetry_violations(g.bracket)
    if asym:  # the braiding B is built only from an antisymmetric bracket
        out = CheckReport("lie_algebra")
        out.add("antisymmetry", asym)
        rep.reports.append(out)
        return
    rep.reports.append(braid.check_ybe(braid.build_B_vect(g)))


# Largest morphism basis of (k + L)^(tensor 4) that `tetrahedron` sweeps.  The sweep
# holds one object's arrow parts at a time and pushes only the objects where J can
# act: g_hbar(sl3) (basis 10^4) passes in 0.05 s at 18 MB peak RSS, g_hbar(sl4) (17^4 =
# 83,521) in 0.2-0.3 s at 22 MB, g_hbar(sl5) (26^4 = 456,976) in 0.8-1.0 s at 30 MB and
# g_hbar(sl6) (37^4 = 1,874,161) in 2.5-3.1 s at 52 MB, within what sl5 took when every
# object was pushed (6.8-7.8 s at 65 MB).  Refused: g_hbar(sl7) (50^4 = 6,250,000),
# which passes in 6.9 s at 91 MB.  (CLI runs on 2 CPUs, Python 3.11.)
TETRA_MAX_BASIS = 2_000_000


def cmd_tetrahedron(args, rep: Report) -> None:
    v = _load_linf(args.file)
    basis = (1 + v.dim0 + v.dim1) ** 4  # morphisms of k + L, to the fourth
    if basis > TETRA_MAX_BASIS:
        raise FixtureError(f"tetrahedron: the morphism basis of (k+L)^4 has {basis} elements, "
                           f"over the limit of {TETRA_MAX_BASIS}")
    L = lie2.from_linfty(v)
    ty = braid.build_Y(L)
    rep.reports.append(ty.hypotheses)
    zam = braid.check_zamolodchikov(ty)
    rep.reports.append(zam)
    cond_i = ty.condition_i
    agree = CheckReport("tetrahedron_vs_condition_i")
    agree.add("agreement", [] if zam.passed == cond_i.passed else [((), "disagreement")])
    rep.reports.append(agree)
    if not cond_i.passed:
        loc = cond_i.first_violation[0]
        rep.notes.append(f"condition (i) fails first at basis tuple {loc}")


def cmd_skeletalize(args, rep: Report) -> None:
    c = twoterm.complex_from_json(load_json_file(args.file))
    sk = twoterm.skeletalize_complex(c)
    out = CheckReport("skeletalization")
    out.extend(twoterm.check_chain_map(sk.include), prefix="include_")
    out.extend(twoterm.check_chain_map(sk.project), prefix="project_")
    out.extend(twoterm.check_homotopy(sk.homotopy), prefix="homotopy_")
    rt = twoterm.compose_chain_maps(sk.include, sk.project)
    ident = twoterm.identity_chain_map(sk.skeletal)
    out.add("project_include_identity",
            [] if (rt.phi0 == ident.phi0 and rt.phi1 == ident.phi1) else [((), "not identity")])
    rep.reports.append(out)
    rep.payload = {"skeletal": twoterm.complex_to_json(sk.skeletal),
                   "include": {"phi0": mat_to_json(sk.include.phi0),
                               "phi1": mat_to_json(sk.include.phi1)},
                   "project": {"phi0": mat_to_json(sk.project.phi0),
                               "phi1": mat_to_json(sk.project.phi1)},
                   "homotopy_tau": mat_to_json(sk.homotopy.tau)}


def cmd_classify(args, rep: Report) -> None:
    v = _load_linf(args.file)
    L = lie2.from_linfty(v)
    try:
        quad = cohomology.classify(L)
    except ValueError as exc:
        out = CheckReport("classify")
        out.add("input_axioms", [((), str(exc))])
        rep.reports.append(out)
        return
    out = CheckReport("classify")
    out.extend(cohomology.check_lie_algebra(quad.algebra), prefix="algebra_")
    out.extend(cohomology.check_representation(quad.rep), prefix="rep_")
    out.add("cocycle", [] if cohomology.is_cocycle(quad.cocycle) else [((), "not closed")])
    out.extend(linfty.check_hom(quad.witness), prefix="witness_")
    rep.reports.append(out)
    rep.payload = {"algebra": cohomology.algebra_to_json(quad.algebra),
                   "rep": cohomology.rep_to_json(quad.rep),
                   "cocycle": cohomology.cochain_to_json(quad.cocycle),
                   "witness": {"phi0": mat_to_json(quad.witness.chain.phi0),
                               "phi1": mat_to_json(quad.witness.chain.phi1)}}


def fixture_dir():
    return resources.files("lie2alg") / "fixtures"


def cmd_fixtures(args, rep: Report) -> None:
    names = sorted(p.name for p in fixture_dir().iterdir() if p.name.endswith(".json"))
    rep.payload = {"fixtures": names}
    for n in names:
        rep.notes.append(n)
    if args.copy_to:
        for n in names:
            shutil.copy(fixture_dir() / n, os.path.join(args.copy_to, n))
        rep.notes.append(f"copied {len(names)} fixtures to {args.copy_to}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    every run gets a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="lie2alg",
        description="Exact verification of two-term L-infinity structures, "
                    "Lie 2-algebra coherence, Lie algebra cohomology and "
                    "braiding equations.")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = p.add_subparsers(dest="command")

    def arg(*flags, **kw):
        return flags, kw

    def add(name, *params):  # `run` calls cmd_<name> for the subcommand name
        sp = sub.add_parser(name)
        for flags, kw in params:
            sp.add_argument(*flags, **kw)

    file, gfile, out = arg("file"), arg("gfile"), arg("-o", "--out")
    add("check-linfty", file)
    add("check-hom", file)
    add("check-2hom", file)
    add("check-lie2", file)
    add("check-dcm", file)
    add("cohomology", arg("--degree", type=int, required=True), gfile, arg("--rep"))
    add("is-cocycle", file)
    add("coboundary", file, out)
    add("build-ghbar", arg("--hbar", required=True), gfile, out)
    add("killing", gfile)
    add("ybe", gfile)
    add("tetrahedron", file)
    add("skeletalize", file, out)
    add("classify", file)
    add("fixtures", arg("--copy-to"))
    return p


def run(argv: list) -> tuple:
    """Run a CLI invocation; returns (exit code, Report or None)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None
    if args.command is None:
        parser.print_help()
        return 2, None
    rep = Report(command=list(argv))
    start = time.monotonic()
    try:
        # looked up at each run, so that a command re-bound after the parser
        # is built (a benchmark's tracing wrapper) is the one that runs
        globals()["cmd_" + args.command.replace("-", "_")](args, rep)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(rep.payload, fh, indent=1)
            rep.notes.append(f"wrote {args.out}")
    except (FixtureError, DimensionMismatch, OSError) as exc:
        # shape mismatches surfacing from the library are input defects, and
        # an OSError names the input or output path that could not be used
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    rep.elapsed_s = time.monotonic() - start
    if args.json:
        print(json.dumps(rep.to_json(), indent=1))
    else:
        print(_render_human(rep))
    return (0 if rep.passed else 1), rep


def main() -> None:
    code, _ = run(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
