"""The three workloads: their operations and the checks on each output.

An operation is timed from its call into lie2alg to its return; the
check that follows compares the output with the benchmark's own
computation (inputs.py) or with a property the mathematics guarantees,
and runs outside the timed part.  Most operations go through
``cli.run`` in-process with ``--json``, the way a user's command runs;
the rest call the library functions that have no subcommand.

Library functions are always looked up on their module at call time,
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import inputs
from lie2alg import cli, cohomology, lie2, linfty, serialize

LINF_FIXTURES = ("ghbar_so3_0", "ghbar_so3_1", "ghbar_so3_2", "cross_product",
                 "broken_abelian4")
ALGEBRA_FIXTURES = ("abelian3", "so3", "sl2", "broken_jacobi3")
WHITEHEAD_TRIVIAL = (1, 0, 0, 1)   # H^0..H^3 of a simple Lie algebra, trivial line
WHITEHEAD_ADJOINT = (0, 0, 0, 0)   # H^0..H^3 with adjoint coefficients


class Mismatch(Exception):
    """An output differs from the expected one."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def cli_call(*argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, _ = cli.run(["--json", *argv])
    return code, out


def cli_op(name: str, argv: list, code: int, check: Callable[[dict], None] | None = None) -> Op:
    """A subcommand whose exit code must be `code`; `check` reads its JSON report."""
    def verify(res) -> None:
        got, out = res
        expect(got == code, f"exit {got}, expected {code}")
        report = json.loads(out.getvalue())
        expect(report["passed"] == (code == 0), "report verdict disagrees with exit code")
        if check is not None:
            check(report)
    return Op(name, lambda: cli_call(*argv), verify)


def passes(report) -> None:
    expect(report.passed, f"fails {report.first_failure and report.first_failure.name}")


def failing(report: dict) -> list:
    return [c["name"] for c in report["checks"] if not c["passed"]]


def read_algebra(path: str) -> list:
    return inputs.load_tensor(path, "bracket")


def fixture(name: str) -> str:
    return str(cli.fixture_dir() / f"{name}.json")


# ---------------------------------------------------------------------------
# tetra: the braid, twovect and exactlin dense products

def first_gj4_failure(v) -> tuple | None:
    """The basis tuple of generalized_jacobi(v, 4)'s first violation."""
    res = linfty.generalized_jacobi(v, 4).result("unshuffle_identity")
    if res.passed:
        return None
    return tuple(idx for _, idx in res.first_violation[0])


def tetra(work: str, seed: int) -> list:
    f = inputs.generate_sl3(work)
    ops = []
    for name, code in (("ghbar_so3_1", 0), ("broken_abelian4", 1)):
        path = fixture(name)
        v = linfty.linf_from_json(serialize.load_json_file(path))
        gj = {}

        def run_gj(v=v):
            return first_gj4_failure(v)

        def check_gj(bad, gj=gj, code=code):
            gj["bad"] = bad
            expect((bad is None) == (code == 0), "generalized Jacobi 4 verdict")

        def check_tetra(report, gj=gj, code=code):
            # the paper's bi-implication: tetrahedron holds iff arity-4 Jacobi does
            expect(report["passed"] == (gj["bad"] is None),
                   "tetrahedron verdict differs from generalized_jacobi(v, 4)")
            if code == 1:
                expect(failing(report) == ["component_equality"],
                       f"failing checks {failing(report)}")
                loc = next(c["location"] for c in report["checks"]
                           if c["name"] == "component_equality")
                shifted = [1 + i for i in gj["bad"]]
                expect(loc == shifted, f"first failing object {loc}, expected {shifted}")
                expect(report["notes"] == [f"condition (i) fails first at basis tuple "
                                           f"{tuple(gj['bad'])}"], "condition (i) note")
        ops.append(Op(f"generalized_jacobi4 {name}", run_gj, check_gj))
        ops.append(cli_op(f"tetrahedron {name}", ["tetrahedron", path], code, check_tetra))
    for path in [fixture(n) for n in ("so3", "sl2", "broken_jacobi3")] + [f["sl3"]]:
        code = 0 if inputs.jacobi_holds(read_algebra(path)) else 1
        ops.append(cli_op(f"ybe {os.path.basename(path)}", ["ybe", path], code))
    return ops


# ---------------------------------------------------------------------------
# cohom: coboundary assembly and exact elimination on sl3

class DeltaRecorder:
    """Records the coboundary matrices and rank_kernel results that
    cohomology_dim computes, so that the checks can test them.  Installed
    for the operations of one round and removed after it.

    During an operation it only holds references to the matrices that
    the operation itself builds.  ``settle``, called from each
    operation's check, outside the timed part, keeps a sparse copy of
    each new matrix, tests it and drops the reference; rank_kernel
    results are kept as numbers only.
    """

    def __init__(self):
        self._orig = None
        self.pending = []   # ((dimV, n), matrix) built by the current operation
        self.sparse = {}    # (dimV, n) -> rows as {column: entry}
        self.products = set()   # (dimV, n) whose delta_n delta_(n-1) was tested
        self.ranks = []     # (cols, rank, nullity)

    def __enter__(self):
        self.__init__()
        cb, rk = cohomology.coboundary_matrix, cohomology.rank_kernel
        self._orig = (cb, rk)

        def coboundary_matrix(rep, n):
            m = cb(rep, n)
            self.pending.append(((rep.dimV, n), m))
            return m

        def rank_kernel(m):
            rank, kernel = rk(m)
            self.ranks.append((m.cols, rank, len(kernel)))
            return rank, kernel
        cohomology.coboundary_matrix, cohomology.rank_kernel = coboundary_matrix, rank_kernel
        return self

    def __exit__(self, *exc):
        cohomology.coboundary_matrix, cohomology.rank_kernel = self._orig

    def settle(self) -> None:
        """delta_n has the shape C^n -> C^(n+1) and delta_n delta_(n-1) = 0,
        with the benchmark's own sparse product, for each new matrix."""
        dim = inputs.SL3_DIM
        new = set()
        for (dimV, n), m in self.pending:
            expect((m.rows, m.cols) == (comb(dim, n + 1) * dimV, comb(dim, n) * dimV),
                   f"shape of delta_{n}")
            self.sparse[(dimV, n)] = [{j: x for j, x in enumerate(r) if x} for r in m.data]
            new.update({(dimV, n), (dimV, n + 1)})
        self.pending = []
        for dimV, n in sorted(new):
            hi, lo = self.sparse.get((dimV, n)), self.sparse.get((dimV, n - 1))
            if hi is None or lo is None:
                continue
            expect(all(not sparse_row_times(r, lo) for r in hi),
                   f"delta_{n} delta_{n - 1} != 0 (dim V = {dimV})")
            self.products.add((dimV, n))

    def check(self) -> None:
        """After the round: every matrix and elimination was seen, and rank
        + nullity = dim C^n = C(8, n) dim V."""
        self.settle()
        expect(len(self.sparse) == 8, f"{len(self.sparse)} coboundary matrices, expected 8")
        expect(len(self.products) == 6, f"{len(self.products)} products tested, expected 6")
        for cols, rank, nullity in self.ranks:
            expect(rank + nullity == cols, "rank + nullity != dim C^n")
        expect(len(self.ranks) == 14, f"{len(self.ranks)} eliminations, expected 14")


def sparse_row_times(row: dict, rows: list) -> dict:
    """The nonzero entries of row * M, for M given by its sparse rows."""
    out = {}
    for j, x in row.items():
        for k, y in rows[j].items():
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


RECORDER = DeltaRecorder()


def cohom(work: str, seed: int) -> list:
    f = inputs.generate_sl3(work)
    dim = inputs.SL3_DIM
    ops = []
    for rep_name, extra, dimV, expected in (("trivial", [], 1, WHITEHEAD_TRIVIAL),
                                            ("adjoint", ["--rep", f["sl3_adjoint"]], dim,
                                             WHITEHEAD_ADJOINT)):
        for n in range(4):
            def check(report, n=n, want=expected[n]):
                RECORDER.settle()
                got = report["payload"]["dimension"]
                expect(got == want, f"dim H^{n} = {got}, expected {want}")
            ops.append(cli_op(f"cohomology {rep_name} H^{n}",
                              ["cohomology", "--degree", str(n), f["sl3"], *extra], 0, check))
    return ops


# ---------------------------------------------------------------------------
# checks: every other subcommand on every fixture it accepts, and the
# structure checks and classification on two copies of g_hbar(sl3)

def killing_of(bracket: list) -> list:
    ads = inputs.ad_matrices(bracket)
    return [[inputs.trace(inputs.matmul(x, y)) for y in ads] for x in ads]


def build_ghbar(bracket: list, hbar) -> dict:
    L = cohomology.build_g_hbar(cohomology.LieAlgebra(len(bracket), bracket), hbar)
    return linfty.linf_to_json(L.data)


def checks(work: str, seed: int) -> list:
    f = inputs.generate_checks(work, seed, build_ghbar)
    ops = []

    # bundled two-term structures
    for name in LINF_FIXTURES:
        path = fixture(name)
        broken = name.startswith("broken")
        code = 1 if broken else 0

        def axioms(report, broken=broken):
            if broken:
                expect(failing(report) == ["i_jacobiator_coherence"],
                       f"failing checks {failing(report)}")

        def skeletal(report):
            p = report["payload"]
            sk = inputs.from_json(p["skeletal"]["d"])
            expect(not any(any(r) for r in sk), "skeletal differential is not zero")
            for k in ("phi0", "phi1"):
                pi = inputs.matmul(inputs.from_json(p["project"][k]),
                                   inputs.from_json(p["include"][k]))
                expect(pi == inputs.identity(len(pi)), f"project {k} include {k} != 1")

        def classified(report, broken=broken):
            if broken:
                return
            p = report["payload"]
            bracket = inputs.from_json(p["algebra"]["bracket"])
            rho = [inputs.from_json(m) for m in p["rep"]["rho"]]
            vals = inputs.cochain_values(p["cocycle"])
            expect(not inputs.coboundary(bracket, rho, p["rep"]["dimV"], 3, vals),
                   "classifying cochain is not closed")
        ops.append(cli_op(f"check-linfty {name}", ["check-linfty", path], code, axioms))
        ops.append(cli_op(f"check-lie2 {name}", ["check-lie2", path], code))
        ops.append(cli_op(f"skeletalize {name}", ["skeletalize", path], 0, skeletal))
        ops.append(cli_op(f"classify {name}", ["classify", path], code, classified))

    # bundled Lie algebras, plus sl3 for the Killing form
    for name in ALGEBRA_FIXTURES + ("sl3",):
        path = f["sl3"] if name == "sl3" else fixture(name)
        bracket = read_algebra(path)
        lie = inputs.jacobi_holds(bracket)
        code = 0 if lie else 1
        # on sl3 the Killing form is 6 tr(xy) of the 3x3 matrices
        kf = f["killing"] if name == "sl3" else killing_of(bracket)

        def killing(report, kf=kf):
            expect(inputs.from_json(report["payload"]["killing"]) == kf, "Killing form")
        ops.append(cli_op(f"killing {name}", ["killing", path], code, killing))
        if name == "sl3":
            continue
        n = len(bracket)
        for deg in range(4):
            def dims(report, deg=deg, name=name, n=n):
                got = report["payload"]["dimension"]
                want = comb(n, deg) if name == "abelian3" else WHITEHEAD_TRIVIAL[deg]
                expect(got == want, f"dim H^{deg} = {got}, expected {want}")
            ops.append(cli_op(f"cohomology {name} H^{deg}",
                              ["cohomology", "--degree", str(deg), path], code,
                              dims if lie else None))
        ops.append(cli_op(f"ybe {name}", ["ybe", path], code))

        def ghbar(report, bracket=bracket, kf=kf):
            l3 = inputs.from_json(report["payload"]["l3"])
            for i, j, k in combinations(range(len(bracket)), 3):
                want = inputs.HBAR * sum(kf[i][m] * c for m, c in enumerate(bracket[j][k]))
                expect(l3[i][j][k] == [want], f"l3{(i, j, k)} of g_hbar")
        ops.append(cli_op(f"build-ghbar {name}", ["build-ghbar", "--hbar=1/2", path], code,
                          ghbar))

    ops.append(cli_op("check-dcm dcm_so3_adjoint", ["check-dcm", fixture("dcm_so3_adjoint")], 0))

    # generated homomorphisms, 2-homomorphisms and cochains
    ops.append(cli_op("check-hom hom", ["check-hom", f["hom"]], 0))
    ops.append(cli_op("check-hom hom_broken", ["check-hom", f["hom_broken"]], 1))
    ops.append(cli_op("check-2hom twohom", ["check-2hom", f["twohom"]], 0))
    ops.append(cli_op("check-2hom twohom_broken", ["check-2hom", f["twohom_broken"]], 1))
    for c in f["cochains"]:
        def cocycle(report, c=c):
            p = report["payload"]
            expect(p["is_cocycle"] == c["closed"], "is_cocycle")
            # H^2(sl3) = 0 and the Cartan 3-cocycle spans H^3(sl3) = Q
            expect(p["is_coboundary"] == (c["closed"] and c["name"] != "cartan"),
                   "is_coboundary")

        def image(report, c=c):
            want = inputs.coboundary(f["sl3_bracket"], [[[0]]] * inputs.SL3_DIM, 1,
                                     c["degree"], c["values"])
            got = inputs.cochain_values(report["payload"])
            expect(report["payload"]["degree"] == c["degree"] + 1 and got == want,
                   "coboundary differs from the benchmark's differential")
        ops.append(cli_op(f"is-cocycle {c['name']}", ["is-cocycle", c["path"]],
                          0 if c["closed"] else 1, cocycle))
        ops.append(cli_op(f"coboundary {c['name']}", ["coboundary", c["path"]], 0, image))

    # library-only operations on both copies of g_hbar(sl3)
    for name in ("ghbar_sl3", "ghbar_sl3_conj"):
        v = linfty.linf_from_json(serialize.load_json_file(f[name]))
        state = {}

        def run_classify(v=v, state=state):
            state.pop("quad", None)   # what depends on it fails if classify raises
            state["quad"] = cohomology.classify(lie2.from_linfty(v))
            return state["quad"]

        def check_classify(quad):
            vals = {k: list(x) for k, x in quad.cocycle.values.items()}
            rho = [m.data for m in quad.rep.rho]
            expect(bool(vals), "classifying cocycle is zero")
            expect(not inputs.coboundary(quad.algebra.bracket, rho, quad.rep.dimV, 3, vals),
                   "classifying cocycle is not closed")
        ops.append(Op(f"check_axioms {name}", lambda v=v: linfty.check_axioms(v), passes))
        for arity in range(1, 5):
            ops.append(Op(f"generalized_jacobi{arity} {name}",
                          lambda v=v, a=arity: linfty.generalized_jacobi(v, a), passes))
        ops.append(Op(f"octagon {name}", lambda v=v: lie2.check_jacobiator_identity_categorical(
            lie2.from_linfty(v)), passes))
        ops.append(Op(f"classify {name}", run_classify, check_classify))
        ops.append(Op(f"is_coboundary {name}",
                      lambda s=state: cohomology.is_coboundary(s["quad"].cocycle),
                      lambda r: expect(r is False, "classifying cocycle is a coboundary")))
        ops.append(Op(f"check_hom witness {name}",
                      lambda s=state: linfty.check_hom(s["quad"].witness), passes))
    return ops


WORKLOADS = {"tetra": tetra, "cohom": cohom, "checks": checks}


def round_context(workload: str):
    """What a round of the workload runs inside, and the check made after it."""
    if workload == "cohom":
        return RECORDER, RECORDER.check
    return contextlib.nullcontext(), None

