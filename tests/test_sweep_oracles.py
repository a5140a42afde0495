"""Randomized equality of the tabulated sweeps with the per-tuple ones they
replaced.

`check_jacobiator_identity_categorical` and `generalized_jacobi` evaluate
their structure maps from tables built once per call.  The per-tuple
sweeps they replaced are kept below verbatim as oracles: on random
two-term structures, valid ones and ones with a single perturbed entry,
both must give the same report, first failing tuple and exact residual
included.
"""

from __future__ import annotations

import copy
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from lie2alg.cohomology import (Cochain, Representation, abelian_algebra, build_two_slot,
                                coboundary, sl2_algebra, so3_algebra, trivial_rep)
from lie2alg.exactlin import RMatrix, vadd, vscale, vsub, vzeros
from lie2alg.lie2 import (SemistrictLie2Algebra, _as_object, _compose_padded,
                          bracket_morphisms, check_jacobiator_identity_categorical,
                          from_linfty, jacobiator)
from lie2alg.linfty import (SignedPermutation, TwoTermLInfinity, _graded_bracket,
                            _graded_element, generalized_jacobi, koszul_chi, unshuffles)
from lie2alg.report import CheckReport, first_violation
from lie2alg.twoterm import TwoTermComplex
from lie2alg.twovect import identity_morphism
from conftest import broken_abelian4, conjugate, inflate


# ---------------------------------------------------------------------------
# the per-tuple sweeps, verbatim

def octagon_sides(L: SemistrictLie2Algebra, w, x, y, z):
    """Both composites of the Jacobiator-identity octagon at objects w,x,y,z."""
    b = L.data.bracket00
    wv, xv, yv, zv = (_as_object(L, u) for u in (w, x, y, z))

    def J(p, q, r):
        return jacobiator(L, p, q, r)

    def one(obj):
        return identity_morphism(L.space, obj)

    def Br(f, g):
        return bracket_morphisms(L, f, g)

    lhs = _compose_padded(L, [
        [J(b(wv, xv), yv, zv)],
        [Br(J(wv, xv, zv), one(yv))],
        [J(wv, b(xv, zv), yv), J(b(wv, zv), xv, yv), J(wv, xv, b(yv, zv))],
    ])
    rhs = _compose_padded(L, [
        [Br(J(wv, xv, yv), one(zv))],
        [J(b(wv, yv), xv, zv), J(wv, b(xv, yv), zv)],
        [Br(J(wv, yv, zv), one(xv))],
        [Br(one(wv), J(xv, yv, zv))],
    ])
    return lhs, rhs


def check_jacobiator_identity_categorical_per_tuple(L: SemistrictLie2Algebra) -> CheckReport:
    """Compare both octagon composites on every basis 4-tuple."""
    rep = CheckReport("jacobiator_identity_octagon")
    rep.add("octagon", first_violation(
        (tup, vsub(*(side.vec for side in octagon_sides(L, *tup))))
        for tup in product(range(L.dim0), repeat=4)))
    return rep


def generalized_jacobi_per_tuple(v: TwoTermLInfinity, arity: int) -> CheckReport:
    """The unshuffle identity at the given arity, on all graded basis tuples.

    Each term carries chi(sigma) and the factor (-1)^{i(j-1)}; higher
    arities than 4 vanish identically for two-term data.
    """
    if not 1 <= arity <= 4:
        raise ValueError("arity must be between 1 and 4")
    rep = CheckReport(f"generalized_jacobi_{arity}")
    elems = [(0, i) for i in range(v.dim0)] + [(1, a) for a in range(v.dim1)]
    rep.add("unshuffle_identity", first_violation(
        (combo, _unshuffle_residual(v, combo)) for combo in product(elems, repeat=arity)))
    return rep


def _unshuffle_residual(v: TwoTermLInfinity, combo: tuple) -> list:
    """Both degree parts of the unshuffle sum at one graded basis tuple."""
    arity = len(combo)
    degrees = tuple(dg for dg, _ in combo)
    args = [_graded_element(v, dg, ix) for dg, ix in combo]
    acc = {0: vzeros(v.dim0), 1: vzeros(v.dim1)}
    for i in range(1, arity + 1):
        j = arity + 1 - i
        sign_ij = -1 if (i * (j - 1)) % 2 else 1
        for sigma in unshuffles(i, arity):
            chi = koszul_chi(SignedPermutation(sigma, degrees))
            inner = _graded_bracket(v, i, [args[p] for p in sigma[:i]])
            if inner is None:
                continue
            outer_args = [inner] + [args[p] for p in sigma[i:]]
            term = _graded_bracket(v, j, outer_args)
            if term is None:
                continue
            deg, vec = term
            acc[deg] = vadd(acc[deg], vscale(chi * sign_ij, vec))
    return acc[0] + acc[1]


# ---------------------------------------------------------------------------
# random two-term structures: dim V0 in 1..4, dim V1 in 1..2

small = st.integers(-2, 2)


@st.composite
def representations(draw):
    """A Lie algebra of dimension at most 4 with a representation on
    Q or Q^2: trivial, scalar or commuting on an abelian algebra, or the
    standard representation of sl2."""
    kind = draw(st.sampled_from(["trivial", "abelian", "sl2"]))
    if kind == "trivial":
        g = draw(st.sampled_from([abelian_algebra(draw(st.integers(1, 4))), so3_algebra(),
                                  sl2_algebra()]))
        return trivial_rep(g, draw(st.integers(1, 2)))
    if kind == "abelian":
        dim, dimV = draw(st.integers(1, 4)), draw(st.integers(1, 2))
        a = RMatrix.from_rows([[draw(small) for _ in range(dimV)] for _ in range(dimV)], dimV)
        return Representation(abelian_algebra(dim), dimV, [a.scale(draw(small))
                                                           for _ in range(dim)])
    h, e, f = ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    return Representation(sl2_algebra(), 2, [RMatrix.from_rows(m) for m in (h, e, f)])


def cochain(draw, rep, degree):
    return Cochain(rep, degree, {key: [draw(small) for _ in range(rep.dimV)]
                                 for key in Cochain(rep, degree).keys()})


@st.composite
def valid_structures(draw):
    """The two-slot structure of a representation and a 3-cocycle,
    possibly inflated by an acyclic summand and conjugated by a change of
    basis, so that d, l2 and l3 are dense and every axiom holds."""
    rep = draw(representations())
    w = coboundary(cochain(draw, rep, 2))
    if not any(any(m.entries) for m in rep.rho):
        w = w + cochain(draw, rep, 3)    # every 3-cochain of a trivial one is closed
    v = build_two_slot(rep, 1, w)
    if v.dim0 < 4 and v.dim1 < 2 and draw(st.booleans()):
        v = inflate(v, 1, RMatrix.from_rows([[draw(st.sampled_from([-2, -1, 1, 2]))]]))
    if draw(st.booleans()):
        v = conjugate(v, unipotent(draw, v.dim0), unipotent(draw, v.dim1))
    return v


def unipotent(draw, n):
    """An upper unitriangular integer matrix, invertible over the integers."""
    return RMatrix.from_rows([[1 if i == j else (draw(small) if j > i else 0)
                               for j in range(n)] for i in range(n)], n)


@st.composite
def random_structures(draw):
    """Sparse arbitrary entries: most axioms fail, at early and late tuples."""
    n0, n1 = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    x = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    d = RMatrix.from_rows([[draw(x) for _ in range(n1)] for _ in range(n0)], n1)
    l2_00 = [[[draw(x) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
    l2_01 = [[[draw(x) for _ in range(n1)] for _ in range(n1)] for _ in range(n0)]
    l3 = [[[[draw(x) for _ in range(n1)] for _ in range(n0)] for _ in range(n0)]
          for _ in range(n0)]
    return TwoTermLInfinity(TwoTermComplex(n0, n1, d), l2_00, l2_01, l3)


@st.composite
def perturbed(draw, base):
    """One entry of l2_00, l2_01, l3 or d moved by a nonzero amount."""
    v = copy.deepcopy(draw(base))
    n0, n1 = v.dim0, v.dim1
    which = draw(st.sampled_from(["none", "l2_00", "l2_01", "l3", "d"]))
    delta = draw(st.sampled_from([-1, 1, 2]))
    idx0 = st.integers(0, n0 - 1)
    idx1 = st.integers(0, n1 - 1)
    if which == "l2_00":
        v.l2_00[draw(idx0)][draw(idx0)][draw(idx0)] += delta
    elif which == "l2_01":
        v.l2_01[draw(idx0)][draw(idx1)][draw(idx1)] += delta
    elif which == "l3":
        v.l3[draw(idx0)][draw(idx0)][draw(idx0)][draw(idx1)] += delta
    elif which == "d":
        i, a = draw(idx0), draw(idx1)
        rows = [v.d.row(r) for r in range(n0)]
        rows[i][a] += delta
        v = TwoTermLInfinity(TwoTermComplex(n0, n1, RMatrix.from_rows(rows, n1)),
                             v.l2_00, v.l2_01, v.l3)
    return v


structures = st.one_of(perturbed(valid_structures()), perturbed(random_structures()))


@settings(max_examples=40, deadline=None)
@given(structures)
def test_generalized_jacobi_matches_per_tuple_sweep(v):
    for arity in range(1, 5):
        assert (generalized_jacobi(v, arity).to_json()
                == generalized_jacobi_per_tuple(v, arity).to_json())


@settings(max_examples=100, deadline=None)
@given(structures)
def test_octagon_matches_per_tuple_sweep(v):
    L = from_linfty(v)
    assert (check_jacobiator_identity_categorical(L).to_json()
            == check_jacobiator_identity_categorical_per_tuple(L).to_json())


def test_sweeps_match_past_the_first_tuple():
    """broken_abelian4 fails condition (i) only at (e1, e2, e3, e4): both
    sweeps of each oracle stop at the same late tuple with equal residuals."""
    v = broken_abelian4()
    new = generalized_jacobi(v, 4).result("unshuffle_identity")
    assert new.violations == generalized_jacobi_per_tuple(v, 4).result(
        "unshuffle_identity").violations
    assert new.first_violation[0] == ((0, 0), (0, 1), (0, 2), (0, 3))
    L = from_linfty(v)
    new = check_jacobiator_identity_categorical(L).result("octagon")
    assert new.violations == check_jacobiator_identity_categorical_per_tuple(L).result(
        "octagon").violations
    assert new.first_violation[0] == (0, 1, 2, 3)
