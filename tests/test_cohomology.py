import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie2alg import cohomology
from lie2alg.cohomology import (Cochain, LieAlgebra, Representation, _coboundary_cells,
                                abelian_algebra, adjoint_rep, algebra_from_json, algebra_to_json,
                                build_cross_product, build_g_hbar, build_two_slot,
                                check_lie_algebra, classify, coboundary, coboundary_matrix,
                                cochain_basis, cochain_from_json, cochain_keys, cochain_to_coords,
                                cochain_to_json, cohomologous, cohomology_dim,
                                is_cocycle, is_coboundary, killing_form,
                                killing_triple_cochain, rep_from_json, rep_to_json,
                                sl_algebra, so3_algebra, sl2_algebra, trivial_rep)
from lie2alg.exactlin import DimensionMismatch, RMatrix, rank_kernel
from lie2alg.lie2 import from_linfty
from lie2alg.linfty import check_axioms, check_hom
from lie2alg.serialize import FixtureError
from conftest import (assert_refused, broken_jacobi3, delta_twist_pair, inflate,
                      quadruple_preserving_conjugation, rand_cochain,
                      rand_invertible, refusals, conjugate)
from test_sweep_oracles import coboundary_pointwise


def test_named_algebras_valid():
    for g in (so3_algebra(), sl2_algebra(), abelian_algebra(4)):
        assert check_lie_algebra(g).passed
    assert not check_lie_algebra(broken_jacobi3()).passed


def test_trivial_rep_zero_cochain_coboundary():
    rep = trivial_rep(so3_algebra(), 1)
    w = Cochain(rep, 0, {(): [3]})
    assert coboundary(w).is_zero()


def test_single_surviving_term():
    rep = trivial_rep(so3_algebra(), 1)
    w = Cochain(rep, 1, {(0,): [1]})  # e1*
    dw = coboundary(w)
    assert dw.value((1, 2)) == [-1]
    assert dw.value((0, 1)) == [0] and dw.value((0, 2)) == [0]


def test_delta_squared_zero(rng):
    for g in (so3_algebra(), sl2_algebra()):
        for rep in (trivial_rep(g, 1), adjoint_rep(g)):
            for degree in (0, 1, 2, 3):
                w = rand_cochain(rng, rep, degree)
                assert coboundary(coboundary(w)).is_zero()


def test_zero_cochain_cocycle_and_coboundary():
    rep = trivial_rep(so3_algebra(), 1)
    z = Cochain(rep, 2, {})
    assert is_cocycle(z) and is_coboundary(z)


def test_cochain_value_of_wrong_length_is_refused():
    """A value vector must have length dim V, so coordinates never shift."""
    rep = adjoint_rep(sl_algebra(3))
    for val in ([], [1], [0] * 7, [1] * 9):
        with pytest.raises(DimensionMismatch, match="not of length 8"):
            Cochain(rep, 1, {(0,): val})
    assert cochain_to_coords(Cochain(rep, 1, {(2,): [1] * 8}))[16:24] == [1] * 8


def test_cochain_arithmetic_reads_only_the_stored_keys(monkeypatch):
    """+, -, scale and is_zero never enumerate C^n: in degree 20 over the
    40-dimensional abelian algebra, C(40, 20) ~ 1.4e11 keys, with every
    enumeration of C^n made to raise.  Results keep only nonzero vectors and
    share no list with their operands."""
    def refuse(*args):
        raise AssertionError("C^n enumerated")
    for name in ("cochain_keys", "cochain_to_coords", "coords_to_cochain"):
        monkeypatch.setattr(cohomology, name, refuse)
    rep = trivial_rep(abelian_algebra(40), 1)
    k1, k2 = tuple(range(20)), tuple(range(20, 40))
    a = Cochain(rep, 20, {k1: [3]})
    b = Cochain(rep, 20, {k1: [Fraction(1, 2)], k2: [-1]})
    assert (a + b).values == {k1: [Fraction(7, 2)], k2: [-1]}
    assert (a - b).values == {k1: [Fraction(5, 2)], k2: [1]}
    assert (b - a).values == {k1: [Fraction(-5, 2)], k2: [-1]}
    assert (b - b).values == {} and (b - b).is_zero()
    assert (a + b - a).values == {k1: [Fraction(1, 2)], k2: [-1]}
    assert b.scale(0).values == {} and b.scale(0).is_zero()
    assert b.scale(Fraction(2, 3)).values == {k1: [Fraction(1, 3)], k2: [Fraction(-2, 3)]}
    assert a.scale(Fraction(2, 3)).values == {k1: [2]}
    assert not a.is_zero() and not b.is_zero()
    operands = {id(v) for w in (a, b) for v in w.values.values()}
    for out in (a + b, b + a, a + Cochain(rep, 20), a - b, a.scale(1), b.scale(-1)):
        assert operands.isdisjoint(id(v) for v in out.values.values())


SO3_LINE = trivial_rep(so3_algebra(), 1)


def test_cohomology_below_degree_zero_and_coboundaries_in_degree_zero():
    """H^n = 0 for n < 0, and in degree 0 only the zero cochain is exact."""
    assert cohomology_dim(SO3_LINE, -1) == 0
    assert is_coboundary(Cochain(SO3_LINE, 0))
    assert not is_coboundary(Cochain(SO3_LINE, 0, {(): [1]}))


@pytest.mark.parametrize("call, exc, message", refusals([
    ("rho count", lambda: Representation(so3_algebra(), 1, [RMatrix.zeros(1, 1)] * 2),
     DimensionMismatch, "need one rho matrix per basis element"),
    ("rho shape", lambda: Representation(so3_algebra(), 1, [RMatrix.zeros(2, 2)] * 3),
     DimensionMismatch, "rho matrices must be dimV x dimV"),
    ("degrees", lambda: Cochain(SO3_LINE, 1) + Cochain(SO3_LINE, 2), DimensionMismatch,
     "cochain degrees differ"),
    ("representations", lambda: Cochain(SO3_LINE, 1) - Cochain(adjoint_rep(so3_algebra()), 1),
     DimensionMismatch, "cochains live over different representations"),
    ("json values", lambda: cochain_from_json(SO3_LINE, {"degree": 1, "values": [[1]]}),
     FixtureError, "field 'values' must map index tuples to vectors"),
]))
def test_cochain_refusals_name_the_mismatch(call, exc, message):
    assert_refused(call, exc, message)


def test_triple_product_nontrivial_class():
    w = killing_triple_cochain(so3_algebra(), 1)
    assert is_cocycle(w)
    assert not is_coboundary(w)


def test_cohomologous_after_twist(rng):
    rep = trivial_rep(so3_algebra(), 1)
    w = killing_triple_cochain(so3_algebra(), Fraction(3, 2))
    theta = rand_cochain(rng, rep, 2)
    assert cohomologous(w, w + coboundary(theta))
    assert not cohomologous(w, w.scale(2))


def test_abelian_cohomology_dimensions():
    for n, dimV in ((2, 1), (3, 2)):
        g = abelian_algebra(n)
        rep = trivial_rep(g, dimV)
        for k in range(n + 2):
            assert cohomology_dim(rep, k) == comb(n, k) * dimV


def test_so3_trivial_cohomology():
    rep = trivial_rep(so3_algebra(), 1)
    assert cohomology_dim(rep, 1) == 0
    assert cohomology_dim(rep, 2) == 0
    assert cohomology_dim(rep, 3) == 1


def test_sl2_adjoint_whitehead():
    rep = adjoint_rep(sl2_algebra())
    assert cohomology_dim(rep, 3) == 0
    assert cohomology_dim(rep, 1) == 0
    assert cohomology_dim(rep, 2) == 0


def test_sl_algebra_from_elementary_matrices():
    for n in (1, 2, 3, 4):
        g = sl_algebra(n)
        assert g.dim == n * n - 1
        assert check_lie_algebra(g).passed
    # sl2 in the basis (E_12, E_21, H_1) is sl2_algebra() in (e, f, h) order
    perm = [1, 2, 0]
    want = sl2_algebra().bracket
    assert sl_algebra(2).bracket == [[[want[perm[i]][perm[j]][perm[k]] for k in range(3)]
                                      for j in range(3)] for i in range(3)]
    # the Killing form of sl3 is 6 tr(xy): nondegenerate, <E_12, E_21> = 6
    k = killing_form(sl_algebra(3))
    assert k[0, 2] == 6 and k[6, 6] == 12
    assert rank_kernel(k)[0] == 8


def test_sl3_whitehead():
    g = sl_algebra(3)
    assert [cohomology_dim(trivial_rep(g, 1), n) for n in range(4)] == [1, 0, 0, 1]
    assert [cohomology_dim(adjoint_rep(g), n) for n in range(4)] == [0, 0, 0, 0]


def test_sl4_whitehead():
    """H^0..H^3 of sl4 with trivial coefficients, and H^0..H^3 with adjoint
    ones: delta_3 of the adjoint is 20,475 x 6,825 with 82,544 nonzeros,
    held sparse and eliminated over integer rows."""
    g = sl_algebra(4)
    assert [cohomology_dim(trivial_rep(g, 1), n) for n in range(4)] == [1, 0, 0, 1]
    assert [cohomology_dim(adjoint_rep(g), n) for n in range(4)] == [0, 0, 0, 0]


def test_classify_ghbar_sl3_nontrivial_class():
    g = sl_algebra(3)
    quad = classify(build_g_hbar(g, 1))
    assert quad.algebra == g
    assert quad.cocycle.values == killing_triple_cochain(g, 1).values
    assert is_cocycle(quad.cocycle)
    assert not is_coboundary(quad.cocycle)


def test_coboundary_matrix_matches_pointwise(rng):
    rep = adjoint_rep(so3_algebra())
    from lie2alg.cohomology import cochain_to_coords, coords_to_cochain
    w = rand_cochain(rng, rep, 2)
    m = coboundary_matrix(rep, 2)
    assert m.matvec(cochain_to_coords(w)) == cochain_to_coords(coboundary(w))


def test_two_slot_strict_case():
    rep = trivial_rep(so3_algebra(), 1)
    v = build_two_slot(Cochain(rep, 3, {}))
    assert check_axioms(v).passed
    L = from_linfty(v)
    from lie2alg.lie2 import is_strict, is_skeletal
    assert is_strict(L) and is_skeletal(L)


def test_two_slot_cocycle_bi_implication(rng):
    """check_axioms passes iff the degree-3 input is closed, across reps
    where both outcomes occur."""
    g4 = abelian_algebra(4)
    rep_mod = Representation(g4, 1, [RMatrix.zeros(1, 1) for _ in range(3)]
                             + [RMatrix.identity(1)])
    reps = [trivial_rep(so3_algebra(), 1), rep_mod, adjoint_rep(sl2_algebra())]
    seen = {True: 0, False: 0}
    for k in range(20):
        rep = reps[k % len(reps)]
        w = rand_cochain(rng, rep, 3)
        closed = is_cocycle(w)
        seen[closed] += 1
        assert check_axioms(build_two_slot(w)).passed == closed
    assert seen[True] > 0 and seen[False] > 0
    # the named broken fixture is this bi-implication at a single point
    w = Cochain(rep_mod, 3, {(0, 1, 2): [1]})
    assert not is_cocycle(w)
    assert not check_axioms(build_two_slot(w)).passed


def test_two_slot_degree_mismatch():
    rep = trivial_rep(so3_algebra(), 1)
    for degree in (2, 4):
        with pytest.raises(DimensionMismatch, match=f"cocycle degree {degree}, expected 3"):
            build_two_slot(Cochain(rep, degree, {}))


def test_killing_values_and_invariance():
    g = so3_algebra()
    k = killing_form(g)
    assert k == RMatrix.identity(3).scale(-2)
    sl2 = sl2_algebra()
    k2 = killing_form(sl2)
    assert k2 == RMatrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    for g_, k_ in ((g, k), (sl2, k2)):
        # symmetry and <[x,y],z> = <x,[y,z]> on all basis triples
        assert k_ == k_.transpose()
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    lhs = sum(g_.bracket[i][j][m] * k_[m, l] for m in range(3))
                    rhs = sum(k_[i, m] * g_.bracket[j][l][m] for m in range(3))
                    assert lhs == rhs
    assert killing_form(abelian_algebra(3)).is_zero()


def test_ghbar_l3_closed_for_every_hbar():
    for hbar in (0, 1, 2, Fraction(-1, 2), Fraction(7, 3)):
        w = killing_triple_cochain(so3_algebra(), hbar)
        assert coboundary(w).is_zero()


def test_cross_product_matches_scaled_killing():
    cp = build_cross_product()
    gh = build_g_hbar(so3_algebra(), Fraction(-1, 2))
    assert cp.data == gh.data
    assert cp.data.l3[0][1][2] == [1]
    assert check_axioms(cp.data).passed


def test_abelian_ghbar_degenerates():
    L = build_g_hbar(abelian_algebra(3), 5)
    assert all(x == 0 for a in L.data.l3 for b in a for c in b for x in c)


def test_classify_ghbar():
    for hbar in (1, 2):
        quad = classify(build_g_hbar(so3_algebra(), hbar))
        assert quad.algebra == so3_algebra()
        assert quad.rep.dimV == 1 and all(m.is_zero() for m in quad.rep.rho)
        assert quad.cocycle.values == killing_triple_cochain(so3_algebra(), hbar).values
        assert quad.witness.chain.phi0 == RMatrix.identity(3)
        assert check_hom(quad.witness).passed


def test_classify_strict_invertible_t_gives_zero_space():
    from conftest import so3_adjoint_dcm
    from lie2alg.lie2 import from_crossed_module
    L = from_crossed_module(so3_adjoint_dcm())
    quad = classify(L)
    assert quad.rep.dimV == 0
    assert quad.algebra.dim == 0
    assert quad.cocycle.is_zero()


def test_classify_rejects_invalid():
    from conftest import broken_abelian4
    with pytest.raises(ValueError):
        classify(from_linfty(broken_abelian4()))


@pytest.mark.parametrize("broken, message", [
    ("i_jacobiator_coherence", "transported l3 is not a cocycle"),
    ("h_l3_naturality", "transported structure fails the axioms")])
def test_classify_names_the_failed_check_of_the_skeleton(monkeypatch, broken, message):
    """One check_axioms call on the skeleton stands for the cocycle check
    too: a failing (i) raises the cocycle message, any other axiom the
    axioms message."""
    import lie2alg.cohomology as cohomology
    calls = []

    def check_axioms_failing_on_the_skeleton(v):
        rep = check_axioms(v)
        calls.append(v)
        if len(calls) == 2:
            rep.result(broken).passed = False
        return rep
    monkeypatch.setattr(cohomology, "check_axioms", check_axioms_failing_on_the_skeleton)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        classify(build_g_hbar(so3_algebra(), 1))
    assert len(calls) == 2


def test_classify_equivalence_invariance(rng):
    base, twisted, _ = delta_twist_pair(rng)
    q1 = classify(from_linfty(base))
    k = rng.randint(1, 2)
    infl = inflate(twisted, k, rand_invertible(rng, k))
    p0, p1 = quadruple_preserving_conjugation(rng, infl, 3, 1)
    moved = conjugate(infl, p0, p1)
    assert check_axioms(moved).passed
    q2 = classify(from_linfty(moved))
    assert q1.algebra == q2.algebra and q1.rep == q2.rep
    assert cohomologous(q1.cocycle, q2.cocycle)


def test_equivalence_from_cohomologous(rng):
    from lie2alg.cohomology import equivalence_from_cohomologous
    from lie2alg.linfty import check_hom
    rep = trivial_rep(so3_algebra(), 1)
    w = killing_triple_cochain(so3_algebra(), 1)
    theta = rand_cochain(rng, rep, 2)
    hom = equivalence_from_cohomologous(w + coboundary(theta), w)
    assert hom is not None
    assert check_hom(hom).passed
    assert hom.chain.phi0 == RMatrix.identity(3)
    # different classes give no witness
    assert equivalence_from_cohomologous(w.scale(2), w) is None
    # cochains over different representations are refused
    with pytest.raises(DimensionMismatch, match="different representations"):
        equivalence_from_cohomologous(w, Cochain(adjoint_rep(so3_algebra()), 3))


def test_json_round_trips(rng):
    g = sl2_algebra()
    assert algebra_from_json(algebra_to_json(g)) == g
    rep = adjoint_rep(g)
    assert rep_from_json(g, rep_to_json(rep)) == rep
    w = rand_cochain(rng, rep, 2)
    assert cochain_from_json(rep, cochain_to_json(w)).values == w.values
    # degree 0 uses the empty index tuple
    w0 = Cochain(rep, 0, {(): [1, 0, 2]})
    assert cochain_from_json(rep, cochain_to_json(w0)).values == w0.values


# The pointwise differential kept in test_sweep_oracles is the oracle for
# both coboundary_matrix and coboundary, which share one set of cells.

def _unit_cochain_images(rep, n):
    cols = []
    for key, v in cochain_basis(rep, n):
        vals = [0] * rep.dimV
        vals[v] = 1
        cols.append(cochain_to_coords(coboundary_pointwise(Cochain(rep, n, {key: vals}))))
    return cols


def _assert_matrix_matches_unit_cochains(rep):
    for n in range(4):
        m = coboundary_matrix(rep, n)
        assert (m.rows, m.cols) == (len(cochain_basis(rep, n + 1)),
                                    len(cochain_basis(rep, n)))
        assert [m.col(j) for j in range(m.cols)] == _unit_cochain_images(rep, n)


@pytest.mark.parametrize("algebra", [abelian_algebra(2), abelian_algebra(3), so3_algebra(),
                                     sl2_algebra()], ids=["abelian2", "abelian3", "so3", "sl2"])
def test_coboundary_matrix_matches_unit_cochains_named(algebra):
    for rep in (trivial_rep(algebra, 1), trivial_rep(algebra, 2), adjoint_rep(algebra)):
        _assert_matrix_matches_unit_cochains(rep)


@st.composite
def small_representation(draw):
    """A random antisymmetric bracket on dim 1..4 with a trivial (dim V
    1..2), adjoint or random-matrix action; neither Jacobi nor the
    representation property is needed for the matrix to equal delta."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
    dim = draw(st.integers(1, 4))
    bracket = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = [draw(entry) for _ in range(dim)]
            bracket[i][j], bracket[j][i] = v, [-x for x in v]
    g = LieAlgebra(dim, bracket)
    kind = draw(st.sampled_from(("trivial", "adjoint", "random")))
    if kind == "trivial":
        return trivial_rep(g, draw(st.integers(1, 2)))
    if kind == "adjoint":
        return adjoint_rep(g)
    dimV = draw(st.integers(1, 2))
    return Representation(g, dimV, [RMatrix.from_rows(
        [[draw(entry) for _ in range(dimV)] for _ in range(dimV)]) for _ in range(dim)])


@given(small_representation())
@settings(max_examples=60, deadline=None)
def test_coboundary_matrix_matches_unit_cochains_random(rep):
    _assert_matrix_matches_unit_cochains(rep)


@st.composite
def rational_cochains(draw):
    """A cochain of degree 0..dim+1 over small_representation(), with
    rational values on a random set of keys."""
    rep = draw(small_representation())
    degree = draw(st.integers(0, rep.algebra.dim + 1))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=4))
    keys = draw(st.lists(st.sampled_from(list(cochain_keys(rep.algebra.dim, degree))), unique=True)
                if degree <= rep.algebra.dim else st.just([]))
    return Cochain(rep, degree, {key: [draw(entry) for _ in range(rep.dimV)] for key in keys})


def test_sl3_load_parses_each_distinct_string_once(tmp_path, monkeypatch):
    """The 512 entries of sl3's bracket hold a handful of distinct strings,
    and `rational` sees each of them once."""
    from lie2alg import serialize
    obj = algebra_to_json(sl_algebra(3))
    path = tmp_path / "sl3.json"
    path.write_text(json.dumps(obj))
    seen, real = [], serialize.rational

    def rational(x):
        seen.append(x)
        return real(x)
    monkeypatch.setattr(serialize, "rational", rational)
    g = algebra_from_json(serialize.load_json_file(str(path)))
    entries = [x for row in obj["bracket"] for v in row for x in v]
    assert len(entries) == 512 and g == sl_algebra(3)
    assert sorted(seen) == sorted(set(entries))


def test_abelian16_delta8_yields_no_cell():
    """A zero bracket and a zero rho give no cell: delta_8 of the
    16-dimensional abelian algebra, 11,440 keys of 36 pairs each, is the
    zero matrix."""
    rep = trivial_rep(abelian_algebra(16), 1)
    assert next(_coboundary_cells(rep, 8), None) is None
    assert coboundary_matrix(rep, 8) == RMatrix.zeros(comb(16, 9), comb(16, 8))


@given(rational_cochains())
@settings(max_examples=150, deadline=None)
def test_coboundary_matches_pointwise_oracle(w):
    assert coboundary(w).values == coboundary_pointwise(w).values
