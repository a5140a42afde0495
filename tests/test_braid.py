
import copy
import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from lie2alg.braid import (build_B_vect, build_Y, check_ybe,
                           check_zamolodchikov, yang_baxter_sides)
from lie2alg.cohomology import (Cochain, LieAlgebra, abelian_algebra, build_g_hbar, build_two_slot, check_lie_algebra, so3_algebra, sl2_algebra, sl_algebra, trivial_rep)
from lie2alg import exactlin
from lie2alg.exactlin import RMatrix, rank_kernel, vzeros
from lie2alg.lie2 import from_linfty
from lie2alg.linfty import generalized_jacobi, perm_sign
from lie2alg.report import grid_violations
from lie2alg.twovect import check_functor, check_nat_trans
from conftest import broken_abelian4, broken_jacobi3, rand_antisymmetric_bracket
from test_sweep_oracles import check_zamolodchikov_with_identities


def test_abelian_braiding_is_plain_swap():
    op = build_B_vect(abelian_algebra(3))
    dim = 4
    for i in range(dim):
        for j in range(dim):
            col = op.col(i * dim + j)
            expected = vzeros(dim * dim)
            expected[j * dim + i] = 1
            assert col == expected


def test_so3_braiding_formula():
    op = build_B_vect(so3_algebra())
    # B((0,e1) ox (0,e2)) = (0,e2) ox (0,e1) + (1,0) ox (0,e3)
    col = op.col(1 * 4 + 2)
    expected = vzeros(16)
    expected[2 * 4 + 1] = 1
    expected[0 * 4 + 3] = 1
    assert col == expected


def test_ground_slot_swaps_cleanly():
    op = build_B_vect(so3_algebra())
    for j in range(4):
        col = op.col(0 * 4 + j)
        expected = vzeros(16)
        expected[j * 4 + 0] = 1
        assert col == expected


def test_braiding_invertible():
    for g in (so3_algebra(), sl2_algebra(), broken_jacobi3()):
        op = build_B_vect(g)
        rank, _ = rank_kernel(op)
        assert rank == op.rows


def test_non_antisymmetric_bracket_rejected():
    b = [[vzeros(2) for _ in range(2)] for _ in range(2)]
    b[0][1][0] = 1  # no matching [1][0]
    with pytest.raises(ValueError):
        build_B_vect(LieAlgebra(2, b))


def test_ybe_bi_implication_named():
    cases = [(abelian_algebra(3), True), (so3_algebra(), True),
             (sl2_algebra(), True), (broken_jacobi3(), False)]
    for g, expected in cases:
        assert check_ybe(build_B_vect(g)).passed is expected
        assert check_lie_algebra(g).result("jacobi").passed is expected


def test_ybe_bi_implication_random(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        g = LieAlgebra(n, rand_antisymmetric_bracket(rng, n))
        op = build_B_vect(g)
        res = check_ybe(op).result("yang_baxter_equation")
        assert res.passed == check_lie_algebra(g).result("jacobi").passed
        # the reported cell is the first nonzero cell of the whole residual
        lhs, rhs = yang_baxter_sides(op)
        assert res.violations == grid_violations(lhs - rhs)[:1]


@st.composite
def antisymmetric_algebras(draw):
    """so3, sl2, an abelian algebra, or a random antisymmetric bracket on
    dimension 1 to 4 with sparse entries, which mostly fails Jacobi."""
    named = draw(st.sampled_from([None, None, None, so3_algebra, sl2_algebra,
                                  lambda: abelian_algebra(2)]))
    if named is not None:
        return named()
    n = draw(st.integers(1, 4))
    b = [[vzeros(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                x = draw(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]))
                b[i][j][k], b[j][i][k] = x, -x
    return LieAlgebra(n, b)


@settings(max_examples=40, deadline=None)
@given(antisymmetric_algebras())
def test_ybe_first_cell_is_the_first_cell_of_the_residual(g):
    """check_ybe's row comparison reports the first nonzero cell of
    lhs - rhs in row-major order, with its entry, and passes exactly when
    the Jacobi identity holds."""
    op = build_B_vect(g)
    lhs, rhs = yang_baxter_sides(op)
    res = check_ybe(op).result("yang_baxter_equation")
    assert res.violations == grid_violations(lhs - rhs)[:1]
    assert res.passed == check_lie_algebra(g).result("jacobi").passed


def test_antisymmetric_algebras_reach_both_ybe_verdicts():
    def jacobi(g):
        return check_lie_algebra(g).result("jacobi").passed
    assert jacobi(find(antisymmetric_algebras(), jacobi))
    assert not jacobi(find(antisymmetric_algebras(), lambda g: not jacobi(g)))


def test_ybe_matrix_dimension():
    lhs, rhs = yang_baxter_sides(build_B_vect(so3_algebra()))
    assert lhs.rows == 64 and rhs.rows == 64


# ---------------------------------------------------------------------------
# the categorified braiding

def small_strict():
    rep = trivial_rep(abelian_algebra(2), 1)
    return from_linfty(build_two_slot(Cochain(rep, 3, {})))


def abelian3_volume():
    """Abelian objects with l3 the volume form: valid and skeletal but not
    strict; the smallest structure with nontrivial Y components."""
    rep = trivial_rep(abelian_algebra(3), 1)
    return from_linfty(build_two_slot(Cochain(rep, 3, {(0, 1, 2): [1]})))


def test_braid_functor_is_a_functor(ghbar_so3_1, tetra_so3_1):
    assert check_functor(tetra_so3_1.braid).passed


def test_braid_functor_invertible_on_morphisms():
    from lie2alg.twovect import is_invertible_functor
    ty = build_Y(small_strict())
    assert is_invertible_functor(ty.braid)


def test_Y_and_the_sweep_build_no_matrix_on_the_third_tensor_power(ghbar_so3_1, monkeypatch):
    """build_Y and check_zamolodchikov multiply, add and tensor only
    matrices whose sides are below d0^3: the products on (k + L)^(ox 2)
    inside build_braid_functor, and nothing on (k + L)^(ox 3) or beyond."""
    sides = []
    matmul, add, kron = RMatrix.__matmul__, RMatrix.__add__, exactlin.kron

    def recorded_matmul(a, b):
        sides.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    def recorded_add(a, b):
        sides.append((a.rows, a.cols))
        return add(a, b)

    def recorded_kron(a, b):
        out = kron(a, b)
        sides.append((out.rows, out.cols))
        return out
    monkeypatch.setattr(RMatrix, "__matmul__", recorded_matmul)
    monkeypatch.setattr(RMatrix, "__add__", recorded_add)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lie2alg" and getattr(module, "kron", None) is kron:
            monkeypatch.setattr(module, "kron", recorded_kron)
    ty = build_Y(ghbar_so3_1)
    assert check_zamolodchikov(ty).passed
    assert sides and max(max(s) for s in sides) < ty.space.dim0 ** 3


def test_braid_functor_restricts_to_vector_level(tetra_so3_1):
    op = build_B_vect(so3_algebra())
    assert tetra_so3_1.braid.f0 == op


def test_Y_passes_naturality_under_hypotheses(tetra_so3_1):
    assert tetra_so3_1.hypotheses.passed
    assert check_nat_trans(tetra_so3_1.y).passed


def test_Y_identity_components_for_strict():
    ty = build_Y(small_strict())
    lp3_i = None
    sp = ty.y.from_functor.target
    for col in range(ty.y.theta.cols):
        comp = ty.y.theta.col(col)
        src = ty.y.from_functor.f0.col(col)
        assert comp == sp.i.matvec(src)


def test_Y_component_value_on_ghbar(tetra_so3_1):
    ty = tetra_so3_1
    col = (1 * 4 + 2) * 4 + 3  # (0,e1) ox (0,e2) ox (0,e3)
    comp = ty.y.theta.col(col)
    src = ty.y.from_functor.f0.col(col)
    arrow = [a - b for a, b in zip(comp, ty.y.from_functor.target.i.matvec(src))]
    expected = vzeros(125)
    expected[4] = -2  # (ground, ground, l3-slot): j of the Jacobiator arrow
    assert arrow == expected


def test_Y_identity_on_ground_slots(tetra_so3_1):
    ty = tetra_so3_1
    sp = ty.y.from_functor.target
    for col in range(64):
        trip = (col // 16, (col // 4) % 4, col % 4)
        if 0 in trip:
            comp = ty.y.theta.col(col)
            assert comp == sp.i.matvec(ty.y.from_functor.f0.col(col))


def test_tetrahedron_strict_passes():
    ty = build_Y(small_strict())
    rep = check_zamolodchikov(ty)
    assert rep.passed


def test_tetrahedron_strict_non_skeletal_passes():
    from lie2alg.lie2 import DifferentialCrossedModule, from_crossed_module
    dcm = DifferentialCrossedModule(1, [[[0]]], 1, [[[0]]],
                                    RMatrix.identity(1), [[[0]]])
    ty = build_Y(from_crossed_module(dcm))
    assert ty.hypotheses.passed
    assert check_zamolodchikov(ty).passed


def test_tetrahedron_with_nontrivial_action_passes():
    from lie2alg.cohomology import Representation
    g = abelian_algebra(2)
    rep = Representation(g, 1, [RMatrix.from_rows([[1]]), RMatrix.from_rows([[2]])])
    v = build_two_slot(Cochain(rep, 3, {}))
    ty = build_Y(from_linfty(v))
    assert check_zamolodchikov(ty).passed


def test_tetrahedron_abelian_volume_passes():
    ty = build_Y(abelian3_volume())
    assert ty.hypotheses.passed
    assert check_zamolodchikov(ty).passed


def test_hypotheses_reported_without_condition_i():
    ty = build_Y(from_linfty(broken_abelian4()))
    assert ty.hypotheses.passed  # (a)-(h) hold, only (i) fails
    names = [c.name for c in ty.hypotheses.checks]
    assert "i_jacobiator_coherence" not in names


def test_tetrahedron_ghbar_sl3_passes():
    ty = build_Y(from_linfty(build_g_hbar(sl_algebra(3), Fraction(1, 2)).data))
    assert ty.hypotheses.passed and ty.condition_i.passed
    assert check_zamolodchikov(ty).passed


def test_tetrahedron_ghbar_sl3_l3_orbit_moved_fails_where_jacobi_does():
    """+1 on the antisymmetric orbit of l3(e0, e2, e3) breaks (i): the
    unshuffle identity first fails at (0, 2, 3, 6), and the tetrahedron
    sweep at the same tuple shifted past the ground slot, with the
    full-component sweep's report."""
    v = copy.deepcopy(build_g_hbar(sl_algebra(3), Fraction(1, 2)).data)
    for perm in permutations(range(3)):
        i, j, k = ((0, 2, 3)[p] for p in perm)
        v.l3[i][j][k][0] += perm_sign(perm)
    jac = generalized_jacobi(v, 4).result("unshuffle_identity")
    assert [x for _, x in jac.first_violation[0]] == [0, 2, 3, 6]
    ty = build_Y(from_linfty(v))
    assert ty.hypotheses.passed and not ty.condition_i.passed
    rep = check_zamolodchikov(ty)
    loc, residual = rep.result("component_equality").first_violation
    assert loc == (1, 3, 4, 7)
    assert {k: x for k, x in enumerate(residual) if x} == {9: -1}
    assert rep.to_json() == check_zamolodchikov_with_identities(ty).to_json()
