import copy
from fractions import Fraction
from itertools import product

import pytest

from lie2alg.cohomology import (Representation, abelian_algebra, build_g_hbar,
                                build_two_slot, Cochain, so3_algebra, trivial_rep)
from lie2alg.exactlin import RMatrix, vzeros
from lie2alg.lie2 import (DCM_FAILURE_TO_AXIOM, DifferentialCrossedModule, Lie2TwoHom,
                          bracket_morphisms, bracket_morphisms_alt,
                          check_crossed_module, check_jacobiator_identity_categorical,
                          check_jacobiator_naturality, check_lie2_hom,
                          check_lie2_two_hom, compose_lie2_homs, dcm_from_json,
                          dcm_to_json, from_crossed_module, from_linfty,
                          hom_from_linf, hom_to_linf, identity_lie2_hom, is_skeletal,
                          is_strict, jacobiator, to_crossed_module, to_linfty)
from lie2alg.linfty import TwoTermLInfinity, check_axioms, check_hom, identity_hom
from lie2alg.twoterm import TwoTermComplex
from lie2alg.twovect import Morphism, compose_morphisms, identity_morphism
from conftest import broken_abelian4, rand_mat, so3_adjoint_dcm


def test_round_trip_is_identity():
    v = build_g_hbar(so3_algebra(), 2).data
    L = from_linfty(v)
    assert to_linfty(L) is v


def test_bracket_of_identities_is_identity_of_bracket():
    L = build_g_hbar(so3_algebra(), 1)
    for i in range(3):
        for j in range(3):
            one_i = identity_morphism(L.space, L.object_basis(i))
            one_j = identity_morphism(L.space, L.object_basis(j))
            br = bracket_morphisms(L, one_i, one_j)
            assert br == identity_morphism(L.space, L.data.l2_00[i][j])


def test_bracket_trivial_rep_kills_arrows():
    L = build_g_hbar(so3_algebra(), 1)
    f = Morphism(L.space, [1, 0, 0, 1])  # (e1, arrow 1)
    g = Morphism(L.space, [0, 1, 0, 0])  # (e2, 0)
    br = bracket_morphisms(L, f, g)
    assert br.vec == [0, 0, 1, 0]  # ([e1,e2], 0) = (e3, 0)


def test_bracket_formulas_agree(rng):
    L = build_g_hbar(so3_algebra(), Fraction(1, 2))
    dcm = so3_adjoint_dcm()
    L2 = from_crossed_module(dcm)
    for M in (L, L2):
        for _ in range(15):
            f = Morphism(M.space, [rng.randint(-2, 2) for _ in range(M.space.dim1)])
            g = Morphism(M.space, [rng.randint(-2, 2) for _ in range(M.space.dim1)])
            assert bracket_morphisms(M, f, g) == bracket_morphisms_alt(M, f, g)


def test_bracket_functoriality(rng):
    dcm = so3_adjoint_dcm()
    L = from_crossed_module(dcm)
    for _ in range(15):
        f = Morphism(L.space, [rng.randint(-2, 2) for _ in range(6)])
        fp = Morphism(L.space, list(f.target()) + [rng.randint(-2, 2) for _ in range(3)])
        g = Morphism(L.space, [rng.randint(-2, 2) for _ in range(6)])
        gp = Morphism(L.space, list(g.target()) + [rng.randint(-2, 2) for _ in range(3)])
        lhs = bracket_morphisms(L, compose_morphisms(f, fp), compose_morphisms(g, gp))
        rhs = compose_morphisms(bracket_morphisms(L, f, g),
                                bracket_morphisms(L, fp, gp))
        assert lhs == rhs


def test_jacobiator_strict_is_identity():
    L = from_crossed_module(so3_adjoint_dcm())
    for i in range(3):
        J = jacobiator(L, i, (i + 1) % 3, (i + 2) % 3)
        assert J == identity_morphism(L.space, J.source())


def test_jacobiator_endpoints():
    from lie2alg.exactlin import vadd
    L = from_crossed_module(so3_adjoint_dcm())
    b = L.data.bracket00
    for (x, y, z) in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
        ex, ey, ez = (L.object_basis(i) for i in (x, y, z))
        J = jacobiator(L, x, y, z)
        assert J.source() == b(b(ex, ey), ez)
        assert J.target() == vadd(b(ex, b(ey, ez)), b(b(ex, ez), ey))


def test_jacobiator_killing_value():
    L = build_g_hbar(so3_algebra(), 1)
    J = jacobiator(L, 0, 1, 2)
    assert J.source() == [0, 0, 0]
    assert J.arrow() == [0, 0, 0, -2]
    # independent oracle: trace of ad products
    g = so3_algebra()
    ad = [g.ad(i) for i in range(3)]
    killing_e1_e1 = sum((ad[0] @ ad[0]).data[k][k] for k in range(3))
    assert J.vec[3] == killing_e1_e1


def test_jacobiator_reads_basis_indices_as_unit_vectors(rng):
    """`contract` reads a basis index as its unit vector, in any slot: the
    Jacobiator is the same morphism for either, on g_hbar(so3) and on a
    random structure that need not satisfy the axioms."""
    n0, n1 = 3, 2

    def tensor(*dims):
        if len(dims) == 1:
            return [rng.randint(-2, 2) for _ in range(dims[0])]
        return [tensor(*dims[1:]) for _ in range(dims[0])]
    rand = TwoTermLInfinity(TwoTermComplex(n0, n1, rand_mat(rng, n0, n1)), tensor(n0, n0, n0),
                            tensor(n0, n1, n1), tensor(n0, n0, n0, n1))
    for L in (build_g_hbar(so3_algebra(), 1), from_linfty(rand)):
        for idx in product(range(L.dim0), repeat=3):
            unit = [L.object_basis(i) for i in idx]
            J = jacobiator(L, *unit)
            for mask in product((False, True), repeat=3):
                assert jacobiator(L, *(i if m else u for i, u, m in zip(idx, unit, mask))) == J


def test_jacobiator_antisymmetry(rng):
    L = build_g_hbar(so3_algebra(), 2)
    for _ in range(10):
        x, y, z = (rng.randint(0, 2) for _ in range(3))
        assert jacobiator(L, x, y, z).arrow() == [-v for v in jacobiator(L, y, x, z).arrow()]


def test_octagon_strict_passes():
    assert check_jacobiator_identity_categorical(from_crossed_module(so3_adjoint_dcm())).passed


def test_octagon_matches_condition_i():
    for L in (build_g_hbar(so3_algebra(), 2), from_linfty(broken_abelian4())):
        oct_rep = check_jacobiator_identity_categorical(L)
        cond_i = check_axioms(L.data).result("i_jacobiator_coherence")
        assert oct_rep.passed == cond_i.passed
        if not oct_rep.passed:
            assert oct_rep.result("octagon").first_violation[0] == cond_i.first_violation[0]


def test_octagon_agreement_randomized(rng):
    """Octagon pass/fail tracks condition (i) across random valid and
    deliberately broken instances."""
    from lie2alg.cohomology import build_two_slot, trivial_rep, Cochain
    from conftest import rand_cochain
    instances = []
    g4 = abelian_algebra(4)
    rep_mod = Representation(g4, 1, [RMatrix.zeros(1, 1) for _ in range(3)]
                             + [RMatrix.identity(1)])
    for _ in range(8):
        rep = rep_mod if rng.random() < 0.5 else trivial_rep(so3_algebra(), 1)
        instances.append(build_two_slot(rand_cochain(rng, rep, 3)))
    for v in instances:
        # octagon needs the bracket functor laws, i.e. (a)-(h); all these
        # instances satisfy them by construction
        L = from_linfty(v)
        oct_ok = check_jacobiator_identity_categorical(L).passed
        i_ok = check_axioms(v).result("i_jacobiator_coherence").passed
        assert oct_ok == i_ok


def test_degenerate_dimensions_are_legal():
    from lie2alg.twoterm import TwoTermComplex as _C
    v = TwoTermLInfinity(_C(0, 2, RMatrix.zeros(0, 2)), [],
                         [], [])
    assert check_axioms(v).passed
    L = from_linfty(v)
    assert check_jacobiator_identity_categorical(L).passed
    assert is_strict(L)


def test_trivial_h_dcm_valid_iff_g_is_lie_algebra():
    import conftest
    for g, expect in ((so3_algebra(), True), (conftest.broken_jacobi3(), False)):
        dcm = DifferentialCrossedModule(3, copy.deepcopy(g.bracket), 1, [[[0]]],
                                        RMatrix.zeros(3, 1), [[[0]] for _ in range(3)])
        assert check_crossed_module(dcm).passed is expect


def test_jacobiator_naturality_iff_condition_h():
    good = build_g_hbar(so3_algebra(), 1)
    assert check_jacobiator_naturality(good).passed
    # violate only (h): abelian objects, non-commuting rho
    g = abelian_algebra(2)
    rep = Representation(g, 2, [RMatrix.from_rows([[0, 1], [0, 0]]),
                                RMatrix.from_rows([[0, 0], [1, 0]])])
    cx = TwoTermComplex(2, 2, RMatrix.zeros(2, 2))
    v = TwoTermLInfinity(cx, copy.deepcopy(g.bracket),
                         [[rep.rho[i].col(a) for a in range(2)] for i in range(2)],
                         [[[vzeros(2) for _ in range(2)] for _ in range(2)]
                          for _ in range(2)])
    ax = check_axioms(v)
    assert [c.name for c in ax.checks if not c.passed] == ["h_l3_naturality"]
    assert not check_jacobiator_naturality(from_linfty(v)).passed


def test_strict_skeletal_predicates():
    gh = build_g_hbar(so3_algebra(), 1)
    assert not is_strict(gh) and is_skeletal(gh)
    dcm_img = from_crossed_module(so3_adjoint_dcm())
    assert is_strict(dcm_img) and not is_skeletal(dcm_img)
    zero = from_linfty(build_two_slot(Cochain(trivial_rep(abelian_algebra(2), 1), 3, {})))
    assert is_strict(zero) and is_skeletal(zero)


# ---------------------------------------------------------------------------
# crossed modules

def test_adjoint_dcm_valid_and_round_trips():
    dcm = so3_adjoint_dcm()
    assert check_crossed_module(dcm).passed
    L = from_crossed_module(dcm)
    assert check_axioms(L.data).passed
    assert to_crossed_module(L) == dcm


def test_abelian_trivial_dcm():
    g = so3_algebra()
    dcm = DifferentialCrossedModule(3, copy.deepcopy(g.bracket), 1,
                                    [[[0]]], RMatrix.zeros(3, 1),
                                    [[[0]] for _ in range(3)])
    assert check_crossed_module(dcm).passed
    img = from_crossed_module(dcm)
    assert check_axioms(img.data).passed
    assert is_strict(img) and is_skeletal(img)


def test_to_crossed_module_requires_strict():
    with pytest.raises(ValueError):
        to_crossed_module(build_g_hbar(so3_algebra(), 1))


def test_dcm_failure_mapping():
    """Each mapped crossed-module violation shows up as the named axiom
    failure in the image."""
    def fresh():
        return so3_adjoint_dcm()

    cases = []
    m = fresh(); m.g_bracket[0][0][1] = 1; cases.append(("g_antisymmetry", m))
    m = fresh(); m.g_bracket[0][1] = [1, 0, 0]; m.g_bracket[1][0] = [-1, 0, 0]
    cases.append(("g_jacobi", m))
    m = fresh(); m.alpha[0][0] = [1, 0, 0]; cases.append(("equivariance", m))
    m = fresh(); m.t = RMatrix.zeros(3, 3); m.alpha[0][1] = [0, 0, 2]
    m.alpha[0][2] = [0, -2, 0]
    cases.append(("action_homomorphism", m))
    m = fresh()  # t = identity, abelian h, one asymmetric alpha entry
    m.h_bracket = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    m.alpha = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    m.alpha[0][0] = [0, 1, 0]
    cases.append(("peiffer_antisymmetry", m))

    for name, broken in cases:
        rep = check_crossed_module(broken)
        assert not rep.result(name).passed, name
        img = check_axioms(from_crossed_module(broken).data)
        assert not img.result(DCM_FAILURE_TO_AXIOM[name]).passed, name


def test_dcm_json_round_trip():
    dcm = so3_adjoint_dcm()
    assert dcm_from_json(dcm_to_json(dcm)) == dcm


# ---------------------------------------------------------------------------
# homomorphisms

def test_identity_lie2_hom_passes_and_is_unit():
    L = build_g_hbar(so3_algebra(), 1)
    e = identity_lie2_hom(L)
    assert check_lie2_hom(e).passed
    c = compose_lie2_homs(e, e)
    assert check_lie2_hom(c).passed
    assert c.f2 == e.f2


def test_hom_from_valid_linf_passes(rng):
    from test_linfty import twist_hom
    f = twist_hom(rng)
    assert check_hom(f).passed
    F = hom_from_linf(f)
    assert check_lie2_hom(F).passed
    back = hom_to_linf(F)
    assert check_hom(back).passed
    assert back.phi2 == f.phi2 and back.chain.phi1 == f.chain.phi1


def test_corrupted_f2_fails_with_residual(rng):
    from test_linfty import twist_hom
    F = hom_from_linf(twist_hom(rng))
    bad_f2 = [[list(v) for v in row] for row in F.f2]
    bad_f2[0][1][0] += 1
    from lie2alg.lie2 import Lie2Hom
    bad = Lie2Hom(F.source, F.target, F.functor, bad_f2)
    rep = check_lie2_hom(bad)
    assert not rep.passed
    assert rep.first_failure.first_violation is not None


def test_compose_lie2_homs_matches_linf_composition(rng):
    from test_linfty import twist_hom
    from lie2alg.linfty import compose_homs
    f = twist_hom(rng)
    e = identity_hom(f.target)
    F, E = hom_from_linf(f), hom_from_linf(e)
    comp = compose_lie2_homs(F, E)
    assert check_lie2_hom(comp).passed
    assert hom_to_linf(comp).phi2 == compose_homs(f, e).phi2


def test_inflation_hom_passes_with_nonzero_differential(rng):
    """The strict inclusion into a direct sum with an acyclic complex is a
    valid homomorphism whose target has d != 0; exercises the hexagon in
    the non-skeletal regime."""
    from conftest import inflate, rand_invertible
    from lie2alg.linfty import LInfHom
    from lie2alg.twoterm import ChainMap
    from lie2alg.exactlin import RMatrix as _M
    v = build_g_hbar(so3_algebra(), 1).data
    big = inflate(v, 2, rand_invertible(rng, 2))
    phi0 = _M.identity(3).vstack(_M.zeros(2, 3))
    phi1 = _M.identity(1).vstack(_M.zeros(2, 1))
    from lie2alg.linfty import zero_phi2
    incl = LInfHom(v, big, ChainMap(v.complex, big.complex, phi0, phi1),
                   zero_phi2(3, 3))
    assert check_hom(incl).passed
    F = hom_from_linf(incl)
    assert check_lie2_hom(F).passed
    comp = compose_lie2_homs(F, identity_lie2_hom(from_linfty(big)))
    assert check_lie2_hom(comp).passed


def test_lie2_two_hom_identity_passes():
    L = build_g_hbar(so3_algebra(), 1)
    e = identity_lie2_hom(L)
    from lie2alg.twovect import identity_nat
    t = Lie2TwoHom(e, e, identity_nat(e.functor))
    rep = check_lie2_two_hom(t)
    assert rep.passed
