"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Every comparison is exact rational equality; no tolerances."""

import copy
import time
from fractions import Fraction

from lie2alg.braid import build_B_vect, build_Y, check_ybe, check_zamolodchikov
from lie2alg.cohomology import (Cochain, LieAlgebra, Representation, abelian_algebra,
                                adjoint_rep, build_cross_product, build_g_hbar,
                                build_two_slot, check_lie_algebra, classify, coboundary,
                                cohomologous, cohomology_dim, is_coboundary, is_cocycle,
                                killing_triple_cochain, so3_algebra, sl2_algebra,
                                trivial_rep)
from lie2alg.exactlin import RMatrix, contract, vzeros
from lie2alg.lie2 import (DCM_FAILURE_TO_AXIOM, check_crossed_module,
                          check_jacobiator_identity_categorical, check_lie2_hom,
                          compose_lie2_homs, from_crossed_module, from_linfty,
                          hom_from_linf, to_crossed_module)
from lie2alg.linfty import LInfHom, check_axioms, check_hom, compose_homs, generalized_jacobi
from lie2alg.twoterm import (ChainHomotopy, ChainMap, TwoTermComplex, check_chain_map,
                             check_homotopy, identity_chain_map)
from lie2alg.twovect import (LinearNatTrans, S_on_functor, S_on_nat_trans,
                             T_on_chain_map, T_on_homotopy, check_functor,
                             check_nat_trans, functor_S, functor_T, horizontal_nat,
                             is_invertible_functor, st_roundtrip_iso, vertical_nat)
from conftest import (broken_abelian4, broken_jacobi3, conjugate, delta_twist_pair,
                      inflate, quadruple_preserving_conjugation,
                      rand_antisymmetric_bracket, rand_cochain, rand_invertible,
                      rand_mat, so3_adjoint_dcm)
from test_sweep_oracles import check_graded_antisymmetry


def verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok


def test_criterion_1_axiom_suite():
    fixtures = [build_g_hbar(so3_algebra(), h).data
                for h in (0, 1, 2, Fraction(-1, 2))]
    fixtures.append(build_g_hbar(sl2_algebra(), 1).data)
    ok = True
    for v in fixtures:
        axioms = check_axioms(v)
        oracle = (check_graded_antisymmetry(v).passed
                  and all(generalized_jacobi(v, n).passed for n in range(1, 5)))
        ok &= axioms.passed and (axioms.passed == oracle)
    # the oracle cross-check must also agree on a failing instance
    bad = broken_abelian4()
    oracle_bad = (check_graded_antisymmetry(bad).passed
                  and all(generalized_jacobi(bad, n).passed for n in range(1, 5)))
    ok &= (check_axioms(bad).passed == oracle_bad is False)
    verdict(1, ok, "g_hbar(so3; 0,1,2,-1/2) and g_hbar(sl2; 1), oracle agreement")


def test_criterion_2_cocycle_reproduction():
    w = killing_triple_cochain(so3_algebra(), 1)
    ok = coboundary(w).is_zero()
    cross = build_cross_product().data
    rep = trivial_rep(so3_algebra(), 1)
    w_cross = Cochain(rep, 3, {(0, 1, 2): cross.l3[0][1][2]})
    ok &= coboundary(w_cross).is_zero()
    ok &= is_cocycle(w) and not is_coboundary(w)
    ok &= cohomology_dim(rep, 3) == 1
    verdict(2, ok, "delta(triple product) = 0, nontrivial class, dim H^3 = 1")


def test_criterion_3_whitehead_spot_check():
    ok = cohomology_dim(adjoint_rep(sl2_algebra()), 3) == 0
    rep = trivial_rep(so3_algebra(), 1)
    ok &= cohomology_dim(rep, 1) == 0
    ok &= cohomology_dim(rep, 2) == 0
    verdict(3, ok, "H^3(sl2, adjoint) = 0 and H^1 = H^2 = 0 for so3 trivial")


def test_criterion_4_ybe_bi_implication(rng):
    family = [abelian_algebra(3), so3_algebra(), sl2_algebra(), broken_jacobi3()]
    while len(family) < 22:
        n = rng.randint(1, 4)
        family.append(LieAlgebra(n, rand_antisymmetric_bracket(rng, n)))
    disagreements = 0
    passes = fails = 0
    for g in family:
        ybe = check_ybe(build_B_vect(g)).passed
        jac = check_lie_algebra(g).result("jacobi").passed
        disagreements += ybe != jac
        passes += jac
        fails += not jac
    verdict(4, disagreements == 0 and passes > 0 and fails > 0,
            f"{len(family)} brackets, {passes} Jacobi-true, {fails} Jacobi-false, 0 disagreements")


def test_criterion_5_tetrahedron_bi_implication(rng, ghbar_so3_1, tetra_so3_1):
    start = time.monotonic()
    zam_main = check_zamolodchikov(tetra_so3_1)
    elapsed = time.monotonic() - start
    ok = zam_main.passed and elapsed < 60.0

    rep_so3 = trivial_rep(so3_algebra(), 1)
    twisted = (killing_triple_cochain(so3_algebra(), 2)
               + coboundary(rand_cochain(rng, rep_so3, 2)))
    rep3 = trivial_rep(abelian_algebra(3), 1)
    g2 = abelian_algebra(2)
    rep_act = Representation(g2, 1, [RMatrix.from_rows([[1]]), RMatrix.from_rows([[2]])])
    from lie2alg.lie2 import DifferentialCrossedModule
    strict_dcm = DifferentialCrossedModule(1, [[[0]]], 1, [[[0]]],
                                           RMatrix.identity(1), [[[0]]])
    family = [
        build_g_hbar(so3_algebra(), 0),                             # strict skeletal
        from_crossed_module(strict_dcm),                            # strict, d != 0
        ghbar_so3_1,
        from_linfty(broken_abelian4()),
        from_linfty(build_two_slot(Cochain(rep3, 3, {(0, 1, 2): [1]}))),
        from_linfty(build_two_slot(Cochain(rep_act, 3, {}))),
        from_linfty(build_two_slot(twisted)),           # random valid
    ]
    broken = family[3]
    for L in family:
        ty = tetra_so3_1 if L is ghbar_so3_1 else build_Y(L)
        zam = check_zamolodchikov(ty).passed
        octagon = check_jacobiator_identity_categorical(L).passed
        cond_i = check_axioms(L.data).result("i_jacobiator_coherence").passed
        ok &= zam == octagon == cond_i
        if L is broken:
            ok &= not zam
    verdict(5, ok, f"256-object sweep in {elapsed:.1f}s, family agreement exact")


def test_criterion_6_equivalence_functors(rng):
    ok = True
    checked = 0
    for _ in range(20):
        n0 = rng.randint(0, 3)
        n1 = rng.randint(0, 2)
        c = TwoTermComplex(n0, n1, rand_mat(rng, n0, n1))
        ok &= functor_S(functor_T(c)) == c

        v = functor_T(c)
        alpha = st_roundtrip_iso(v)
        ok &= check_functor(alpha).passed and is_invertible_functor(alpha)

        tau = rand_mat(rng, n1, n0)
        f = identity_chain_map(c)
        g = ChainMap(c, c, f.phi0 + c.d @ tau, f.phi1 + tau @ c.d)
        h = ChainHomotopy(f, g, tau)
        ok &= check_chain_map(g).passed
        F = T_on_chain_map(g)
        ok &= check_functor(F).passed
        ok &= S_on_functor(F).phi1 == g.phi1
        th = T_on_homotopy(h)
        ok &= check_nat_trans(th).passed
        ok &= S_on_nat_trans(th).tau == tau

        if n0 and n1:
            bad = ChainMap(c, c, g.phi0 + c.d @ rand_mat(rng, n1, n0), g.phi1)
            ok &= check_chain_map(bad).passed == check_functor(T_on_chain_map(bad)).passed
            # lands in the arrow block
            bump = RMatrix.from_cells(th.theta.rows, th.theta.cols, [((n0, 0), 1)])
            bad_nat = LinearNatTrans(th.from_functor, th.to_functor, th.theta + bump)
            ok &= bad_nat.theta != th.theta
            ok &= check_nat_trans(bad_nat).passed == check_homotopy(
                S_on_nat_trans(bad_nat)).passed
            bad_h = ChainHomotopy(f, g, tau + rand_mat(rng, n1, n0))
            ok &= check_homotopy(bad_h).passed == check_nat_trans(
                T_on_homotopy(bad_h)).passed
        checked += 1
    verdict(6, ok and checked == 20, "20 round trips with transported checks")


def test_criterion_7_classification(rng):
    quad = classify(build_g_hbar(so3_algebra(), 1))
    ok = (quad.algebra == so3_algebra() and quad.rep.dimV == 1
          and all(m.is_zero() for m in quad.rep.rho)
          and quad.cocycle.values == killing_triple_cochain(so3_algebra(), 1).values
          and quad.witness.chain.phi0 == RMatrix.identity(3)
          and quad.witness.chain.phi1 == RMatrix.identity(1))
    pairs = 0
    for _ in range(10):
        base, twisted, _ = delta_twist_pair(rng, hbar=rng.choice([1, 2, Fraction(1, 2)]))
        k = rng.randint(1, 2)
        infl = inflate(twisted, k, rand_invertible(rng, k))
        p0, p1 = quadruple_preserving_conjugation(rng, infl, 3, 1)
        moved = conjugate(infl, p0, p1)
        assert check_axioms(moved).passed
        q1 = classify(from_linfty(base))
        q2 = classify(from_linfty(moved))
        ok &= q1.algebra == q2.algebra and q1.rep == q2.rep
        ok &= cohomologous(q1.cocycle, q2.cocycle)
        pairs += 1
    verdict(7, ok and pairs == 10, "g_hbar quadruple exact, 10 equivalent pairs cohomologous")


def random_valid_dcm(rng, kind):
    from lie2alg.exactlin import invert
    from lie2alg.lie2 import DifferentialCrossedModule
    if kind == 0:
        g = rng.choice([so3_algebra(), sl2_algebra()])
        return DifferentialCrossedModule(3, copy.deepcopy(g.bracket), 3,
                                         copy.deepcopy(g.bracket),
                                         RMatrix.identity(3), copy.deepcopy(g.bracket))
    if kind == 1:
        g = rng.choice([so3_algebra(), sl2_algebra(), abelian_algebra(2)])
        k = rng.randint(1, 2)
        rho = ([RMatrix.zeros(k, k) for _ in range(g.dim)] if rng.random() < 0.5
               or k != g.dim else [g.ad(i) for i in range(g.dim)])
        h_bracket = [[vzeros(k) for _ in range(k)] for _ in range(k)]
        alpha = [[rho[i].col(a) for a in range(k)] for i in range(g.dim)]
        return DifferentialCrossedModule(g.dim, copy.deepcopy(g.bracket), k,
                                         h_bracket, RMatrix.zeros(g.dim, k), alpha)
    # adjoint module conjugated by a change of basis on h
    g = so3_algebra()
    m = rand_invertible(rng, 3)
    mi = invert(m)
    h_bracket = [[m.matvec(contract(g.bracket, g.dim, mi.col(a), mi.col(b))) for b in range(3)]
                 for a in range(3)]
    alpha = [[m.matvec(contract(g.bracket, g.dim, [1 if p == i else 0 for p in range(3)],
                                mi.col(a))) for a in range(3)]
             for i in range(3)]
    return DifferentialCrossedModule(3, copy.deepcopy(g.bracket), 3, h_bracket, mi, alpha)


def test_criterion_8_dcm_round_trip(rng):
    ok = True
    count = 0
    for k in range(12):
        dcm = random_valid_dcm(rng, k % 3)
        ok &= check_crossed_module(dcm).passed
        L = from_crossed_module(dcm)
        ok &= check_axioms(L.data).passed
        back = to_crossed_module(L)
        ok &= back == dcm
        again = from_crossed_module(back)
        ok &= again.data == L.data
        count += 1

    def fresh():
        return so3_adjoint_dcm()

    cases = []
    m = fresh(); m.g_bracket[0][0][1] = 1; cases.append(("g_antisymmetry", m))
    m = fresh(); m.g_bracket[0][1] = [1, 0, 0]; m.g_bracket[1][0] = [-1, 0, 0]
    cases.append(("g_jacobi", m))
    m = fresh(); m.alpha[0][0] = [1, 0, 0]; cases.append(("equivariance", m))
    m = fresh(); m.t = RMatrix.zeros(3, 3); m.alpha[0][1] = [0, 0, 2]
    m.alpha[0][2] = [0, -2, 0]; cases.append(("action_homomorphism", m))
    m = fresh()
    m.h_bracket = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    m.alpha = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    m.alpha[0][0] = [0, 1, 0]
    cases.append(("peiffer_antisymmetry", m))
    for name, broken in cases:
        rep = check_crossed_module(broken)
        ok &= not rep.result(name).passed
        img = check_axioms(from_crossed_module(broken).data)
        ok &= not img.result(DCM_FAILURE_TO_AXIOM[name]).passed
    verdict(8, ok and count >= 10,
            f"{count} round trips exact, {len(cases)} failure mappings verified")


def linf_hom_family(rng, length=2):
    """A composable chain of valid homs: coboundary twists between
    twisted skeletal structures, ending at the base."""
    g = so3_algebra()
    rep = trivial_rep(g, 1)
    w = killing_triple_cochain(g, 1)
    thetas = [rand_cochain(rng, rep, 2) for _ in range(length)]
    cochains = [w]
    for th in thetas:
        cochains.insert(0, cochains[0] + coboundary(th))
    structures = [build_two_slot(c) for c in cochains]
    homs = []
    for idx, th in enumerate(reversed(thetas)):
        src, dst = structures[idx], structures[idx + 1]
        phi2 = [[th.evaluate((i, j)) for j in range(3)] for i in range(3)]
        homs.append(LInfHom(src, dst,
                            ChainMap(src.complex, dst.complex,
                                     RMatrix.identity(3), RMatrix.identity(1)),
                            phi2))
    return homs


def test_criterion_9_closure_properties(rng):
    ok = True
    pairs = 0
    for _ in range(20):
        f, g = linf_hom_family(rng, 2)
        ok &= check_hom(f).passed and check_hom(g).passed
        comp = compose_homs(f, g)
        ok &= check_hom(comp).passed
        F, G = hom_from_linf(f), hom_from_linf(g)
        ok &= check_lie2_hom(F).passed and check_lie2_hom(G).passed
        ok &= check_lie2_hom(compose_lie2_homs(F, G)).passed
        pairs += 1

    # interchange for 2Vect 2-cells on random instances: a chained family
    # of homotopy-induced cells gives two vertically composable pairs
    for _ in range(5):
        c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
        cells = []
        prev = identity_chain_map(c)
        for _ in range(4):
            tau = rand_mat(rng, 2, 2)
            nxt = ChainMap(c, c, prev.phi0 + c.d @ tau, prev.phi1 + tau @ c.d)
            cells.append(T_on_homotopy(ChainHomotopy(prev, nxt, tau)))
            prev = nxt
        a, b, ap, bp = cells
        lhs = horizontal_nat(vertical_nat(a, b), vertical_nat(ap, bp))
        rhs = vertical_nat(horizontal_nat(a, ap), horizontal_nat(b, bp))
        ok &= lhs.theta == rhs.theta
    verdict(9, ok and pairs == 20, "20 composite pairs pass, interchange holds")
