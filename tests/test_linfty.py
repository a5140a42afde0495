import copy
from fractions import Fraction
from unittest.mock import patch

import pytest

from lie2alg.cohomology import (Cochain, abelian_algebra, build_g_hbar, classify,
                                build_two_slot, sl_algebra, so3_algebra, sl2_algebra,
                                trivial_rep)
from lie2alg import lie2, linfty
from lie2alg.cli import fixture_dir
from lie2alg.serialize import load_json_file
from lie2alg.exactlin import DimensionMismatch, RMatrix, contract, vsub, vunit
from lie2alg.linfty import (LInfHom, LInfTwoHom, TwoTermLInfinity, check_axioms,
                            check_hom, check_two_hom, compose_homs,
                            generalized_jacobi, horizontal_two_hom, identity_hom,
                            identity_two_hom, integral, koszul_chi, koszul_epsilon, linf_from_json,
                            linf_to_json, unscaled, unshuffles, vertical_two_hom,
                            zero_phi2)
from lie2alg.lie2 import (check_crossed_module, check_jacobiator_identity_categorical,
                          dcm_from_json, from_linfty)
from lie2alg.twoterm import (ChainHomotopy, ChainMap, TwoTermComplex, identity_chain_map,
                             zero_homotopy)
from lie2alg.twovect import (S_on_nat_trans, T_on_homotopy, vertical_nat,
                             horizontal_nat)
from conftest import (assert_refused, broken_abelian4, broken_jacobi3, delta_twist_pair,
                      refusals)


def lie_algebra_as_one_term(g):
    """A Lie algebra with V1 = 0 and l3 = 0."""
    cx = TwoTermComplex(g.dim, 0, RMatrix.zeros(g.dim, 0))
    return TwoTermLInfinity(cx, copy.deepcopy(g.bracket),
                            [[] for _ in range(g.dim)],
                            [[[[] for _ in range(g.dim)] for _ in range(g.dim)]
                             for _ in range(g.dim)])


def test_unshuffles_one_two():
    assert unshuffles(1, 3) == [(0, 1, 2), (1, 0, 2), (2, 0, 1)]


def test_unshuffles_full_block_is_identity():
    assert unshuffles(2, 2) == [(0, 1)]
    assert unshuffles(4, 4) == [(0, 1, 2, 3)]


def test_unshuffle_counts():
    assert len(unshuffles(2, 4)) == 6
    assert len(unshuffles(1, 4)) == 4
    with pytest.raises(ValueError):
        unshuffles(0, 3)


def test_koszul_signs():
    assert koszul_chi((0, 1), (0, 0)) == 1
    assert koszul_chi((1, 0), (0, 0)) == -1
    assert koszul_chi((1, 0), (1, 1)) == 1
    assert koszul_chi((1, 0), (0, 1)) == -1
    assert koszul_epsilon((1, 0), (1, 1)) == -1


def test_axioms_ghbar_all_pass():
    for hbar in (0, 1, 2, Fraction(-1, 2)):
        rep = check_axioms(build_g_hbar(so3_algebra(), hbar).data)
        assert rep.passed, hbar


def test_plain_lie_algebra_passes():
    v = lie_algebra_as_one_term(so3_algebra())
    assert check_axioms(v).passed
    for n in range(1, 5):
        assert generalized_jacobi(v, n).passed


def test_broken_abelian4_fails_exactly_i():
    rep = check_axioms(broken_abelian4())
    failing = [c.name for c in rep.checks if not c.passed]
    assert failing == ["i_jacobiator_coherence"]
    assert rep.result("i_jacobiator_coherence").first_violation[0] == (0, 1, 2, 3)


def test_generalized_jacobi_matches_axioms_on_ghbar():
    from test_sweep_oracles import check_graded_antisymmetry
    v = build_g_hbar(sl2_algebra(), 1).data
    assert check_axioms(v).passed
    assert all(generalized_jacobi(v, n).passed for n in range(1, 5))
    assert check_graded_antisymmetry(v).passed


def test_arity_one_is_vacuous():
    assert generalized_jacobi(broken_abelian4(), 1).passed


def test_strict_arity_three_is_jacobi():
    v = lie_algebra_as_one_term(so3_algebra())
    assert generalized_jacobi(v, 3).passed
    import conftest
    bad = lie_algebra_as_one_term(conftest.broken_jacobi3())
    assert not generalized_jacobi(bad, 3).passed
    assert not check_axioms(bad).result("g_jacobi_up_to_d").passed


def perturb(v, which):
    w = copy.deepcopy(v)
    if which == "a":
        w.l2_00[0][0][0] += 1
    elif which == "d":
        w.l3[0][0][1][0] += 1
    elif which == "e":
        w.l2_01[0][0][0] += 1
    elif which == "g":
        w.l2_00[0][1][2] += 1
        w.l2_00[1][0][2] -= 1
    elif which == "i":
        w.l3[0][1][2][0] += 1
        for (a, b, c), s in (((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1),
                             ((2, 0, 1), 1), ((2, 1, 0), -1)):
            w.l3[a][b][c][0] += s
    return w


def test_oracle_equivalence_on_random_family(rng):
    """check_axioms passes iff graded antisymmetry + the unshuffle
    identity at arities 1..4 all pass, over valid and broken instances."""
    from test_sweep_oracles import check_graded_antisymmetry
    instances = []
    g = so3_algebra()
    for hbar in (0, 1, Fraction(1, 3)):
        instances.append(build_g_hbar(g, hbar).data)
    instances.append(broken_abelian4())
    base = build_g_hbar(g, 1).data
    for which in ("a", "d", "e", "g", "i"):
        instances.append(perturb(base, which))
    for _ in range(12):
        n0 = rng.randint(1, 3)
        rep = trivial_rep(abelian_algebra(n0), 1)
        v = build_two_slot(Cochain(rep, 3, {}))
        for i in range(n0):
            v.l2_01[i][0][0] = rng.randint(-2, 2)
        if rng.random() < 0.5 and n0 >= 3:
            v.l3[0][1][2][0] += 1
            v.l3[1][0][2][0] -= 1
            v.l3[1][2][0][0] += 1
            v.l3[2][1][0][0] -= 1
            v.l3[2][0][1][0] += 1
            v.l3[0][2][1][0] -= 1
        instances.append(v)
    for v in instances:
        axioms = check_axioms(v).passed
        oracle = (check_graded_antisymmetry(v).passed
                  and all(generalized_jacobi(v, n).passed for n in range(1, 5)))
        assert axioms == oracle


def test_classify_names_the_failing_axiom():
    """classify refuses a structure that fails (g) or (i) and names the axiom."""
    bad_g = lie_algebra_as_one_term(broken_jacobi3())
    for v, name in ((bad_g, "g_jacobi_up_to_d"), (broken_abelian4(), "i_jacobiator_coherence")):
        assert check_axioms(v).first_failure.name == name
        with pytest.raises(ValueError, match=f"structure fails axiom {name}$"):
            classify(from_linfty(v))


# ---------------------------------------------------------------------------
# homomorphisms

def twist_hom(rng, g=None, hbar=1):
    """The identity-chain-map hom (w + delta theta) -> w with phi2 = theta."""
    v1, v2, theta = delta_twist_pair(rng, g, hbar)
    phi2 = [[theta.evaluate((i, j)) for j in range(v1.dim0)] for i in range(v1.dim0)]
    chain = ChainMap(v2.complex, v1.complex, RMatrix.identity(v1.dim0),
                     RMatrix.identity(v1.dim1))
    return LInfHom(v2, v1, chain, phi2)


def test_identity_hom_passes_and_is_unit(rng):
    v = build_g_hbar(so3_algebra(), 1).data
    e = identity_hom(v)
    assert check_hom(e).passed
    f = twist_hom(rng)
    assert check_hom(f).passed
    left = compose_homs(identity_hom(f.source), f)
    right = compose_homs(f, e)
    assert left.phi2 == f.phi2 and right.phi2 == f.phi2
    assert left.chain.phi0 == f.chain.phi0


def test_twist_hom_composition_passes(rng):
    f = twist_hom(rng)
    g = twist_hom(rng)
    # retarget g so the pair composes: g goes from f.target's structure
    g2 = LInfHom(f.target, g.target if g.source == f.target else f.target,
                 ChainMap(f.target.complex, f.target.complex,
                          RMatrix.identity(3), RMatrix.identity(1)),
                 zero_phi2(3, 1))
    comp = compose_homs(f, g2)
    assert check_hom(comp).passed


def test_hom_composition_associative(rng):
    f = twist_hom(rng)
    e1, e2 = identity_hom(f.source), identity_hom(f.target)
    lhs = compose_homs(compose_homs(e1, f), e2)
    rhs = compose_homs(e1, compose_homs(f, e2))
    assert lhs.phi2 == rhs.phi2
    assert lhs.chain.phi0 == rhs.chain.phi0
    assert lhs.chain.phi1 == rhs.chain.phi1


def test_broken_hom_reports_residual(rng):
    # on so3 with trivial coefficients every antisymmetric perturbation of
    # phi2 is a 2-cocycle (delta_2 = 0), hence still a valid hom; break the
    # antisymmetry itself and the equations that see the asymmetric part
    f = twist_hom(rng)
    bad = LInfHom(f.source, f.target, f.chain,
                  [[list(v) for v in row] for row in f.phi2])
    bad.phi2[0][1][0] += 1
    rep = check_hom(bad)
    assert not rep.passed
    assert not rep.result("phi2_antisymmetry").passed
    assert rep.first_failure.first_violation is not None
    # a chain-map corruption is caught by the compatibility equations
    worse = LInfHom(f.source, f.target,
                    ChainMap(f.source.complex, f.target.complex,
                             f.chain.phi0.scale(2), f.chain.phi1),
                    [[list(v) for v in row] for row in f.phi2])
    assert not check_hom(worse).passed


def test_two_hom_zero_between_equal_homs(rng):
    f = twist_hom(rng)
    t = identity_two_hom(f)
    assert check_two_hom(t).passed


def test_two_hom_equation_detects_mismatch(rng):
    f = twist_hom(rng)
    if all(all(x == 0 for x in row) for plane in f.phi2 for row in plane):
        pytest.skip("random twist degenerated to zero")
    zero_partner = LInfHom(f.source, f.target, f.chain,
                           zero_phi2(f.source.dim0, f.target.dim1))
    tau = RMatrix.zeros(f.target.dim1, f.source.dim0)
    t = LInfTwoHom(f, zero_partner, ChainHomotopy(f.chain, zero_partner.chain, tau))
    rep = check_two_hom(t)
    # everything is skeletal and tau = 0, so the equation forces the phi2
    # difference (= the twist) to vanish; it does not
    assert not rep.result("phi2_difference").passed


def parallel_homs_with_two_hom(rng):
    """Parallel valid homs between twisted skeletal structures connected
    by a nonzero 2-homomorphism: shifting phi2 by the coboundary of a
    1-cochain tau is witnessed by tau itself."""
    f = twist_hom(rng)
    tau = RMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)]])
    delta_tau = [[[-sum(tau[0, m] * c for m, c in enumerate(f.source.l2_00[i][j]))]
                  for j in range(3)] for i in range(3)]
    shifted = [[vsub(f.phi2[i][j], delta_tau[i][j]) for j in range(3)] for i in range(3)]
    g = LInfHom(f.source, f.target, f.chain, shifted)
    t = LInfTwoHom(f, g, ChainHomotopy(f.chain, g.chain, tau))
    return f, g, t


def test_nonzero_two_hom_passes(rng):
    f, g, t = parallel_homs_with_two_hom(rng)
    assert check_hom(f).passed and check_hom(g).passed
    assert check_two_hom(t).passed


def test_two_hom_compositions_match_two_vect_images(rng):
    f, g, t1 = parallel_homs_with_two_hom(rng)
    # a second 2-hom starting where t1 ends: shift g's phi2 again
    tau2 = RMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)]])
    delta_tau2 = [[[-sum(tau2[0, m] * c
                         for m, c in enumerate(g.source.l2_00[i][j]))]
                   for j in range(3)] for i in range(3)]
    h = LInfHom(g.source, g.target, g.chain,
                [[vsub(g.phi2[i][j], delta_tau2[i][j]) for j in range(3)]
                 for i in range(3)])
    t2 = LInfTwoHom(g, h, ChainHomotopy(g.chain, h.chain, tau2))
    assert check_two_hom(t2).passed

    vert = vertical_two_hom(t1, t2)
    assert check_two_hom(vert).passed
    a = T_on_homotopy(t1.homotopy)
    b = T_on_homotopy(t2.homotopy)
    assert S_on_nat_trans(vertical_nat(a, b)).tau == vert.homotopy.tau

    e = identity_hom(f.target)
    id2 = identity_two_hom(e)
    hor = horizontal_two_hom(t1, id2)
    assert check_two_hom(hor).passed
    c = T_on_homotopy(id2.homotopy)
    assert S_on_nat_trans(horizontal_nat(a, c)).tau == hor.homotopy.tau


def test_linf_json_round_trip():
    v = build_g_hbar(so3_algebra(), Fraction(-1, 2)).data
    assert linf_from_json(linf_to_json(v)) == v


def test_shape_validation():
    cx = TwoTermComplex(2, 1, RMatrix.zeros(2, 1))
    with pytest.raises(Exception):
        TwoTermLInfinity(cx, [[[0, 0]]], [], [])


@pytest.mark.parametrize("field, edits, message", [
    ("l3", [((0, 0, 1), []), ((0, 1), [[0]] * 2)], "l3 must have length 1"),
    ("l3", [((0, 1), [[0]] * 2), ((1, 0, 0), [])], "l3 must have length 3"),
    ("l3", [((2, 2, 2), 0)], "l3 must have length 1"),
    ("l2_00", [((2, 2), 5), ((0, 0), [0])], "l2_00 must have length 3"),
    ("l2_01", [((0, 0), [0, 0])], "l2_01 must have length 1"),
])
def test_shape_errors_name_the_first_bad_level_depth_first(field, edits, message):
    """The innermost lists are checked in one loop per parent list, in the
    depth-first order of a walk that visits every list."""
    v = build_g_hbar(so3_algebra(), 1).data  # dim V0 = 3, dim V1 = 1
    tensors = {k: copy.deepcopy(getattr(v, k)) for k in ("l2_00", "l2_01", "l3")}
    for at, value in edits:
        parent = tensors[field]
        for i in at[:-1]:
            parent = parent[i]
        parent[at[-1]] = value
    with pytest.raises(DimensionMismatch, match=f"^{message} at this level$"):
        TwoTermLInfinity(v.complex, tensors["l2_00"], tensors["l2_01"], tensors["l3"])


G1, G2 = build_g_hbar(so3_algebra(), 1).data, build_g_hbar(so3_algebra(), 2).data
ID1 = identity_hom(G1)
TWIST1 = LInfHom(G1, G1, identity_chain_map(G1.complex), [[[1]] * 3] * 3)
OTHER_COMPLEX = TwoTermComplex(3, 1, RMatrix.from_rows([[1], [0], [0]]))


@pytest.mark.parametrize("call, exc, message", refusals([
    ("arity 0", lambda: generalized_jacobi(G1, 0), ValueError, "arity must be between 1 and 4"),
    ("arity 5", lambda: generalized_jacobi(G1, 5), ValueError, "arity must be between 1 and 4"),
    ("hom endpoints", lambda: LInfHom(G1, G1, identity_chain_map(OTHER_COMPLEX), zero_phi2(3, 1)),
     DimensionMismatch, "chain map endpoints disagree with the structures"),
    ("compose", lambda: compose_homs(ID1, identity_hom(G2)), DimensionMismatch,
     "homomorphisms are not composable"),
    ("two-hom endpoints", lambda: LInfTwoHom(ID1, identity_hom(G2), zero_homotopy(ID1.chain)),
     DimensionMismatch, "2-homomorphism endpoints must be parallel"),
    ("vertical", lambda: vertical_two_hom(identity_two_hom(ID1), identity_two_hom(TWIST1)),
     DimensionMismatch, "vertical composite needs matching middle hom"),
    ("horizontal", lambda: horizontal_two_hom(identity_two_hom(ID1),
                                              identity_two_hom(identity_hom(G2))),
     DimensionMismatch, "horizontal composite endpoints do not chain"),
]))
def test_homomorphism_refusals_name_the_mismatch(call, exc, message):
    assert_refused(call, exc, message)


def test_integral_clears_denominators_with_the_least_d():
    v = broken_abelian4()
    v.complex = TwoTermComplex(4, 1, RMatrix.from_rows([[Fraction(1, 2)], [0], [0], [0]]))
    v.l2_01[3][0][0] = Fraction(2, 3)
    v.l3[0][1][2][0] = Fraction(-3, 4)
    before = copy.deepcopy(v)
    D, w = integral(v)
    assert D == 12                       # lcm(2, 3, 4), not their product
    assert v == before                   # the input is left as it was
    assert w.d == RMatrix.from_rows([[6], [0], [0], [0]])
    assert (w.l2_01[3][0][0], w.l3[0][1][2][0], w.l3[1][2][0][0]) == (8, -9, 12)
    entries = ([x for row in w.d.entries for x in row.values()]
               + [x for t in w.l2_00 + w.l2_01 for vec in t for x in vec]
               + [x for a in w.l3 for b in a for vec in b for x in vec])
    assert all(type(x) is int for x in entries)
    assert unscaled([((0,), [6, 0])], D) == [((0,), [Fraction(1, 24), 0])]


def test_integral_returns_integer_structures_themselves():
    v = broken_abelian4()
    v.l2_01[3][0][0] = Fraction(4, 2)    # a Fraction whose denominator is 1
    assert integral(v)[0] == 1 and integral(v)[1] is v
    g = lie_algebra_as_one_term(so3_algebra())
    assert integral(g)[1] is g
    violations = [((0,), [Fraction(1, 3)])]
    assert unscaled(violations, 1) is violations


def test_structure_sweeps_make_no_contract_call_per_tuple():
    """check_axioms, generalized Jacobi at arities 1..4, the octagon,
    check_hom, check_two_hom and check_crossed_module read nonzero tables
    built once per call and evaluate no tuple with `contract`: on
    g_hbar(sl3), its classify witness, the identity 2-homomorphism on
    that witness and the bundled dcm_so3_adjoint none of them calls it
    at all.  A count, which the load of the machine cannot move."""
    v = build_g_hbar(sl_algebra(3), Fraction(1, 2)).data
    homs = [identity_hom(v), classify(from_linfty(v)).witness]
    dcm = dcm_from_json(load_json_file(fixture_dir() / "dcm_so3_adjoint.json"))
    calls = []

    def counting(*args):
        calls.append(args)
        return contract(*args)
    runs = {"check_axioms": lambda: check_axioms(v),
            "octagon": lambda: check_jacobiator_identity_categorical(from_linfty(v)),
            "check_hom": lambda: [check_hom(f) for f in homs],
            "check_two_hom": lambda: check_two_hom(identity_two_hom(homs[1])),
            "check_crossed_module": lambda: check_crossed_module(dcm)}
    runs.update({f"generalized_jacobi {n}": lambda n=n: generalized_jacobi(v, n)
                 for n in range(1, 5)})
    counts = {}
    with patch.object(linfty, "contract", counting), patch.object(lie2, "contract", counting):
        v.bracket00(vunit(8, 0), vunit(8, 1))      # the counter sees a call
        assert len(calls) == 1
        for name, run in runs.items():
            calls.clear()
            reports = run()
            assert all(r.passed for r in (reports if isinstance(reports, list) else [reports]))
            counts[name] = len(calls)
    assert counts == dict.fromkeys(runs, 0)
