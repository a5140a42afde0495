"""Randomized equality of the structure checks with the sweeps they
replaced.

`check_jacobiator_identity_categorical` and `generalized_jacobi` evaluate
their structure maps from tables built once per call, `check_axioms`
sweeps (g) and (i) on increasing tuples once (a) and (d) hold,
`lie2._compose_padded` is the closed form of a pad-and-compose loop,
`braid.build_Y` builds Y's identity part as one sparse product,
`braid.check_zamolodchikov` computes both sides one object at a time with
no matrix on the fourth tensor power, and `check_lie_algebra` and
`check_representation` sweep increasing tuples once the bracket is
antisymmetric.  `generalized_jacobi` and the octagon sweep the structure with
its denominators cleared (`linfty.integral`), so the strategies below
draw rational entries as well as integers.  Once (a) and (d) hold both
sweep sorted tuples only, so the strategies draw structures where both
hold and ones where one of them fails.  The per-tuple sweeps, the
product-order axiom sweep, the loop, the per-column Y, the materialised
and the dense-row tetrahedron sweeps and the product-order Lie algebra
and representation sweeps are kept below verbatim as oracles: on random
two-term structures, valid ones and ones with a single perturbed entry,
both must give the same report, first failing tuple and exact residual
included.

`cohomology.coboundary` streams the cells of `coboundary_matrix`, and
`cohomology.classify` reads the skeleton's l3 off the homomorphism's l3
equation (`linfty.l3_compatibility_residuals`) on increasing triples.
That equation reads the target's l3 on phi0 from a table built once per
call.  The pointwise differential, the classification that wrote out
the seven-term combination at every triple and the l3 equation that
evaluated l3 on phi0 afresh at every triple are kept below verbatim
too: the same cochain, the same quadruple and witness or the same
refusal, and the same `check_hom` report.

`twoterm.skeletalize_complex` works on the sparse echelon kernel basis
and reads the projection on C1 off its free columns.  The construction
that placed the dense kernel vectors and inverted both square
decompositions is kept below verbatim, densifying only what
`rank_kernel` returns: on random complexes both must give the same
`Skeletalization`.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie2alg.braid import (TETRA_LHS, TETRA_RHS, TetraY, build_braid_functor, build_Y,
                           cell_functors, check_zamolodchikov, same_braid_word,
                           tetrahedron_components, tetrahedron_sides)
from lie2alg.cohomology import (ClassifyingQuadruple, Cochain, LieAlgebra, Representation,
                                abelian_algebra, adjoint_rep, build_cross_product, build_g_hbar,
                                build_two_slot, check_lie_algebra, check_representation,
                                classify, coboundary, is_cocycle, sl2_algebra, so3_algebra,
                                trivial_rep)
from lie2alg.exactlin import (RMatrix, contract, invert, pivot_columns, rank_kernel, vadd, vneg,
                              vscale, vsub, vunit, vzeros)
from lie2alg.lie2 import (SemistrictLie2Algebra, _as_object, _compose_padded,
                          bracket_morphisms, check_jacobiator_identity_categorical,
                          from_linfty, jacobiator)
from lie2alg.linfty import (LInfHom, TwoTermLInfinity, _graded_bracket, _graded_element,
                            antisymmetry_violations, check_axioms, check_hom, integral,
                            generalized_jacobi, is_alternating, jacobi_violations, koszul_chi,
                            linf_to_json, perm_sign, unshuffles, zero_l3)
from lie2alg.report import CheckReport, CheckResult, first_violation, grid_violations
from lie2alg.twoterm import (ChainHomotopy, ChainMap, Skeletalization, TwoTermComplex,
                             compose_chain_maps, identity_chain_map, skeletalize_complex)
from lie2alg.twovect import (CellVert, Morphism, compose_functors, compose_morphisms,
                             direct_sum, eval_cell_expr, ground_field, identity_functor,
                             identity_morphism, tensor_2vs, tensor_functor, vertical_nat)
from conftest import broken_abelian4, broken_abelian4_thirds, conjugate, inflate


# ---------------------------------------------------------------------------
# the per-tuple sweeps, verbatim

def check_axioms_product_sweep(v: TwoTermLInfinity) -> CheckReport:
    """Verify conditions (a)-(i) entry-wise on basis tuples.

    (b) and (c) hold by representation and are reported as vacuous
    passes.
    """
    rep = CheckReport("two_term_l_infinity")
    n0, n1 = v.dim0, v.dim1
    d, b, l2_01, l3 = v.d, v.l2_00, v.l2_01, v.l3
    e0 = [vunit(n0, i) for i in range(n0)]
    e1 = [vunit(n1, a) for a in range(n1)]

    rep.add("a_bracket_antisymmetry", antisymmetry_violations(b))
    rep.add_pass("b_mixed_antisymmetry")   # determined by storage
    rep.add_pass("c_bracket_degree_two")   # no V2, nothing to store
    rep.add("d_l3_antisymmetry", first_violation(
        ((i, j, k), r) for i, j, k in product(range(n0), repeat=3)
        for r in (vadd(l3[i][j][k], l3[j][i][k]), vadd(l3[i][j][k], l3[i][k][j]))))

    dcol = [d.col(a) for a in range(n1)]
    rep.add("e_differential_action", first_violation(
        ((i, a), vsub(d.matvec(l2_01[i][a]), contract(b[i], n0, dcol[a])))
        for i in range(n0) for a in range(n1)))
    # [dh,k] = [h,dk] means l2(dh, k) = -l2(dk, h)
    rep.add("f_differential_symmetry", first_violation(
        ((a, c), vadd(v.act(dcol[a], e1[c]), v.act(dcol[c], e1[a])))
        for a in range(n1) for c in range(n1)))

    # [i,[j,k]] = -[[j,k],i]
    rep.add("g_jacobi_up_to_d", first_violation(
        ((i, j, k), vsub(d.matvec(l3[i][j][k]),
                         vsub(vsub(v.bracket00(b[i][k], e0[j]), v.bracket00(b[i][j], e0[k])),
                              v.bracket00(b[j][k], e0[i]))))
        for i, j, k in product(range(n0), repeat=3)))

    def h_residuals():
        for a, i, j in product(range(n1), range(n0), range(n0)):
            rhs = vsub(vsub(contract(l2_01[i], n1, l2_01[j][a]),
                            contract(l2_01[j], n1, l2_01[i][a])), v.act(b[i][j], e1[a]))
            yield (a, i, j), vsub(v.l3_eval(dcol[a], e0[i], e0[j]), rhs)
    rep.add("h_l3_naturality", first_violation(h_residuals()))

    def i_residuals(tuples):
        for p, q, r, s in tuples:
            plus = [v.l3_eval(b[p][r], e0[q], e0[s]), v.l3_eval(b[q][s], e0[p], e0[r]),
                    contract(l2_01[r], n1, l3[p][q][s]), contract(l2_01[p], n1, l3[q][r][s])]
            minus = [contract(l2_01[s], n1, l3[p][q][r]), contract(l2_01[q], n1, l3[p][r][s]),
                     v.l3_eval(b[p][q], e0[r], e0[s]), v.l3_eval(b[p][s], e0[q], e0[r]),
                     v.l3_eval(b[q][r], e0[p], e0[s]), v.l3_eval(b[r][s], e0[p], e0[q])]
            yield (p, q, r, s), [sum(x) - sum(y) for x, y in zip(zip(*plus), zip(*minus))]
    rep.add("i_jacobiator_coherence", first_violation(i_residuals(
        product(range(n0), repeat=4))))
    return rep


def compose_padded_loop(L: SemistrictLie2Algebra, stages: list) -> Morphism:
    """Compose stage sums in diagram order, adding the unique identity
    summand that makes each composite well-defined."""
    cur = None
    for named in stages:
        total = named[0]
        for m in named[1:]:
            total = total + m
        if cur is None:
            cur = total
            continue
        pad = vsub(cur.target(), total.source())
        total = total + identity_morphism(L.space, pad)
        cur = compose_morphisms(cur, total)
    return cur


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

    lhs = compose_padded_loop(L, [
        [J(b(wv, xv), yv, zv)],
        [Br(J(wv, xv, zv), one(yv))],
        [J(wv, b(xv, zv), yv), J(b(wv, zv), xv, yv), J(wv, xv, b(yv, zv))],
    ])
    rhs = compose_padded_loop(L, [
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
            chi = koszul_chi(sigma, degrees)
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


def y_theta_per_column(L: SemistrictLie2Algebra) -> RMatrix:
    """Y's components as build_Y assembled them: the identity on
    yb_source(x) one column at a time, plus the Jacobiator's arrow."""
    v = L.data
    lp = direct_sum(ground_field(), L.space).space
    braid = build_braid_functor(L, lp)
    lp3 = tensor_2vs(tensor_2vs(lp, lp), lp)
    id_lp = identity_functor(lp)
    b12 = tensor_functor(braid, id_lp)
    b23 = tensor_functor(id_lp, braid)
    yb_source = compose_functors(compose_functors(b12, b23), b12)

    n0 = L.dim0
    arrows = (((1 + n0 + m, col), c)  # flat (0, 0, 1 + n0 + m) in the morphism cube
              for col, trip in enumerate(product(range(lp.dim0), repeat=3)) if all(trip)
              for m, c in enumerate(v.l3_eval(*(L.object_basis(t - 1) for t in trip))))
    # the component at x is the identity on yb_source(x) plus the Jacobiator's arrow
    ids = [lp3.i.matvec(yb_source.f0.col(col)) for col in range(lp.dim0 ** 3)]
    theta = (RMatrix.from_cols(ids, rows=lp.dim1 ** 3)
             + RMatrix.from_cells(lp.dim1 ** 3, lp.dim0 ** 3, arrows))
    return theta


def check_zamolodchikov_dense_rows(ty: TetraY) -> CheckReport:
    """Evaluate both sides of the tetrahedron equation and compare the
    components on every basis object of the fourth tensor power."""
    rep = CheckReport("zamolodchikov_tetrahedron")
    lhs_expr, rhs_expr = tetrahedron_sides(ty)
    lhs = eval_cell_expr(lhs_expr)
    rhs = eval_cell_expr(rhs_expr)
    rep.add("endpoint_functors",
            [] if (lhs.from_functor == rhs.from_functor
                   and lhs.to_functor == rhs.to_functor)
            else [((), "source/target functors differ")])
    d0 = ty.space.dim0
    diff = (lhs.theta - rhs.theta).transpose()  # row col is the residual at object col
    rep.add("component_equality", first_violation(
        ((col // d0 ** 3, (col // d0 ** 2) % d0, (col // d0) % d0, col % d0), diff.row(col))
        for col in range(d0 ** 4)))
    return rep


def check_zamolodchikov_materialised(ty: TetraY) -> CheckReport:
    """Evaluate both sides of the tetrahedron equation and compare the
    components on every basis object of the fourth tensor power."""
    rep = CheckReport("zamolodchikov_tetrahedron")
    lhs_expr, rhs_expr = tetrahedron_sides(ty)
    lhs = eval_cell_expr(lhs_expr)
    rhs = eval_cell_expr(rhs_expr)
    rep.add("endpoint_functors",
            [] if (lhs.from_functor == rhs.from_functor
                   and lhs.to_functor == rhs.to_functor)
            else [((), "source/target functors differ")])
    d0 = ty.space.dim0
    diff = (lhs.theta - rhs.theta).transpose()  # row col is the residual at object col
    rep.add("component_equality", first_violation(
        ((col // d0 ** 3, (col // d0 ** 2) % d0, (col // d0) % d0, col % d0), diff.row(col))
        for col, row in enumerate(diff.entries) if row))
    return rep


def jacobi_violations_product_sweep(bracket: list) -> list:
    """First (i, j, k) where [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    is nonzero."""
    n = len(bracket)
    e = [vunit(n, i) for i in range(n)]
    return first_violation(
        ((i, j, k), vadd(vadd(contract(bracket, n, bracket[i][j], e[k]),
                              contract(bracket, n, bracket[j][k], e[i])),
                         contract(bracket, n, bracket[k][i], e[j])))
        for i, j, k in product(range(n), repeat=3))


def check_lie_algebra_product_sweep(g: LieAlgebra) -> CheckReport:
    rep = CheckReport("lie_algebra")
    rep.add("antisymmetry", antisymmetry_violations(g.bracket))
    rep.add("jacobi", jacobi_violations_product_sweep(g.bracket))
    return rep


def check_representation_product_sweep(rep_: Representation) -> CheckReport:
    rep = CheckReport("representation")
    rep.extend(check_lie_algebra_product_sweep(rep_.algebra), prefix="algebra_")
    g, rho = rep_.algebra, rep_.rho

    def residuals():
        for i, j in product(range(g.dim), repeat=2):
            lhs = sum((rho[k].scale(c) for k, c in enumerate(g.bracket[i][j]) if c),
                      RMatrix.zeros(rep_.dimV, rep_.dimV))
            resid = lhs - (rho[i] @ rho[j] - rho[j] @ rho[i])
            yield (i, j), [x for _, x in grid_violations(resid)[:4]]
    rep.add("bracket_to_commutator", first_violation(residuals()))
    return rep


def coboundary_pointwise(w: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential, degree n to n+1.

    (delta w)(v_1..v_{n+1}) = sum_i (-1)^{i+1} rho(v_i) w(.. v_i-hat ..)
    + sum_{j<k} (-1)^{j+k} w([v_j, v_k], .. hats ..), 1-based signs.
    """
    rep = w.rep
    g = rep.algebra
    n = w.degree
    out = {}
    for key in combinations(range(g.dim), n + 1):
        acc = vzeros(rep.dimV)
        for pos in range(n + 1):
            rest = key[:pos] + key[pos + 1:]
            term = rep.rho[key[pos]].matvec(w.value(rest))
            acc = vadd(acc, vscale(-1 if pos % 2 else 1, term))
        for pj in range(n + 1):
            for pk in range(pj + 1, n + 1):
                rest = tuple(x for q, x in enumerate(key) if q not in (pj, pk))
                br = g.bracket[key[pj]][key[pk]]
                term = vzeros(rep.dimV)
                for m, c in enumerate(br):
                    if c:
                        term = vadd(term, vscale(c, w.evaluate((m,) + rest)))
                sign = -1 if (pj + pk + 2) % 2 else 1  # (-1)^{j+k}, 1-based
                acc = vadd(acc, vscale(sign, term))
        if any(x != 0 for x in acc):
            out[key] = acc
    return Cochain(rep, n + 1, out)


def classify_product_transport(L: SemistrictLie2Algebra) -> ClassifyingQuadruple:
    """Skeletalize the complex, transport the brackets along the
    equivalence, and read off (g, V, rho, [l3]).

    The transported pieces are forced by requiring the inclusion to be
    an L-infinity homomorphism: its phi2 is -tau([u., u.]), and l3 on
    the skeleton is the projected seven-term combination.  Everything
    is verified before returning; a structure that fails an axiom is
    refused with a ValueError naming the first failing one.
    """
    v = L.data
    axioms = check_axioms(v)
    if not axioms.passed:
        raise ValueError(f"structure fails axiom {axioms.first_failure.name}")
    sk = skeletalize_complex(v.complex)
    u0, u1 = sk.include.phi0, sk.include.phi1
    v0, v1 = sk.project.phi0, sk.project.phi1
    tau = sk.homotopy.tau
    n0 = sk.skeletal.dim0
    n1 = sk.skeletal.dim1

    ue = [u0.col(i) for i in range(n0)]  # images of the skeleton's basis
    bracket = [[v0.matvec(v.bracket00(ue[i], ue[j])) for j in range(n0)] for i in range(n0)]
    l2_01 = [[v1.matvec(v.act(ue[i], u1.col(a))) for a in range(n1)] for i in range(n0)]
    phi2 = [[vneg(tau.matvec(v.bracket00(ue[i], ue[j]))) for j in range(n0)]
            for i in range(n0)]

    l3 = zero_l3(n0, n1)
    eb = [vunit(n0, i) for i in range(n0)]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                r = v.l3_eval(ue[i], ue[j], ue[k])
                r = vadd(r, v.act(ue[i], phi2[j][k]))
                r = vsub(r, v.act(ue[j], phi2[i][k]))  # [phi2(x,z), u0 y]
                r = vadd(r, contract(phi2[i], v.dim1, bracket[j][k]))
                r = vadd(r, contract(phi2, v.dim1, bracket[i][k], eb[j]))
                r = vadd(r, v.act(ue[k], phi2[i][j]))  # -[phi2(x,y), u0 z]
                r = vsub(r, contract(phi2, v.dim1, bracket[i][j], eb[k]))
                if any(x != 0 for x in v.d.matvec(r)):
                    raise AssertionError("transported l3 falls outside ker(d)")
                l3[i][j][k] = v1.matvec(r)

    skeletal = TwoTermLInfinity(sk.skeletal, bracket, l2_01, l3)
    algebra = LieAlgebra(n0, bracket)
    rep = Representation(algebra, n1,
                         [RMatrix.from_cols([l2_01[i][a] for a in range(n1)], rows=n1)
                          for i in range(n0)])
    vals = {}
    for key in combinations(range(n0), 3):
        val = l3[key[0]][key[1]][key[2]]
        if any(x != 0 for x in val):
            vals[key] = val
    cocycle = Cochain(rep, 3, vals)
    witness = LInfHom(skeletal, v,
                      ChainMap(sk.skeletal, v.complex, u0, u1),
                      phi2)
    if not check_axioms(skeletal).passed:
        raise AssertionError("transported structure fails the axioms")
    if not is_cocycle(cocycle):
        raise AssertionError("transported l3 is not a cocycle")
    return ClassifyingQuadruple(algebra, rep, cocycle, skeletal, witness)


def l3_compatibility_residuals_per_triple(f: LInfHom, triples):
    """Yield ((i, j, k), lhs - rhs) of the l3 equation of a homomorphism,

    phi2([x,y], z) - [phi0 z, phi2(x,y)] + phi1 l3(x,y,z)
      = l3(phi0 x, phi0 y, phi0 z) + [phi0 x, phi2(y,z)] - [phi0 y, phi2(x,z)]
        + phi2(x, [y,z]) + phi2([x,z], y),

    at each basis triple of `triples`.  `check_hom` sweeps every triple.
    `cohomology.classify` reads the skeleton's l3 off it on increasing
    triples, with the source's l3 set to zero; that suffices because the
    input has passed the axioms, so the transported l3 is alternating."""
    src, dst = f.source, f.target
    m1 = dst.dim1
    phi0, phi1, phi2 = f.chain.phi0, f.chain.phi1, f.phi2
    e = [vunit(src.dim0, i) for i in range(src.dim0)]
    fe = [phi0.col(i) for i in range(src.dim0)]
    for i, j, k in triples:
        lhs = vadd(vsub(contract(phi2, m1, src.l2_00[i][j], e[k]),
                        dst.act(fe[k], phi2[i][j])),
                   phi1.matvec(src.l3[i][j][k]))
        rhs = vadd(vsub(vadd(dst.l3_eval(fe[i], fe[j], fe[k]), dst.act(fe[i], phi2[j][k])),
                        dst.act(fe[j], phi2[i][k])),
                   vadd(contract(phi2[i], m1, src.l2_00[j][k]),
                        contract(phi2, m1, src.l2_00[i][k], e[j])))
        yield (i, j, k), vsub(lhs, rhs)


def skeletalize_complex_two_inverses(c: TwoTermComplex) -> Skeletalization:
    """Deterministic skeletal equivalence built from echelon pivots.

    C1 splits as ker(d) + span{e_p : p a pivot column of d}; C0 splits
    as im(d) + span{e_q : q not a pivot of the column space}.  The
    witnesses are assembled by inverting those square decompositions,
    so the construction is reproducible and exact.
    """
    rank, kernel = rank_kernel(c.d)
    kernel = [[k.get(j, 0) for j in range(c.dim1)] for k in kernel]  # dense vectors
    # each echelon kernel vector is last nonzero at its free column
    free = {max(j for j, x in enumerate(k) if x) for k in kernel}
    piv_cols = [p for p in range(c.dim1) if p not in free]
    piv_rows = pivot_columns(c.d.transpose())  # basis rows of the column space
    comp_rows = [q for q in range(c.dim0) if q not in set(piv_rows)]

    skeletal = TwoTermComplex(len(comp_rows), len(kernel),
                              RMatrix.zeros(len(comp_rows), len(kernel)))

    # include: skeletal -> c on the chosen complement / kernel bases
    u0 = RMatrix.from_cols([vunit(c.dim0, q) for q in comp_rows], rows=c.dim0)
    u1 = RMatrix.from_cols(kernel, rows=c.dim1)
    include = ChainMap(skeletal, c, u0, u1)

    # solve x = d w + sum c_q e_q with w supported on pivot columns:
    # m0 = [d|_P  E_comp] is square invertible, giving project0 and tau
    d_piv = RMatrix.from_cols([c.d.col(p) for p in piv_cols], rows=c.dim0)
    m0_inv = invert(d_piv.hstack(u0))
    v0 = RMatrix(len(comp_rows), c.dim0, m0_inv.entries[rank:])
    e_piv = RMatrix.from_cols([vunit(c.dim1, p) for p in piv_cols], rows=c.dim1)
    tau = e_piv @ RMatrix(rank, c.dim0, m0_inv.entries[:rank])  # row idx of m0_inv at p

    # h = sum a_i k_i + sum b_p e_p: m1 = [K  E_P] square invertible
    v1 = RMatrix(len(kernel), c.dim1, invert(u1.hstack(e_piv)).entries[:len(kernel)])
    project = ChainMap(c, skeletal, v0, v1)

    round_trip = compose_chain_maps(project, include)
    homotopy = ChainHomotopy(round_trip, identity_chain_map(c), tau)
    return Skeletalization(skeletal, include, project, homotopy)


# ---------------------------------------------------------------------------
# random two-term structures: dim V0 in 1..4, dim V1 in 1..2

small = st.integers(-2, 2)
rationals = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)]


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
    if draw(st.booleans()):
        # rescale the V1 basis, as the benchmark's conjugated copy does
        v = conjugate(v, RMatrix.identity(v.dim0), diagonal(draw, v.dim1))
    return v


def diagonal(draw, n):
    """A diagonal matrix with nonzero rational entries."""
    scale = st.sampled_from([1, 2, -1] + rationals)
    return RMatrix.from_rows([[draw(scale) if i == j else 0 for j in range(n)]
                              for i in range(n)], n)


def unipotent(draw, n):
    """An upper unitriangular integer matrix, invertible over the integers."""
    return RMatrix.from_rows([[1 if i == j else (draw(small) if j > i else 0)
                               for j in range(n)] for i in range(n)], n)


@st.composite
def random_structures(draw):
    """Sparse arbitrary entries: most axioms fail, at early and late tuples."""
    n0, n1 = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    x = st.sampled_from([0, 0, 0, 0, 1, -1, 2] + (rationals if draw(st.booleans()) else []))
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
    delta = draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)]))
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


sparse_entries = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def antisymmetric_structures(draw):
    """l2_00 antisymmetric and l3 totally antisymmetric, so (a) and (d)
    hold; sparse random d, l2_01 and values let (e)-(i) pass or fail.
    Half of them have d = 0 and a zero action, so only (g) and (i) can
    fail."""
    n0, n1 = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    entries = sparse_entries if draw(st.booleans()) else st.just(0)
    d = RMatrix.from_rows([[draw(entries) for _ in range(n1)] for _ in range(n0)], n1)
    l2_00 = [[[0] * n0 for _ in range(n0)] for _ in range(n0)]
    for i, j in combinations(range(n0), 2):
        l2_00[i][j] = [draw(sparse_entries) for _ in range(n0)]
        l2_00[j][i] = [-x for x in l2_00[i][j]]
    l2_01 = [[[draw(entries) for _ in range(n1)] for _ in range(n1)] for _ in range(n0)]
    l3 = zero_l3(n0, n1)
    for key in combinations(range(n0), 3):
        val = [draw(sparse_entries) for _ in range(n1)]
        for perm in permutations(range(3)):
            i, j, k = (key[p] for p in perm)
            l3[i][j][k] = [perm_sign(perm) * x for x in val]
    return TwoTermLInfinity(TwoTermComplex(n0, n1, d), l2_00, l2_01, l3)


structures = st.one_of(perturbed(valid_structures()), perturbed(random_structures()))


@settings(max_examples=40, deadline=None)
@given(st.one_of(structures, antisymmetric_structures(), perturbed(antisymmetric_structures())))
def test_generalized_jacobi_matches_per_tuple_sweep(v):
    for arity in range(1, 5):
        new, old = generalized_jacobi(v, arity), generalized_jacobi_per_tuple(v, arity)
        assert new.to_json() == old.to_json()
        assert (new.result("unshuffle_identity").violations
                == old.result("unshuffle_identity").violations)


@settings(max_examples=100, deadline=None)
@given(st.one_of(structures, antisymmetric_structures(), perturbed(antisymmetric_structures())))
def test_octagon_matches_per_tuple_sweep(v):
    L = from_linfty(v)
    new = check_jacobiator_identity_categorical(L)
    old = check_jacobiator_identity_categorical_per_tuple(L)
    assert new.to_json() == old.to_json()
    assert new.result("octagon").violations == old.result("octagon").violations


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


def test_integer_sweeps_match_past_the_first_tuple_with_fractions():
    """With D = 3 both sweeps run over the integers and still stop at
    the oracles' late tuple, with the oracles' residual 1/3."""
    v = broken_abelian4_thirds()
    assert integral(v)[0] == 3
    new = generalized_jacobi(v, 4).result("unshuffle_identity")
    assert new.violations == generalized_jacobi_per_tuple(v, 4).result(
        "unshuffle_identity").violations
    assert new.first_violation == (((0, 0), (0, 1), (0, 2), (0, 3)), [0, 0, 0, 0, Fraction(1, 3)])
    L = from_linfty(v)
    new = check_jacobiator_identity_categorical(L).result("octagon")
    assert new.violations == check_jacobiator_identity_categorical_per_tuple(L).result(
        "octagon").violations
    assert new.first_violation == ((0, 1, 2, 3), [0, 0, 0, 0, Fraction(1, 3)])


def test_repeated_degree_one_index_is_swept():
    """n0 = 1, n1 = 2, d = (1 0) and [e, f0] = f1: (a), (d) and (e) hold,
    (f) fails at (0, 0), and the unshuffle identity at arity 2 first fails
    at (f0, f0), where a repeated degree-1 index does not zero the
    residual; a sweep that never repeats a degree-1 index would pass."""
    l2_01 = [[[0, 1], [0, 0]]]
    v = TwoTermLInfinity(TwoTermComplex(1, 2, RMatrix.from_rows([[1, 0]], 2)),
                         [[[0]]], l2_01, zero_l3(1, 2))
    axioms = check_axioms(v)
    for name in ("a_bracket_antisymmetry", "d_l3_antisymmetry", "e_differential_action"):
        assert axioms.result(name).passed
    assert axioms.result("f_differential_symmetry").first_violation[0] == (0, 0)
    assert is_alternating(v)
    new = generalized_jacobi(v, 2).result("unshuffle_identity")
    assert new.violations == generalized_jacobi_per_tuple(v, 2).result(
        "unshuffle_identity").violations
    assert new.first_violation == (((1, 0), (1, 0)), [0, 0, -2])


def vertical_cells(e) -> list:
    """The cells of a vertical composite, first to last."""
    return vertical_cells(e.first) + vertical_cells(e.second) if isinstance(e, CellVert) else [e]


@settings(max_examples=12, deadline=None)
@given(st.one_of(
    st.fractions(-3, 3, max_denominator=4).map(lambda h: build_g_hbar(so3_algebra(), h).data),
    st.builds(lambda: build_cross_product().data),
    perturbed(st.builds(broken_abelian4))))
def test_tetrahedron_matches_per_column_and_dense_row_sweeps(v):
    """g_hbar(so3) at random hbar, the cross product, and broken_abelian4
    with at most one moved entry: the same Y and the same report, first
    failing object and exact residual included.  Both sides' components
    equal the columns of the materialised sides at every object, past the
    first failing one too, and the braid words decide every functor
    comparison the materialised sides make as the matrices do."""
    L = from_linfty(v)
    ty = build_Y(L)
    assert ty.y.theta == y_theta_per_column(L)
    report = check_zamolodchikov(ty).to_json()
    assert report == check_zamolodchikov_materialised(ty).to_json()
    assert report == check_zamolodchikov_dense_rows(ty).to_json()

    # each side evaluated cell by cell, as eval_cell_expr evaluates it
    cells = [[eval_cell_expr(c) for c in vertical_cells(e)] for e in tetrahedron_sides(ty)]
    lhs, rhs = (reduce(vertical_nat, side).theta.transpose().entries for side in cells)
    assert list(tetrahedron_components(ty)) == [(u, lhs[u], rhs[u])
                                                for u in range(ty.space.dim0 ** 4)]

    # each cell's endpoint words against its materialised endpoint functors
    words = [[cell_functors(c) for c in side] for side in (TETRA_LHS, TETRA_RHS)]
    pairs = [((0, 0, 0), (1, 0, 0)), ((0, -1, 1), (1, -1, 1))]   # the endpoint check
    pairs += [((k, n, 1), (k, n + 1, 0)) for k in range(2) for n in range(3)]  # the middles
    for a, b in pairs:
        (ka, na, ea), (kb, nb, eb) = a, b
        fa = (cells[ka][na].from_functor, cells[ka][na].to_functor)[ea]
        fb = (cells[kb][nb].from_functor, cells[kb][nb].to_functor)[eb]
        assert same_braid_word(words[ka][na][ea], words[kb][nb][eb]) == (fa == fb)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=5))
def test_braid_words_decided_modulo_b12_b34(word):
    """same_braid_word is equality modulo b12 b34 = b34 b12: against the
    class of the word reached by swapping adjacent b12 and b34, among all
    words of its length."""
    seen, todo = {tuple(word)}, [tuple(word)]
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            if {w[i], w[i + 1]} == {0, 2}:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    todo.append(swapped)
    for other in product(range(3), repeat=len(word)):
        assert same_braid_word(tuple(word), other) == (other in seen)


# ---------------------------------------------------------------------------
# check_lie_algebra and check_representation against the product sweeps

@st.composite
def brackets(draw):
    """A bracket on Q^n, n <= 4: antisymmetric (so3, sl2 or the l2_00 of an
    antisymmetric structure, where Jacobi may fail), one of those with one
    entry moved, or arbitrary entries."""
    kind = draw(st.sampled_from(["antisymmetric", "perturbed", "random"]))
    if kind == "random":
        return draw(random_structures()).l2_00
    b = copy.deepcopy(draw(st.one_of(st.builds(lambda: so3_algebra().bracket),
                                     st.builds(lambda: sl2_algebra().bracket),
                                     antisymmetric_structures().map(lambda v: v.l2_00))))
    if kind == "perturbed":
        idx = st.integers(0, len(b) - 1)
        b[draw(idx)][draw(idx)][draw(idx)] += draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
    return b


@st.composite
def algebra_representations(draw):
    """A representation of a drawn bracket: its adjoint (a homomorphism
    exactly when Jacobi holds), random sparse matrices, or one of
    `representations` with one entry of one matrix moved."""
    kind = draw(st.sampled_from(["adjoint", "random", "perturbed"]))
    if kind == "perturbed":
        rep = draw(representations())
        rho = list(rep.rho)
        k, n = draw(st.integers(0, len(rho) - 1)), rep.dimV
        rows = [rho[k].row(i) for i in range(n)]
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(
            st.sampled_from([0, 1, -2]))
        rho[k] = RMatrix.from_rows(rows, n)
        return Representation(rep.algebra, n, rho)
    b = draw(brackets())
    g = LieAlgebra(len(b), b)
    if kind == "adjoint":
        return adjoint_rep(g)
    n = draw(st.integers(1, 2))
    return Representation(g, n, [RMatrix.from_rows([[draw(sparse_entries) for _ in range(n)]
                                                    for _ in range(n)], n)
                                 for _ in range(g.dim)])


@settings(max_examples=200, deadline=None)
@given(algebra_representations())
def test_lie_algebra_and_representation_match_product_sweeps(r):
    """With an antisymmetric bracket the Jacobiator and rho([x, y]) -
    [rho x, rho y] are swept on increasing tuples only: the same first
    Jacobi violation (which `check_crossed_module` reads too) and the same
    reports, first failing tuple and exact residual included."""
    b = r.algebra.bracket
    assert jacobi_violations(b) == jacobi_violations_product_sweep(b)
    assert (check_lie_algebra(r.algebra).to_json()
            == check_lie_algebra_product_sweep(r.algebra).to_json())
    new, old = check_representation(r), check_representation_product_sweep(r)
    assert new.to_json() == old.to_json()
    assert [c.violations for c in new.checks] == [c.violations for c in old.checks]


# ---------------------------------------------------------------------------
# check_axioms against the product-order sweep

def test_axioms_match_product_sweep_on_fixtures():
    """A passing g_hbar and broken_abelian4, which fails (i) only at
    (e1, e2, e3, e4): the same report as the product-order sweep."""
    good, bad = build_g_hbar(so3_algebra(), 2).data, broken_abelian4()
    for v in (good, bad):
        assert check_axioms(v).to_json() == check_axioms_product_sweep(v).to_json()
    assert check_axioms(good).passed
    assert check_axioms(bad).first_failure.first_violation[0] == (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(antisymmetric_structures())
def test_axioms_match_product_sweep_on_antisymmetric_structures(v):
    """(a) and (d) hold, so (g) and (i) sweep increasing tuples only: the
    same report, and classify names the same first failing axiom."""
    full = check_axioms_product_sweep(v)
    assert full.result("a_bracket_antisymmetry").passed
    assert full.result("d_l3_antisymmetry").passed
    assert check_axioms(v).to_json() == full.to_json()
    if not full.passed:
        with pytest.raises(ValueError, match=f"structure fails axiom {full.first_failure.name}$"):
            classify(from_linfty(v))


@settings(max_examples=150, deadline=None)
@given(st.one_of(perturbed(antisymmetric_structures()), structures))
def test_axioms_match_product_sweep_on_perturbed_structures(v):
    """One moved entry may break (a) or (d), and then (g) and (i) sweep
    every tuple; either way the report is the product sweep's."""
    assert check_axioms(v).to_json() == check_axioms_product_sweep(v).to_json()


# ---------------------------------------------------------------------------
# the closed-form composite against the pad-and-compose loop

@st.composite
def stage_lists(draw):
    """T(C) of a random complex and one to four stages of one to three
    morphisms with arbitrary vectors, so that consecutive stage sums are
    composable only after padding."""
    L = from_linfty(draw(random_structures()))
    x = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    vec = st.lists(x, min_size=L.space.dim1, max_size=L.space.dim1)
    morphisms = st.lists(vec.map(lambda u: Morphism(L.space, u)), min_size=1, max_size=3)
    return L, draw(st.lists(morphisms, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(stage_lists())
def test_compose_closed_form_matches_padded_loop(case):
    L, stages = case
    assert _compose_padded(L, stages) == compose_padded_loop(L, stages)


# ---------------------------------------------------------------------------
# classify against the transport written out at every triple

def _raised(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


@st.composite
def transported_structures(draw):
    """A valid structure always inflated by an acyclic summand and then
    conjugated, so that the skeleton's inclusion is not the identity and,
    on a nonabelian algebra, the witness's phi2 is often nonzero."""
    v = inflate(draw(valid_structures()), 1,
                RMatrix.from_rows([[draw(st.sampled_from([-2, -1, 1, 2]))]]))
    return conjugate(v, unipotent(draw, v.dim0), unipotent(draw, v.dim1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_structures(), perturbed(valid_structures()),
                 transported_structures(), perturbed(transported_structures())))
def test_classify_matches_product_transport(v):
    """Valid structures, some inflated and conjugated so that the
    transport is not the identity, and ones with a single moved entry:
    the same quadruple, skeletal structure and witness, or the same
    refusal."""
    L = from_linfty(v)
    (new, new_err), (old, old_err) = _raised(classify, L), _raised(classify_product_transport, L)
    assert new_err == old_err
    if old is None:
        return
    assert new.algebra == old.algebra
    assert new.rep == old.rep
    assert new.cocycle.values == old.cocycle.values
    assert linf_to_json(new.skeletal) == linf_to_json(old.skeletal)
    assert new.witness.chain.phi0 == old.witness.chain.phi0
    assert new.witness.chain.phi1 == old.witness.chain.phi1
    assert new.witness.phi2 == old.witness.phi2


# ---------------------------------------------------------------------------
# check_hom's tabulated l3 against the per-triple evaluation

@st.composite
def homomorphisms(draw):
    """A classify witness, from a skeleton with n0 < m0, or random maps
    between random structures, whose target l3 is rarely antisymmetric;
    then one entry of phi2 or of the target's l3 may be moved."""
    if draw(st.booleans()):
        f = classify(from_linfty(draw(transported_structures()))).witness
    else:
        src, dst = draw(random_structures()), draw(random_structures())
        x = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
        phi0 = RMatrix.from_rows([[draw(x) for _ in range(src.dim0)]
                                  for _ in range(dst.dim0)], src.dim0)
        phi1 = RMatrix.from_rows([[draw(x) for _ in range(src.dim1)]
                                  for _ in range(dst.dim1)], src.dim1)
        phi2 = [[[draw(x) for _ in range(dst.dim1)] for _ in range(src.dim0)]
                for _ in range(src.dim0)]
        f = LInfHom(src, dst, ChainMap(src.complex, dst.complex, phi0, phi1), phi2)
    n0, m0, m1 = f.source.dim0, f.target.dim0, f.target.dim1
    delta = draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
    which = draw(st.sampled_from(["none", "phi2", "l3"]))
    if which == "phi2":
        phi2 = copy.deepcopy(f.phi2)
        phi2[draw(st.integers(0, n0 - 1))][draw(st.integers(0, n0 - 1))][
            draw(st.integers(0, m1 - 1))] += delta
        f = LInfHom(f.source, f.target, f.chain, phi2)
    elif which == "l3":
        dst = copy.deepcopy(f.target)
        idx = st.integers(0, m0 - 1)
        dst.l3[draw(idx)][draw(idx)][draw(idx)][draw(st.integers(0, m1 - 1))] += delta
        f = LInfHom(f.source, dst, f.chain, f.phi2)
    return f


@settings(max_examples=100, deadline=None)
@given(homomorphisms())
def test_check_hom_matches_per_triple_l3_sweep(f):
    """The same check_hom report, and the same first l3 violation with its
    exact residual, as evaluating l3 on phi0 afresh at every triple."""
    new = check_hom(f)
    old = first_violation(l3_compatibility_residuals_per_triple(
        f, product(range(f.source.dim0), repeat=3)))
    assert new.result("l3_compatibility").violations == old
    oracle = CheckReport(new.name,
                         new.checks[:-1] + [CheckResult("l3_compatibility", not old, old)])
    assert new.to_json() == oracle.to_json()


# ---------------------------------------------------------------------------
# skeletalization against the two-inverse construction

@st.composite
def complexes(draw):
    """A two-term complex with dim C0 and dim C1 in 0..5 whose differential
    has int or Fraction entries and is often of rank at most 2 (a product
    of two thin factors) or has a zero row or column."""
    n0, n1 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.sampled_from(rationals))

    def grid(rows, cols):
        return RMatrix.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols)
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        d = grid(n0, r) @ grid(r, n1)
    else:
        d = grid(n0, n1)
    rows = [dict(row) for row in d.entries]
    if n0 and draw(st.booleans()):
        rows[draw(st.integers(0, n0 - 1))] = {}
    if n1 and draw(st.booleans()):
        zc = draw(st.integers(0, n1 - 1))
        for row in rows:
            row.pop(zc, None)
    return TwoTermComplex(n0, n1, RMatrix(n0, n1, rows))


@settings(max_examples=300, deadline=None)
@given(complexes())
def test_skeletalize_matches_two_inverse_construction(c):
    """The same skeleton, inclusion, projection and homotopy, matrix for
    matrix, as placing dense kernel vectors and inverting [K E_P]."""
    assert skeletalize_complex(c) == skeletalize_complex_two_inverses(c)
