"""Randomized equality of the structure checks with the sweeps they
replaced.

`check_jacobiator_identity_categorical` and `generalized_jacobi` evaluate
their structure maps from tables built once per call, `check_axioms`
sweeps (g) and (i) on increasing tuples once (a) and (d) hold,
`lie2._compose_padded` is the closed form of a pad-and-compose loop,
`braid.build_Y` checks Y's hypotheses one basis vector at a time
(`braid.check_Y`) and builds Y's identity part as one sparse product and
its endpoint functors with `braid.yang_baxter_sides` only when `TetraY.y`
is read, `braid.check_zamolodchikov` computes the arrow parts of both
sides one object at a time with no matrix on the fourth tensor power and
pushes only the objects where J can act, and
`check_lie_algebra` and `check_representation` sweep increasing tuples
once the bracket is antisymmetric.  `generalized_jacobi` and the octagon
sweep the structure with its denominators cleared (`linfty.integral`), so
the strategies below draw rational entries as well as integers.  Once (a) and (d) hold both
sweep sorted tuples only, so the strategies draw structures where both
hold and ones where one of them fails.  The per-tuple sweeps, the
product-order axiom sweep, the loop, the per-column Y, the Y of
tensored and composed braid functors, Y's hypotheses read by
`check_nat_trans` off the materialised Y, the full-component (identity
parts included), materialised and dense-row tetrahedron sweeps and the
product-order Lie algebra and representation sweeps are kept below
verbatim as oracles: on random two-term structures, valid ones and ones
with a single perturbed entry, both must give the same report, first
failing tuple and exact residual included.

`cohomology.coboundary` streams the cells of `coboundary_matrix`, and
`cohomology.classify` reads the skeleton's l3 off the homomorphism's l3
equation (`linfty.l3_compatibility_residuals`) on increasing triples.
That equation reads the target's l3 on phi0 from a table built once per
call.  The pointwise differential, the classification that wrote out
the seven-term combination at every triple and the l3 equation that
evaluated l3 on phi0 afresh at every triple are kept below verbatim
too: the same cochain, the same quadruple and witness or the same
refusal, and the same `check_hom` report.

`serialize.tensor_from_json` parses in one walk, each distinct string
once; `jacobi_violations` and the `bracket_to_commutator` sweep of
`check_representation` read lists of the bracket's nonzeros and the row
dicts of rho; `cohomology._coboundary_cells` lists the nonzeros of the
bracket and of rho once and skips the rest.  The per-entry parser (with
the `parse_int` that counted every string's digits), the sweeps through
`contract`, `RMatrix` sums and products, and the generator that read
every coefficient of every pair are kept below verbatim: the same values
or the same `FixtureError` message, the same reports, residuals
included, and the same cells in the same order.

`twoterm.skeletalize_complex` works on the sparse echelon kernel basis
and reads the projection on C1 off its free columns.  The construction
that placed the dense kernel vectors and inverted both square
decompositions is kept below verbatim, densifying only what
`rank_kernel` returns: on random complexes both must give the same
`Skeletalization`.

`twovect.S_on_functor` and `S_on_nat_trans` read coordinates in the
echelon kernel basis of ker(s) off the free rows, after one check that
the image lies in ker(s).  The versions that solved against that basis
once per column are kept below verbatim: on random functors, ones that
do not preserve ker(s) included, the same chain map or the same refusal,
and the same homotopy.

`check_axioms` sweeps the structure with its denominators cleared,
dividing the residuals of (a) and (d) by D and those of (e)-(i) by D^2;
`generalized_jacobi` reads its tables of l_k straight off the structure;
the octagon reads the Jacobiator's arrow part l3 and no longer forms its
source part; `check_hom` sweeps the l3 equation on increasing triples
once phi2 is antisymmetric, the source passes (a) and (d) and the
target's l3 is alternating; `antisymmetry_violations` and
`l3_antisymmetry_violations` pass an antisymmetric tensor after one
comparison of flat lists.  The rational axiom sweep
(`check_axioms_rational`), the tables built entry by entry from unit
vectors (`generalized_jacobi_unit_tables`), the product-order
`check_hom` (`check_hom_product_sweep`, with the per-triple l3
equation) and the two antisymmetry sweeps (`antisymmetry_violations_sweep`,
`l3_antisymmetry_violations_sweep`) are kept below verbatim, but for the
antisymmetry sweeps they call: the same reports, residuals included, on
structures with D > 1 where (a) or (d) fails or both hold, on structures
with d != 0 (the octagon against its per-tuple oracle too, where the
Jacobiator's source part enters), and on homomorphisms that break each
condition of the sorted l3 sweep in turn.  `classify` checks the
transported cocycle by axiom (i) of the skeleton alone; a test checks
that (i) of a two-slot structure holds exactly when its l3 is a cocycle.

`cohomology.build_two_slot` writes l3 at the six orderings of each
stored key of the cochain.  The fill that called `Cochain.evaluate` at
every triple is kept below verbatim (`two_slot_by_evaluate`): on random
3-cochains, empty ones and ones storing zero vectors included, the same
structure and the same `check_axioms` report.

`exactlin._rref` is a forward pass (`_echelon`) whose row step never
rescales a row by a pivot of +-1 and divides out a row's gcd only after a
rescaling, then back substitution from the last pivot up; `pivot_columns`
reads the forward pass alone and `is_coboundary` asks it whether the
column of w in [delta | w] is a pivot.  The fraction-free Gauss-Jordan
elimination it replaced is kept below verbatim (`gauss_jordan_rref`):
on random matrices with negative and non-unit pivots, Fraction rows,
zero rows and dependent rows, and on real coboundary systems, the same
rows, pivots and kernel bases, and the same verdict as solving.

`braid.check_zamolodchikov` reports its endpoint check as a pass, since
the tables `TETRA_LHS` and `TETRA_RHS` fix the endpoint words, and
`lie2.jacobiator` hands basis indices straight to `contract`.  The helpers
they called are kept below verbatim: `cell_functors` and `same_braid_word`
for the oracles `tetrahedron_components_with_identities` and
`check_zamolodchikov_with_identities` and for the test that the tables'
endpoint words agree, and `_as_object` for `octagon_sides`.

`lie2.hom_to_linf` is S on the functor (`twovect.S_on_functor`), each
projection of `twovect.direct_sum` is the transpose of its inclusion,
and `Cochain.__add__` and `scale` go through `cochain_to_coords` and
`coords_to_cochain`, which read and write each key's vector as one
slice.  The block read of phi1 (`hom_to_linf_block_read`), the `hstack`
projections (`direct_sum_hstack`), the sum and multiple pruned of zero
keys (`cochain_add_pruned`, `cochain_scale_pruned`, with `_prune`) and
the per-entry conversions (`cochain_to_coords_per_entry`,
`coords_to_cochain_per_entry`) are kept below verbatim: on valid
homomorphisms, targets with d != 0 included, on direct sums with the
zero space and on sparse cochains over sl3 adjoint with Fraction
entries, sums that cancel a key and multiples by 0 included, the same
homomorphism, the same functors and the same cochains.  S after T is
the identity on random homomorphisms.

`check_axioms` (its sweeps (e)-(i)), `generalized_jacobi`, the octagon,
`check_hom` and `l3_compatibility_residuals` read nonzero tables built
once per call (`linfty.sum_products`) where they made one `contract`
call per term, and `linfty.integral` builds each tensor of D v in one
pass.  The sweeps through `contract` (`check_axioms_contract`,
`generalized_jacobi_contract`,
`check_jacobiator_identity_categorical_contract`, `check_hom_contract`
with `l3_compatibility_residuals_contract`) and the nested-list
`integral_nested` are kept below verbatim: on random structures with
dim V1 up to 3 and d != 0, integer or Fraction entries, swept on sorted
tuples or in product order and perhaps moved at one entry, and on
random homomorphisms, the same reports, residuals included, and the
same integral structure.  `check_graded_antisymmetry`, which no command
called, moved here from `linfty` verbatim with its three helpers; it is
the oracle of axioms (a) and (d), and a test checks that it agrees with
them.

`lie2.check_crossed_module` and `linfty.check_two_hom` read nonzero
tables built once per call too, with a unit table for a bare vector such
as [a, b]_h or phi2, and `cohomology.check_representation` computes each
row of its residual with one `sum_products`.  The crossed-module and
2-homomorphism sweeps through `contract` (`check_crossed_module_contract`,
`check_two_hom_contract`) are kept below verbatim: on random crossed
modules of dimensions 1 to 4, integer or Fraction entries, brackets
antisymmetric or not and t != 0, valid ones included and perhaps moved at
one entry, and on random pairs of parallel homomorphisms with a tau,
ones where the phi2 - psi2 equation holds included, the same reports,
residuals included.  The representation check keeps its product-sweep
oracles (`check_representation_product_sweep`,
`check_representation_rmatrix_sweep`).
"""

from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from lie2alg.braid import (B12, B23, B34, TETRA_LHS, TETRA_RHS, TetraY, _add, _columns,
                           _j_reach, _push, _slot_braids, build_braid_functor, build_Y,
                           check_zamolodchikov, tetrahedron_components, tetrahedron_sides)
from lie2alg.cohomology import (ClassifyingQuadruple, Cochain, LieAlgebra, Representation,
                                abelian_algebra, adjoint_rep, build_cross_product, build_g_hbar,
                                _coboundary_cells, build_two_slot, check_lie_algebra,
                                check_representation, classify, coboundary, coboundary_matrix,
                                cochain_basis, cochain_keys, cochain_to_coords, coords_to_cochain,
                                is_coboundary, is_cocycle,
                                killing_triple_cochain, sl2_algebra, sl_algebra, so3_algebra,
                                trivial_rep)
from lie2alg import exactlin
from lie2alg.exactlin import (RMatrix, _echelon, _rref, block_diag, contract, invert, kron,
                              pivot_columns,
                              rank_kernel, solve_linear, vadd, vneg, vscale, vsub, vunit, vzeros)
from lie2alg.lie2 import (DifferentialCrossedModule, Lie2Hom, SemistrictLie2Algebra,
                          _compose_padded, bracket_morphisms, check_crossed_module,
                          check_jacobiator_identity_categorical, compose_lie2_homs, from_linfty,
                          hom_from_linf, hom_to_linf, jacobiator)
from lie2alg.linfty import (LInfHom, LInfTwoHom, TwoTermLInfinity, antisymmetry_violations,
                            basis_tuples, check_axioms, check_hom, check_two_hom, integral,
                            generalized_jacobi,
                            is_alternating, jacobi_violations, koszul_chi,
                            l3_antisymmetry_violations, l3_compatibility_residuals,
                            linf_to_json, perm_sign, unscaled, unshuffles, zero_l3, zero_phi2)
from lie2alg.report import CheckReport, CheckResult, first_violation, grid_violations
from lie2alg.serialize import FixtureError, tensor_from_json
from lie2alg.twoterm import (ChainHomotopy, ChainMap, Skeletalization, TwoTermComplex,
                             check_chain_map, check_homotopy, compose_chain_maps, identity_chain_map,
                             skeletalize_complex)
from lie2alg.twovect import (CellVert, DirectSum, LinearFunctor, LinearNatTrans, Morphism,
                             S_on_functor, S_on_nat_trans, TwoVectorSpace, check_nat_trans, compose_functors,
                             compose_morphisms, direct_sum, eval_cell_expr, functor_S, functor_T,
                             ground_field, identity_functor, identity_morphism, tensor_2vs,
                             tensor_functor, vertical_nat)
from conftest import broken_abelian4, broken_abelian4_thirds, conjugate, inflate, rand_invertible
from test_exactlin import (_coboundary_system_of_conjugated_ghbar_sl3,
                           _conjugated_ghbar_sl3_cocycle)
from test_linfty import twist_hom
from test_twovect import rand_space


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


def _as_object(L: SemistrictLie2Algebra, x) -> list:
    if isinstance(x, int):
        return L.object_basis(x)
    return list(x)


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


def build_Y_functor_products(L: SemistrictLie2Algebra) -> TetraY:
    """Y between the two triple-braid composites: the component at an
    object u is the identity plus the Jacobiator's arrow at the
    projection of u, injected on the (ground, ground, L) line."""
    v = L.data
    ax = check_axioms(v)
    hypotheses = CheckReport("tetrahedron_hypotheses",
                             [c for c in ax.checks if c.name != "i_jacobiator_coherence"])

    lp = direct_sum(ground_field(), L.space).space
    braid = build_braid_functor(L, lp)
    lp3 = tensor_2vs(tensor_2vs(lp, lp), lp)
    id_lp = identity_functor(lp)
    b12 = tensor_functor(braid, id_lp)
    b23 = tensor_functor(id_lp, braid)
    yb_source = compose_functors(compose_functors(b12, b23), b12)
    yb_target = compose_functors(compose_functors(b23, b12), b23)

    n0 = L.dim0
    arrows = (((1 + n0 + m, col), c)  # flat (0, 0, 1 + n0 + m) in the morphism cube
              for col, trip in enumerate(product(range(lp.dim0), repeat=3)) if all(trip)
              for m, c in enumerate(v.l3_eval(*(L.object_basis(t - 1) for t in trip))))
    jacobiator = RMatrix.from_cells(lp.dim1 ** 3, lp.dim0 ** 3, arrows)
    y = LinearNatTrans(yb_source, yb_target, lp3.i @ yb_source.f0 + jacobiator)
    hypotheses.extend(check_nat_trans(y), prefix="y_")
    ty = TetraY(lp, braid, jacobiator, hypotheses, ax.result("i_jacobiator_coherence"))
    ty.y = y  # this route's Y, in place of the one TetraY builds on first use
    return ty


def y_hypotheses_materialised(ty: TetraY) -> CheckReport:
    """Y's hypotheses as build_Y read them off the materialised Y: the
    matrix residuals of `check_nat_trans` on (k + L)^(ox 3)."""
    return check_nat_trans(ty.y)


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


def cell_functors(cell) -> tuple:
    """The source and target words of a cell: Y on slots s+1..s+3 runs
    from b(s) b(s+1) b(s) to b(s+1) b(s) b(s+1)."""
    pre, s, post = cell
    return pre + (s, s + 1, s) + post, pre + (s + 1, s, s + 1) + post


def same_braid_word(u: tuple, v: tuple) -> bool:
    """Whether two braid words are equal modulo b12 b34 = b34 b12, which
    holds for every B because both products are B ox B.  By the projection
    lemma of trace monoids, words are equal modulo commuting letters
    exactly when their subwords on each pair of letters that do not
    commute are equal: here (b12, b23) and (b23, b34)."""
    return all([x for x in u if x in pair] == [x for x in v if x in pair]
               for pair in ((B12, B23), (B23, B34)))


def tetrahedron_components_with_identities(ty: TetraY):
    """Yield every basis object u of (k + L)^(ox 4), in flat order, with
    the components of both sides of the tetrahedron equation at u, as
    {morphism index: entry} dicts without zeros.

    No matrix on the fourth tensor power is built.  For each cell of a
    side, the object u goes through the braids of P (B.f0 on two slots),
    Y ox 1 at an object w = w123 w4 is Y(w123) ox i(w4) and 1 ox Y is
    i(w1) ox Y(w234), and the result goes through the braids of S (B.f1 on
    two slots).  The vertical composite of the four cells subtracts the
    identities at the objects of the three middle functors
    (`vertical_nat`).  The objects of the words are computed once per u,
    and word prefixes are shared between the cells."""
    d0, d1 = ty.space.dim0, ty.space.dim1
    f0, f1 = _slot_braids(ty.braid.f0, d0, 4), _slot_braids(ty.braid.f1, d1, 4)
    ident, ycols = _columns(ty.space.i), _columns(ty.y.theta)
    d00, d11, d03, d13 = d0 * d0, d1 * d1, d0 ** 3, d1 ** 3
    # the object words the cells read: each prefix and, but for a side's
    # last cell, each target word (a middle functor), as steps (parent, b)
    steps, index = [], {(): 0}

    def step(word: tuple) -> int:
        if word not in index:
            steps.append((step(word[:-1]), word[-1]))
            index[word] = len(steps)
        return index[word]
    plans = [[(step(cell[0]), cell[1], cell[2],
               step(cell_functors(cell)[1]) if n < len(cells) - 1 else None)
              for n, cell in enumerate(cells)] for cells in (TETRA_LHS, TETRA_RHS)]

    def y_at(s: int, w: int) -> list:
        if s == 0:
            w123, w4 = divmod(w, d0)
            return [(k * d1 + j, x * z) for k, x in ycols[w123] for j, z in ident[w4]]
        w1, w234 = divmod(w, d03)
        return [(j * d13 + k, z * x) for j, z in ident[w1] for k, x in ycols[w234]]

    ident2 = [[(k * d1 + j, x * z) for k, x in ident[a] for j, z in ident[b]]
              for a in range(d0) for b in range(d0)]

    def identity(vec: dict) -> list:  # i on the fourth tensor power, i ox i on each half
        out = []
        for w, c in vec.items():
            high, low = divmod(w, d00)
            out += [(k * d11 + j, c * x * z) for k, x in ident2[high] for j, z in ident2[low]]
        return out

    def side(objs: list, plan) -> dict:
        out, middle = {}, {}
        for pre, s, post, mid in plan:
            vec = {}
            for w, c in objs[pre].items():
                _add(vec, y_at(s, w), c)
            for b in post:
                vec = _push(vec, f1[b])
            _add(out, vec.items(), 1)
            if mid is not None:
                _add(middle, objs[mid].items(), 1)
        _add(out, identity(middle), -1)
        return {k: x for k, x in out.items() if x}

    for u in range(d0 ** 4):
        objs = [{u: 1}]
        for parent, b in steps:
            objs.append(_push(objs[parent], f0[b]))
        yield (u, *(side(objs, plan) for plan in plans))


def check_zamolodchikov_with_identities(ty: TetraY) -> CheckReport:
    """Compare both sides of the tetrahedron equation at every basis
    object of the fourth tensor power, object by object
    (`tetrahedron_components_with_identities`), stopping at the first object where the
    components differ; the endpoint functors are compared as words."""
    rep = CheckReport("zamolodchikov_tetrahedron")
    same = (same_braid_word(cell_functors(TETRA_LHS[0])[0], cell_functors(TETRA_RHS[0])[0])
            and same_braid_word(cell_functors(TETRA_LHS[-1])[1],
                                cell_functors(TETRA_RHS[-1])[1]))
    rep.add("endpoint_functors", [] if same else [((), "source/target functors differ")])
    d0, d1 = ty.space.dim0, ty.space.dim1
    for u, lhs, rhs in tetrahedron_components_with_identities(ty):
        diff = dict(lhs)
        _add(diff, rhs.items(), -1)
        if any(diff.values()):
            loc = (u // d0 ** 3, (u // d0 ** 2) % d0, (u // d0) % d0, u % d0)
            rep.add("component_equality", [(loc, [diff.get(k, 0) for k in range(d1 ** 4)])])
            return rep
    rep.add("component_equality", [])
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


def parse_int_counting_digits(s: str) -> int:
    """int(s), refusing more digits than the interpreter converts
    (sys.get_int_max_str_digits) with a ValueError that names the limit."""
    limit, digits = sys.get_int_max_str_digits(), sum(ch.isdigit() for ch in s)
    if limit and digits > limit:
        raise ValueError(f"integer with {digits} digits, more than the limit of {limit}")
    return int(s)


def rational_counting_digits(x) -> int | Fraction:
    """Parse an exact rational from an int, Fraction or 'p/q' / 'n' string."""
    if isinstance(x, bool):
        raise ValueError(f"not a rational: {x!r}")
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = (parse_int_counting_digits(p) for p in s.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator: {x!r}")
            return Fraction(num, den)
        return parse_int_counting_digits(s)
    raise ValueError(f"not a rational: {x!r}")


def tensor_from_json_per_entry(obj, dims: tuple, field: str):
    """Parse a nested list of rationals with the given dimensions."""
    if not dims:
        try:
            return rational_counting_digits(obj)
        except ValueError as exc:
            raise FixtureError(f"field '{field}': {exc}") from None
    if not isinstance(obj, list) or len(obj) != dims[0]:
        raise FixtureError(f"field '{field}' must be a list of length {dims[0]}")
    return [tensor_from_json_per_entry(x, dims[1:], field) for x in obj]


def jacobi_violations_contract(bracket: list) -> list:
    """First (i, j, k) where [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    is nonzero.  The Jacobiator is alternating when the bracket is
    antisymmetric, and then only increasing triples are swept."""
    n = len(bracket)
    e = [vunit(n, i) for i in range(n)]
    return first_violation(
        ((i, j, k), vadd(vadd(contract(bracket, n, bracket[i][j], e[k]),
                              contract(bracket, n, bracket[j][k], e[i])),
                         contract(bracket, n, bracket[k][i], e[j])))
        for i, j, k in basis_tuples(n, 3, not antisymmetry_violations(bracket)))


def check_lie_algebra_contract(g: LieAlgebra) -> CheckReport:
    rep = CheckReport("lie_algebra")
    rep.add("antisymmetry", antisymmetry_violations(g.bracket))
    rep.add("jacobi", jacobi_violations_contract(g.bracket))
    return rep


def check_representation_rmatrix_sweep(rep_: Representation) -> CheckReport:
    rep = CheckReport("representation")
    algebra = check_lie_algebra_contract(rep_.algebra)
    rep.extend(algebra, prefix="algebra_")
    g, rho = rep_.algebra, rep_.rho

    # rho([x, y]) - [rho x, rho y] is alternating when the bracket is
    # antisymmetric, and then increasing pairs are swept only
    def residuals():
        for i, j in basis_tuples(g.dim, 2, algebra.result("antisymmetry").passed):
            lhs = sum((rho[k].scale(c) for k, c in enumerate(g.bracket[i][j]) if c),
                      RMatrix.zeros(rep_.dimV, rep_.dimV))
            resid = lhs - (rho[i] @ rho[j] - rho[j] @ rho[i])
            yield (i, j), [x for _, x in grid_violations(resid)[:4]]
    rep.add("bracket_to_commutator", first_violation(residuals()))
    return rep


def coboundary_cells_every_pair(rep: Representation, n: int):
    """The nonzero cells ((row, col), x) of the Chevalley-Eilenberg
    differential delta: C^n -> C^{n+1} in the ordered bases,

    (delta w)(v_1..v_{n+1}) = sum_i (-1)^{i+1} rho(v_i) w(.. v_i-hat ..)
    + sum_{j<k} (-1)^{j+k} w([v_j, v_k], .. hats ..), 1-based signs,

    found by visiting each (n+1)-key once and writing its terms straight
    into the columns of the n-keys they read.  A cell may come more than
    once; its entry is the sum."""
    g, dimV = rep.algebra, rep.dimV
    src = {key: i * dimV for i, key in enumerate(combinations(range(g.dim), n))}
    for i, key in enumerate(combinations(range(g.dim), n + 1)):
        row0 = i * dimV  # the rows of this key
        for pos in range(n + 1):
            col0, sign = src[key[:pos] + key[pos + 1:]], (-1) ** pos
            for a, rho_row in enumerate(rep.rho[key[pos]].entries):
                for b, x in rho_row.items():
                    yield (row0 + a, col0 + b), sign * x
        for pj, pk in combinations(range(n + 1), 2):
            rest = key[:pj] + key[pj + 1:pk] + key[pk + 1:]
            for m, c in enumerate(g.bracket[key[pj]][key[pk]]):
                if c and m not in rest:
                    sign = (-1) ** (pj + pk + sum(x < m for x in rest))  # sorting (m,) + rest
                    col0 = src[tuple(sorted((m,) + rest))]
                    for a in range(dimV):
                        yield (row0 + a, col0 + a), sign * c



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


# ---------------------------------------------------------------------------
# the rational axiom sweep, the unit-vector Jacobi tables and the product-order
# check_hom, verbatim but for the antisymmetry sweeps they call

def antisymmetry_violations_sweep(t: list) -> list:
    """First (i, j) where t[i][j] + t[j][i] is nonzero; t is a bracket
    or a homomorphism's phi2."""
    n = len(t)
    return first_violation(((i, j), vadd(t[i][j], t[j][i]))
                           for i in range(n) for j in range(n))


def l3_antisymmetry_violations_sweep(l3: list) -> list:
    """First (i, j, k) where l3 does not change sign when its first two
    or its last two slots swap, with the sum of l3 and the swapped l3."""
    n = len(l3)
    return first_violation(
        ((i, j, k), r) for i, j, k in product(range(n), repeat=3)
        for r in (vadd(l3[i][j][k], l3[j][i][k]), vadd(l3[i][j][k], l3[i][k][j])))


def check_axioms_rational(v: TwoTermLInfinity) -> CheckReport:
    """Verify conditions (a)-(i) entry-wise on basis tuples.

    (b) and (c) hold by representation and are reported as vacuous
    passes.  Once (a) and (d) hold, the residuals of (g) and (i) (the
    Jacobiator, the coboundary of l3) are alternating and are swept on
    increasing tuples (`basis_tuples`), which yields the product sweep's
    first violation.
    """
    rep = CheckReport("two_term_l_infinity")
    n0, n1 = v.dim0, v.dim1
    d, b, l2_01, l3 = v.d, v.l2_00, v.l2_01, v.l3
    e0 = [vunit(n0, i) for i in range(n0)]
    e1 = [vunit(n1, a) for a in range(n1)]

    a_ok = rep.add("a_bracket_antisymmetry", antisymmetry_violations_sweep(b)).passed
    rep.add_pass("b_mixed_antisymmetry")   # determined by storage
    rep.add_pass("c_bracket_degree_two")   # no V2, nothing to store
    d_ok = rep.add("d_l3_antisymmetry", l3_antisymmetry_violations_sweep(l3)).passed

    dcol = [d.col(a) for a in range(n1)]
    rep.add("e_differential_action", first_violation(
        ((i, a), vsub(d.matvec(l2_01[i][a]), contract(b[i], n0, dcol[a])))
        for i in range(n0) for a in range(n1)))
    # [dh,k] = [h,dk] means l2(dh, k) = -l2(dk, h)
    rep.add("f_differential_symmetry", first_violation(
        ((a, c), vadd(v.act(dcol[a], e1[c]), v.act(dcol[c], e1[a])))
        for a in range(n1) for c in range(n1)))

    alternating = a_ok and d_ok
    # [i,[j,k]] = -[[j,k],i]
    rep.add("g_jacobi_up_to_d", first_violation(
        ((i, j, k), vsub(d.matvec(l3[i][j][k]),
                         vsub(vsub(v.bracket00(b[i][k], e0[j]), v.bracket00(b[i][j], e0[k])),
                              v.bracket00(b[j][k], e0[i]))))
        for i, j, k in basis_tuples(n0, 3, alternating)))

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
        basis_tuples(n0, 4, alternating))))
    return rep


def generalized_jacobi_unit_tables(v: TwoTermLInfinity, arity: int) -> CheckReport:
    """The unshuffle identity at the given arity, on all graded basis tuples.

    Each term carries chi(sigma) and the factor (-1)^{i(j-1)}; higher
    arities than 4 vanish identically for two-term data.  The terms and
    their signs depend only on the tuple's degrees, so they are listed
    once per degree pattern; the inner brackets are read from tables of
    l_i on basis tuples and contracted into the outer ones.

    Every term is one l_i contracted into another, so the residual is a
    homogeneous quadratic polynomial in the structure constants: the
    sweep runs over the integers on D v (`integral`) and divides the
    first violation's residual by D^2.

    Once (a) and (d) hold (`is_alternating`), l1, l2 and l3 are graded
    antisymmetric and so is the residual: permuting a tuple multiplies it
    by the Koszul sign chi.  Then only sorted tuples, in `elems` order,
    are swept, with degree-0 indices strictly increasing and degree-1
    indices allowed to repeat: swapping two equal degree-0 elements
    negates the residual, so it is zero there, while swapping two equal
    degree-1 elements multiplies it by +1.  The lexicographically first
    tuple of a multiset is the sorted one, so the product sweep's first
    nonzero tuple is sorted and the sorted sweep stops there, with the
    same residual.  Otherwise every product-order tuple is swept.
    """
    if not 1 <= arity <= 4:
        raise ValueError("arity must be between 1 and 4")
    rep = CheckReport(f"generalized_jacobi_{arity}")
    alternating = (not antisymmetry_violations_sweep(v.l2_00)
                   and not l3_antisymmetry_violations_sweep(v.l3))
    D, v = integral(v)
    dims = (v.dim0, v.dim1)
    elems = [(0, i) for i in range(v.dim0)] + [(1, a) for a in range(v.dim1)]
    units = [[vunit(n, ix) for ix in range(n)] for n in dims]
    tables, patterns = {}, {}

    def degree(k, degrees):
        """Degree of l_k on arguments of these degrees, None outside 0/1."""
        out = _graded_bracket(v, k, [(dg, vzeros(dims[dg])) for dg in degrees])
        return None if out is None else out[0]

    def table(k, degrees):
        """l_k on the basis tuples of these degrees, indexed by the tuple's
        basis indices."""
        if (k, degrees) not in tables:
            def build(idx):
                if len(idx) < k:
                    return [build(idx + [ix]) for ix in range(dims[degrees[len(idx)]])]
                return _graded_bracket(v, k, [_graded_element(v, dg, ix)
                                              for dg, ix in zip(degrees, idx)])[1]
            tables[k, degrees] = build([])
        return tables[k, degrees]

    def terms(degrees):
        """(coefficient, inner slots, inner table, outer slots, outer table,
        output degree) for each unshuffle term that lands in degrees 0/1."""
        out = []
        for i in range(1, arity + 1):
            j = arity + 1 - i
            sign_ij = -1 if (i * (j - 1)) % 2 else 1
            for sigma in unshuffles(i, arity):
                inner_degrees = tuple(degrees[p] for p in sigma[:i])
                inner = degree(i, inner_degrees)
                if inner is None:
                    continue
                outer_degrees = (inner,) + tuple(degrees[p] for p in sigma[i:])
                deg = degree(j, outer_degrees)
                if deg is None:
                    continue
                chi = koszul_chi(sigma, degrees)
                out.append((chi * sign_ij, sigma[:i], table(i, inner_degrees),
                            sigma[i:], table(j, outer_degrees), deg))
        return out

    def residual(combo):
        """Both degree parts of the unshuffle sum at one graded basis tuple."""
        degrees = tuple(dg for dg, _ in combo)
        if degrees not in patterns:
            patterns[degrees] = terms(degrees)
        args = [units[dg][ix] for dg, ix in combo]
        acc = [vzeros(v.dim0), vzeros(v.dim1)]
        for coef, inner_slots, inner, outer_slots, outer, deg in patterns[degrees]:
            for p in inner_slots:
                inner = inner[combo[p][1]]
            part = acc[deg]
            for m, x in enumerate(contract(outer, dims[deg], inner,
                                           *[args[p] for p in outer_slots])):
                if x:
                    part[m] += coef * x
        return acc[0] + acc[1]

    if alternating:  # sorted, and no degree-0 element twice
        combos = (c for c in combinations_with_replacement(elems, arity)
                  if not any(p == q and p[0] == 0 for p, q in zip(c, c[1:])))
    else:
        combos = product(elems, repeat=arity)
    rep.add("unshuffle_identity", unscaled(first_violation(
        (combo, residual(combo)) for combo in combos), D))
    return rep


def check_hom_product_sweep(f: LInfHom) -> CheckReport:
    """Chain-map square, phi2 skew-symmetry and the three defining equations."""
    rep = CheckReport("l_infinity_hom")
    rep.extend(check_chain_map(f.chain), prefix="chain_")
    src, dst = f.source, f.target
    n0, n1, m1 = src.dim0, src.dim1, dst.dim1
    phi0, phi1, phi2 = f.chain.phi0, f.chain.phi1, f.phi2
    rep.add("phi2_antisymmetry", antisymmetry_violations_sweep(phi2))

    fe = [phi0.col(i) for i in range(n0)]
    rep.add("bracket_compatibility", first_violation(
        ((i, j), vsub(dst.d.matvec(phi2[i][j]),
                      vsub(phi0.matvec(src.l2_00[i][j]), dst.bracket00(fe[i], fe[j]))))
        for i in range(n0) for j in range(n0)))
    rep.add("action_compatibility", first_violation(
        ((i, a), vsub(contract(phi2[i], m1, src.d.col(a)),
                      vsub(phi1.matvec(src.l2_01[i][a]), dst.act(fe[i], phi1.col(a)))))
        for i in range(n0) for a in range(n1)))
    rep.add("l3_compatibility", first_violation(
        l3_compatibility_residuals_per_triple(f, product(range(n0), repeat=3))))
    return rep


# ---------------------------------------------------------------------------
# the graded brackets and the antisymmetry oracle of axioms (a) and (d), the
# sweeps that made one contract call per term and the nested-list integral
# structure, verbatim

def _graded_element(v: TwoTermLInfinity, deg: int, idx: int):
    return (deg, vunit(v.dim0 if deg == 0 else v.dim1, idx))


def _graded_bracket(v: TwoTermLInfinity, k: int, args: list):
    """l_k on graded vectors; returns (degree, vector) or None when it
    lands outside degrees 0/1."""
    if k == 1:
        (d0, w), = args
        return (0, v.d.matvec(w)) if d0 == 1 else None
    if k == 2:
        (da, a), (db, b) = args
        if da == 0 and db == 0:
            return (0, v.bracket00(a, b))
        if da == 0 and db == 1:
            return (1, v.act(a, b))
        if da == 1 and db == 0:
            return (1, vneg(v.act(b, a)))
        return None
    if k == 3:
        if all(d == 0 for d, _ in args):
            return (1, v.l3_eval(args[0][1], args[1][1], args[2][1]))
        return None
    return None


def check_graded_antisymmetry(v: TwoTermLInfinity) -> CheckReport:
    """Total graded antisymmetry of l2 and l3 (the sign-convention half of
    the definition, which the unshuffle identity does not test)."""
    rep = CheckReport("graded_antisymmetry")
    for arity, name in ((2, "l2_antisymmetry"), (3, "l3_antisymmetry")):
        rep.add(name, first_violation(_antisymmetry_residuals(v, arity)))
    return rep


def _antisymmetry_residuals(v: TwoTermLInfinity, arity: int):
    elems = [(0, i) for i in range(v.dim0)] + [(1, a) for a in range(v.dim1)]
    for combo in product(elems, repeat=arity):
        args = [_graded_element(v, dg, ix) for dg, ix in combo]
        base = _graded_bracket(v, arity, args)
        if base is None:
            continue  # the whole orbit lands outside degrees 0/1
        for perm in permutations(range(arity)):
            # chi is stated for the original order of the permuted word
            chi = koszul_chi(perm, tuple(dg for dg, _ in combo))
            permuted = _graded_bracket(v, arity, [args[p] for p in perm])
            yield (combo, perm), vsub(permuted[1], vscale(chi, base[1]))


def check_axioms_contract(v: TwoTermLInfinity) -> CheckReport:
    """Verify conditions (a)-(i) entry-wise on basis tuples.

    (b) and (c) hold by representation and are reported as vacuous
    passes.  Once (a) and (d) hold, the residuals of (g) and (i) (the
    Jacobiator, the coboundary of l3) are alternating and are swept on
    increasing tuples (`basis_tuples`), which yields the product sweep's
    first violation.

    Every sweep runs over the integers on D v (`integral`).  On D v the
    residual is D times the one on v for the linear (a) and (d), and D^2
    times for the quadratic (e)-(i), whatever v satisfies: each sweep
    fails at the same first tuple, and `unscaled` divides its residual.
    """
    rep = CheckReport("two_term_l_infinity")
    D, v = integral(v)
    n0, n1 = v.dim0, v.dim1
    d, b, l2_01, l3 = v.d, v.l2_00, v.l2_01, v.l3

    def quadratic(name, residuals):
        rep.add(name, unscaled(first_violation(residuals), D))

    a_ok = rep.add("a_bracket_antisymmetry", unscaled(antisymmetry_violations(b), D, 1)).passed
    rep.add_pass("b_mixed_antisymmetry")   # determined by storage
    rep.add_pass("c_bracket_degree_two")   # no V2, nothing to store
    d_ok = rep.add("d_l3_antisymmetry", unscaled(l3_antisymmetry_violations(l3), D, 1)).passed

    dcol = [d.col(a) for a in range(n1)]
    quadratic("e_differential_action", (
        ((i, a), vsub(d.matvec(l2_01[i][a]), contract(b[i], n0, dcol[a])))
        for i in range(n0) for a in range(n1)))
    # [dh,k] = [h,dk] means l2(dh, k) = -l2(dk, h)
    quadratic("f_differential_symmetry", (
        ((a, c), vadd(contract(l2_01, n1, dcol[a], c), contract(l2_01, n1, dcol[c], a)))
        for a in range(n1) for c in range(n1)))

    alternating = a_ok and d_ok
    # [i,[j,k]] = -[[j,k],i]
    quadratic("g_jacobi_up_to_d", (
        ((i, j, k), vsub(d.matvec(l3[i][j][k]),
                         vsub(vsub(contract(b, n0, b[i][k], j), contract(b, n0, b[i][j], k)),
                              contract(b, n0, b[j][k], i))))
        for i, j, k in basis_tuples(n0, 3, alternating)))

    def h_residuals():
        for a, i, j in product(range(n1), range(n0), range(n0)):
            rhs = vsub(vsub(contract(l2_01[i], n1, l2_01[j][a]),
                            contract(l2_01[j], n1, l2_01[i][a])), contract(l2_01, n1, b[i][j], a))
            yield (a, i, j), vsub(contract(l3, n1, dcol[a], i, j), rhs)
    quadratic("h_l3_naturality", h_residuals())

    def i_residuals(tuples):
        for p, q, r, s in tuples:
            plus = [contract(l3, n1, b[p][r], q, s), contract(l3, n1, b[q][s], p, r),
                    contract(l2_01[r], n1, l3[p][q][s]), contract(l2_01[p], n1, l3[q][r][s])]
            minus = [contract(l2_01[s], n1, l3[p][q][r]), contract(l2_01[q], n1, l3[p][r][s]),
                     contract(l3, n1, b[p][q], r, s), contract(l3, n1, b[p][s], q, r),
                     contract(l3, n1, b[q][r], p, s), contract(l3, n1, b[r][s], p, q)]
            yield (p, q, r, s), [sum(x) - sum(y) for x, y in zip(zip(*plus), zip(*minus))]
    quadratic("i_jacobiator_coherence", i_residuals(basis_tuples(n0, 4, alternating)))
    return rep


def generalized_jacobi_contract(v: TwoTermLInfinity, arity: int) -> CheckReport:
    """The unshuffle identity at the given arity, on all graded basis tuples.

    Each term carries chi(sigma) and the factor (-1)^{i(j-1)}; higher
    arities than 4 vanish identically for two-term data.  The terms and
    their signs depend only on the tuple's degrees, so they are listed
    once per degree pattern.  The tables of l_i on basis tuples are the
    structure itself: the columns of d, l2_00, l2_01, -l2_01 with its
    slots swapped, and l3.  Each inner bracket is read off one and
    contracted into the outer one at the tuple's basis indices.

    Every term is one l_i contracted into another, so the residual is a
    homogeneous quadratic polynomial in the structure constants: the
    sweep runs over the integers on D v (`integral`) and divides the
    first violation's residual by D^2.

    Once (a) and (d) hold (`is_alternating`, decided on D v, where they
    hold exactly when they hold on v), l1, l2 and l3 are graded
    antisymmetric and so is the residual: permuting a tuple multiplies it
    by the Koszul sign chi.  Then only sorted tuples, in `elems` order,
    are swept, with degree-0 indices strictly increasing and degree-1
    indices allowed to repeat: swapping two equal degree-0 elements
    negates the residual, so it is zero there, while swapping two equal
    degree-1 elements multiplies it by +1.  The lexicographically first
    tuple of a multiset is the sorted one, so the product sweep's first
    nonzero tuple is sorted and the sorted sweep stops there, with the
    same residual.  Otherwise every product-order tuple is swept.
    """
    if not 1 <= arity <= 4:
        raise ValueError("arity must be between 1 and 4")
    rep = CheckReport(f"generalized_jacobi_{arity}")
    D, v = integral(v)
    alternating = is_alternating(v)
    n0, n1 = dims = (v.dim0, v.dim1)
    elems = [(0, i) for i in range(n0)] + [(1, a) for a in range(n1)]
    # (k, argument degrees) -> (l_k on basis tuples, output degree), where it lands in 0/1
    tables = {(1, (1,)): ([v.d.col(a) for a in range(n1)], 0),
              (2, (0, 0)): (v.l2_00, 0), (2, (0, 1)): (v.l2_01, 1),
              (2, (1, 0)): ([[vneg(v.l2_01[i][a]) for i in range(n0)] for a in range(n1)], 1),
              (3, (0, 0, 0)): (v.l3, 1)}
    patterns = {}

    def terms(degrees):
        """(coefficient, inner slots, inner table, outer slots, outer table,
        output degree) for each unshuffle term that lands in degrees 0/1."""
        out = []
        for i in range(1, arity + 1):
            j = arity + 1 - i
            sign_ij = -1 if (i * (j - 1)) % 2 else 1
            for sigma in unshuffles(i, arity):
                inner = tables.get((i, tuple(degrees[p] for p in sigma[:i])))
                if inner is None:
                    continue
                outer = tables.get((j, (inner[1],) + tuple(degrees[p] for p in sigma[i:])))
                if outer is None:
                    continue
                chi = koszul_chi(sigma, degrees)
                out.append((chi * sign_ij, sigma[:i], inner[0], sigma[i:], *outer))
        return out

    def residual(combo):
        """Both degree parts of the unshuffle sum at one graded basis tuple."""
        degrees = tuple(dg for dg, _ in combo)
        if degrees not in patterns:
            patterns[degrees] = terms(degrees)
        acc = [vzeros(n0), vzeros(n1)]
        for coef, inner_slots, inner, outer_slots, outer, deg in patterns[degrees]:
            for p in inner_slots:
                inner = inner[combo[p][1]]
            part = acc[deg]
            for m, x in enumerate(contract(outer, dims[deg], inner,
                                           *[combo[p][1] for p in outer_slots])):
                if x:
                    part[m] += coef * x
        return acc[0] + acc[1]

    if alternating:  # sorted, and no degree-0 element twice
        combos = (c for c in combinations_with_replacement(elems, arity)
                  if not any(p == q and p[0] == 0 for p, q in zip(c, c[1:])))
    else:
        combos = product(elems, repeat=arity)
    rep.add("unshuffle_identity", unscaled(first_violation(
        (combo, residual(combo)) for combo in combos), D))
    return rep


def l3_compatibility_residuals_contract(f: LInfHom, triples):
    """Yield ((i, j, k), lhs - rhs) of the l3 equation of a homomorphism,

    phi2([x,y], z) - [phi0 z, phi2(x,y)] + phi1 l3(x,y,z)
      = l3(phi0 x, phi0 y, phi0 z) + [phi0 x, phi2(y,z)] - [phi0 y, phi2(x,z)]
        + phi2(x, [y,z]) + phi2([x,z], y),

    at each basis triple of `triples`.  `check_hom` sweeps increasing
    triples when the residual is alternating, every triple otherwise.
    `cohomology.classify` reads the skeleton's l3 off it on increasing
    triples, with the source's l3 set to zero; that suffices because the
    input has passed the axioms, so the transported l3 is alternating.

    The target's l3 with its first two slots on the columns of phi0 is
    tabulated once per call, one slot at a time, in O(n0 m0^3 m1 +
    n0^2 m0^2 m1); the third slot is contracted at each triple swept, in
    O(m0 m1) where evaluating l3 on phi0 afresh costs O(m0^3 m1).  The
    entries are exact sums, so every residual is the per-triple one."""
    src, dst = f.source, f.target
    m0, m1 = dst.dim0, dst.dim1
    phi0, phi1, phi2 = f.chain.phi0, f.chain.phi1, f.phi2
    fe = [phi0.col(i) for i in range(src.dim0)]

    def blocks(flat, size):
        return [flat[b * size:(b + 1) * size] for b in range(m0)]
    # one leading slot per stage, each a contract over flat blocks that skips zeros of phi0
    flat = [[x for row in plane for vec in row for x in vec] for plane in dst.l3]  # [a] (b,c,m)
    l3f = [blocks(contract(flat, m0 * m0 * m1, u), m0 * m1) for u in fe]   # [i][b] (c, m)
    l3f = [[blocks(contract(t, m0 * m1, u), m1) for u in fe] for t in l3f]  # [i][j][c] (m)
    for i, j, k in triples:
        lhs = vadd(vsub(contract(phi2, m1, src.l2_00[i][j], k),
                        dst.act(fe[k], phi2[i][j])),
                   phi1.matvec(src.l3[i][j][k]))
        rhs = vadd(vsub(vadd(contract(l3f[i][j], m1, fe[k]), dst.act(fe[i], phi2[j][k])),
                        dst.act(fe[j], phi2[i][k])),
                   vadd(contract(phi2[i], m1, src.l2_00[j][k]),
                        contract(phi2, m1, src.l2_00[i][k], j)))
        yield (i, j, k), vsub(lhs, rhs)


def check_hom_contract(f: LInfHom) -> CheckReport:
    """Chain-map square, phi2 skew-symmetry and the three defining equations.

    The l3 equation's residual (`l3_compatibility_residuals`) is R(x,y,z)
    = phi2([x,y],z) - [phi0 z, phi2(x,y)] + phi1 l3(x,y,z) - l3(phi0 x,
    phi0 y, phi0 z) - [phi0 x, phi2(y,z)] + [phi0 y, phi2(x,z)] - phi2(x,[y,z])
    - phi2([x,z],y), terms 1-8.  Let phi2 be antisymmetric, the source pass
    (a) and (d) and the target's l3 be alternating.  Swapping x and y
    negates terms 1-4 and turns 5, 6, 7, 8 into -6, -5, -8, -7; swapping
    y and z negates 3, 4, 5, 7 and turns 1, 2, 6, 8 into -8, -6, -2, -1.
    So R is alternating, and only increasing triples are swept
    (`basis_tuples`), with the product sweep's first violation.
    Otherwise every triple is, in product order.
    """
    rep = CheckReport("l_infinity_hom")
    rep.extend(check_chain_map(f.chain), prefix="chain_")
    src, dst = f.source, f.target
    n0, n1, m1 = src.dim0, src.dim1, dst.dim1
    phi0, phi1, phi2 = f.chain.phi0, f.chain.phi1, f.phi2
    alternating = (rep.add("phi2_antisymmetry", antisymmetry_violations(phi2)).passed
                   and is_alternating(src) and not l3_antisymmetry_violations(dst.l3))

    fe = [phi0.col(i) for i in range(n0)]
    rep.add("bracket_compatibility", first_violation(
        ((i, j), vsub(dst.d.matvec(phi2[i][j]),
                      vsub(phi0.matvec(src.l2_00[i][j]), dst.bracket00(fe[i], fe[j]))))
        for i in range(n0) for j in range(n0)))
    rep.add("action_compatibility", first_violation(
        ((i, a), vsub(contract(phi2[i], m1, src.d.col(a)),
                      vsub(phi1.matvec(src.l2_01[i][a]), dst.act(fe[i], phi1.col(a)))))
        for i in range(n0) for a in range(n1)))
    rep.add("l3_compatibility", first_violation(
        l3_compatibility_residuals_contract(f, basis_tuples(n0, 3, alternating))))
    return rep


def check_jacobiator_identity_categorical_contract(L: SemistrictLie2Algebra) -> CheckReport:
    """Compare both octagon composites on every basis 4-tuple.

    A composite in T(C) is its first source followed by the sum of its
    arrow parts.  Both composites start at [[[w,x],y],z], so the
    residual's source part is zero and only the arrow parts are compared.
    A J term's arrow part is l3.  A Br term's is a contraction of the
    arrow block of the bracket, tabulated once on a basis arrow and a
    basis identity.

    Each arrow part is l3 after l2 or l2 after l3: one Br argument is
    always an identity, whose arrow part is zero, so the d l2 block of
    the bracket never enters, and neither does the source part
    [[x,y],z] of the Jacobiator in the other argument: the bracket of
    two identities has arrow part zero.  The residual is therefore a
    homogeneous quadratic polynomial in the structure constants, and the
    sweep runs over the integers on D v (`integral`), dividing the first
    violation's residual by D^2.

    Once (a) and (d) hold (`is_alternating`), the residual is
    alternating: permuting the 4-tuple multiplies it by the sign of the
    permutation, and a repeated index makes it zero.  Then only strictly
    increasing 4-tuples are swept (`basis_tuples`).  The
    lexicographically first tuple of a multiset is the sorted one, so the
    product sweep's first nonzero tuple is increasing and this sweep
    stops there, with the same residual.  Otherwise every 4-tuple is
    swept.
    """
    rep = CheckReport("jacobiator_identity_octagon")
    D, v = integral(L.data)
    alternating = is_alternating(v)
    if D > 1:
        L = from_linfty(v)
    n0, n1, b, l3, J = L.dim0, v.dim1, v.l2_00, v.l3, v.l3_eval
    one = [identity_morphism(L.space, L.object_basis(i)) for i in range(n0)]
    arrows = [L.morphism(vzeros(n0), vunit(n1, a)) for a in range(n1)]
    # arrow parts of [f_a, 1_y] and of [1_w, f_a]
    arrow_one = [[bracket_morphisms(L, f, g).vec[n0:] for g in one] for f in arrows]
    one_arrow = [[bracket_morphisms(L, f, g).vec[n0:] for g in arrows] for f in one]

    def residuals():
        for w, x, y, z in basis_tuples(n0, 4, alternating):
            lhs = [J(b[w][x], y, z), contract(arrow_one, n1, l3[w][x][z], y),
                   J(w, b[x][z], y), J(b[w][z], x, y), J(w, x, b[y][z])]
            rhs = [contract(arrow_one, n1, l3[w][x][y], z), J(b[w][y], x, z),
                   J(w, b[x][y], z), contract(arrow_one, n1, l3[w][y][z], x),
                   contract(one_arrow[w], n1, l3[x][y][z])]
            yield (w, x, y, z), vzeros(n0) + [sum(p) - sum(q)
                                              for p, q in zip(zip(*lhs), zip(*rhs))]
    rep.add("octagon", unscaled(first_violation(residuals()), D))
    return rep


def _times(t: list, D: int) -> list:
    """t with every entry multiplied by D, a multiple of its denominator, as ints."""
    return [_times(x, D) if isinstance(x, list) else x.numerator * (D // x.denominator)
            for x in t]


def integral_nested(v: TwoTermLInfinity) -> tuple:
    """(D, D v): the least common denominator D of every entry of d, l2_00,
    l2_01 and l3, and the structure with all four multiplied by D, over
    the integers, read in one flat pass that skips ints.  When D = 1 the
    second item is v itself.

    A residual that is a sum of products of two structure maps is a
    homogeneous quadratic polynomial in the structure constants, so on
    D v it is exactly D^2 times the residual on v, whether or not v
    satisfies any axiom: a sweep over D v fails at the same first tuple,
    and its residual divided by D^2 (`unscaled`) is the one on v.  A
    linear residual is D times the one on v.
    """
    flat = [x for row in v.d.entries for x in row.values()]
    flat += [x for t in (v.l2_00, v.l2_01) for row in t for vec in row for x in vec]
    flat += [x for plane in v.l3 for row in plane for vec in row for x in vec]
    D = lcm(*{x.denominator for x in flat if type(x) is not int})
    if D == 1:
        return 1, v
    d = [v.d.row(i) for i in range(v.dim0)]
    cx = TwoTermComplex(v.dim0, v.dim1, RMatrix.from_rows(_times(d, D), v.dim1))
    return D, TwoTermLInfinity(cx, _times(v.l2_00, D), _times(v.l2_01, D), _times(v.l3, D))


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
                                 for key in cochain_keys(rep.algebra.dim, degree)})


@st.composite
def valid_structures(draw):
    """The two-slot structure of a representation and a 3-cocycle,
    possibly inflated by an acyclic summand and conjugated by a change of
    basis, so that d, l2 and l3 are dense and every axiom holds."""
    rep = draw(representations())
    w = coboundary(cochain(draw, rep, 2))
    if not any(any(m.entries) for m in rep.rho):
        w = w + cochain(draw, rep, 3)    # every 3-cochain of a trivial one is closed
    v = build_two_slot(w)
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


# g_hbar(so3) at random hbar, the cross product, and broken_abelian4 with
# at most one moved entry
tetrahedron_structures = st.one_of(
    st.fractions(-3, 3, max_denominator=4).map(lambda h: build_g_hbar(so3_algebra(), h).data),
    st.builds(lambda: build_cross_product().data),
    perturbed(st.builds(broken_abelian4)))


@settings(max_examples=12, deadline=None)
@given(tetrahedron_structures)
def test_tetrahedron_matches_per_column_and_dense_row_sweeps(v):
    """The same Y and the same report, first failing object and exact
    residual included, as the full-component, materialised and dense-row
    sweeps.  The full components equal the columns of the materialised
    sides at every object, past the first failing one too; at every
    object, what the arrow parts leave out of them is the same on both
    sides, i of the sides' source functor at that object.  The braid
    words decide every functor comparison the materialised sides make as
    the matrices do."""
    L = from_linfty(v)
    ty = build_Y(L)
    assert ty.y.theta == y_theta_per_column(L)
    report = check_zamolodchikov(ty).to_json()
    assert report == check_zamolodchikov_with_identities(ty).to_json()
    assert report == check_zamolodchikov_materialised(ty).to_json()
    assert report == check_zamolodchikov_dense_rows(ty).to_json()

    # each side evaluated cell by cell, as eval_cell_expr evaluates it
    cells = [[eval_cell_expr(c) for c in vertical_cells(e)] for e in tetrahedron_sides(ty)]
    sides = [reduce(vertical_nat, side) for side in cells]
    lhs, rhs = (side.theta.transpose().entries for side in sides)
    assert list(tetrahedron_components_with_identities(ty)) == [
        (u, lhs[u], rhs[u]) for u in range(ty.space.dim0 ** 4)]
    source = sides[0].from_functor
    ident = (source.target.i @ source.f0).transpose().entries
    for u, *arrows in tetrahedron_components(ty):
        for full, arrow in zip((lhs[u], rhs[u]), arrows):
            rest = dict(full)
            _add(rest, arrow.items(), -1)
            assert {k: x for k, x in rest.items() if x} == ident[u]

    # each cell's endpoint words against its materialised endpoint functors
    words = [[cell_functors(c) for c in side] for side in (TETRA_LHS, TETRA_RHS)]
    pairs = [((0, 0, 0), (1, 0, 0)), ((0, -1, 1), (1, -1, 1))]   # the endpoint check
    pairs += [((k, n, 1), (k, n + 1, 0)) for k in range(2) for n in range(3)]  # the middles
    for a, b in pairs:
        (ka, na, ea), (kb, nb, eb) = a, b
        fa = (cells[ka][na].from_functor, cells[ka][na].to_functor)[ea]
        fb = (cells[kb][nb].from_functor, cells[kb][nb].to_functor)[eb]
        assert same_braid_word(words[ka][na][ea], words[kb][nb][eb]) == (fa == fb)


@settings(max_examples=12, deadline=None)
@given(tetrahedron_structures)
def test_tetrahedron_arrow_part_premises(v):
    """What lets the sweep compare arrow parts only, on valid and perturbed
    structures alike: the braid on morphisms commutes with i ox i, and Y
    is the identity on its source functor plus the Jacobiator."""
    ty = build_Y(from_linfty(v))
    ii = kron(ty.space.i, ty.space.i)
    assert ty.braid.f1 @ ii == ii @ ty.braid.f0
    source = ty.y.from_functor
    assert ty.y.theta == source.target.i @ source.f0 + ty.jacobiator


@settings(max_examples=12, deadline=None)
@given(tetrahedron_structures)
def test_Y_matches_functor_product_route(v):
    """Y's endpoint functors from `yang_baxter_sides` equal the composites
    of tensored braids, on objects and on morphisms, and every hypothesis
    of Y reads as `check_nat_trans` reads that Y."""
    L = from_linfty(v)
    ty, oracle = build_Y(L), build_Y_functor_products(L)
    assert ty.y == oracle.y  # both functors, f0 and f1 of each, and the components
    report = ty.hypotheses.to_json()
    assert report == oracle.hypotheses.to_json()
    assert [c for c in report["checks"] if c["name"].startswith("y_")] == [
        dict(c, name="y_" + c["name"]) for c in check_nat_trans(oracle.y).to_json()["checks"]]


def assert_same_y_hypotheses(ty: TetraY) -> None:
    """Each y_ check of build_Y lists the same violations, every nonzero
    cell in row-major order, as `check_nat_trans` on the materialised Y."""
    oracle = y_hypotheses_materialised(ty)
    for c in oracle.checks:
        assert ty.hypotheses.result("y_" + c.name).violations == c.violations


@settings(max_examples=12, deadline=None)
@given(tetrahedron_structures)
def test_Y_hypotheses_match_materialised_Y(v):
    assert_same_y_hypotheses(build_Y(from_linfty(v)))


@pytest.mark.parametrize("edits", [
    {("l2_00", 0, 1, 0): 1}, {("l2_00", 1, 0, 0): -1},
    {("l2_00", 0, 1, 0): 1, ("l2_00", 1, 0, 0): -1},
    {("l2_01", 0, 0, 0): 1}, {("l2_00", 0, 0, 1): 1}])
def test_Y_hypotheses_match_materialised_Y_on_one_entry_edits(ghbar_so3_1, edits):
    """The edits of ghbar_so3_1 whose failing y_ checks the CLI tests pin,
    one entry at a time and the antisymmetric pair: every y_ check, every
    violation."""
    v = copy.deepcopy(ghbar_so3_1.data)
    for (name, i, j, k), x in edits.items():
        getattr(v, name)[i][j][k] = x
    ty = build_Y(from_linfty(v))
    assert not all(ty.hypotheses.result("y_" + n).passed
                   for n in ("source_row", "target_row", "naturality"))
    assert_same_y_hypotheses(ty)


@settings(max_examples=20, deadline=None)
@given(perturbed(st.fractions(-3, 3, max_denominator=4).map(
    lambda h: build_g_hbar(so3_algebra(), h).data)))
def test_Y_hypotheses_match_materialised_Y_where_g_or_h_fails(v):
    ax = check_axioms(v)
    assume(not (ax.result("g_jacobi_up_to_d").passed and ax.result("h_l3_naturality").passed))
    assert_same_y_hypotheses(build_Y(from_linfty(v)))


@pytest.mark.parametrize("n0, n1", [(1, 0), (1, 2), (2, 1), (3, 1), (2, 3)])
def test_kernel_of_s_on_the_third_tensor_power_is_the_arrow_tensors(n0, n1):
    """The echelon basis of ker s on (k + L)^(ox 3), which `check_Y` reads
    in closed form: the unit vector at each morphism tensor with an arrow
    slot (an index >= dim0 of k + L), in index order.  s = [I 0] on L
    whatever d is."""
    d = RMatrix.from_rows([[(i + a) % 3 - 1 for a in range(n1)] for i in range(n0)], n1)
    lp = direct_sum(ground_field(), functor_T(TwoTermComplex(n0, n1, d))).space
    d0, d1 = lp.dim0, lp.dim1
    arrows = [m for m in range(d1 ** 3) if max(m // (d1 * d1), m // d1 % d1, m % d1) >= d0]
    assert tensor_2vs(tensor_2vs(lp, lp), lp).ker_s() == RMatrix.from_cols(
        [vunit(d1 ** 3, m) for m in arrows], rows=d1 ** 3)


def test_tetrahedron_structures_skip_objects_before_a_first_failure():
    """The per-object comparisons above meet a structure whose sweep skips
    an object (no J window reachable from it) before its first failing
    object: the skip is checked where it must not hide a failure."""
    def skips_before_failure(v):
        ty = build_Y(from_linfty(v))
        res = check_zamolodchikov(ty).result("component_equality")
        if res.passed:
            return False
        a, b, c, d = res.first_violation[0]
        d0 = ty.space.dim0
        reached = set().union(*(cell for side in _j_reach(ty) for cell in side))
        return not set(range(((a * d0 + b) * d0 + c) * d0 + d)) <= reached
    v = find(tetrahedron_structures, skips_before_failure,
             settings=settings(phases=[Phase.generate], database=None, deadline=None))
    ty = build_Y(from_linfty(v))
    assert check_zamolodchikov(ty).to_json() == check_zamolodchikov_with_identities(ty).to_json()


def test_tetrahedron_tables_fix_the_endpoint_words():
    """`check_zamolodchikov` reports endpoint_functors as a pass for every
    input: the first cells of TETRA_LHS and TETRA_RHS have the same source
    word and their last cells the same target word, modulo b12 b34 =
    b34 b12.  Each change of one letter, a braid in P or S or the slot s,
    of a first or last cell of either table breaks that."""
    def endpoints_agree(lhs, rhs):
        return (same_braid_word(cell_functors(lhs[0])[0], cell_functors(rhs[0])[0])
                and same_braid_word(cell_functors(lhs[-1])[1], cell_functors(rhs[-1])[1]))

    def one_letter_changes(cell):
        pre, s, post = cell
        yield pre, 1 - s, post
        for i, b in product(range(len(pre)), (B12, B23, B34)):
            if b != pre[i]:
                yield pre[:i] + (b,) + pre[i + 1:], s, post
        for i, b in product(range(len(post)), (B12, B23, B34)):
            if b != post[i]:
                yield pre, s, post[:i] + (b,) + post[i + 1:]

    assert endpoints_agree(TETRA_LHS, TETRA_RHS)
    changed = 0
    for side, n in product(range(2), (0, -1)):
        for cell in one_letter_changes((TETRA_LHS, TETRA_RHS)[side][n]):
            tables = [list(TETRA_LHS), list(TETRA_RHS)]
            tables[side][n] = cell
            assert not endpoints_agree(*tables)
            changed += 1
    assert changed == 4 * (1 + 3 * 2)  # four cells, each a slot and three letters


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
    Jacobi violation, in `check_crossed_module` for g and for h too, and
    the same reports, first failing tuple and exact residual included."""
    b = r.algebra.bracket
    assert (jacobi_violations(b, not antisymmetry_violations(b))
            == jacobi_violations_product_sweep(b))
    dcm = check_crossed_module(DifferentialCrossedModule(len(b), b, len(b), b,
                                                         RMatrix.identity(len(b)), b))
    assert (dcm.result("g_jacobi").violations == dcm.result("h_jacobi").violations
            == jacobi_violations_product_sweep(b))
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


# ---------------------------------------------------------------------------
# parsing, the representation check and delta against the per-entry code

LIMIT = sys.get_int_max_str_digits()
GOOD_LEAVES = ["0", "1", "-2", " 3/4 ", "-6/8", "10", "+5", 7, -1, 0,
               "-" + "1" * LIMIT, "2" * LIMIT + "/3"]
BAD_LEAVES = ["1/0", "abc", "1.5", "", "1/", 1.5, True, False, None, {}, [],
              "9" * 5000, "1/" + "7" * 5000, "3" * (LIMIT + 1)]
good_leaves, bad_leaves = st.sampled_from(GOOD_LEAVES), st.sampled_from(BAD_LEAVES)


@st.composite
def tensor_json(draw):
    """(obj, dims): nested lists of rational strings and ints, at most
    three deep and three long, usually with one entry replaced (a scalar
    by a bad leaf, a list by a scalar) or one list shortened or
    lengthened."""
    dims = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))

    def build(d):
        return [build(d[1:]) for _ in range(d[0])] if d else draw(good_leaves)
    obj = build(dims)
    if not dims:
        return draw(st.one_of(good_leaves, bad_leaves)), dims
    lists, slots = [], []  # every list; (list, index, holds a scalar) of every entry

    def collect(t, depth):
        lists.append(t)
        for k in range(len(t)):
            slots.append((t, k, depth + 1 == len(dims)))
            if depth + 1 < len(dims):
                collect(t[k], depth + 1)
    collect(obj, 0)
    kind = draw(st.sampled_from(["none", "entry", "length"]))
    if kind == "length":
        t = draw(st.sampled_from(lists))
        if t and draw(st.booleans()):
            t.pop()
        else:
            t.append(draw(good_leaves))
    elif kind == "entry" and slots:
        t, k, leaf = draw(st.sampled_from(slots))
        t[k] = draw(bad_leaves if leaf else good_leaves)
    return obj, dims


def _parsed(parse, obj, dims):
    """A parser's value with the type of every scalar, or its FixtureError message."""
    def types(t):
        return [types(x) for x in t] if isinstance(t, list) else type(t)
    try:
        value = parse(copy.deepcopy(obj), dims, "t")
    except FixtureError as exc:
        return "FixtureError", str(exc)
    return value, types(value)


@settings(max_examples=400, deadline=None)
@given(tensor_json())
def test_tensor_parse_matches_per_entry_parser(case):
    """The same values and scalar types, or the same first FixtureError,
    as parsing entry by entry with every digit counted."""
    obj, dims = case
    assert _parsed(tensor_from_json, obj, dims) == _parsed(tensor_from_json_per_entry, obj, dims)


def test_tensor_parse_matches_per_entry_parser_on_every_leaf():
    """Each leaf alone, and after a repeat of itself, so that a parsed
    string is read from the memo."""
    for leaf in GOOD_LEAVES + BAD_LEAVES:
        for obj, dims in ((leaf, ()), ([leaf, leaf], (2,)), ([["1", leaf], [leaf]], (2, 2))):
            assert (_parsed(tensor_from_json, obj, dims)
                    == _parsed(tensor_from_json_per_entry, obj, dims))


rational_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def rational_representations(draw):
    """A rational bracket on dimension 1..5, zero, antisymmetric (Jacobi
    may fail) or arbitrary, with rho on Q^1..Q^3 zero, random or, for
    dimension at most 3, the adjoint matrices (a representation exactly
    when Jacobi holds)."""
    dim = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["zero", "antisymmetric", "arbitrary"]))
    bracket = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in product(range(dim), repeat=2):
        if kind == "arbitrary" or (kind == "antisymmetric" and i < j):
            bracket[i][j] = [draw(rational_entries) for _ in range(dim)]
        if kind == "antisymmetric" and i > j:
            bracket[i][j] = [-x for x in bracket[j][i]]
    g = LieAlgebra(dim, bracket)
    rho_kind = draw(st.sampled_from(["zero", "random", "adjoint"] if dim <= 3 else
                                    ["zero", "random"]))
    if rho_kind == "adjoint":
        return adjoint_rep(g)
    dimV = draw(st.integers(1, 3))
    entry = st.just(0) if rho_kind == "zero" else rational_entries
    return Representation(g, dimV, [RMatrix.from_rows([[draw(entry) for _ in range(dimV)]
                                                       for _ in range(dimV)], dimV)
                                    for _ in range(dim)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_representations(), algebra_representations(), representations()))
def test_representation_check_matches_rmatrix_sweep(r):
    """The nonzero-list Jacobiator and the row-dict residual of rho give
    the reports of the `contract` and `RMatrix` sweeps: the same tuples,
    the same first violation and the same first four residual entries."""
    b = r.algebra.bracket
    assert jacobi_violations(b, not antisymmetry_violations(b)) == jacobi_violations_contract(b)
    assert (check_lie_algebra(r.algebra).to_json()
            == check_lie_algebra_contract(r.algebra).to_json())
    new, old = check_representation(r), check_representation_rmatrix_sweep(r)
    assert new.to_json() == old.to_json()
    assert [c.violations for c in new.checks] == [c.violations for c in old.checks]


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_representations(), representations()))
def test_coboundary_cells_match_every_pair_generator(r):
    """Degrees 0..4: the same cells in the same order as reading every
    coefficient of every pair, so the same coboundary_matrix."""
    dim, dimV = r.algebra.dim, r.dimV
    for n in range(5):
        old = list(coboundary_cells_every_pair(r, n))
        assert list(_coboundary_cells(r, n)) == old
        assert coboundary_matrix(r, n) == RMatrix.from_cells(comb(dim, n + 1) * dimV,
                                                             comb(dim, n) * dimV, old)


# ---------------------------------------------------------------------------
# S on functors and natural transformations against a solve per column

def S_on_functor_solve(F: LinearFunctor) -> ChainMap:
    """Restrict F1 to ker(s), expressed in the kernel bases."""
    src, dst = functor_S(F.source), functor_S(F.target)
    K, Kp = F.source.ker_s(), F.target.ker_s()
    img = F.f1 @ K
    cols = []
    for j in range(img.cols):
        x = solve_linear(Kp, img.col(j))
        if x is None:
            raise ValueError("functor does not preserve ker(s); cannot transport")
        cols.append(x)
    phi1 = RMatrix.from_cols(cols, rows=Kp.cols)
    return ChainMap(src, dst, F.f0, phi1)


def S_on_nat_trans_solve(n: LinearNatTrans) -> ChainHomotopy:
    """tau(x) = arrow part of theta(x), written in the target kernel basis."""
    Kp = n.from_functor.target.ker_s()
    W = n.from_functor.target
    arr = n.theta - W.i @ (W.s @ n.theta)
    cols = []
    for j in range(arr.cols):
        x = solve_linear(Kp, arr.col(j))
        assert x is not None, "arrow parts always lie in ker(s)"
        cols.append(x)
    tau = RMatrix.from_cols(cols, rows=Kp.cols)
    return ChainHomotopy(S_on_functor_solve(n.from_functor),
                         S_on_functor_solve(n.to_functor), tau)


@st.composite
def parallel_functors(draw):
    """Two functors between the same two 2-vector spaces, functor_T of
    drawn complexes, each often conjugated so that no kernel vector is a
    unit vector.  f1 = K R + Q s maps ker(s) into the target's ker(s),
    unless one drawn cell is added to it."""
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.sampled_from(rationals))

    def grid(rows, cols):
        return RMatrix.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols)

    def space():
        v = functor_T(draw(complexes()))
        if not draw(st.booleans()):
            return v
        p0, p1 = unipotent(draw, v.dim0), unipotent(draw, v.dim1)
        p0i, p1i = invert(p0), invert(p1)
        return TwoVectorSpace(v.dim0, v.dim1, p0 @ v.s @ p1i, p0 @ v.t @ p1i, p1 @ v.i @ p0i)

    v, w = space(), space()

    def functor():
        f1 = w.ker_s() @ grid(w.ker_s().cols, v.dim1) + grid(w.dim1, v.dim0) @ v.s
        if w.dim1 and v.dim1 and draw(st.booleans()):
            cell = (draw(st.integers(0, w.dim1 - 1)), draw(st.integers(0, v.dim1 - 1)))
            f1 = f1 + RMatrix.from_cells(w.dim1, v.dim1, [(cell, draw(st.integers(1, 3)))])
        return LinearFunctor(v, w, grid(w.dim0, v.dim0), f1)
    return functor(), functor(), grid(w.dim1, v.dim0)


@settings(max_examples=200, deadline=None)
@given(parallel_functors())
def test_S_matches_solve_per_column(case):
    """The same chain map or the same refusal, and the same homotopy, as
    solving against the echelon kernel basis one column at a time."""
    F, G, theta = case
    assert _raised(S_on_functor, F) == _raised(S_on_functor_solve, F)
    if _raised(S_on_functor, F)[1] is None and _raised(S_on_functor, G)[1] is None:
        n = LinearNatTrans(F, G, theta)
        assert S_on_nat_trans(n) == S_on_nat_trans_solve(n)


# ---------------------------------------------------------------------------
# the integer axiom sweep, the tables read off the structure and the sorted
# check_hom sweep against the code they replaced

@st.composite
def tensors(draw, rank):
    """A tensor of this rank over a basis of size 1 to 4 with a last slot
    of size 1 or 2: alternating in its leading slots, perhaps with one
    entry moved; antisymmetric in its first two or (rank 4) its last two
    leading slots only; or arbitrary."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    x = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    lead = rank - 1

    def at(idx):
        sub = t
        for p in idx:
            sub = sub[p]
        return sub
    t = [[[draw(x) for _ in range(m)] for _ in range(n)] for _ in range(n)]
    if rank == 4:
        t = [[[[draw(x) for _ in range(m)] for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    kind = draw(st.sampled_from(["alternating", "first two", "last two", "arbitrary"]))
    if kind == "alternating":
        for idx in product(range(n), repeat=lead):
            at(idx[:-1])[idx[-1]] = [0] * m
        for key in combinations(range(n), lead):
            val = [draw(x) for _ in range(m)]
            for perm in permutations(range(lead)):
                at([key[p] for p in perm[:-1]])[key[perm[-1]]] = [perm_sign(perm) * c for c in val]
        if draw(st.booleans()):
            at([draw(st.integers(0, n - 1)) for _ in range(lead)])[
                draw(st.integers(0, m - 1))] += draw(st.sampled_from([1, Fraction(1, 3)]))
    elif kind != "arbitrary":
        def scaled(u, c):
            return [scaled(y, c) for y in u] if isinstance(u, list) else c * u
        for sub in (t if kind == "last two" and rank == 4 else [t]):
            for i in range(n):
                sub[i][i] = scaled(sub[i][i], 0)
                for j in range(i):
                    sub[i][j] = scaled(sub[j][i], -1)
    return t


@settings(max_examples=300, deadline=None)
@given(tensors(3), tensors(4))
def test_antisymmetry_matches_the_sweeps(t, l3):
    """The flat-list comparison that passes an antisymmetric tensor with no
    sweep: the same verdict, first tuple and residual as the sweep."""
    assert antisymmetry_violations(t) == antisymmetry_violations_sweep(t)
    assert l3_antisymmetry_violations(l3) == l3_antisymmetry_violations_sweep(l3)


@st.composite
def with_denominators(draw, base):
    """base with one entry moved by a fraction, so that D > 1: one entry of
    l2_00 (often breaking (a)), one of l3 (breaking (d)), or an alternating
    move of l3 or a move of l2_01, which keep both."""
    v = copy.deepcopy(draw(base))
    n0, n1 = v.dim0, v.dim1
    idx0, idx1 = st.integers(0, n0 - 1), st.integers(0, n1 - 1)
    delta = draw(st.sampled_from([Fraction(1, 3), Fraction(-5, 7), Fraction(3, 4)]))
    which = draw(st.sampled_from(["a", "d", "alternating l3", "l2_01"]))
    if which == "a":
        v.l2_00[draw(idx0)][draw(idx0)][draw(idx0)] += delta
    elif which == "d":
        v.l3[draw(idx0)][draw(idx0)][draw(idx0)][draw(idx1)] += delta
    elif which == "alternating l3" and n0 >= 3:
        key, m = sorted(draw(st.permutations(range(n0)))[:3]), draw(idx1)
        for perm in permutations(range(3)):
            v.l3[key[perm[0]]][key[perm[1]]][key[perm[2]]][m] += perm_sign(perm) * delta
    else:
        v.l2_01[draw(idx0)][draw(idx1)][draw(idx1)] += delta
    assume(integral(v)[0] > 1)  # a move that cancels a fraction of base leaves D = 1
    return v


rational_structures = st.one_of(
    with_denominators(valid_structures()), with_denominators(antisymmetric_structures()),
    with_denominators(random_structures()))


def assert_same_reports(new: CheckReport, old: CheckReport) -> None:
    """The same JSON report and the same violations, exact residuals included."""
    assert new.to_json() == old.to_json()
    assert [c.violations for c in new.checks] == [c.violations for c in old.checks]


@settings(max_examples=150, deadline=None)
@given(rational_structures)
def test_axioms_match_rational_sweep_with_denominators(v):
    """D > 1, with (a) or (d) failing or both holding: the integer sweep
    gives the rational sweep's report, residuals divided back exactly."""
    assert integral(v)[0] > 1
    assert_same_reports(check_axioms(v), check_axioms_rational(v))


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_structures(), perturbed(valid_structures()), structures,
                 perturbed(antisymmetric_structures()), transported_structures()))
def test_axioms_match_rational_sweep(v):
    """Conjugated, rescaled, perturbed and arbitrary structures, D = 1 or
    not: the same report as the rational sweep."""
    assert_same_reports(check_axioms(v), check_axioms_rational(v))


@st.composite
def nonzero_d(draw, base):
    """base with d != 0: a zero d gets one nonzero entry."""
    v = draw(base)
    if v.d.is_zero():
        rows = [v.d.row(r) for r in range(v.dim0)]
        rows[draw(st.integers(0, v.dim0 - 1))][draw(st.integers(0, v.dim1 - 1))] = draw(
            st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        v = TwoTermLInfinity(TwoTermComplex(v.dim0, v.dim1, RMatrix.from_rows(rows, v.dim1)),
                             v.l2_00, v.l2_01, v.l3)
    return v


structures_with_d = nonzero_d(st.one_of(structures, antisymmetric_structures(),
                                        perturbed(antisymmetric_structures()),
                                        rational_structures))


@settings(max_examples=60, deadline=None)
@given(structures_with_d)
def test_generalized_jacobi_matches_unit_vector_tables(v):
    """d != 0, so the table of l1 (the columns of d) and both mixed l2
    tables enter: the same reports as tables built from unit vectors."""
    assert not v.d.is_zero()
    for arity in range(1, 5):
        assert_same_reports(generalized_jacobi(v, arity), generalized_jacobi_unit_tables(v, arity))


@settings(max_examples=100, deadline=None)
@given(structures_with_d)
def test_octagon_matches_per_tuple_sweep_with_nonzero_d(v):
    """d != 0, so the brackets of morphisms move sources and the
    Jacobiator's source part [[x,y],z], which the octagon no longer reads,
    enters every composite of the per-tuple oracle."""
    assert not v.d.is_zero()
    L = from_linfty(v)
    assert_same_reports(check_jacobiator_identity_categorical(L),
                        check_jacobiator_identity_categorical_per_tuple(L))


@st.composite
def moved_witnesses(draw):
    """A classify witness, which satisfies all three conditions of the
    sorted l3 sweep, with one of them broken (phi2 not antisymmetric, the
    source failing (a) or (d), the target's l3 not alternating) or with
    phi2 moved antisymmetrically, phi0 or phi1 moved, so that the l3
    equation fails while the sorted sweep stays in use."""
    f = classify(from_linfty(draw(transported_structures()))).witness
    src, dst, chain, phi2 = (copy.deepcopy(x) for x in (f.source, f.target, f.chain, f.phi2))
    n0, m0, m1 = src.dim0, dst.dim0, dst.dim1
    idx, jdx = st.integers(0, n0 - 1), st.integers(0, m0 - 1)
    delta = draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
    which = draw(st.sampled_from(["phi2", "phi2 antisymmetric", "source a", "source d",
                                  "target l3", "phi0", "phi1"]))
    if which.startswith("phi2"):
        i, j, m = draw(idx), draw(idx), draw(st.integers(0, m1 - 1))
        phi2[i][j][m] += delta
        if which == "phi2 antisymmetric":
            phi2[j][i][m] -= delta
    elif which == "source a":
        src.l2_00[draw(idx)][draw(idx)][draw(idx)] += delta
    elif which == "source d":
        src.l3[draw(idx)][draw(idx)][draw(idx)][draw(st.integers(0, src.dim1 - 1))] += delta
    elif which == "target l3":
        dst.l3[draw(jdx)][draw(jdx)][draw(jdx)][draw(st.integers(0, m1 - 1))] += delta
    else:
        phi = chain.phi0 if which == "phi0" else chain.phi1
        rows = [phi.row(r) for r in range(phi.rows)]
        rows[draw(st.integers(0, phi.rows - 1))][draw(st.integers(0, phi.cols - 1))] += delta
        phi = RMatrix.from_rows(rows, phi.cols)
        chain = ChainMap(chain.source, chain.target, *((phi, chain.phi1) if which == "phi0"
                                                       else (chain.phi0, phi)))
    return LInfHom(src, dst, chain, phi2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(moved_witnesses(), homomorphisms()))
def test_check_hom_matches_product_sweep(f):
    """Sorted or product-order l3 sweep, as the three conditions say: the
    same report, residuals included, as the product-order sweep that
    evaluates l3 on phi0 afresh at every triple."""
    assert_same_reports(check_hom(f), check_hom_product_sweep(f))


# ---------------------------------------------------------------------------
# axiom (i) of a two-slot structure is the cocycle condition, which lets
# classify check the transported l3 once

@st.composite
def three_cochains(draw):
    """A 3-cochain over sl2, so3 or sl3 with trivial or adjoint
    coefficients, or over an abelian algebra acting on Q or Q^2: a
    coboundary, a cocycle (plus the Killing cocycle on a trivial line) or
    arbitrary values, which on sl3 and on the abelian algebras are rarely
    closed."""
    if draw(st.booleans()):
        rep = draw(representations())
    else:
        g = draw(st.sampled_from([sl2_algebra(), so3_algebra(), sl_algebra(3)]))
        rep = trivial_rep(g, 1) if draw(st.booleans()) else adjoint_rep(g)
    kind = draw(st.sampled_from(["coboundary", "cocycle", "random"]))
    if kind == "random":
        return Cochain(rep, 3, {key: [draw(st.sampled_from([0, 1, -1, Fraction(1, 2)]))
                                      for _ in range(rep.dimV)]
                                for key in cochain_keys(rep.algebra.dim, 3)})
    w = coboundary(cochain(draw, rep, 2))
    if kind == "cocycle" and rep.dimV == 1 and not any(m.entries for m in rep.rho):
        w = w + killing_triple_cochain(rep.algebra, draw(st.sampled_from([1, Fraction(1, 2)])))
    return w


@settings(max_examples=150, deadline=None)
@given(three_cochains())
def test_axiom_i_of_two_slot_structure_is_the_cocycle_condition(w):
    assert (check_axioms(build_two_slot(w)).result("i_jacobiator_coherence").passed
            == is_cocycle(w))


def test_axiom_i_fails_on_an_open_cochain():
    """Both verdicts occur: a 3-cochain on sl3 that is not closed fails (i)."""
    rep = trivial_rep(sl_algebra(3), 1)
    w = Cochain(rep, 3, {(0, 1, 2): [1]})
    assert not is_cocycle(w)
    assert not check_axioms(build_two_slot(w)).result("i_jacobiator_coherence").passed


# ---------------------------------------------------------------------------
# build_two_slot against the structure filled through Cochain.evaluate

def two_slot_by_evaluate(rep: Representation, w: Cochain) -> TwoTermLInfinity:
    g = rep.algebra
    cx = TwoTermComplex(g.dim, rep.dimV, RMatrix.zeros(g.dim, rep.dimV))
    l2_01 = [[rep.rho[i].col(a) for a in range(rep.dimV)] for i in range(g.dim)]
    l3 = [[[w.evaluate((i, j, k)) for k in range(g.dim)]
           for j in range(g.dim)] for i in range(g.dim)]
    return TwoTermLInfinity(cx, [[list(v) for v in row] for row in g.bracket],
                            l2_01, l3)


@st.composite
def stored_three_cochains(draw):
    """A 3-cochain over so3, sl2, sl3 or abelian(4) with trivial or
    adjoint coefficients, storing none, some or all of its keys, with
    int and Fraction values and some stored vectors zero."""
    g = draw(st.sampled_from([so3_algebra(), sl2_algebra(), sl_algebra(3), abelian_algebra(4)]))
    rep = trivial_rep(g, 1) if draw(st.booleans()) else adjoint_rep(g)
    keys = list(cochain_keys(rep.algebra.dim, 3))
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    entries = st.sampled_from([0, 1, -2, Fraction(0), Fraction(1, 2), Fraction(-3, 4)])

    def value():
        if draw(st.integers(0, 3)) == 0:
            return [draw(st.sampled_from([0, Fraction(0)]))] * rep.dimV
        return [draw(entries) for _ in range(rep.dimV)]
    return Cochain(rep, 3, {key: value() for key in keys})


@settings(max_examples=100, deadline=None)
@given(stored_three_cochains())
def test_two_slot_matches_evaluate_fill(w):
    """l3 written at the orderings of the stored keys is the l3 that
    `Cochain.evaluate` gives at every triple: the same structure and the
    same axiom report."""
    v, oracle = build_two_slot(w), two_slot_by_evaluate(w.rep, w)
    assert v == oracle
    assert_same_reports(check_axioms(v), check_axioms(oracle))


# ---------------------------------------------------------------------------
# the forward pass and back substitution against Gauss-Jordan elimination

def primitive_row(row: dict) -> dict:
    """The row scaled to integers with no common factor: times the lcm of
    its denominators, then divided by the gcd of its entries."""
    den = lcm(*(x.denominator for x in row.values()))
    out = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g != 1 else out


def gauss_jordan_rref(rows: list, cols: int):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination
    over sparse {column: entry} rows without zeros, which are read and left
    as they are: (its nonzero rows top to bottom as {column: entry} dicts,
    pivot columns).

    Each row is kept as a primitive integer row, so elimination replaces a
    row by (p/g) row - (f/g) pivot row, g = gcd(p, f), and divides by the
    pivot only when the row is final.  `index` maps each column to the ids
    of the rows that hold it, pending or done, as dict keys (smaller than a
    set), so a column's holders cost time in proportion to the nonzeros.
    The form is unique, so the shortest pending holder (the lowest id on a
    tie) can be each pivot."""
    store = {i: primitive_row(r) for i, r in enumerate(rows) if r}
    index = {}
    for i, row in store.items():
        for j in row:
            index.setdefault(j, {})[i] = None
    done, pivots, finished = [], [], set()
    for c in range(cols):
        # pending rows hold no column below c, so no later step reads or
        # changes column c, and its holders leave the index here
        holders = index.pop(c, ())
        candidates = [i for i in holders if i not in finished]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (len(store[i]), i))
        row = store[best]
        p = row[c]
        rest = [(j, y, index[j]) for j, y in row.items() if j != c]
        for t in holders:
            if t == best:
                continue
            other = store[t]
            f = other.pop(c)
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in other:
                    other[j] *= a
            for j, y, hold in rest:
                x = other.get(j)
                if x is None:
                    other[j] = -b * y
                    hold[t] = None
                else:
                    x -= b * y
                    if x:
                        other[j] = x
                    else:
                        del other[j]
                        del hold[t]
            if not other:
                del store[t]
                continue
            g = gcd(*other.values())
            if g != 1:
                for j in other:
                    other[j] //= g
        finished.add(best)
        done.append(best)
        pivots.append(c)
    out = []
    for i, c in zip(done, pivots):
        row = store[i]
        p = row[c]
        out.append(row if p == 1 else
                   {j: x // p if x % p == 0 else Fraction(x, p) for j, x in row.items()})
    return out, pivots


@st.composite
def elimination_systems(draw):
    """A matrix of up to 14 x 12 whose rows are sparse random rows, zero
    rows, copies and negated copies of earlier rows, or combinations of a
    few generator rows, some scaled to Fractions throughout.  Entries run
    over -6..6 and halves and thirds, so pivots are negative and positive,
    units and non-units.  The entries come from a drawn seed, so that an
    example stays small."""
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.choice((0.2, 0.5, 0.9))

    def entry():
        return rng.choice((rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.choice((2, 3)))))

    def sparse_row():
        return [entry() if rng.random() < density else 0 for _ in range(cols)]
    gens = [sparse_row() for _ in range(rng.randint(1, 5))]
    data = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15:
            data.append(sparse_row())
        elif kind < 0.25:
            data.append([0] * cols)
        elif kind < 0.4 and data:
            data.append([rng.choice((1, -1)) * x for x in rng.choice(data)])
        else:
            row = [0] * cols
            for g in rng.sample(gens, rng.randint(1, len(gens))):
                k = rng.choice((1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)))
                row = [x + k * y for x, y in zip(row, g)]
            if rng.random() < 0.2:
                row = [Fraction(x, 7) for x in row]
            data.append(row)
    return RMatrix.from_rows(data, cols)


@settings(max_examples=400, deadline=None)
@given(elimination_systems())
def test_rref_matches_gauss_jordan(m):
    """The forward pass then back substitution gives the rows and pivots of
    Gauss-Jordan elimination, the forward pass alone its pivots, and
    rank_kernel the same rank and kernel basis."""
    before = [dict(row) for row in m.entries]
    got = _rref(m.entries, m.cols)
    assert m.entries == before  # the input rows are read and left as they are
    assert got == gauss_jordan_rref(m.entries, m.cols)
    assert pivot_columns(m) == got[1]
    with patch.object(exactlin, "_rref", gauss_jordan_rref):
        want = rank_kernel(m)
    assert rank_kernel(m) == want


def test_rref_matches_gauss_jordan_on_coboundary_systems():
    """Identical rows and pivots on delta_0..delta_3 of sl3 and delta_2 of
    sl4 with adjoint coefficients, and on one is_coboundary system."""
    sl3, sl4 = adjoint_rep(sl_algebra(3)), adjoint_rep(sl_algebra(4))
    systems = [(d.entries, d.cols) for d in
               [coboundary_matrix(sl3, n) for n in range(4)] + [coboundary_matrix(sl4, 2)]]
    systems.append(_coboundary_system_of_conjugated_ghbar_sl3())
    for rows, cols in systems:
        got = _rref(rows, cols)
        assert got == gauss_jordan_rref(rows, cols)
        assert _echelon(rows, cols)[1] == got[1]


def solvable(w: Cochain) -> bool:
    """Whether delta x = w has a solution, by solving for one."""
    m = coboundary_matrix(w.rep, w.degree - 1)
    return solve_linear(m, cochain_to_coords(w)) is not None


def test_is_coboundary_matches_solve_on_conjugated_ghbar_sl3():
    w = _conjugated_ghbar_sl3_cocycle()
    exact = coboundary(Cochain(w.rep, 2, {(0, 1): vunit(w.rep.dimV, 0),
                                          (2, 5): [Fraction(1, 3)] * w.rep.dimV}))
    assert (is_coboundary(w), solvable(w)) == (False, False)
    assert (is_coboundary(exact), solvable(exact)) == (True, True)


@st.composite
def exact_and_open_cochains(draw):
    """A cochain of degree 1..3 over a drawn representation: the coboundary
    of a drawn cochain, the same moved by one unit at one coordinate, or
    arbitrary values."""
    rep = draw(st.one_of(representations(), rational_representations()))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["exact", "moved", "random"]))
    if kind == "random":
        return cochain(draw, rep, n)
    w = coboundary(cochain(draw, rep, n - 1))
    if kind == "moved" and comb(rep.algebra.dim, n):
        key = draw(st.sampled_from(list(cochain_keys(rep.algebra.dim, n))))
        w = w + Cochain(rep, n, {key: vunit(rep.dimV, draw(st.integers(0, rep.dimV - 1)))})
    return w


@settings(max_examples=200, deadline=None)
@given(exact_and_open_cochains())
def test_is_coboundary_matches_solve(w):
    assert is_coboundary(w) == solvable(w)


# ---------------------------------------------------------------------------
# S on homomorphisms, projections of direct sums and cochain arithmetic
# against the code they replaced, verbatim

def hom_to_linf_block_read(F: Lie2Hom) -> LInfHom:
    """Read the chain map off a valid functor's block structure."""
    src, tgt = F.source.data, F.target.data
    n0s, n0t = src.dim0, tgt.dim0
    phi0 = F.functor.f0
    phi1 = RMatrix.from_rows([[F.functor.f1[n0t + b, n0s + a] for a in range(src.dim1)]
                              for b in range(tgt.dim1)], src.dim1)
    chain = ChainMap(src.complex, tgt.complex, phi0, phi1)
    return LInfHom(src, tgt, chain, [[list(v) for v in row] for row in F.f2])


def direct_sum_hstack(v: TwoVectorSpace, w: TwoVectorSpace) -> DirectSum:
    total = TwoVectorSpace(v.dim0 + w.dim0, v.dim1 + w.dim1,
                           block_diag(v.s, w.s), block_diag(v.t, w.t),
                           block_diag(v.i, w.i))

    def inc(a: TwoVectorSpace, left: bool) -> LinearFunctor:
        z0 = RMatrix.zeros(w.dim0 if left else v.dim0, a.dim0)
        z1 = RMatrix.zeros(w.dim1 if left else v.dim1, a.dim1)
        eye0, eye1 = RMatrix.identity(a.dim0), RMatrix.identity(a.dim1)
        f0 = eye0.vstack(z0) if left else z0.vstack(eye0)
        f1 = eye1.vstack(z1) if left else z1.vstack(eye1)
        return LinearFunctor(a, total, f0, f1)

    def proj(a: TwoVectorSpace, left: bool) -> LinearFunctor:
        z0 = RMatrix.zeros(a.dim0, w.dim0 if left else v.dim0)
        z1 = RMatrix.zeros(a.dim1, w.dim1 if left else v.dim1)
        eye0, eye1 = RMatrix.identity(a.dim0), RMatrix.identity(a.dim1)
        f0 = eye0.hstack(z0) if left else z0.hstack(eye0)
        f1 = eye1.hstack(z1) if left else z1.hstack(eye1)
        return LinearFunctor(total, a, f0, f1)

    return DirectSum(total, inc(v, True), inc(w, False), proj(v, True), proj(w, False))


def _prune(vals: dict) -> dict:
    return {k: v for k, v in vals.items() if any(x != 0 for x in v)}


def cochain_add_pruned(self: Cochain, other: Cochain) -> Cochain:
    self._compat(other)
    vals = {k: vadd(self.value(k), other.value(k))
            for k in cochain_keys(self.rep.algebra.dim, self.degree)}
    return Cochain(self.rep, self.degree, _prune(vals))


def cochain_scale_pruned(self: Cochain, c) -> Cochain:
    return Cochain(self.rep, self.degree,
                   _prune({k: vscale(c, v) for k, v in self.values.items()}))


def cochain_to_coords_per_entry(w: Cochain) -> list:
    return [w.value(key)[v] for key, v in cochain_basis(w.rep, w.degree)]


def coords_to_cochain_per_entry(rep: Representation, n: int, coords: list) -> Cochain:
    vals = {}
    for (key, v), c in zip(cochain_basis(rep, n), coords):
        if c:
            vals.setdefault(key, vzeros(rep.dimV))[v] = c
    return Cochain(rep, n, vals)


def test_hom_to_linf_matches_block_read(rng):
    """On valid homomorphisms, twisted ones over so3, sl2 and sl3 and the
    inclusion into an inflated target with d != 0, S reads the same
    LInfHom as the arrow block; a map that breaks ker(s) is refused."""
    homs = [twist_hom(rng, g) for g in (so3_algebra(), sl2_algebra(), sl_algebra(3))
            for _ in range(3)]
    v = homs[0].target
    big = inflate(v, 2, rand_invertible(rng, 2))
    phi0 = RMatrix.identity(v.dim0).vstack(RMatrix.zeros(2, v.dim0))
    phi1 = RMatrix.identity(v.dim1).vstack(RMatrix.zeros(2, v.dim1))
    homs.append(LInfHom(v, big, ChainMap(v.complex, big.complex, phi0, phi1),
                        zero_phi2(v.dim0, big.dim1)))
    for f in homs:
        assert check_hom(f).passed
        F = hom_from_linf(f)
        assert hom_to_linf(F) == hom_to_linf_block_read(F) == f
    G = compose_lie2_homs(hom_from_linf(homs[0]), hom_from_linf(homs[-1]))
    assert hom_to_linf(G) == hom_to_linf_block_read(G)
    F = hom_from_linf(homs[-1])
    f1 = F.functor.f1 + RMatrix.from_cells(F.functor.f1.rows, F.functor.f1.cols,
                                           [((0, F.source.dim0), 1)])
    broken = Lie2Hom(F.source, F.target,
                     LinearFunctor(F.source.space, F.target.space, F.functor.f0, f1), F.f2)
    with pytest.raises(ValueError, match="does not preserve ker"):
        hom_to_linf(broken)


@settings(max_examples=100, deadline=None)
@given(homomorphisms())
def test_S_after_T_is_the_identity_on_homomorphisms(f):
    """hom_to_linf(hom_from_linf(f)) == f, d != 0 and broken maps included."""
    F = hom_from_linf(f)
    assert hom_to_linf(F) == f
    assert hom_to_linf_block_read(F) == f


def test_direct_sum_projections_match_hstack_construction(rng):
    """The same space, inclusions and projections, the zero space included."""
    zero = TwoVectorSpace(0, 0, RMatrix.zeros(0, 0), RMatrix.zeros(0, 0), RMatrix.zeros(0, 0))
    for _ in range(10):
        v = rand_space(rng, rng.randint(1, 3), rng.randint(3, 4))
        w = rand_space(rng, rng.randint(0, 2), rng.randint(2, 3))
        for a, b in ((v, w), (w, v), (v, zero), (zero, w), (zero, zero)):
            assert direct_sum(a, b) == direct_sum_hstack(a, b)


SL3_ADJOINT = adjoint_rep(sl_algebra(3))


def sparse_cochain(draw, n: int) -> Cochain:
    """Up to six keys of degree n over sl3 adjoint, values with Fraction
    entries, sometimes a stored zero vector."""
    dimV, entry = SL3_ADJOINT.dimV, st.sampled_from([0, 0, 0, 1, -2] + rationals)
    keys = list(cochain_keys(SL3_ADJOINT.algebra.dim, n))
    vals = {k: [draw(entry) for _ in range(dimV)]
            for k in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))}
    if draw(st.booleans()):
        vals[draw(st.sampled_from(keys))] = vzeros(dimV)
    return Cochain(SL3_ADJOINT, n, vals)


@st.composite
def cochain_pairs(draw):
    """Two sparse cochains of one degree 0..3 and a scalar, zero included;
    the second cancels the first at one of its keys, at all of them, or
    neither."""
    n = draw(st.integers(0, 3))
    w1, w2 = sparse_cochain(draw, n), sparse_cochain(draw, n)
    kind = draw(st.sampled_from(["free", "cancel_key", "cancel_all"]))
    if kind == "cancel_all":
        w2 = Cochain(SL3_ADJOINT, n, {k: vneg(v) for k, v in w1.values.items()})
    elif kind == "cancel_key" and w1.values:
        key = draw(st.sampled_from(sorted(w1.values)))
        w2 = Cochain(SL3_ADJOINT, n, {**w2.values, key: vneg(w1.values[key])})
    return w1, w2, draw(st.sampled_from([0, 1, -1, 3, Fraction(2, 3), Fraction(-1, 2)]))


@settings(max_examples=200, deadline=None)
@given(cochain_pairs())
def test_cochain_arithmetic_matches_pruned_sum_and_scale(case):
    """The same sums, differences and multiples, zero keys dropped, and the
    same coordinates both ways as reading and writing one entry at a time."""
    w1, w2, c = case
    assert w1 + w2 == cochain_add_pruned(w1, w2)
    assert w1 - w2 == cochain_add_pruned(w1, cochain_scale_pruned(w2, -1))
    assert w1.scale(c) == cochain_scale_pruned(w1, c)
    for w in (w1, w2, w1 + w2):
        coords = cochain_to_coords(w)
        assert coords == cochain_to_coords_per_entry(w)
        assert (coords_to_cochain(w.rep, w.degree, coords)
                == coords_to_cochain_per_entry(w.rep, w.degree, coords))


# ---------------------------------------------------------------------------
# the sweeps over nonzero tables against the sweeps that made one contract
# call per term, and the graded antisymmetry oracle of axioms (a) and (d)

@st.composite
def table_structures(draw):
    """dim V1 from 1 to 3 and d != 0, with integer entries or Fractions;
    l2_00 antisymmetric and l3 alternating (sorted sweeps) or arbitrary
    (product-order sweeps); then perhaps one entry moved (`perturbed`)."""
    n0, n1 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    x = st.sampled_from([0, 0, 0, 1, -1, 2] + (rationals if draw(st.booleans()) else []))
    rows = [[draw(x) for _ in range(n1)] for _ in range(n0)]
    rows[draw(st.integers(0, n0 - 1))][draw(st.integers(0, n1 - 1))] = draw(
        st.sampled_from([1, -2, Fraction(1, 2)]))
    l2_00 = [[[draw(x) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
    l2_01 = [[[draw(x) for _ in range(n1)] for _ in range(n1)] for _ in range(n0)]
    l3 = [[[[draw(x) for _ in range(n1)] for _ in range(n0)] for _ in range(n0)]
          for _ in range(n0)]
    if draw(st.booleans()):
        for i, j in product(range(n0), repeat=2):   # [i][j] is read before [j][i] is set
            l2_00[i][j] = (vsub(l2_00[i][j], l2_00[j][i]) if i < j
                           else vneg(l2_00[j][i]) if i > j else vzeros(n0))
        for i, j, k in product(range(n0), repeat=3):
            key = tuple(sorted((i, j, k)))
            sign = perm_sign(tuple(sorted(range(3), key=(i, j, k).__getitem__)))
            l3[i][j][k] = (vscale(sign, l3[key[0]][key[1]][key[2]]) if len(set(key)) == 3
                           else vzeros(n1))
    v = TwoTermLInfinity(TwoTermComplex(n0, n1, RMatrix.from_rows(rows, n1)), l2_00, l2_01, l3)
    return draw(perturbed(st.just(v)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(table_structures(), structures_with_d, valid_structures()))
def test_axioms_and_octagon_match_contract_sweeps(v):
    """The same reports, first violation and exact residual included, as
    the sweeps that made one contract call per term."""
    assert_same_reports(check_axioms(v), check_axioms_contract(v))
    L = from_linfty(v)
    assert_same_reports(check_jacobiator_identity_categorical(L),
                        check_jacobiator_identity_categorical_contract(L))


@settings(max_examples=30, deadline=None)
@given(st.one_of(table_structures(), structures_with_d))
def test_generalized_jacobi_matches_contract_sweep(v):
    for arity in range(1, 5):
        assert_same_reports(generalized_jacobi(v, arity), generalized_jacobi_contract(v, arity))


def test_table_structures_reach_both_sweep_orders():
    """The strategy draws structures swept on sorted tuples and ones swept
    in product order."""
    assert is_alternating(find(table_structures(), is_alternating))
    assert not is_alternating(find(table_structures(), lambda v: not is_alternating(v)))


@st.composite
def table_homomorphisms(draw):
    """Random maps between two `table_structures`, phi2 antisymmetric or
    not, with integer or Fraction entries."""
    src, dst = draw(table_structures()), draw(table_structures())
    x = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3)])
    phi0 = RMatrix.from_rows([[draw(x) for _ in range(src.dim0)] for _ in range(dst.dim0)],
                             src.dim0)
    phi1 = RMatrix.from_rows([[draw(x) for _ in range(src.dim1)] for _ in range(dst.dim1)],
                             src.dim1)
    phi2 = [[[draw(x) for _ in range(dst.dim1)] for _ in range(src.dim0)]
            for _ in range(src.dim0)]
    if draw(st.booleans()):
        phi2 = [[vsub(phi2[i][j], phi2[j][i]) for j in range(src.dim0)]
                for i in range(src.dim0)]
    return LInfHom(src, dst, ChainMap(src.complex, dst.complex, phi0, phi1), phi2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(table_homomorphisms(), moved_witnesses(), homomorphisms()))
def test_check_hom_matches_contract_sweep(f):
    """The bracket, action and l3 equations read off nonzero tables: the
    same report, residuals included, as one contract call per term."""
    assert_same_reports(check_hom(f), check_hom_contract(f))
    n0 = f.source.dim0
    assert (list(l3_compatibility_residuals(f, product(range(n0), repeat=3)))
            == list(l3_compatibility_residuals_contract(f, product(range(n0), repeat=3))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(table_structures(), rational_structures, valid_structures()))
def test_integral_matches_nested_list_integral(v):
    D, w = integral(v)
    D_old, w_old = integral_nested(v)
    assert D == D_old
    assert (w.d, w.l2_00, w.l2_01, w.l3) == (w_old.d, w_old.l2_00, w_old.l2_01, w_old.l3)
    assert all(type(x) is int for t in (w.l2_00, w.l2_01) for row in t for vec in row
               for x in vec) or D == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(table_structures(), structures, antisymmetric_structures()))
def test_graded_antisymmetry_is_the_oracle_of_axioms_a_and_d(v):
    """check_graded_antisymmetry, moved here from linfty, where no command
    called it, is the oracle of axioms (a) and (d): its l2 sweep passes
    exactly when (a) does and its l3 sweep exactly when (d) does, since
    the mixed l2 is antisymmetric by storage and l3 vanishes off V0."""
    graded, axioms = check_graded_antisymmetry(v), check_axioms(v)
    assert (graded.result("l2_antisymmetry").passed
            == axioms.result("a_bracket_antisymmetry").passed)
    assert graded.result("l3_antisymmetry").passed == axioms.result("d_l3_antisymmetry").passed


# ---------------------------------------------------------------------------
# the crossed-module laws and the 2-homomorphism equation over nonzero
# tables against the sweeps that made one contract call per term

def check_crossed_module_contract(m: DifferentialCrossedModule) -> CheckReport:
    rep = CheckReport("differential_crossed_module")
    for name, b in (("g", m.g_bracket), ("h", m.h_bracket)):
        antisymmetric = rep.add(f"{name}_antisymmetry", antisymmetry_violations(b)).passed
        rep.add(f"{name}_jacobi", jacobi_violations(b, antisymmetric))

    g, h, t, alpha = m.g_dim, m.h_dim, m.t, m.alpha
    rep.add("t_homomorphism", first_violation(
        ((a, b), vsub(t.matvec(m.h_bracket[a][b]), contract(m.g_bracket, g, t.col(a), t.col(b))))
        for a in range(h) for b in range(h)))
    rep.add("derivation", first_violation(
        ((i, a, b), vsub(contract(alpha[i], h, m.h_bracket[a][b]),
                         vadd(contract(m.h_bracket, h, alpha[i][a], b),
                              contract(m.h_bracket, h, a, alpha[i][b]))))
        for i in range(g) for a in range(h) for b in range(h)))
    rep.add("action_homomorphism", first_violation(
        ((i, j, a), vsub(contract(alpha, h, m.g_bracket[i][j], a),
                         vsub(contract(alpha[i], h, alpha[j][a]),
                              contract(alpha[j], h, alpha[i][a]))))
        for i in range(g) for j in range(g) for a in range(h)))
    rep.add("equivariance", first_violation(
        ((i, a), vsub(t.matvec(alpha[i][a]), contract(m.g_bracket[i], g, t.col(a))))
        for i in range(g) for a in range(h)))
    rep.add("peiffer", first_violation(
        ((a, b), vsub(contract(alpha, h, t.col(a), b), m.h_bracket[a][b]))
        for a in range(h) for b in range(h)))
    rep.add("peiffer_antisymmetry", first_violation(
        ((a, b), vadd(contract(alpha, h, t.col(a), b), contract(alpha, h, t.col(b), a)))
        for a in range(h) for b in range(h)))
    return rep


def check_two_hom_contract(t: LInfTwoHom) -> CheckReport:
    """Underlying chain homotopy plus the phi2 - psi2 compatibility equation."""
    rep = CheckReport("l_infinity_two_hom")
    rep.extend(check_homotopy(t.homotopy), prefix="homotopy_")
    f, g = t.from_hom, t.to_hom
    src, dst = f.source, f.target
    n0 = src.dim0
    tau = t.homotopy.tau
    fe, ge, tc = ([m.col(i) for i in range(n0)] for m in (f.chain.phi0, g.chain.phi0, tau))
    rep.add("phi2_difference", first_violation(
        ((i, j), vsub(vsub(f.phi2[i][j], g.phi2[i][j]),
                      vsub(vsub(dst.act(fe[i], tc[j]), tau.matvec(src.l2_00[i][j])),
                           dst.act(ge[j], tc[i]))))
        for i in range(n0) for j in range(n0)))
    return rep


def random_bracket(draw, n: int, x) -> list:
    """A bracket on Q^n with entries drawn from x, antisymmetric or not."""
    b = [[[draw(x) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        b = [[vsub(b[i][j], b[j][i]) for j in range(n)] for i in range(n)]
    return b


@st.composite
def crossed_modules(draw):
    """g and h of dimension 1 to 4 with int or Fraction entries, brackets
    antisymmetric or not and t != 0; or (g, g, c, ad) with h's bracket c
    times g's, a crossed module when g is a Lie algebra; then perhaps one
    entry of a bracket, of t or of alpha moved."""
    if draw(st.booleans()):
        b = draw(st.one_of(st.builds(lambda: so3_algebra().bracket),
                           st.builds(lambda: sl2_algebra().bracket), brackets()))
        n, c = len(b), draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        m = DifferentialCrossedModule(n, b, n, [[vscale(c, v) for v in row] for row in b],
                                      RMatrix.identity(n).scale(c), b)
    else:
        g, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        x = st.sampled_from([0, 0, 0, 1, -1, 2] + (rationals if draw(st.booleans()) else []))
        rows = [[draw(x) for _ in range(h)] for _ in range(g)]
        rows[draw(st.integers(0, g - 1))][draw(st.integers(0, h - 1))] = draw(
            st.sampled_from([1, -2, Fraction(1, 2)]))
        m = DifferentialCrossedModule(g, random_bracket(draw, g, x), h, random_bracket(draw, h, x),
                                      RMatrix.from_rows(rows, h),
                                      [[[draw(x) for _ in range(h)] for _ in range(h)]
                                       for _ in range(g)])
    m = copy.deepcopy(m)
    gdx, hdx = st.integers(0, m.g_dim - 1), st.integers(0, m.h_dim - 1)
    delta = draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
    which = draw(st.sampled_from(["none", "g", "h", "t", "alpha"]))
    if which == "g":
        m.g_bracket[draw(gdx)][draw(gdx)][draw(gdx)] += delta
    elif which == "h":
        m.h_bracket[draw(hdx)][draw(hdx)][draw(hdx)] += delta
    elif which == "alpha":
        m.alpha[draw(gdx)][draw(hdx)][draw(hdx)] += delta
    elif which == "t":
        rows = [m.t.row(r) for r in range(m.g_dim)]
        rows[draw(gdx)][draw(hdx)] += delta
        m.t = RMatrix.from_rows(rows, m.h_dim)
    return m


@settings(max_examples=300, deadline=None)
@given(crossed_modules())
def test_crossed_module_matches_contract_sweep(m):
    """The six laws read off nonzero tables: the same report, residuals
    included, as one contract call per term."""
    assert_same_reports(check_crossed_module(m), check_crossed_module_contract(m))


def test_crossed_modules_reach_passing_and_failing_laws():
    """The strategy draws crossed modules that pass all six laws and ones
    where each law fails."""
    unshrunk = settings(phases=[Phase.generate], database=None)
    assert find(crossed_modules(), lambda m: check_crossed_module(m).passed, settings=unshrunk)
    for law in ("t_homomorphism", "derivation", "action_homomorphism", "equivariance",
                "peiffer", "peiffer_antisymmetry"):
        assert find(crossed_modules(), lambda m: not check_crossed_module(m).result(law).passed,
                    settings=unshrunk)


@st.composite
def two_homomorphisms(draw):
    """Two parallel homomorphisms and a tau: phi from `table_homomorphisms`
    or `homomorphisms`, and psi random or read off phi and tau so that the
    homotopy and the phi2 - psi2 equation hold, then perhaps one entry of
    psi2 moved."""
    f = draw(st.one_of(table_homomorphisms(), homomorphisms()))
    src, dst, n0, m1 = f.source, f.target, f.source.dim0, f.target.dim1
    x = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3)])
    tau = RMatrix.from_rows([[draw(x) for _ in range(n0)] for _ in range(m1)], n0)
    if draw(st.booleans()):
        chain = ChainMap(src.complex, dst.complex, f.chain.phi0 + dst.d @ tau,
                         f.chain.phi1 + tau @ src.d)
        fe, ge, tc = ([m.col(i) for i in range(n0)] for m in (f.chain.phi0, chain.phi0, tau))
        psi2 = [[vsub(vadd(vsub(f.phi2[i][j], dst.act(fe[i], tc[j])),
                           tau.matvec(src.l2_00[i][j])), vneg(dst.act(ge[j], tc[i])))
                 for j in range(n0)] for i in range(n0)]
    else:
        chain = ChainMap(src.complex, dst.complex,
                         *(RMatrix.from_rows([[draw(x) for _ in range(p.cols)]
                                              for _ in range(p.rows)], p.cols)
                           for p in (f.chain.phi0, f.chain.phi1)))
        psi2 = [[[draw(x) for _ in range(m1)] for _ in range(n0)] for _ in range(n0)]
    if draw(st.booleans()):
        psi2[draw(st.integers(0, n0 - 1))][draw(st.integers(0, n0 - 1))][
            draw(st.integers(0, m1 - 1))] += draw(st.sampled_from([-1, Fraction(1, 2)]))
    g = LInfHom(src, dst, chain, psi2)
    return LInfTwoHom(f, g, ChainHomotopy(f.chain, g.chain, tau))


@settings(max_examples=300, deadline=None)
@given(two_homomorphisms())
def test_two_hom_matches_contract_sweep(t):
    """The phi2 - psi2 equation read off nonzero tables: the same report,
    residuals included, as one contract call per term."""
    assert_same_reports(check_two_hom(t), check_two_hom_contract(t))


def test_two_homomorphisms_reach_passing_and_failing_equations():
    def passes(t):
        return check_two_hom(t).result("phi2_difference").passed
    assert passes(find(two_homomorphisms(), passes))
    assert not passes(find(two_homomorphisms(), lambda t: not passes(t)))
