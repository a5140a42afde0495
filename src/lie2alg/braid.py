"""Braiding operators: the Yang-Baxter operator attached to a bracket
and the categorified braiding with its tetrahedron equation.

Basis order everywhere: the ground slot comes first in k + L, and
tensor powers use the flat lexicographic indexing of exactlin.kron.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import LieAlgebra
from .exactlin import RMatrix, kron, vunit
from .lie2 import SemistrictLie2Algebra, bracket_morphisms
from .linfty import antisymmetry_violations, check_axioms
from .report import CheckReport, CheckResult, first_violation
from .twovect import (CellLeaf, CellVert, CellWhiskerL, CellWhiskerR, LinearFunctor,
                      LinearNatTrans, Morphism, TwoVectorSpace, check_nat_trans, compose_functors,
                      direct_sum, eval_cell_expr, ground_field, identity_functor, identity_nat,
                      tensor_2vs, tensor_functor, tensor_nat)


@dataclass
class YBOperator:
    base: LieAlgebra
    b: RMatrix  # on (k + g) tensor (k + g)


def build_B_vect(g: LieAlgebra) -> YBOperator:
    """B((a,x) ox (b,y)) = (b,y) ox (a,x) + (1,0) ox (0,[x,y]).

    Requires an antisymmetric bracket; the Jacobi identity is not
    assumed (the Yang-Baxter check detects exactly its failure).
    """
    asym = antisymmetry_violations(g.bracket)
    if asym:
        raise ValueError(f"bracket is not antisymmetric at {asym[0][0]}")
    return YBOperator(g, _swap_plus_bracket(g.dim, lambda i, j: g.bracket[i][j]))


def _swap_plus_bracket(n: int, bracket) -> RMatrix:
    """(a,x) ox (b,y) |-> (b,y) ox (a,x) + (1,0) ox (0,[x,y]) on (k + V)^2 with
    dim V = n, where bracket(i, j) is the bracket of basis vectors i and j of V."""
    dim = 1 + n

    def cells():
        for i, j in product(range(dim), repeat=2):
            yield (j * dim + i, i * dim + j), 1  # the swap
            if i and j:  # (1,0) ox (0,[x,y]): flat index (0, 1+k)
                for k, c in enumerate(bracket(i - 1, j - 1)):
                    yield (0 * dim + (1 + k), i * dim + j), c
    return RMatrix.from_cells(dim * dim, dim * dim, cells())


def yang_baxter_sides(op: YBOperator):
    """Matrices of (B ox 1)(1 ox B)(B ox 1) and (1 ox B)(B ox 1)(1 ox B)
    on the triple tensor power, diagram order."""
    dim = 1 + op.base.dim
    eye = RMatrix.identity(dim)
    b1 = kron(op.b, eye)
    b2 = kron(eye, op.b)
    lhs = b1 @ (b2 @ b1)
    rhs = b2 @ (b1 @ b2)
    return lhs, rhs


def check_ybe(op: YBOperator) -> CheckReport:
    """Entry-wise comparison of both Yang-Baxter composites."""
    rep = CheckReport("yang_baxter")
    lhs, rhs = yang_baxter_sides(op)
    # the first failing cell: the smallest column of the first nonzero row
    first = next((((i, min(row)), row[min(row)])
                  for i, row in enumerate((lhs - rhs).entries) if row), None)
    rep.add("yang_baxter_equation", [first] if first else [])
    return rep


# ---------------------------------------------------------------------------
# the categorified braiding

@dataclass
class TetraY:
    space: TwoVectorSpace           # k + L
    braid: LinearFunctor            # B on (k + L) tensor itself
    y: LinearNatTrans               # (B ox 1)(1 ox B)(B ox 1) => (1 ox B)(B ox 1)(1 ox B)
    hypotheses: CheckReport
    condition_i: CheckResult        # axiom (i), which the tetrahedron equation detects


def build_braid_functor(L: SemistrictLie2Algebra, lp: TwoVectorSpace) -> LinearFunctor:
    """The braiding on objects and morphisms of (k + L) tensor itself."""
    lplp = tensor_2vs(lp, lp)

    def bracket_arrows(p: int, q: int) -> list:
        m = L.space.dim1
        return bracket_morphisms(L, Morphism(L.space, vunit(m, p)),
                                 Morphism(L.space, vunit(m, q))).vec
    return LinearFunctor(lplp, lplp,
                         _swap_plus_bracket(L.dim0, lambda i, j: L.data.l2_00[i][j]),
                         _swap_plus_bracket(L.space.dim1, bracket_arrows))


def build_Y(L: SemistrictLie2Algebra) -> TetraY:
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
    # the component at x is the identity on yb_source(x) plus the Jacobiator's arrow
    theta = lp3.i @ yb_source.f0 + RMatrix.from_cells(lp.dim1 ** 3, lp.dim0 ** 3, arrows)
    y = LinearNatTrans(yb_source, yb_target, theta)
    hypotheses.extend(check_nat_trans(y), prefix="y_")
    return TetraY(lp, braid, y, hypotheses, ax.result("i_jacobiator_coherence"))


def tetrahedron_sides(ty: TetraY):
    """Both vertical composites of the tetrahedron equation as 2-cell
    expression trees on the fourth tensor power."""
    lp = ty.space
    id_lp = identity_functor(lp)
    lplp = tensor_2vs(lp, lp)
    id_lplp = identity_functor(lplp)
    b = ty.braid
    b12 = tensor_functor(tensor_functor(b, id_lp), id_lp)
    b23 = tensor_functor(tensor_functor(id_lp, b), id_lp)
    b34 = tensor_functor(id_lplp, b)

    y1 = CellLeaf(tensor_nat(ty.y, identity_nat(id_lp)))    # Y ox 1, built once
    y2 = CellLeaf(tensor_nat(identity_nat(id_lp), ty.y))    # 1 ox Y, built once

    def chain(*fs):
        out = fs[0]
        for f in fs[1:]:
            out = compose_functors(out, f)
        return out

    b_432, b_234 = chain(b34, b23, b12), chain(b12, b23, b34)
    lhs = CellVert(CellVert(CellVert(
        CellWhiskerR(y1, b_432),
        CellWhiskerR(CellWhiskerL(chain(b23, b12), y2), b12)),
        CellWhiskerR(CellWhiskerL(chain(b23, b34), y1), b34)),
        CellWhiskerR(y2, b_234))
    rhs = CellVert(CellVert(CellVert(
        CellWhiskerL(b_234, y1),
        CellWhiskerR(CellWhiskerL(b12, y2), chain(b12, b23))),
        CellWhiskerR(CellWhiskerL(b34, y1), chain(b34, b23))),
        CellWhiskerL(b_432, y2))
    return lhs, rhs


def check_zamolodchikov(ty: TetraY) -> CheckReport:
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

