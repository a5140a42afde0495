"""Braiding operators: the Yang-Baxter operator attached to a bracket
and the categorified braiding with its tetrahedron equation.

Basis order everywhere: the ground slot comes first in k + L, and
tensor powers use the flat lexicographic indexing of exactlin.kron.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isqrt

from .cohomology import LieAlgebra
from .exactlin import RMatrix, kron, vunit
from .lie2 import SemistrictLie2Algebra, bracket_morphisms
from .linfty import antisymmetry_violations, check_axioms
from .report import CheckReport, CheckResult, grid_violations
from .twovect import (CellLeaf, CellVert, CellWhiskerL, CellWhiskerR, LinearFunctor,
                      LinearNatTrans, Morphism, TwoVectorSpace, check_nat_trans, compose_functors,
                      direct_sum, ground_field, identity_functor, identity_nat,
                      tensor_2vs, tensor_functor, tensor_nat)


def build_B_vect(g: LieAlgebra) -> RMatrix:
    """B((a,x) ox (b,y)) = (b,y) ox (a,x) + (1,0) ox (0,[x,y]) on (k + g)^2.

    Requires an antisymmetric bracket; the Jacobi identity is not
    assumed (the Yang-Baxter check detects exactly its failure).
    """
    asym = antisymmetry_violations(g.bracket)
    if asym:
        raise ValueError(f"bracket is not antisymmetric at {asym[0][0]}")
    return _swap_plus_bracket(g.dim, lambda i, j: g.bracket[i][j])


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


def yang_baxter_sides(b: RMatrix):
    """(B ox 1)(1 ox B)(B ox 1) and (1 ox B)(B ox 1)(1 ox B), diagram order, for
    a braid matrix b on V ox V: on V^(ox 3), where dim V = isqrt(b.rows)."""
    eye = RMatrix.identity(isqrt(b.rows))
    b1, b2 = kron(b, eye), kron(eye, b)
    return b1 @ (b2 @ b1), b2 @ (b1 @ b2)


def check_ybe(b: RMatrix) -> CheckReport:
    """Entry-wise comparison of both Yang-Baxter composites of the braid b."""
    rep = CheckReport("yang_baxter")
    lhs, rhs = yang_baxter_sides(b)
    rep.add("yang_baxter_equation", grid_violations(lhs - rhs)[:1])  # the first failing cell
    return rep


# ---------------------------------------------------------------------------
# the categorified braiding

@dataclass
class TetraY:
    """The braiding, Y and Y's hypotheses.  Y's components are
    y.theta = i @ y.from_functor.f0 + jacobiator: the identity on the
    source functor plus J, the arrow part the tetrahedron sweep reads."""
    space: TwoVectorSpace           # k + L
    braid: LinearFunctor            # B on (k + L) tensor itself
    y: LinearNatTrans               # (B ox 1)(1 ox B)(B ox 1) => (1 ox B)(B ox 1)(1 ox B)
    jacobiator: RMatrix             # J on (k + L)^(ox 3), on the (ground, ground, L) line
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
    """Y between the two triple-braid composites of `yang_baxter_sides`,
    on objects and on morphisms: the component at an object u is the
    identity plus the Jacobiator's arrow at the projection of u, injected
    on the (ground, ground, L) line."""
    v = L.data
    ax = check_axioms(v)
    hypotheses = CheckReport("tetrahedron_hypotheses",
                             [c for c in ax.checks if c.name != "i_jacobiator_coherence"])

    lp = direct_sum(ground_field(), L.space).space
    braid = build_braid_functor(L, lp)
    lp3 = tensor_2vs(braid.source, lp)
    (s0, t0), (s1, t1) = yang_baxter_sides(braid.f0), yang_baxter_sides(braid.f1)
    yb_source, yb_target = LinearFunctor(lp3, lp3, s0, s1), LinearFunctor(lp3, lp3, t0, t1)

    n0 = L.dim0
    arrows = (((1 + n0 + m, col), c)  # flat (0, 0, 1 + n0 + m) in the morphism cube
              for col, trip in enumerate(product(range(lp.dim0), repeat=3)) if all(trip)
              for m, c in enumerate(v.l3_eval(*(t - 1 for t in trip))))
    jacobiator = RMatrix.from_cells(lp.dim1 ** 3, lp.dim0 ** 3, arrows)
    y = LinearNatTrans(yb_source, yb_target, lp3.i @ yb_source.f0 + jacobiator)
    hypotheses.extend(check_nat_trans(y), prefix="y_")
    return TetraY(lp, braid, y, jacobiator, hypotheses, ax.result("i_jacobiator_coherence"))


def tetrahedron_sides(ty: TetraY):
    """Both vertical composites of the tetrahedron equation as 2-cell
    expression trees on the fourth tensor power: the materialised form of
    TETRA_LHS and TETRA_RHS, which `eval_cell_expr` evaluates to matrices
    and tests compare `tetrahedron_components` against."""
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


# The tetrahedron equation object by object.  The braids of (k + L)^(ox 4)
# on slots (1, 2), (2, 3) and (3, 4) are named by their first slot, 0-based.
B12, B23, B34 = 0, 1, 2
# Each side of tetrahedron_sides is four cells (P, s, S), in order: the
# functor word P, then Y on slots s+1..s+3 with the identity on the other
# slot, then the word S; words are in diagram order.
TETRA_LHS = (((), 0, (B34, B23, B12)), ((B23, B12), 1, (B12,)),
             ((B23, B34), 0, (B34,)), ((), 1, (B12, B23, B34)))
TETRA_RHS = (((B12, B23, B34), 0, ()), ((B12,), 1, (B12, B23)),
             ((B34,), 0, (B34, B23)), ((B34, B23, B12), 1, ()))


def _columns(m: RMatrix) -> list:
    """The nonzero entries of each column of m, as (row, entry) lists."""
    return [list(col.items()) for col in m.transpose().entries]


def _slot_braids(b: RMatrix, d: int) -> list:
    """The braid b on the square of a space of dimension d, acting on slots
    (1, 2), (2, 3) and (3, 4) of its fourth tensor power: for each slot, the
    stride of the pair's flat index, the number d^2 of pairs and, for each
    pair, the (index shift, entry) list of its column.  Moving the pair p
    to q moves every flat index that holds p by (q - p) times the stride."""
    cols = _columns(b)
    out = []
    for slot in (B12, B23, B34):
        low = d ** (2 - slot)
        out.append((low, d * d,
                    [[((q - p) * low, x) for q, x in col] for p, col in enumerate(cols)]))
    return out


def _push(vec: dict, braid: tuple) -> dict:
    """A {flat index: entry} vector through one braid of `_slot_braids`."""
    low, dd, shifts = braid
    out = {}
    for idx, x in vec.items():
        for shift, y in shifts[idx // low % dd]:
            k = idx + shift
            if k in out:
                out[k] += x * y
            else:
                out[k] = x * y
    return out


def _add(acc: dict, vec, c) -> None:
    for k, x in vec:
        if k in acc:
            acc[k] += c * x
        else:
            acc[k] = c * x


def tetrahedron_components(ty: TetraY):
    """Yield every basis object u of (k + L)^(ox 4), in flat order, with
    the arrow parts of both sides of the tetrahedron equation at u, as
    {morphism index: entry} dicts without zeros.

    Each side's component at u is i of the first cell's source word at u
    plus its arrow part.  That word is the same on both sides modulo
    b12 b34 = b34 b12 (`TETRA_LHS` and `TETRA_RHS` fix it), so the sides
    agree at u exactly when the arrow parts do, with the same residual.
    Y = i(yb_source) + J, and B.f1 (i ox i) = (i ox i) B.f0 for every
    bracket (the bracket of two identities has arrow 0), so the identity
    part of a whiskered cell is i of its source word at u.  A cell's
    target word equals the next cell's source word as a matrix (b12 b34 =
    b34 b12 = B ox B), so these telescope against the middle identities
    that the vertical composite subtracts (`vertical_nat`).

    No matrix on the fourth tensor power is built.  For each cell, u goes
    through the braids of P (B.f0 on two slots), J ox i at w = w123 w4 is
    J(w123) ox i(w4) and i ox J is i(w1) ox J(w234), and the result goes
    through the braids of S (B.f1 on two slots).  The objects of the
    prefixes P are computed once per u, sharing their own prefixes."""
    d0, d1 = ty.space.dim0, ty.space.dim1
    f0, f1 = _slot_braids(ty.braid.f0, d0), _slot_braids(ty.braid.f1, d1)
    ident, jcols = _columns(ty.space.i), _columns(ty.jacobiator)
    d03, d13 = d0 ** 3, d1 ** 3
    # the object words the cells read, as steps (parent, b)
    steps, index = [], {(): 0}

    def step(word: tuple) -> int:
        if word not in index:
            steps.append((step(word[:-1]), word[-1]))
            index[word] = len(steps)
        return index[word]
    plans = [[(step(pre), s, post) for pre, s, post in cells] for cells in (TETRA_LHS, TETRA_RHS)]

    def j_at(s: int, w: int) -> list:
        if s == 0:
            w123, w4 = divmod(w, d0)
            return [(k * d1 + j, x * z) for k, x in jcols[w123] for j, z in ident[w4]]
        w1, w234 = divmod(w, d03)
        return [(j * d13 + k, z * x) for j, z in ident[w1] for k, x in jcols[w234]]

    def side(objs: list, plan) -> dict:
        out = {}
        for pre, s, post in plan:
            vec = {}
            for w, c in objs[pre].items():
                _add(vec, j_at(s, w), c)
            if vec:
                for b in post:
                    vec = _push(vec, f1[b])
                _add(out, vec.items(), 1)
        return {k: x for k, x in out.items() if x}

    for u in range(d0 ** 4):
        objs = [{u: 1}]
        for parent, b in steps:
            objs.append(_push(objs[parent], f0[b]))
        yield (u, *(side(objs, plan) for plan in plans))


def check_zamolodchikov(ty: TetraY) -> CheckReport:
    """Compare both sides of the tetrahedron equation at every basis
    object of the fourth tensor power, object by object
    (`tetrahedron_components`), stopping at the first object where the
    components differ.  The endpoint functors agree for every input, and
    the components differ exactly where the arrow parts do, by the same
    residual."""
    rep = CheckReport("zamolodchikov_tetrahedron")
    # the tables fix both endpoint words, equal since b12 b34 = b34 b12 = B ox B for every B
    rep.add_pass("endpoint_functors")
    d0, d1 = ty.space.dim0, ty.space.dim1
    for u, lhs, rhs in tetrahedron_components(ty):
        diff = dict(lhs)
        _add(diff, rhs.items(), -1)
        if any(diff.values()):
            loc = (u // d0 ** 3, (u // d0 ** 2) % d0, (u // d0) % d0, u % d0)
            rep.add("component_equality", [(loc, [diff.get(k, 0) for k in range(d1 ** 4)])])
            return rep
    rep.add("component_equality", [])
    return rep
