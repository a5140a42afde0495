"""Braiding operators: the Yang-Baxter operator attached to a bracket
and the categorified braiding with its tetrahedron equation.

Basis order everywhere: the ground slot comes first in k + L, and
tensor powers use the flat lexicographic indexing of exactlin.kron.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import isqrt

from .cohomology import LieAlgebra
from .exactlin import RMatrix, kron, vunit
from .lie2 import SemistrictLie2Algebra, bracket_morphisms
from .linfty import antisymmetry_violations, check_axioms
from .report import CheckReport, CheckResult
from .twovect import (CellLeaf, CellVert, CellWhiskerL, CellWhiskerR, LinearFunctor,
                      LinearNatTrans, Morphism, TwoVectorSpace, compose_functors,
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
    """Row-by-row comparison of both Yang-Baxter composites of the braid b:
    the first failing cell in row-major order, with lhs - rhs there.  Rows
    hold no zeros, so two rows agree exactly when their dicts are equal."""
    rep = CheckReport("yang_baxter")
    lhs, rhs = yang_baxter_sides(b)
    for i, (a, c) in enumerate(zip(lhs.entries, rhs.entries)):
        if a != c:
            j = min(k for k in a.keys() | c.keys() if a.get(k, 0) != c.get(k, 0))
            rep.add("yang_baxter_equation", [((i, j), a.get(j, 0) - c.get(j, 0))])
            return rep
    rep.add("yang_baxter_equation", [])
    return rep


# ---------------------------------------------------------------------------
# the categorified braiding

@dataclass
class TetraY:
    """The braiding, Y's Jacobiator and Y's hypotheses.  Y's component at
    an object u is i(F0 u) + J u, where F = (B ox 1)(1 ox B)(B ox 1) is its
    source functor: the identity on F0 u plus J, the arrow part the
    tetrahedron sweep reads."""
    space: TwoVectorSpace           # k + L
    braid: LinearFunctor            # B on (k + L) tensor itself
    jacobiator: RMatrix             # J on (k + L)^(ox 3), on the (ground, ground, L) line
    hypotheses: CheckReport
    condition_i: CheckResult        # axiom (i), which the tetrahedron equation detects

    @cached_property
    def y(self) -> LinearNatTrans:
        """(B ox 1)(1 ox B)(B ox 1) => (1 ox B)(B ox 1)(1 ox B) as matrices on
        (k + L)^(ox 3), built on first use; `tetrahedron_sides` reads it."""
        lp3 = tensor_2vs(self.braid.source, self.space)
        (s0, t0), (s1, t1) = yang_baxter_sides(self.braid.f0), yang_baxter_sides(self.braid.f1)
        source, target = LinearFunctor(lp3, lp3, s0, s1), LinearFunctor(lp3, lp3, t0, t1)
        return LinearNatTrans(source, target, lp3.i @ s0 + self.jacobiator)


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
    on the (ground, ground, L) line.  Y's hypotheses are checked one basis
    vector at a time (`check_Y`)."""
    v = L.data
    ax = check_axioms(v)
    hypotheses = CheckReport("tetrahedron_hypotheses",
                             [c for c in ax.checks if c.name != "i_jacobiator_coherence"])

    lp = direct_sum(ground_field(), L.space).space
    braid = build_braid_functor(L, lp)
    n0 = L.dim0
    arrows = (((1 + n0 + m, col), c)  # flat (0, 0, 1 + n0 + m) in the morphism cube
              for col, trip in enumerate(product(range(lp.dim0), repeat=3)) if all(trip)
              for m, c in enumerate(v.l3_eval(*(t - 1 for t in trip))))
    jacobiator = RMatrix.from_cells(lp.dim1 ** 3, lp.dim0 ** 3, arrows)
    ty = TetraY(lp, braid, jacobiator, hypotheses, ax.result("i_jacobiator_coherence"))
    hypotheses.extend(check_Y(ty), prefix="y_")
    return ty


# Y's source and target functors on (k + L)^(ox 3), as words in the braids on
# slots (1, 2) and (2, 3), diagram order
YB_SOURCE, YB_TARGET = (0, 1, 0), (1, 0, 1)


def _cube(cols: list, dim: int, vec: dict) -> dict:
    """A map of k + L, given by its `_columns`, on each of the three slots of
    a {flat index: entry} vector; dim is the map's target dimension."""
    n = len(cols)
    out = {}
    for idx, x in vec.items():
        for p, y in cols[idx // (n * n)]:
            for q, z in cols[idx // n % n]:
                for r, e in cols[idx % n]:
                    k = (p * dim + q) * dim + r
                    out[k] = out.get(k, 0) + x * y * z * e
    return out


def _word(vec: dict, braids: list, word: tuple) -> dict:
    """A {flat index: entry} vector through a word of `_slot_braids`."""
    for b in word:
        vec = _push(vec, braids[b])
    return vec


def check_Y(ty: TetraY) -> CheckReport:
    """`check_nat_trans` of Y, one basis vector at a time, with no matrix on
    (k + L)^(ox 3): the same checks and, for each, every nonzero cell of
    its residual in row-major order.  Y's component at an object x is
    i(F0 x) + J x, and F and G (`YB_SOURCE`, `YB_TARGET`) act by pushing
    through the braids on two of three slots.  The row checks read
    s(Y u) - F0 u and t(Y u) - G0 u at each basis object u.  On k + L,
    s = [I 0], so the echelon basis of ker s on the third tensor power is
    the unit vector at each morphism tensor with an arrow slot (index >=
    dim0), in index order; naturality reads arrow(Y(t h)) - (G1 - F1) h
    at each of them."""
    lp = ty.space
    d0, d1 = lp.dim0, lp.dim1
    f0, f1 = _slot_braids(ty.braid.f0, d0, 3), _slot_braids(ty.braid.f1, d1, 3)
    s, t, i = (_columns(m) for m in (lp.s, lp.t, lp.i))
    jcols = _columns(ty.jacobiator)

    def y_at(x: dict, fx: dict) -> dict:  # Y at the object vector x, given F0 x
        out = _cube(i, d1, fx)
        for w, c in x.items():
            _add(out, jcols[w], c)
        return out

    source_row, target_row, naturality = [], [], []
    for u in range(d0 ** 3):
        obj = {u: 1}
        fu, gu = _word(obj, f0, YB_SOURCE), _word(obj, f0, YB_TARGET)
        yu = y_at(obj, fu)
        for cells, ends, end in ((source_row, s, fu), (target_row, t, gu)):
            resid = _cube(ends, d0, yu)
            _add(resid, end.items(), -1)
            cells += [((k, u), x) for k, x in resid.items() if x]
    kernel = (m for m in range(d1 ** 3) if max(m // (d1 * d1), m // d1 % d1, m % d1) >= d0)
    for col, m in enumerate(kernel):
        h, th = {m: 1}, _cube(t, d0, {m: 1})
        resid = y_at(th, _word(th, f0, YB_SOURCE)) if th else {}
        _add(resid, _cube(i, d1, _cube(s, d0, resid)).items(), -1)  # the arrow part
        _add(resid, _word(h, f1, YB_TARGET).items(), -1)
        _add(resid, _word(h, f1, YB_SOURCE).items(), 1)
        naturality += [((k, col), x) for k, x in resid.items() if x]
    rep = CheckReport("linear_nat_trans")
    for name, cells in (("source_row", source_row), ("target_row", target_row),
                        ("naturality", naturality)):
        rep.add(name, sorted(cells))
    return rep


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


def _slot_braids(b: RMatrix, d: int, n: int) -> list:
    """The braid b on the square of a space of dimension d, acting on each
    pair of adjacent slots of its n-th tensor power, the first pair first:
    for each, the stride of the pair's flat index, the number d^2 of pairs
    and, for each pair, the (index shift, entry) list of its column.
    Moving the pair p to q moves every flat index that holds p by (q - p)
    times the stride."""
    cols = _columns(b)
    out = []
    for slot in range(n - 1):
        low = d ** (n - 2 - slot)
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


def _pull(objs: set, braid: tuple) -> set:
    """The objects that a braid of `_slot_braids`, given transposed, sends
    to a vector with a component in objs, cancellation ignored: a superset
    of those it sends there with a nonzero component."""
    low, dd, shifts = braid
    return {idx + shift for idx in objs for shift, _ in shifts[idx // low % dd]}


def _j_reach(ty: TetraY) -> list:
    """For each cell (P, s, S) of `TETRA_LHS` and of `TETRA_RHS`, the basis
    objects u of (k + L)^(ox 4) at which it may read J: those whose object
    vector P u may have a component on an object whose s-window (w123 for
    s = 0, w234 for s = 1) is a nonzero column of J.  J's window support
    is pulled back through each prefix word with the transposed object
    braids, on sets and so ignoring cancellation; words sharing a suffix
    share its pullback."""
    d0 = ty.space.dim0
    d03 = d0 ** 3
    f0t = _slot_braids(ty.braid.f0.transpose(), d0, 4)
    windows = [w for w, col in enumerate(ty.jacobiator.transpose().entries) if col]
    pulled = {(0, ()): {w * d0 + w4 for w in windows for w4 in range(d0)},
              (1, ()): {w1 * d03 + w for w1 in range(d0) for w in windows}}

    def pull(s: int, word: tuple) -> set:
        if (s, word) not in pulled:
            pulled[s, word] = _pull(pull(s, word[1:]), f0t[word[0]])
        return pulled[s, word]
    return [[pull(s, pre) for pre, s, _ in cells] for cells in (TETRA_LHS, TETRA_RHS)]


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
    through the braids of S (B.f1 on two slots); i(w) must be the unit arrow
    w, as on k + L (i = block_diag(1, [I; 0])).  J is read from a table of
    its nonzero columns.  The object of each prefix P at u is pushed at
    most once, when a cell first reads it, from its own longest prefix.

    A cell's arrow part at u is zero when no object of P u has its window
    in J's nonzero columns.  The support of P u lies within what pushing
    u's support through P on sets reaches, so the cell's set in `_j_reach`
    holds every object where its arrow part is nonzero, and the cell is
    skipped at every other object.  An object in no cell's set has empty
    arrow parts on both sides; it is yielded with two empty dicts, without
    a push."""
    d0, d1 = ty.space.dim0, ty.space.dim1
    f0, f1 = _slot_braids(ty.braid.f0, d0, 4), _slot_braids(ty.braid.f1, d1, 4)
    d03, d13 = d0 ** 3, d1 ** 3
    # J's nonzero columns, shifted for J ox i (s = 0) and as they stand for i ox J
    jcols = {w: col for w, col in enumerate(_columns(ty.jacobiator)) if col}
    windows = ({w: [(k * d1, x) for k, x in col] for w, col in jcols.items()}, jcols)
    # the object words the cells read, as steps (parent, b)
    steps, index = [], {(): 0}

    def step(word: tuple) -> int:
        if word not in index:
            steps.append((step(word[:-1]), word[-1]))
            index[word] = len(steps)
        return index[word]
    reach = _j_reach(ty)
    plans = [[(step(pre), s, post, cell_reach) for (pre, s, post), cell_reach in zip(cells, sets)]
             for cells, sets in zip((TETRA_LHS, TETRA_RHS), reach)]
    reached = set().union(*reach[0], *reach[1])

    def obj(objs: dict, k: int) -> dict:  # the object of step k, pushed on first use
        if k not in objs:
            parent, b = steps[k - 1]
            objs[k] = _push(obj(objs, parent), f0[b])
        return objs[k]

    def side(u: int, objs: dict, plan) -> dict:
        out = {}
        for pre, s, post, cell_reach in plan:
            if u not in cell_reach:
                continue
            table, vec = windows[s], {}
            for w, c in obj(objs, pre).items():
                # the s-window of w and the index J's entries there are shifted by
                win, shift = (divmod(w, d0) if s == 0 else (w % d03, w // d03 * d13))
                for k, x in table.get(win, ()):
                    k += shift
                    vec[k] = vec.get(k, 0) + c * x
            if vec:
                for b in post:
                    vec = _push(vec, f1[b])
                _add(out, vec.items(), 1)
        return {k: x for k, x in out.items() if x}

    for u in range(d0 ** 4):
        if u not in reached:
            yield u, {}, {}
            continue
        objs = {0: {u: 1}}
        yield (u, *(side(u, objs, plan) for plan in plans))


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
