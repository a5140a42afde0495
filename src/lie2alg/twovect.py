"""Categories internal to Vect: 2-vector spaces and their 2-category.

A 2-vector space is stored as (V0, V1, s, t, i) with s i = t i = 1;
composition is derived from arrow parts and never stored.  A morphism
is a vector f in V1 with source s f, target t f and arrow part
f - i(s f); composing f then g adds arrow parts.

Composites are diagram order throughout: ``compose_functors(F, G)`` is
"F then G", matching the convention that the composite of f: x -> y
and g: y -> z is written f g.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import (DimensionMismatch, RMatrix, block_diag, kron, pivot_columns,
                       rank_kernel, solve_linear, vadd, vsub)
from .report import CheckReport, grid_violations
from .twoterm import ChainHomotopy, ChainMap, TwoTermComplex
from .serialize import as_count, mat_from_json, mat_to_json, need


@dataclass
class TwoVectorSpace:
    dim0: int
    dim1: int
    s: RMatrix  # V1 -> V0
    t: RMatrix  # V1 -> V0
    i: RMatrix  # V0 -> V1
    _kernel: RMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, m, shape in (("s", self.s, (self.dim0, self.dim1)),
                               ("t", self.t, (self.dim0, self.dim1)),
                               ("i", self.i, (self.dim1, self.dim0))):
            if (m.rows, m.cols) != shape:
                raise DimensionMismatch(f"{name} must be {shape[0]}x{shape[1]}")

    def ker_s(self) -> RMatrix:
        """Deterministic echelon basis of ker(s), columns of a dim1 x k matrix."""
        if self._kernel is None:
            _, basis = rank_kernel(self.s)
            self._kernel = RMatrix(len(basis), self.dim1, basis).transpose()
        return self._kernel


def check_space(v: TwoVectorSpace) -> CheckReport:
    rep = CheckReport("two_vector_space")
    rep.add("source_of_identity", grid_violations(v.s @ v.i - RMatrix.identity(v.dim0)))
    rep.add("target_of_identity", grid_violations(v.t @ v.i - RMatrix.identity(v.dim0)))
    return rep


@dataclass
class Morphism:
    """A morphism of a 2-vector space, carried as its vector in V1."""

    space: TwoVectorSpace
    vec: list

    def source(self) -> list:
        return self.space.s.matvec(self.vec)

    def target(self) -> list:
        return self.space.t.matvec(self.vec)

    def arrow(self) -> list:
        return vsub(self.vec, self.space.i.matvec(self.source()))

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.space != other.space:
            raise DimensionMismatch("morphism addition requires a common space")
        return Morphism(self.space, vadd(self.vec, other.vec))

    def __sub__(self, other: "Morphism") -> "Morphism":
        if self.space != other.space:
            raise DimensionMismatch("morphism subtraction requires a common space")
        return Morphism(self.space, vsub(self.vec, other.vec))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.space == other.space and self.vec == other.vec

    __hash__ = None


def identity_morphism(space: TwoVectorSpace, obj: list) -> Morphism:
    return Morphism(space, space.i.matvec(obj))


def compose_morphisms(f: Morphism, g: Morphism) -> Morphism:
    """Diagram-order composite f g = (source f, arrow f + arrow g)."""
    if f.space != g.space:
        raise DimensionMismatch("morphisms live in different spaces")
    if f.target() != g.source():
        raise ValueError("morphisms are not composable: target(f) != source(g)")
    # i(s f) + arrow(f) + arrow(g) simplifies to f + g - i(s g)
    return Morphism(f.space, vsub(vadd(f.vec, g.vec), f.space.i.matvec(g.source())))


@dataclass
class LinearFunctor:
    source: TwoVectorSpace
    target: TwoVectorSpace
    f0: RMatrix  # V0 -> W0
    f1: RMatrix  # V1 -> W1

    def __post_init__(self):
        if (self.f0.rows, self.f0.cols) != (self.target.dim0, self.source.dim0):
            raise DimensionMismatch("f0 has the wrong shape")
        if (self.f1.rows, self.f1.cols) != (self.target.dim1, self.source.dim1):
            raise DimensionMismatch("f1 has the wrong shape")

    def apply(self, f: Morphism) -> Morphism:
        if f.space != self.source:
            raise DimensionMismatch("morphism not in the functor's source")
        return Morphism(self.target, self.f1.matvec(f.vec))


def check_functor(F: LinearFunctor) -> CheckReport:
    """Source, target and identity preservation; composites then follow."""
    rep = CheckReport("linear_functor")
    rep.add("preserves_source", grid_violations(F.target.s @ F.f1 - F.f0 @ F.source.s))
    rep.add("preserves_target", grid_violations(F.target.t @ F.f1 - F.f0 @ F.source.t))
    rep.add("preserves_identity", grid_violations(F.f1 @ F.source.i - F.target.i @ F.f0))
    return rep


def identity_functor(v: TwoVectorSpace) -> LinearFunctor:
    return LinearFunctor(v, v, RMatrix.identity(v.dim0), RMatrix.identity(v.dim1))


def compose_functors(F: LinearFunctor, G: LinearFunctor) -> LinearFunctor:
    """Diagram order: F then G."""
    if F.target != G.source:
        raise DimensionMismatch("functors are not composable")
    return LinearFunctor(F.source, G.target, G.f0 @ F.f0, G.f1 @ F.f1)


def is_invertible_functor(F: LinearFunctor) -> bool:
    if F.source.dim0 != F.target.dim0 or F.source.dim1 != F.target.dim1:
        return False
    return len(pivot_columns(F.f0)) == F.f0.rows and len(pivot_columns(F.f1)) == F.f1.rows


@dataclass
class LinearNatTrans:
    """Natural transformation between parallel linear functors.

    Stored by its component map theta: V0 -> W1 only.  Naturality is a
    checkable predicate rather than a constructor restriction, so broken
    candidates stay representable for negative tests.
    """

    from_functor: LinearFunctor
    to_functor: LinearFunctor
    theta: RMatrix

    def __post_init__(self):
        f, g = self.from_functor, self.to_functor
        if f.source != g.source or f.target != g.target:
            raise DimensionMismatch("natural transformation needs parallel functors")
        if (self.theta.rows, self.theta.cols) != (f.target.dim1, f.source.dim0):
            raise DimensionMismatch("theta has the wrong shape")

    def component(self, obj: list) -> Morphism:
        return Morphism(self.from_functor.target, self.theta.matvec(obj))


def check_nat_trans(n: LinearNatTrans) -> CheckReport:
    """Source/target rows plus the commutative-square law.

    The square law is checked in linearized form: for h in ker(s),
    arrow(theta(t h)) = (G1 - F1) h; together with linearity over
    identity morphisms this is the full naturality condition.
    """
    rep = CheckReport("linear_nat_trans")
    F, G = n.from_functor, n.to_functor
    W = F.target
    rep.add("source_row", grid_violations(W.s @ n.theta - F.f0))
    rep.add("target_row", grid_violations(W.t @ n.theta - G.f0))
    K = F.source.ker_s()
    lhs = n.theta @ F.source.t @ K
    lhs = lhs - W.i @ (W.s @ lhs)  # arrow part, total even on broken rows
    rep.add("naturality", grid_violations(lhs - (G.f1 - F.f1) @ K))
    return rep


def identity_nat(F: LinearFunctor) -> LinearNatTrans:
    return LinearNatTrans(F, F, F.target.i @ F.f0)


def vertical_nat(a: LinearNatTrans, b: LinearNatTrans) -> LinearNatTrans:
    """Vertical composite: components compose in the target space."""
    if a.to_functor != b.from_functor:
        raise DimensionMismatch("vertical composite needs matching middle functor")
    W = a.from_functor.target
    theta = a.theta + b.theta - W.i @ a.to_functor.f0
    return LinearNatTrans(a.from_functor, b.to_functor, theta)


def whisker_left(H: LinearFunctor, a: LinearNatTrans) -> LinearNatTrans:
    """H first, then the 2-cell: component at x is a's component at H0 x."""
    if H.target != a.from_functor.source:
        raise DimensionMismatch("left whisker does not chain")
    return LinearNatTrans(compose_functors(H, a.from_functor),
                          compose_functors(H, a.to_functor), a.theta @ H.f0)


def whisker_right(a: LinearNatTrans, H: LinearFunctor) -> LinearNatTrans:
    """The 2-cell first, then H: component at x is H1(a's component at x)."""
    if a.from_functor.target != H.source:
        raise DimensionMismatch("right whisker does not chain")
    return LinearNatTrans(compose_functors(a.from_functor, H),
                          compose_functors(a.to_functor, H), H.f1 @ a.theta)


def horizontal_nat(a: LinearNatTrans, b: LinearNatTrans, form: int = 1) -> LinearNatTrans:
    """Horizontal composite along composable functors, in either of the
    two stated-equal forms; both are implemented and tests assert they
    agree on natural inputs."""
    F, G = a.from_functor, a.to_functor
    Fp, Gp = b.from_functor, b.to_functor
    if F.target != Fp.source:
        raise DimensionMismatch("horizontal composite endpoints do not chain")
    if form == 1:
        return vertical_nat(whisker_left(F, b), whisker_right(a, Gp))
    if form == 2:
        return vertical_nat(whisker_right(a, Fp), whisker_left(G, b))
    raise ValueError("form must be 1 or 2")


def tensor_nat(a: LinearNatTrans, b: LinearNatTrans) -> LinearNatTrans:
    """Tensor of 2-cells: components multiply, theta_(x ox x') =
    theta_x ox theta'_x', with identity 2-cells supplying i(y) factors.

    The result carries the tensor functors as endpoints but is not an
    internal natural transformation in general (the square law fails on
    decomposable morphisms whose factors both have arrow parts); the
    braiding equations only ever tensor with identity 2-cells and
    compare component maps, which this semantics serves exactly.
    """
    theta = kron(a.theta, b.theta)
    return LinearNatTrans(tensor_functor(a.from_functor, b.from_functor),
                          tensor_functor(a.to_functor, b.to_functor), theta)


# ---------------------------------------------------------------------------
# the equivalence with 2-term chain complexes

def functor_S(v: TwoVectorSpace) -> TwoTermComplex:
    """C0 = V0, C1 = ker(s) in the cached echelon basis, d = t restricted."""
    K = v.ker_s()
    return TwoTermComplex(v.dim0, K.cols, v.t @ K)


def S_on_functor(F: LinearFunctor) -> ChainMap:
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


def S_on_nat_trans(n: LinearNatTrans) -> ChainHomotopy:
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
    return ChainHomotopy(S_on_functor(n.from_functor), S_on_functor(n.to_functor), tau)


def functor_T(c: TwoTermComplex) -> TwoVectorSpace:
    """V0 = C0, V1 = C0 + C1, s = [I 0], t = [I d], i = [I; 0]."""
    eye = RMatrix.identity(c.dim0)
    s = eye.hstack(RMatrix.zeros(c.dim0, c.dim1))
    t = eye.hstack(c.d)
    i = eye.vstack(RMatrix.zeros(c.dim1, c.dim0))
    return TwoVectorSpace(c.dim0, c.dim0 + c.dim1, s, t, i)


def T_on_chain_map(f: ChainMap) -> LinearFunctor:
    return LinearFunctor(functor_T(f.source), functor_T(f.target),
                         f.phi0, block_diag(f.phi0, f.phi1))


def T_on_homotopy(h: ChainHomotopy) -> LinearNatTrans:
    """T(tau)(x) = (phi0 x, tau x): source part phi0, arrow part tau."""
    return LinearNatTrans(T_on_chain_map(h.from_map), T_on_chain_map(h.to_map),
                          h.from_map.phi0.vstack(h.tau))


def st_roundtrip_iso(v: TwoVectorSpace) -> LinearFunctor:
    """The isomorphism T(S(v)) -> v: identity on objects, i(x) + h on morphisms."""
    src = functor_T(functor_S(v))
    return LinearFunctor(src, v, RMatrix.identity(v.dim0), v.i.hstack(v.ker_s()))


# ---------------------------------------------------------------------------
# categorified linear algebra: sums, tensors, the ground field

@dataclass
class DirectSum:
    space: TwoVectorSpace
    include_left: LinearFunctor
    include_right: LinearFunctor
    project_left: LinearFunctor
    project_right: LinearFunctor


def direct_sum(v: TwoVectorSpace, w: TwoVectorSpace) -> DirectSum:
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


def tensor_2vs(v: TwoVectorSpace, w: TwoVectorSpace) -> TwoVectorSpace:
    return TwoVectorSpace(v.dim0 * w.dim0, v.dim1 * w.dim1,
                          kron(v.s, w.s), kron(v.t, w.t), kron(v.i, w.i))


def tensor_functor(F: LinearFunctor, G: LinearFunctor) -> LinearFunctor:
    return LinearFunctor(tensor_2vs(F.source, G.source),
                         tensor_2vs(F.target, G.target),
                         kron(F.f0, G.f0), kron(F.f1, G.f1))


def ground_field() -> TwoVectorSpace:
    """The categorified ground field: K0 = K1 = Q, s = t = i = 1."""
    one = RMatrix.identity(1)
    return TwoVectorSpace(1, 1, one, one, one)


def left_unitor(v: TwoVectorSpace) -> LinearFunctor:
    """K ox V -> V, a ox x |-> a x; an isomorphism of 2-vector spaces."""
    src = tensor_2vs(ground_field(), v)
    return LinearFunctor(src, v, RMatrix.identity(v.dim0), RMatrix.identity(v.dim1))


def right_unitor(v: TwoVectorSpace) -> LinearFunctor:
    """V ox K -> V; the flat index with right factor of dimension 1 is itself."""
    src = tensor_2vs(v, ground_field())
    return LinearFunctor(src, v, RMatrix.identity(v.dim0), RMatrix.identity(v.dim1))


# ---------------------------------------------------------------------------
# 2-cell expressions

class TwoCellExpr:
    """Tree of 2-cells: leaves are natural transformations or identity
    2-cells of functors, nodes are vertical composition, whiskering and
    tensoring.  Every node must be well-typed; evaluation raises
    CellTypeError otherwise."""


class CellTypeError(ValueError):
    pass


@dataclass
class CellLeaf(TwoCellExpr):
    nat: LinearNatTrans


@dataclass
class CellId(TwoCellExpr):
    functor: LinearFunctor


@dataclass
class CellVert(TwoCellExpr):
    first: TwoCellExpr
    second: TwoCellExpr


@dataclass
class CellWhiskerL(TwoCellExpr):
    functor: LinearFunctor
    expr: TwoCellExpr


@dataclass
class CellWhiskerR(TwoCellExpr):
    expr: TwoCellExpr
    functor: LinearFunctor


@dataclass
class CellTensor(TwoCellExpr):
    left: TwoCellExpr
    right: TwoCellExpr


def eval_cell_expr(e: TwoCellExpr) -> LinearNatTrans:
    """Evaluate a 2-cell expression to its component map, checking that
    endpoint functors agree at every node."""
    try:
        if isinstance(e, CellLeaf):
            return e.nat
        if isinstance(e, CellId):
            return identity_nat(e.functor)
        if isinstance(e, CellVert):
            return vertical_nat(eval_cell_expr(e.first), eval_cell_expr(e.second))
        if isinstance(e, CellWhiskerL):
            return whisker_left(e.functor, eval_cell_expr(e.expr))
        if isinstance(e, CellWhiskerR):
            return whisker_right(eval_cell_expr(e.expr), e.functor)
        if isinstance(e, CellTensor):
            return tensor_nat(eval_cell_expr(e.left), eval_cell_expr(e.right))
    except DimensionMismatch as exc:
        raise CellTypeError(str(exc)) from None
    raise CellTypeError(f"unknown 2-cell node {type(e).__name__}")


def eval_two_cell(e: TwoCellExpr, basis_object: int) -> Morphism:
    """Component of the evaluated 2-cell at a basis object of the source."""
    nat = eval_cell_expr(e)
    return Morphism(nat.from_functor.target, nat.theta.col(basis_object))


# ---------------------------------------------------------------------------
# JSON format

def space_to_json(v: TwoVectorSpace) -> dict:
    return {"dim0": v.dim0, "dim1": v.dim1, "s": mat_to_json(v.s),
            "t": mat_to_json(v.t), "i": mat_to_json(v.i)}


def space_from_json(obj: dict) -> TwoVectorSpace:
    dim0 = as_count(need(obj, "dim0"), "dim0")
    dim1 = as_count(need(obj, "dim1"), "dim1")
    return TwoVectorSpace(dim0, dim1, mat_from_json(obj, "s", dim0, dim1),
                          mat_from_json(obj, "t", dim0, dim1), mat_from_json(obj, "i", dim1, dim0))
