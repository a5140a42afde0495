"""Semistrict Lie 2-algebras in categorical presentation.

The canonical store is the two-term structure-constant data; the
categorical layer (underlying 2-vector space, bracket on morphisms,
Jacobiator) is derived on demand, so the round trip with the
structure-constant presentation is the identity by construction.

In the derived space V1 = V0 + V1_arrows, a morphism's vector splits as
(source part, arrow part); brackets and Jacobiators below manipulate
those blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

from .exactlin import DimensionMismatch, RMatrix, contract, vadd, vneg, vsub, vunit, vzeros
from .linfty import (LInfHom, TwoTermLInfinity, _check_tensor_shape, _columns_on,
                     antisymmetry_violations, basis_tuples, first_slot_last, integral,
                     is_alternating, jacobi_violations, nonzero_terms, sum_products, unscaled,
                     zero_l3, zero_phi2)
from .report import CheckReport, first_violation
from .serialize import as_count, mat_from_json, mat_to_json, need, tensor_from_json, tensor_to_json
from .twoterm import TwoTermComplex
from .twovect import (LinearFunctor, LinearNatTrans, Morphism, S_on_functor, T_on_chain_map,
                      TwoVectorSpace, check_functor, check_nat_trans, compose_functors,
                      compose_morphisms, functor_T, identity_functor, identity_morphism)


@dataclass
class SemistrictLie2Algebra:
    data: TwoTermLInfinity
    _space: TwoVectorSpace | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def space(self) -> TwoVectorSpace:
        if self._space is None:
            self._space = functor_T(self.data.complex)
        return self._space

    @property
    def dim0(self) -> int:
        return self.data.dim0

    def object_basis(self, i: int) -> list:
        return vunit(self.dim0, i)

    def morphism(self, source_obj: list, arrow: list) -> Morphism:
        return Morphism(self.space, list(source_obj) + list(arrow))


def from_linfty(v: TwoTermLInfinity) -> SemistrictLie2Algebra:
    return SemistrictLie2Algebra(v)


def to_linfty(L: SemistrictLie2Algebra) -> TwoTermLInfinity:
    return L.data


def is_strict(L: SemistrictLie2Algebra) -> bool:
    return all(x == 0 for a in L.data.l3 for b in a for c in b for x in c)


def is_skeletal(L: SemistrictLie2Algebra) -> bool:
    return L.data.d.is_zero()


def _split(L: SemistrictLie2Algebra, m: Morphism):
    n0 = L.dim0
    return m.vec[:n0], m.vec[n0:]


def bracket_morphisms(L: SemistrictLie2Algebra, f: Morphism, g: Morphism) -> Morphism:
    """[f, g] = ([x, a], l2(fbar, a) + l2(y, gbar)) for f: x -> y, g: a -> b."""
    if f.space != L.space or g.space != L.space:
        raise DimensionMismatch("morphisms do not live in this Lie 2-algebra")
    v = L.data
    x, fbar = _split(L, f)
    a, gbar = _split(L, g)
    y = vadd(x, v.d.matvec(fbar))
    src = v.bracket00(x, a)
    arrow = vadd(vneg(v.act(a, fbar)), v.act(y, gbar))
    return L.morphism(src, arrow)


def bracket_morphisms_alt(L: SemistrictLie2Algebra, f: Morphism, g: Morphism) -> Morphism:
    """The other forced formula ([x,a], l2(x, gbar) + l2(fbar, b)); equals
    bracket_morphisms exactly whenever condition (f) holds."""
    v = L.data
    x, fbar = _split(L, f)
    a, gbar = _split(L, g)
    b = vadd(a, v.d.matvec(gbar))
    src = v.bracket00(x, a)
    arrow = vadd(v.act(x, gbar), vneg(v.act(b, fbar)))
    return L.morphism(src, arrow)


def jacobiator(L: SemistrictLie2Algebra, x, y, z) -> Morphism:
    """J_{x,y,z} = ([[x,y],z], l3(x,y,z)), extended trilinearly; each of
    x, y and z is an object vector or a basis index (`contract`)."""
    v = L.data
    return L.morphism(v.bracket00(v.bracket00(x, y), z), v.l3_eval(x, y, z))


def _compose_padded(L: SemistrictLie2Algebra, stages: list) -> Morphism:
    """Compose stage sums in diagram order, each padded by the identity
    that makes the composite defined.  In T(C) a composite keeps the first
    source and adds arrow parts, and a pad has none, so this is the first
    stage's source followed by the sum of every summand's arrow part."""
    n0 = L.dim0
    source = [sum(x) for x in zip(*(m.vec[:n0] for m in stages[0]))]
    arrow = [sum(x) for x in zip(*(m.vec[n0:] for stage in stages for m in stage))]
    return L.morphism(source, arrow)


def check_jacobiator_identity_categorical(L: SemistrictLie2Algebra) -> CheckReport:
    """Compare both octagon composites on every basis 4-tuple.

    A composite in T(C) is its first source followed by the sum of its
    arrow parts.  Both composites start at [[[w,x],y],z], so the
    residual's source part is zero and only the arrow parts are compared.
    A J term's arrow part is l3.  A Br term's is the arrow block of the
    bracket (`bracket_morphisms`) on a basis arrow and a basis identity:
    [f_a, 1_y] has arrow part -l2(y, f_a) and [1_w, f_a] has l2(w, f_a).

    Each arrow part is l3 after l2 or l2 after l3: one Br argument is
    always an identity, whose arrow part is zero, so the d l2 block of
    the bracket never enters, and neither does the source part
    [[x,y],z] of the Jacobiator in the other argument: the bracket of
    two identities has arrow part zero.  The residual is therefore a
    homogeneous quadratic polynomial in the structure constants, and the
    sweep runs over the integers on D v (`integral`), dividing the first
    violation's residual by D^2.  It is read off nonzero tables of l2_00,
    l2_01 and l3 built once per call (`sum_products`): the same finite sum
    of exact products that one contraction per term gave, added in
    another order, at the same tuples in the same order, so the first
    violation, its location and its residual are unchanged.

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
    alternating, n0 = is_alternating(v), v.dim0
    # J(u, x, y) is l3 with u in its first slot (l3_t) or its middle one (l3_m)
    b, act, l3 = nonzero_terms(v.l2_00), nonzero_terms(v.l2_01), nonzero_terms(v.l3)
    l3_t = first_slot_last(l3, (n0, n0, n0))
    l3_m = [first_slot_last(plane, (n0, n0)) for plane in l3]
    rep.add("octagon", unscaled(first_violation(
        ((w, x, y, z), vzeros(n0) + sum_products(v.dim1, [
            (1, b[w][x], l3_t[y][z]), (-1, l3[w][x][z], act[y]), (1, b[x][z], l3_m[w][y]),
            (1, b[w][z], l3_t[x][y]), (1, b[y][z], l3[w][x]),
            (1, l3[w][x][y], act[z]), (-1, b[w][y], l3_t[x][z]),
            (-1, b[x][y], l3_m[w][z]), (1, l3[w][y][z], act[x]), (-1, l3[x][y][z], act[w])]))
        for w, x, y, z in basis_tuples(n0, 4, alternating)), D))
    return rep


def check_jacobiator_naturality(L: SemistrictLie2Algebra) -> CheckReport:
    """Naturality of J in its third slot (the others follow from the
    complete antisymmetry): for every arrow generator f at z = 0,
    [[1_x,1_y],f] J_{x,y,t(f)} = J_{x,y,0} ([[1_x,f],1_y] + [1_x,[1_y,f]])."""
    rep = CheckReport("jacobiator_naturality")
    n0, m1 = L.dim0, L.data.dim1
    one = [identity_morphism(L.space, L.object_basis(i)) for i in range(n0)]

    def residuals():
        for i, j, a in product(range(n0), range(n0), range(m1)):
            f = L.morphism(vzeros(n0), vunit(m1, a))
            lhs = _compose_padded(L, [
                [bracket_morphisms(L, bracket_morphisms(L, one[i], one[j]), f)],
                [jacobiator(L, L.object_basis(i), L.object_basis(j), f.target())],
            ])
            rhs = _compose_padded(L, [
                [jacobiator(L, L.object_basis(i), L.object_basis(j), vzeros(n0))],
                [bracket_morphisms(L, bracket_morphisms(L, one[i], f), one[j]),
                 bracket_morphisms(L, one[i], bracket_morphisms(L, one[j], f))],
            ])
            yield (i, j, a), vsub(lhs.vec, rhs.vec)
    rep.add("naturality_third_slot", first_violation(residuals()))
    return rep


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass
class Lie2Hom:
    """A homomorphism: a linear functor F plus the bracket-comparison
    2-cell F2, stored by its arrow parts (the source of F2(x,y) is
    always [F0 x, F0 y], so only the arrow tensor is kept)."""

    source: SemistrictLie2Algebra
    target: SemistrictLie2Algebra
    functor: LinearFunctor
    f2: list  # [i][j] -> arrow vector in the target's V1

    def __post_init__(self):
        if self.functor.source != self.source.space or self.functor.target != self.target.space:
            raise DimensionMismatch("functor endpoints disagree with the structures")
        _check_tensor_shape(self.f2, (self.source.dim0, self.source.dim0,
                                      self.target.data.dim1), "f2")

    def f2_morphism(self, u: list, w: list) -> Morphism:
        tgt = self.target
        f0u = self.functor.f0.matvec(u)
        f0w = self.functor.f0.matvec(w)
        return tgt.morphism(tgt.data.bracket00(f0u, f0w),
                            contract(self.f2, tgt.data.dim1, u, w))


def identity_lie2_hom(L: SemistrictLie2Algebra) -> Lie2Hom:
    return Lie2Hom(L, L, identity_functor(L.space), zero_phi2(L.dim0, L.data.dim1))


def check_lie2_hom(F: Lie2Hom) -> CheckReport:
    """Functor laws, F2 skew-symmetry and target row, naturality, and the
    hexagon, all evaluated categorically by composing morphisms."""
    rep = CheckReport("lie2_hom")
    rep.extend(check_functor(F.functor), prefix="functor_")
    src, tgt = F.source, F.target
    n0, m1 = src.dim0, src.data.dim1
    rep.add("f2_antisymmetry", antisymmetry_violations(F.f2))

    e = [src.object_basis(i) for i in range(n0)]
    rep.add("f2_target", first_violation(
        ((i, j), vsub(F.f2_morphism(e[i], e[j]).target(),
                      F.functor.f0.matvec(src.data.bracket00(e[i], e[j]))))
        for i in range(n0) for j in range(n0)))

    # naturality in the second slot: compare F applied to [1_x, h] with
    # the bracket of images, corrected by F2 at (x, dh)
    one = [identity_morphism(src.space, x) for x in e]

    def naturality_residuals():
        for i, a in product(range(n0), range(m1)):
            h = src.morphism(vzeros(n0), vunit(m1, a))
            lhs = contract(F.f2[i], tgt.data.dim1, src.data.d.col(a))
            img = F.functor.apply(bracket_morphisms(src, one[i], h))
            bracket_img = bracket_morphisms(tgt, F.functor.apply(one[i]), F.functor.apply(h))
            yield (i, a), vsub(lhs, vsub(_split(tgt, img)[1], _split(tgt, bracket_img)[1]))
    rep.add("f2_naturality", first_violation(naturality_residuals()))

    rep.add("hexagon", first_violation(
        ((i, j, k), vsub(*(side.vec for side in _hexagon_sides(F, e[i], e[j], e[k]))))
        for i, j, k in product(range(n0), repeat=3)))
    return rep


def _hexagon_sides(F: Lie2Hom, x: list, y: list, z: list):
    """Both composites of the bracket-preservation hexagon at (x, y, z)."""
    src, tgt = F.source, F.target
    f0 = F.functor.f0
    fx, fy, fz = f0.matvec(x), f0.matvec(y), f0.matvec(z)

    def one(obj):
        return identity_morphism(tgt.space, obj)

    top_right = _compose_padded(tgt, [
        [jacobiator(tgt, fx, fy, fz)],
        [bracket_morphisms(tgt, one(fx), F.f2_morphism(y, z)),
         bracket_morphisms(tgt, F.f2_morphism(x, z), one(fy))],
        [F.f2_morphism(x, src.data.bracket00(y, z)),
         F.f2_morphism(src.data.bracket00(x, z), y)],
    ])
    left_bottom = _compose_padded(tgt, [
        [bracket_morphisms(tgt, F.f2_morphism(x, y), one(fz))],
        [F.f2_morphism(src.data.bracket00(x, y), z)],
        [F.functor.apply(jacobiator(src, x, y, z))],
    ])
    return left_bottom, top_right


def compose_lie2_homs(F: Lie2Hom, G: Lie2Hom) -> Lie2Hom:
    """(FG)_2(x,y) is G2 at (F0 x, F0 y) followed by G1(F2(x,y))."""
    if F.target.data != G.source.data:
        raise DimensionMismatch("homomorphisms are not composable")
    functor = compose_functors(F.functor, G.functor)
    n0 = F.source.dim0
    n0_tgt = G.target.dim0
    e = [F.source.object_basis(i) for i in range(n0)]
    f2 = []
    for i in range(n0):
        row = []
        for j in range(n0):
            first = G.f2_morphism(F.functor.f0.matvec(e[i]), F.functor.f0.matvec(e[j]))
            second = G.functor.apply(F.f2_morphism(e[i], e[j]))
            row.append(compose_morphisms(first, second).vec[n0_tgt:])
        f2.append(row)
    return Lie2Hom(F.source, G.target, functor, f2)


@dataclass
class Lie2TwoHom:
    from_hom: Lie2Hom
    to_hom: Lie2Hom
    nat: LinearNatTrans

    def __post_init__(self):
        f, g = self.from_hom, self.to_hom
        if f.source.data != g.source.data or f.target.data != g.target.data:
            raise DimensionMismatch("2-homomorphism endpoints must be parallel")
        if self.nat.from_functor != f.functor or self.nat.to_functor != g.functor:
            raise DimensionMismatch("underlying natural transformation endpoints disagree")


def check_lie2_two_hom(t: Lie2TwoHom) -> CheckReport:
    """Naturality of the underlying 2-cell plus the bracket square
    [theta_x, theta_y] then G2 = F2 then theta_[x,y]."""
    rep = CheckReport("lie2_two_hom")
    rep.extend(check_nat_trans(t.nat), prefix="nat_")
    F, G = t.from_hom, t.to_hom
    src, tgt = F.source, F.target
    n0 = src.dim0
    e = [src.object_basis(i) for i in range(n0)]
    th = [t.nat.component(x) for x in e]

    def residuals():
        for i, j in product(range(n0), repeat=2):
            left = _compose_padded(tgt, [
                [bracket_morphisms(tgt, th[i], th[j])],
                [G.f2_morphism(e[i], e[j])],
            ])
            th_bracket = Morphism(tgt.space, t.nat.theta.matvec(src.data.bracket00(e[i], e[j])))
            right = _compose_padded(tgt, [
                [F.f2_morphism(e[i], e[j])],
                [th_bracket],
            ])
            yield (i, j), vsub(left.vec, right.vec)
    rep.add("bracket_square", first_violation(residuals()))
    return rep


def hom_from_linf(f: LInfHom) -> Lie2Hom:
    """Transport an L-infinity homomorphism across the dictionary:
    F = T(chain), so F0 = phi0 and F1 = phi0 + phi1 blockwise; F2 arrow = phi2."""
    return Lie2Hom(from_linfty(f.source), from_linfty(f.target), T_on_chain_map(f.chain),
                   [[list(v) for v in row] for row in f.phi2])


def hom_to_linf(F: Lie2Hom) -> LInfHom:
    """Transport back across the dictionary: chain map S(F), phi2 = F2 arrow."""
    return LInfHom(F.source.data, F.target.data, S_on_functor(F.functor),
                   [[list(v) for v in row] for row in F.f2])


# ---------------------------------------------------------------------------
# differential crossed modules

@dataclass
class DifferentialCrossedModule:
    """(g, h, t, alpha): Lie algebras as structure constants, a map
    t: h -> g, and an action tensor alpha[i][a][b] (coefficient of the
    h-basis b in alpha(g_i)(h_a))."""

    g_dim: int
    g_bracket: list
    h_dim: int
    h_bracket: list
    t: RMatrix
    alpha: list

    def __post_init__(self):
        _check_tensor_shape(self.g_bracket, (self.g_dim,) * 3, "g_bracket")
        _check_tensor_shape(self.h_bracket, (self.h_dim,) * 3, "h_bracket")
        _check_tensor_shape(self.alpha, (self.g_dim, self.h_dim, self.h_dim), "alpha")
        if (self.t.rows, self.t.cols) != (self.g_dim, self.h_dim):
            raise DimensionMismatch("t must map h into g")


# which axiom of the structure-constant image detects each crossed-module
# failure; conditions about the h bracket alone have no image counterpart
# because the image stores no bracket on V1
DCM_FAILURE_TO_AXIOM = {
    "g_antisymmetry": "a_bracket_antisymmetry",
    "g_jacobi": "g_jacobi_up_to_d",
    "equivariance": "e_differential_action",
    "action_homomorphism": "h_l3_naturality",
    "peiffer_antisymmetry": "f_differential_symmetry",
}


def check_crossed_module(m: DifferentialCrossedModule) -> CheckReport:
    """Both brackets' antisymmetry and Jacobi, then the laws of t and alpha at
    every basis tuple, off nonzero tables built once per call and a unit table
    (`sum_products`): each residual is the same sum of exact products."""
    rep = CheckReport("differential_crossed_module")
    for name, b in (("g", m.g_bracket), ("h", m.h_bracket)):
        antisymmetric = rep.add(f"{name}_antisymmetry", antisymmetry_violations(b)).passed
        rep.add(f"{name}_jacobi", jacobi_violations(b, antisymmetric))
    g, h = m.g_dim, m.h_dim
    gb, hb, act = nonzero_terms(m.g_bracket), nonzero_terms(m.h_bracket), nonzero_terms(m.alpha)
    hb_t, act_t = first_slot_last(hb, (h, h)), first_slot_last(act, (g, h))
    tcol, unit = nonzero_terms([m.t.col(a) for a in range(h)]), [[(p, 1)] for p in range(h)]
    gt = _columns_on(tcol, nonzero_terms([list(chain(*row)) for row in m.g_bracket]), g, g)

    def law(name, n, residuals):
        rep.add(name, first_violation((loc, sum_products(n, terms)) for loc, terms in residuals))

    # act[i][a] = alpha(e_i)(e_a), gt[a][j] = [t e_a, e_j]; *_t read the first slot last
    law("t_homomorphism", g, (((a, b), [(1, hb[a][b], tcol), (-1, tcol[b], gt[a])])
                              for a, b in product(range(h), repeat=2)))
    law("derivation", h, (
        ((i, a, b), [(1, hb[a][b], act[i]), (-1, act[i][a], hb_t[b]), (-1, act[i][b], hb[a])])
        for i, a, b in product(range(g), range(h), range(h))))
    law("action_homomorphism", h, (
        ((i, j, a), [(1, gb[i][j], act_t[a]), (-1, act[j][a], act[i]), (1, act[i][a], act[j])])
        for i, j, a in product(range(g), range(g), range(h))))
    law("equivariance", g, (((i, a), [(1, act[i][a], tcol), (-1, tcol[a], gb[i])])
                            for i, a in product(range(g), range(h))))
    law("peiffer", h, (((a, b), [(1, tcol[a], act_t[b]), (-1, hb[a][b], unit)])
                       for a, b in product(range(h), repeat=2)))
    law("peiffer_antisymmetry", h, (((a, b), [(1, tcol[a], act_t[b]), (1, tcol[b], act_t[a])])
                                    for a, b in product(range(h), repeat=2)))
    return rep


def from_crossed_module(m: DifferentialCrossedModule) -> SemistrictLie2Algebra:
    """V0 = g, V1 = h, d = t, bracket = g bracket, action = alpha, l3 = 0."""
    cx = TwoTermComplex(m.g_dim, m.h_dim, m.t)
    data = TwoTermLInfinity(cx, [[list(v) for v in row] for row in m.g_bracket],
                            [[list(v) for v in row] for row in m.alpha],
                            zero_l3(m.g_dim, m.h_dim))
    return from_linfty(data)


def to_crossed_module(L: SemistrictLie2Algebra) -> DifferentialCrossedModule:
    """Inverse reading; the h bracket is recovered from the Peiffer identity."""
    if not is_strict(L):
        raise ValueError("only strict Lie 2-algebras come from crossed modules")
    v = L.data
    h_bracket = [[v.act(v.d.col(a), b) for b in range(v.dim1)] for a in range(v.dim1)]
    return DifferentialCrossedModule(v.dim0, [[list(x) for x in r] for r in v.l2_00],
                                     v.dim1, h_bracket, v.d,
                                     [[list(x) for x in r] for r in v.l2_01])


def dcm_to_json(m: DifferentialCrossedModule) -> dict:
    return {"g": {"dim": m.g_dim, "bracket": tensor_to_json(m.g_bracket)},
            "h": {"dim": m.h_dim, "bracket": tensor_to_json(m.h_bracket)},
            "t": mat_to_json(m.t), "alpha": tensor_to_json(m.alpha)}


def dcm_from_json(obj: dict) -> DifferentialCrossedModule:
    g = need(obj, "g")
    h = need(obj, "h")
    g_dim = as_count(need(g, "dim", "g"), "g.dim")
    h_dim = as_count(need(h, "dim", "h"), "h.dim")
    g_bracket = tensor_from_json(need(g, "bracket", "g"), (g_dim,) * 3, "g.bracket")
    h_bracket = tensor_from_json(need(h, "bracket", "h"), (h_dim,) * 3, "h.bracket")
    t = mat_from_json(obj, "t", g_dim, h_dim)
    alpha = tensor_from_json(need(obj, "alpha"), (g_dim, h_dim, h_dim), "alpha")
    return DifferentialCrossedModule(g_dim, g_bracket, h_dim, h_bracket, t, alpha)
