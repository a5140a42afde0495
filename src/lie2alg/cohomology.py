"""Lie algebra cohomology and the classification of Lie 2-algebras.

Cochains are stored on strictly increasing index tuples only, so total
antisymmetry holds by construction here (unlike the structure-constant
modules, where violations must stay representable).  Evaluation at an
arbitrary tuple inserts the permutation sign and vanishes on repeats.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb

from .exactlin import (DimensionMismatch, RMatrix, pivot_columns, rank_kernel, solve_linear,
                       vadd, vneg, vscale, vzeros)
from .lie2 import SemistrictLie2Algebra, from_linfty
from .linfty import (LInfHom, TwoTermLInfinity, _check_tensor_shape, antisymmetry_violations,
                     basis_tuples, check_axioms, jacobi_violations, l3_compatibility_residuals,
                     nonzero_terms, perm_sign, zero_l3)
from .report import CheckReport, first_violation
from .serialize import (FixtureError, as_count, mat_to_json, need, tensor_from_json,
                        tensor_to_json)
from .twoterm import TwoTermComplex, identity_chain_map, skeletalize_complex


@dataclass
class LieAlgebra:
    dim: int
    bracket: list  # [i][j] -> coefficient vector of [e_i, e_j]

    def __post_init__(self):
        _check_tensor_shape(self.bracket, (self.dim,) * 3, "bracket")

    def ad(self, i: int) -> RMatrix:
        """Matrix of ad(e_i): columns are [e_i, e_j]."""
        return RMatrix.from_cols([self.bracket[i][j] for j in range(self.dim)],
                                 rows=self.dim)


def check_lie_algebra(g: LieAlgebra) -> CheckReport:
    rep = CheckReport("lie_algebra")
    antisymmetric = rep.add("antisymmetry", antisymmetry_violations(g.bracket)).passed
    rep.add("jacobi", jacobi_violations(g.bracket, antisymmetric))
    return rep


@dataclass
class Representation:
    algebra: LieAlgebra
    dimV: int
    rho: list  # one dimV x dimV matrix per basis element

    def __post_init__(self):
        if len(self.rho) != self.algebra.dim:
            raise DimensionMismatch("need one rho matrix per basis element")
        for m in self.rho:
            if (m.rows, m.cols) != (self.dimV, self.dimV):
                raise DimensionMismatch("rho matrices must be dimV x dimV")


def check_representation(rep_: Representation) -> CheckReport:
    rep = CheckReport("representation")
    algebra = check_lie_algebra(rep_.algebra)
    rep.extend(algebra, prefix="algebra_")
    g, rows = rep_.algebra, [m.entries for m in rep_.rho]
    terms = nonzero_terms(g.bracket)

    def residual(i: int, j: int) -> list:
        """The first four nonzero entries, row by row and by column, of
        rho([e_i, e_j]) - rho(e_i) rho(e_j) + rho(e_j) rho(e_i)."""
        out = []
        for a in range(rep_.dimV):
            acc = {}
            for m, c in terms[i][j]:
                for b, x in rows[m][a].items():
                    acc[b] = acc.get(b, 0) + c * x
            for s, t, sign in ((i, j, -1), (j, i, 1)):
                for l, x in rows[s][a].items():
                    for b, y in rows[t][l].items():
                        acc[b] = acc.get(b, 0) + sign * x * y
            out.extend(x for _, x in sorted(acc.items()) if x)
            if len(out) >= 4:
                return out[:4]
        return out

    # rho([x, y]) - [rho x, rho y] is alternating when the bracket is
    # antisymmetric, and then increasing pairs are swept only
    rep.add("bracket_to_commutator", first_violation(
        ((i, j), residual(i, j))
        for i, j in basis_tuples(g.dim, 2, algebra.result("antisymmetry").passed)))
    return rep


def trivial_rep(g: LieAlgebra, dimV: int = 1) -> Representation:
    return Representation(g, dimV, [RMatrix.zeros(dimV, dimV) for _ in range(g.dim)])


def adjoint_rep(g: LieAlgebra) -> Representation:
    return Representation(g, g.dim, [g.ad(i) for i in range(g.dim)])


@dataclass
class Cochain:
    """Totally antisymmetric map g^n -> V on strictly increasing tuples."""

    rep: Representation
    degree: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, val in self.values.items():
            if (len(key) != self.degree or list(key) != sorted(set(key))
                    or any(not 0 <= i < self.rep.algebra.dim for i in key)):
                raise ValueError(f"bad cochain key {key}")
            if len(val) != self.rep.dimV:
                raise DimensionMismatch(f"cochain value at {key} is not of length {self.rep.dimV}")

    def value(self, key: tuple) -> list:
        return list(self.values.get(tuple(key), vzeros(self.rep.dimV)))

    def evaluate(self, indices: tuple) -> list:
        """Value at an arbitrary index tuple, with the permutation sign."""
        if len(set(indices)) != len(indices):
            return vzeros(self.rep.dimV)
        order = tuple(sorted(range(len(indices)), key=lambda p: indices[p]))
        sign = perm_sign(order)
        base = self.value(tuple(sorted(indices)))
        return vscale(sign, base)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        vals = {k: vadd(self.value(k), other.value(k)) for k in sorted(self.values | other.values)}
        return Cochain(self.rep, self.degree, {k: v for k, v in vals.items() if any(v)})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, c) -> "Cochain":
        vals = {key: [c * x if x else x for x in val]  # no Fraction c * 0
                for key, val in self.values.items() if c and any(val)}
        return Cochain(self.rep, self.degree, vals)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in v) for v in self.values.values())

    def _compat(self, other: "Cochain") -> None:
        if self.degree != other.degree:
            raise DimensionMismatch("cochain degrees differ")
        if self.rep != other.rep:
            raise DimensionMismatch("cochains live over different representations")


def cochain_keys(dim: int, n: int):
    """The strictly increasing n-tuples of range(dim), in order; none unless
    0 <= n <= dim, so a huge degree allocates nothing."""
    return combinations(range(dim), n) if 0 <= n <= dim else iter(())


def cochain_basis(rep: Representation, n: int) -> list:
    """Ordered basis of C^n: (increasing tuple, V index) pairs."""
    return [(key, v) for key in cochain_keys(rep.algebra.dim, n) for v in range(rep.dimV)]


def cochain_to_coords(w: Cochain) -> list:
    """The coordinates of w in the order of `cochain_basis`."""
    dim, zero = w.rep.algebra.dim, vzeros(w.rep.dimV)
    return [x for key in cochain_keys(dim, w.degree) for x in w.values.get(key, zero)]


def coords_to_cochain(rep: Representation, n: int, coords: list) -> Cochain:
    """The cochain with these coordinates, storing only its nonzero keys."""
    d, vals = rep.dimV, {}
    for p, key in enumerate(cochain_keys(rep.algebra.dim, n)):
        val = coords[p * d:(p + 1) * d]
        if any(val):
            vals[key] = val
    return Cochain(rep, n, vals)


def _coboundary_cells(rep: Representation, n: int):
    """The nonzero cells ((row, col), x) of the Chevalley-Eilenberg
    differential delta: C^n -> C^{n+1} in the ordered bases,

    (delta w)(v_1..v_{n+1}) = sum_i (-1)^{i+1} rho(v_i) w(.. v_i-hat ..)
    + sum_{j<k} (-1)^{j+k} w([v_j, v_k], .. hats ..), 1-based signs,

    found by visiting each (n+1)-key once and writing its terms straight
    into the columns of the n-keys they read.  A cell may come more than
    once; its entry is the sum.  The nonzero cells of each rho and the
    nonzero coefficients of each bracket are listed once, so a zero rho or
    bracket costs nothing, a zero bracket visits no pair, and a zero
    bracket with a zero rho visits no key.  A degree n >= dim g has no
    (n+1)-key and lists nothing."""
    g, dimV = rep.algebra, rep.dimV
    if n + 1 > g.dim:
        return
    rho_cells = [[(a, b, x) for a, row in enumerate(m.entries) for b, x in row.items()]
                 for m in rep.rho]
    terms = nonzero_terms(g.bracket)
    pairs = list(combinations(range(n + 1), 2)) if any(map(any, terms)) else []
    if not pairs and not any(rho_cells):
        return
    src = {key: i * dimV for i, key in enumerate(cochain_keys(g.dim, n))}
    for i, key in enumerate(cochain_keys(g.dim, n + 1)):
        row0 = i * dimV  # the rows of this key
        for pos in range(n + 1):
            if rho_cells[key[pos]]:
                col0, sign = src[key[:pos] + key[pos + 1:]], (-1) ** pos
                for a, b, x in rho_cells[key[pos]]:
                    yield (row0 + a, col0 + b), sign * x
        for pj, pk in pairs:
            nz = terms[key[pj]][key[pk]]
            if not nz:
                continue
            rest = key[:pj] + key[pj + 1:pk] + key[pk + 1:]
            for m, c in nz:
                at = bisect_left(rest, m)  # where m goes among rest
                if at < n - 1 and rest[at] == m:
                    continue
                sign, col0 = (-1) ** (pj + pk + at), src[rest[:at] + (m,) + rest[at:]]
                for a in range(dimV):
                    yield (row0 + a, col0 + a), sign * c


def coboundary_matrix(rep: Representation, n: int) -> RMatrix:
    """Matrix of delta: C^n -> C^{n+1} in the ordered bases, summed from
    `_coboundary_cells`."""
    dim, dimV = rep.algebra.dim, rep.dimV
    return RMatrix.from_cells(comb(dim, n + 1) * dimV, comb(dim, n) * dimV,
                              _coboundary_cells(rep, n))


def coboundary(w: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential of one cochain, degree n to
    n+1: the cells of `_coboundary_cells` applied to the coordinates of w
    as they stream by, so delta is never held and memory stays in
    proportion to the input and the output."""
    rep, n = w.rep, w.degree
    x = cochain_to_coords(w)
    out = [0] * (comb(rep.algebra.dim, n + 1) * rep.dimV)
    for (i, j), c in _coboundary_cells(rep, n):
        if x[j]:
            out[i] += c * x[j]
    return coords_to_cochain(rep, n + 1, out)


def coboundary_nnz_bound(rep: Representation, n: int) -> int:
    """Upper bound on the nonzeros of delta_n from sizes alone: each
    (n+1)-key holds every index in comb(dim - 1, n) keys and writes rho
    of it, and every pair i < j in comb(dim - 2, n - 1) keys and writes
    each coefficient of [e_i, e_j] once per V coordinate."""
    def keys(a: int, b: int) -> int:
        return comb(a, b) if 0 <= b <= a else 0
    if n < 0:
        return 0
    g = rep.algebra
    rho_nnz = sum(len(row) for m in rep.rho for row in m.entries)
    bracket_nnz = sum(1 for i, j in combinations(range(g.dim), 2) for c in g.bracket[i][j] if c)
    return keys(g.dim - 1, n) * rho_nnz + keys(g.dim - 2, n - 1) * rep.dimV * bracket_nnz


def is_cocycle(w: Cochain) -> bool:
    return coboundary(w).is_zero()


def is_coboundary(w: Cochain) -> bool:
    if w.degree == 0:
        return w.is_zero()
    m = coboundary_matrix(w.rep, w.degree - 1)
    n = m.cols  # w is exact when the column of w in [delta | w] is no pivot
    aug = [{**row, n: x} if x else row for row, x in zip(m.entries, cochain_to_coords(w))]
    return n not in pivot_columns(RMatrix(m.rows, n + 1, aug))


def cohomologous(w1: Cochain, w2: Cochain) -> bool:
    return is_coboundary(w1 - w2)


def cohomology_dim(rep: Representation, n: int) -> int:
    """dim H^n = dim ker(delta_n) - rank(delta_{n-1}), all exact."""
    if n < 0:
        return 0
    delta_n = coboundary_matrix(rep, n)
    _, kernel = rank_kernel(delta_n)
    if n == 0:
        boundary_rank = 0
    else:
        boundary_rank, _ = rank_kernel(coboundary_matrix(rep, n - 1))
    return len(kernel) - boundary_rank


# ---------------------------------------------------------------------------
# two-slot structures built from a representation and a cocycle

def build_two_slot(w: Cochain) -> TwoTermLInfinity:
    """The two-term structure of (g, V, rho, w) with d = 0: the bracket of
    g, rho as l2_01 and l3 = w, written at every ordering of each stored
    key with its permutation sign; triples with a repeat and keys not
    stored are zero."""
    if w.degree != 3:
        raise DimensionMismatch(f"cocycle degree {w.degree}, expected 3")
    rep, g = w.rep, w.rep.algebra
    cx = TwoTermComplex(g.dim, rep.dimV, RMatrix.zeros(g.dim, rep.dimV))
    l2_01 = [[rep.rho[i].col(a) for a in range(rep.dimV)] for i in range(g.dim)]
    l3 = zero_l3(g.dim, rep.dimV)
    for key, val in w.values.items():
        for perm in permutations(range(3)):
            i, j, k = (key[p] for p in perm)
            l3[i][j][k] = vscale(perm_sign(perm), val)
    return TwoTermLInfinity(cx, [[list(v) for v in row] for row in g.bracket], l2_01, l3)


# ---------------------------------------------------------------------------
# classification

@dataclass
class ClassifyingQuadruple:
    algebra: LieAlgebra
    rep: Representation
    cocycle: Cochain
    skeletal: TwoTermLInfinity
    witness: LInfHom  # skeletal -> original, passes check_hom


def classify(L: SemistrictLie2Algebra) -> ClassifyingQuadruple:
    """Skeletalize the complex, transport the brackets along the
    equivalence, and read off (g, V, rho, [l3]).

    The inclusion `sk.include` must be an L-infinity homomorphism, the
    witness, which forces the transported pieces: its phi2 is
    -tau([u., u.]), and its l3 equation (`l3_compatibility_residuals`),
    swept with the skeleton's l3 set to zero, leaves the residual -u1 l3,
    so l3 = -v1 (residual).  Only increasing triples are read.  That is
    exact: a structure that fails an axiom is refused with a ValueError
    naming the first failing one before anything is transported, and on
    one that passes the transported l3 is alternating, so the orderings
    `build_two_slot` writes of each key carry the value the equation
    gives there.  Everything is verified before returning: the skeleton
    has d = 0, so its axiom (i) is the cocycle condition on l3, and one
    `check_axioms` call checks both.
    """
    v = L.data
    axioms = check_axioms(v)
    if not axioms.passed:
        raise ValueError(f"structure fails axiom {axioms.first_failure.name}")
    sk = skeletalize_complex(v.complex)
    u0, u1 = sk.include.phi0, sk.include.phi1
    v0, v1 = sk.project.phi0, sk.project.phi1
    tau = sk.homotopy.tau
    n0, n1 = sk.skeletal.dim0, sk.skeletal.dim1
    ue = [u0.col(i) for i in range(n0)]  # images of the skeleton's basis
    brackets = [[v.bracket00(ue[i], ue[j]) for j in range(n0)] for i in range(n0)]
    bracket = [[v0.matvec(x) for x in row] for row in brackets]
    rho = [v1 @ RMatrix.from_cols([v.act(ue[i], u1.col(a)) for a in range(n1)], rows=v.dim1)
           for i in range(n0)]
    phi2 = [[vneg(tau.matvec(x)) for x in row] for row in brackets]
    algebra = LieAlgebra(n0, bracket)
    rep = Representation(algebra, n1, rho)

    flat = LInfHom(build_two_slot(Cochain(rep, 3)), v, sk.include, phi2)
    vals = {}
    for key, resid in l3_compatibility_residuals(flat, combinations(range(n0), 3)):
        r = vneg(resid)
        if any(x != 0 for x in v.d.matvec(r)):
            raise AssertionError("transported l3 falls outside ker(d)")
        val = v1.matvec(r)
        if any(x != 0 for x in val):
            vals[key] = val
    cocycle = Cochain(rep, 3, vals)
    skeletal = build_two_slot(cocycle)
    witness = LInfHom(skeletal, v, sk.include, phi2)
    axioms = check_axioms(skeletal)
    if not axioms.result("i_jacobiator_coherence").passed:   # d = 0: (i) is delta l3 = 0
        raise AssertionError("transported l3 is not a cocycle")
    if not axioms.passed:
        raise AssertionError("transported structure fails the axioms")
    return ClassifyingQuadruple(algebra, rep, cocycle, skeletal, witness)


def equivalence_from_cohomologous(w1: Cochain, w2: Cochain):
    """Explicit invertible homomorphism two_slot(w1) -> two_slot(w2) when
    w1 and w2 are cohomologous: the identity chain map with phi2 a primitive
    of w1 - w2 found by solving the coboundary system.

    Returns None when the classes differ.  With the construction of
    classify this is the backward direction of the classification: the
    forward direction (equivalent inputs give cohomologous outputs) is a
    test, this produces the witness for the converse.
    """
    diff = w1 - w2  # refuses cochains over different representations
    rep = diff.rep
    sol = solve_linear(coboundary_matrix(rep, 2), cochain_to_coords(diff))
    if sol is None:
        return None
    theta = coords_to_cochain(rep, 2, sol)
    src = build_two_slot(w1)
    dst = build_two_slot(w2)
    n0 = rep.algebra.dim
    phi2 = [[theta.evaluate((i, j)) for j in range(n0)] for i in range(n0)]
    return LInfHom(src, dst, identity_chain_map(src.complex), phi2)


# ---------------------------------------------------------------------------
# the Killing form and the canonical examples

def killing_form(g: LieAlgebra) -> RMatrix:
    """<x, y> = tr(ad x ad y)."""
    ads = [g.ad(i) for i in range(g.dim)]
    return RMatrix.from_rows([[sum(p[k, k] for k in range(g.dim)) for p in (a @ b for b in ads)]
                              for a in ads], g.dim)


def killing_triple_cochain(g: LieAlgebra, scale=1) -> Cochain:
    """The 3-cochain scale * <x, [y, z]> with values in the trivial line."""
    rep = trivial_rep(g, 1)
    K = killing_form(g)
    vals = {}
    for (i, j, k) in combinations(range(g.dim), 3):
        br = g.bracket[j][k]
        val = scale * sum(K[i, m] * c for m, c in enumerate(br) if c)
        if val:
            vals[(i, j, k)] = [val]
    return Cochain(rep, 3, vals)


def build_g_hbar(g: LieAlgebra, hbar) -> SemistrictLie2Algebra:
    """The skeletal structure on (g, Q, trivial) with l3 = hbar <x,[y,z]>."""
    return from_linfty(build_two_slot(killing_triple_cochain(g, hbar)))


def build_cross_product() -> SemistrictLie2Algebra:
    """Q^3 with the cross product and l3(x, y, z) = x . (y x z)."""
    g = so3_algebra()
    return from_linfty(build_two_slot(Cochain(trivial_rep(g, 1), 3, {(0, 1, 2): [1]})))


def so3_algebra() -> LieAlgebra:
    """Basis with e1 x e2 = e3 cyclically (the cross product)."""
    b = [[vzeros(3) for _ in range(3)] for _ in range(3)]
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        b[i][j][k] = 1
        b[j][i][k] = -1
    return LieAlgebra(3, b)


def sl2_algebra() -> LieAlgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    b = [[vzeros(3) for _ in range(3)] for _ in range(3)]
    b[0][1][1], b[1][0][1] = 2, -2
    b[0][2][2], b[2][0][2] = -2, 2
    b[1][2][0], b[2][1][0] = 1, -1
    return LieAlgebra(3, b)


def sl_algebra(n: int) -> LieAlgebra:
    """sl_n with structure constants from commutators of elementary
    matrices, [E_ij, E_kl] = d_jk E_il - d_li E_kj.  Basis: E_ij for
    i != j in lexicographic order, then H_k = E_kk - E_(k+1)(k+1)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{p: 1} for p in off] + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]

    def coords(m: dict) -> list:
        # diag(d_0, ..., d_(n-1)) = sum_k (d_0 + ... + d_k) H_k when traceless
        diag = [m.get((k, k), 0) for k in range(n - 1)]
        return [m.get(p, 0) for p in off] + [sum(diag[:k + 1]) for k in range(n - 1)]

    def commutator(x: dict, y: dict) -> dict:
        m = {}
        for (i, j), a in x.items():
            for (k, l), b in y.items():
                if j == k:
                    m[(i, l)] = m.get((i, l), 0) + a * b
                if l == i:
                    m[(k, j)] = m.get((k, j), 0) - a * b
        return m

    return LieAlgebra(len(basis), [[coords(commutator(x, y)) for y in basis] for x in basis])


def abelian_algebra(n: int) -> LieAlgebra:
    return LieAlgebra(n, [[vzeros(n) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# JSON formats

def algebra_to_json(g: LieAlgebra) -> dict:
    return {"dim": g.dim, "bracket": tensor_to_json(g.bracket)}


def algebra_from_json(obj: dict) -> LieAlgebra:
    dim = as_count(need(obj, "dim"), "dim")
    bracket = tensor_from_json(need(obj, "bracket"), (dim,) * 3, "bracket")
    return LieAlgebra(dim, bracket)


def rep_to_json(r: Representation) -> dict:
    return {"dimV": r.dimV, "rho": [mat_to_json(m) for m in r.rho]}


def rep_from_json(g: LieAlgebra, obj: dict) -> Representation:
    dimV = as_count(need(obj, "dimV"), "dimV")
    rho = tensor_from_json(need(obj, "rho"), (g.dim, dimV, dimV), "rho")
    return Representation(g, dimV, [RMatrix.from_rows(m, dimV) for m in rho])


def cochain_to_json(w: Cochain) -> dict:
    return {"degree": w.degree,
            "values": {"<".join(str(i) for i in k): tensor_to_json(list(v))
                       for k, v in sorted(w.values.items())}}


def cochain_from_json(rep: Representation, obj: dict) -> Cochain:
    degree = as_count(need(obj, "degree"), "degree")
    raw = need(obj, "values")
    if not isinstance(raw, dict):
        raise FixtureError("field 'values' must map index tuples to vectors")
    vals = {}
    for key, vec in raw.items():
        try:
            idx = tuple(int(p) for p in key.split("<")) if key else ()
        except ValueError:
            raise FixtureError(f"field 'values': bad key {key!r}") from None
        vals[idx] = tensor_from_json(vec, (rep.dimV,), f"values[{key}]")
    try:
        return Cochain(rep, degree, vals)
    except ValueError as exc:
        raise FixtureError(f"field 'values': {exc}") from None
