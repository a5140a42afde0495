"""Two-term L-infinity algebras as structure-constant data.

Storage conventions (all nested lists of exact rationals):

* ``l2_00[i][j][k]``: coefficient of e_k in [e_i, e_j]  (V0 x V0 -> V0)
* ``l2_01[i][a][b]``: coefficient of f_b in [e_i, f_a]  (V0 x V1 -> V1)
* ``l3[i][j][k][m]``: coefficient of f_m in l3(e_i, e_j, e_k)

The bracket on V1 x V0 is determined by [h, x] = -[x, h] and the
bracket on V1 x V1 vanishes, so neither is stored.  Antisymmetry is
validated, not canonicalized: invalid candidates stay representable so
negative fixtures can be reported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product
from math import lcm

from .exactlin import DimensionMismatch, RMatrix, contract, vadd, vneg, vsub, vzeros
from .report import CheckReport, first_violation
from .serialize import as_count, mat_from_json, mat_to_json, need, tensor_from_json, tensor_to_json
from .twoterm import (ChainHomotopy, ChainMap, TwoTermComplex, check_chain_map,
                      check_homotopy, compose_chain_maps, horizontal_homotopy,
                      identity_chain_map, vertical_homotopy, zero_homotopy)


@dataclass
class TwoTermLInfinity:
    complex: TwoTermComplex
    l2_00: list
    l2_01: list
    l3: list

    def __post_init__(self):
        n0, n1 = self.dim0, self.dim1
        _check_tensor_shape(self.l2_00, (n0, n0, n0), "l2_00")
        _check_tensor_shape(self.l2_01, (n0, n1, n1), "l2_01")
        _check_tensor_shape(self.l3, (n0, n0, n0, n1), "l3")

    @property
    def dim0(self) -> int:
        return self.complex.dim0

    @property
    def dim1(self) -> int:
        return self.complex.dim1

    @property
    def d(self) -> RMatrix:
        return self.complex.d

    # bilinear / trilinear extensions over V0 and V1 vectors
    def bracket00(self, u: list, v: list) -> list:
        return contract(self.l2_00, self.dim0, u, v)

    def act(self, u: list, h: list) -> list:
        """l2 on V0 x V1: the action of u on the arrow vector h."""
        return contract(self.l2_01, self.dim1, u, h)

    def l3_eval(self, u: list, v: list, w: list) -> list:
        return contract(self.l3, self.dim1, u, v, w)


def _check_tensor_shape(t, dims: tuple, name: str) -> None:
    """Nested lists of the given lengths, at least two levels deep; the
    innermost lists are checked in one loop and the scalars themselves are
    not visited."""
    if not isinstance(t, list) or len(t) != dims[0]:
        raise DimensionMismatch(f"{name} must have length {dims[0]} at this level")
    for x in t:
        if len(dims) > 2:
            _check_tensor_shape(x, dims[1:], name)
        elif not isinstance(x, list) or len(x) != dims[1]:
            raise DimensionMismatch(f"{name} must have length {dims[1]} at this level")


def zero_l3(n0: int, n1: int) -> list:
    return [[[vzeros(n1) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]


def zero_phi2(n0: int, n1: int) -> list:
    return [[vzeros(n1) for _ in range(n0)] for _ in range(n0)]


# ---------------------------------------------------------------------------
# unshuffles and Koszul signs

def unshuffles(j: int, n: int) -> list:
    """(j, n-j)-unshuffles of {0..n-1} as value tuples, lexicographic.

    j = n is accepted and yields the identity alone, the degenerate
    block split the arity-n oracle needs.
    """
    if j == n:
        return [tuple(range(n))]
    if not 1 <= j <= n - 1:
        raise ValueError(f"block size {j} out of range for n = {n}")
    out = []
    for left in combinations(range(n), j):
        chosen = set(left)
        out.append(left + tuple(x for x in range(n) if x not in chosen))
    return out


def perm_sign(perm: tuple) -> int:
    inv = sum(1 for u in range(len(perm)) for v in range(u + 1, len(perm))
              if perm[u] > perm[v])
    return -1 if inv % 2 else 1


def koszul_epsilon(perm: tuple, degrees: tuple) -> int:
    """Sign from moving graded arguments past each other, (-1)^{pq} per swap;
    perm[u] is the original position of the argument now at u, and
    degrees[k] the degree of the argument originally at k."""
    eps = 1
    for u in range(len(perm)):
        for v in range(u + 1, len(perm)):
            if perm[u] > perm[v] and degrees[perm[u]] * degrees[perm[v]] % 2:
                eps = -eps
    return eps


def koszul_chi(perm: tuple, degrees: tuple) -> int:
    """chi(sigma) = sgn(sigma) * epsilon(sigma)."""
    return perm_sign(perm) * koszul_epsilon(perm, degrees)


# ---------------------------------------------------------------------------
# bracket tensors t[i][j] -> vector: the one antisymmetry and Jacobi sweep

def antisymmetry_violations(t: list) -> list:
    """First (i, j) where t[i][j] + t[j][i] is nonzero; t is a bracket
    or a homomorphism's phi2.  An antisymmetric t, the common case, is
    told by comparing two flat lists, with no sweep."""
    n = len(t)
    flat = [x for row in t for vec in row for x in vec]
    if flat == [-x for i in range(n) for row in t for x in row[i]]:
        return []
    return first_violation(((i, j), vadd(t[i][j], t[j][i]))
                           for i in range(n) for j in range(n))


def l3_antisymmetry_violations(l3: list) -> list:
    """First (i, j, k) where l3 does not change sign when its first two
    or its last two slots swap, with the sum of l3 and the swapped l3.
    An alternating l3 is told by comparing flat lists, with no sweep."""
    n = len(l3)
    flat = [x for plane in l3 for row in plane for vec in row for x in vec]
    if (flat == [-x for i in range(n) for j in range(n) for vec in l3[j][i] for x in vec]
            and flat == [-x for plane in l3 for j in range(n) for row in plane for x in row[j]]):
        return []
    return first_violation(
        ((i, j, k), r) for i, j, k in product(range(n), repeat=3)
        for r in (vadd(l3[i][j][k], l3[j][i][k]), vadd(l3[i][j][k], l3[i][k][j])))


def is_alternating(v: TwoTermLInfinity) -> bool:
    """Whether (a) and (d) hold: l2_00 antisymmetric, l3 totally
    antisymmetric.  Then the residuals of (g), (i), the octagon and the
    unshuffle identity are alternating, graded for the last, and their
    sweeps visit sorted tuples only."""
    return not antisymmetry_violations(v.l2_00) and not l3_antisymmetry_violations(v.l3)


def basis_tuples(n: int, k: int, alternating: bool):
    """The basis k-tuples of an n-dimensional space that a sweep visits,
    in lexicographic order: strictly increasing ones when the residual is
    alternating, every one otherwise.

    An alternating residual at a tuple is plus or minus the residual at
    its sorted permutation, and zero at a tuple with a repeated index.
    The lexicographically first tuple of a multiset is the sorted one, so
    the product sweep's first nonzero tuple is increasing, and the
    increasing sweep stops there with the same residual."""
    return combinations(range(n), k) if alternating else product(range(n), repeat=k)


def nonzero_terms(t: list) -> list:
    """t, nested lists to any depth, with each innermost vector replaced by
    its nonzero (m, coefficient) pairs, so that a sweep costs time in the
    nonzeros it reads.  These are the tables every structure sweep reads."""
    if t and t[0] and isinstance(t[0][0], list):
        return [nonzero_terms(x) for x in t]
    return [[(m, c) for m, c in enumerate(v) if c] for v in t]


def first_slot_last(t: list, sizes: tuple) -> list:
    """The table t[m][y]..[z], whose slots have these sizes, indexed as
    [y]..[z][m], sharing t's entries: the form in which a slot is
    contracted with an inner vector."""
    if len(sizes) < 2:
        return t
    return [first_slot_last([t[m][y] for m in range(sizes[0])], (sizes[0], *sizes[2:]))
            for y in range(sizes[1])]


def sum_products(n: int, terms) -> list:
    """The vector of length n holding, for each (sign, pairs, table) of
    terms, sign x y at p for each (m, x) in pairs and (p, y) in table[m]:
    one contraction of nonzero tables (`nonzero_terms`) per term."""
    out = [0] * n
    for sign, pairs, table in terms:
        for m, x in pairs:
            x *= sign
            for p, y in table[m]:
                out[p] += x * y
    return out


def _columns_on(cols: list, t: list, n: int, size: int) -> list:
    """For each column u of a matrix, as nonzero pairs, sum_a u[a] t[a] as
    the nonzero table of its n blocks of this size, t[a] the nonzeros of a
    flat vector: a structure tensor's first slot on every column at once."""
    out = [[[] for _ in range(n)] for _ in cols]
    for u, blocks in zip(cols, out):
        for p, x in enumerate(sum_products(n * size, [(1, u, t)])):
            if x:
                blocks[p // size].append((p % size, x))
    return out


def jacobi_violations(bracket: list, antisymmetric: bool) -> list:
    """First (i, j, k) where [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    is nonzero.  The Jacobiator is alternating when the bracket is
    antisymmetric, as the caller's antisymmetry check says, and then only
    increasing triples are swept."""
    n, nz = len(bracket), nonzero_terms(bracket)
    nz_t = first_slot_last(nz, (n, n))
    return first_violation(
        ((i, j, k), sum_products(n, [(1, nz[i][j], nz_t[k]), (1, nz[j][k], nz_t[i]),
                                     (1, nz[k][i], nz_t[j])]))
        for i, j, k in basis_tuples(n, 3, antisymmetric))


# ---------------------------------------------------------------------------
# the axiom list (a)-(i)

def check_axioms(v: TwoTermLInfinity) -> CheckReport:
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

    The residuals of (e)-(i) are read off nonzero tables of d, l2_00,
    l2_01 and l3 built once per call (`sum_products`): the same finite
    sums of exact products as one contraction per term, added in another
    order, at the same tuples in the same order, so the first violation,
    its location and its residual are unchanged.
    """
    rep = CheckReport("two_term_l_infinity")
    D, v = integral(v)
    n0, n1, b = v.dim0, v.dim1, v.l2_00

    def quadratic(name, n, residuals):
        rep.add(name, unscaled(first_violation(
            (loc, sum_products(n, terms)) for loc, terms in residuals), D))

    a_ok = rep.add("a_bracket_antisymmetry", unscaled(antisymmetry_violations(b), D, 1)).passed
    rep.add_pass("b_mixed_antisymmetry")   # determined by storage
    rep.add_pass("c_bracket_degree_two")   # no V2, nothing to store
    d_ok = rep.add("d_l3_antisymmetry", unscaled(l3_antisymmetry_violations(v.l3), D, 1)).passed

    # dcol[a][m] = d[m][a]; t[x][m] reads the first slot of t last
    dcol = nonzero_terms([v.d.col(a) for a in range(n1)])
    b, act, l3 = nonzero_terms(b), nonzero_terms(v.l2_01), nonzero_terms(v.l3)
    bt, act_t = first_slot_last(b, (n0, n0)), first_slot_last(act, (n0, n1))
    l3_t = first_slot_last(l3, (n0, n0, n0))
    quadratic("e_differential_action", n0, (
        ((i, a), [(1, act[i][a], dcol), (-1, dcol[a], b[i])])
        for i in range(n0) for a in range(n1)))
    # [dh,k] = [h,dk] means l2(dh, k) = -l2(dk, h)
    quadratic("f_differential_symmetry", n1, (
        ((a, c), [(1, dcol[a], act_t[c]), (1, dcol[c], act_t[a])])
        for a in range(n1) for c in range(n1)))

    alternating = a_ok and d_ok
    # d l3(i,j,k) = [[i,k],j] - [[i,j],k] - [[j,k],i]
    quadratic("g_jacobi_up_to_d", n0, (
        ((i, j, k), [(1, l3[i][j][k], dcol), (-1, b[i][k], bt[j]), (1, b[i][j], bt[k]),
                     (1, b[j][k], bt[i])])
        for i, j, k in basis_tuples(n0, 3, alternating)))
    # l3(dh, i, j) = [i,[j,h]] - [j,[i,h]] - [[i,j],h]
    quadratic("h_l3_naturality", n1, (
        ((a, i, j), [(1, dcol[a], l3_t[i][j]), (-1, act[j][a], act[i]), (1, act[i][a], act[j]),
                     (1, b[i][j], act_t[a])])
        for a, i, j in product(range(n1), range(n0), range(n0))))
    quadratic("i_jacobiator_coherence", n1, (
        ((p, q, r, s), [(1, b[p][r], l3_t[q][s]), (1, b[q][s], l3_t[p][r]),
                        (1, l3[p][q][s], act[r]), (1, l3[q][r][s], act[p]),
                        (-1, l3[p][q][r], act[s]), (-1, l3[p][r][s], act[q]),
                        (-1, b[p][q], l3_t[r][s]), (-1, b[p][s], l3_t[q][r]),
                        (-1, b[q][r], l3_t[p][s]), (-1, b[r][s], l3_t[p][q])])
        for p, q, r, s in basis_tuples(n0, 4, alternating)))
    return rep


# ---------------------------------------------------------------------------
# clearing denominators for the sweeps

def integral(v: TwoTermLInfinity) -> tuple:
    """(D, D v): the least common denominator D of every entry of d, l2_00,
    l2_01 and l3, and the structure with all four multiplied by D, over
    the integers, read in one flat pass that skips ints and built in one
    pass per tensor.  When D = 1 the second item is v itself.

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
    d = [{a: x.numerator * (D // x.denominator) for a, x in row.items()} for row in v.d.entries]
    l2 = [[[[x.numerator * (D // x.denominator) for x in vec] for vec in row] for row in t]
          for t in (v.l2_00, v.l2_01)]
    l3 = [[[[x.numerator * (D // x.denominator) for x in vec] for vec in row] for row in plane]
          for plane in v.l3]
    cx = TwoTermComplex(v.dim0, v.dim1, RMatrix(v.dim0, v.dim1, d))
    return D, TwoTermLInfinity(cx, *l2, l3)


def unscaled(violations: list, D: int, degree: int = 2) -> list:
    """The violations of a sweep over integral(v)[1] whose residual has
    this degree in the structure constants, each residual divided by
    D^degree: the violations of the same sweep over v."""
    if D == 1:
        return violations
    return [(loc, [Fraction(x, D ** degree) for x in resid]) for loc, resid in violations]


# ---------------------------------------------------------------------------
# the generalized Jacobi oracle

def generalized_jacobi(v: TwoTermLInfinity, arity: int) -> CheckReport:
    """The unshuffle identity at the given arity, on all graded basis tuples.

    Each term carries chi(sigma) and the factor (-1)^{i(j-1)}; higher
    arities than 4 vanish identically for two-term data.  The terms and
    their signs depend only on the tuple's degrees, so they are listed
    once per degree pattern.  The tables of l_i on basis tuples are the
    structure itself: the columns of d, l2_00, l2_01, -l2_01 with its
    slots swapped, and l3, as nonzero tables built when a pattern first
    reads them, so an arity with no terms builds none.  Each inner bracket
    is read off one and contracted with the outer one, read with its
    first slot last at the tuple's other indices (`sum_products`).

    Every term is one l_i contracted into another, so the residual is a
    homogeneous quadratic polynomial in the structure constants: the
    sweep runs over the integers on D v (`integral`) and divides the
    first violation's residual by D^2.  It is the same finite sum of
    exact products as one contraction per term, added in another order,
    at the same tuples in the same order, so the first violation, its
    location and its residual are unchanged.

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
    # (k, argument degrees) -> (builder of l_k on basis tuples, output degree), in 0/1 only
    structure = {(1, (1,)): (lambda: [v.d.col(a) for a in range(n1)], 0),
                 (2, (0, 0)): (lambda: v.l2_00, 0), (2, (0, 1)): (lambda: v.l2_01, 1),
                 (2, (1, 0)): (lambda: [[vneg(v.l2_01[i][a]) for i in range(n0)]
                                        for a in range(n1)], 1),
                 (3, (0, 0, 0)): (lambda: v.l3, 1)}
    tables, patterns = {}, {}

    def table(key, outer: bool):
        """The nonzero table of l_k, with its first slot last when outer."""
        if (key, outer) not in tables:
            t = table(key, False) if outer else nonzero_terms(structure[key][0]())
            tables[key, outer] = first_slot_last(t, [dims[g] for g in key[1]]) if outer else t
        return tables[key, outer]

    def terms(degrees):
        """(coefficient, inner slots, inner table, outer slots, outer table,
        output degree) for each unshuffle term that lands in degrees 0/1."""
        out = []
        for i in range(1, arity + 1):
            j = arity + 1 - i
            sign_ij = -1 if (i * (j - 1)) % 2 else 1
            for sigma in unshuffles(i, arity):
                inner = (i, tuple(degrees[p] for p in sigma[:i]))
                if inner not in structure:
                    continue
                outer = (j, (structure[inner][1],) + tuple(degrees[p] for p in sigma[i:]))
                if outer not in structure:
                    continue
                chi = koszul_chi(sigma, degrees)
                out.append((chi * sign_ij, sigma[:i], table(inner, False), sigma[i:],
                            table(outer, True), structure[outer][1]))
        return out

    def residual(combo):
        """Both degree parts of the unshuffle sum at one graded basis tuple."""
        degrees = tuple(dg for dg, _ in combo)
        if degrees not in patterns:
            patterns[degrees] = terms(degrees)
        parts = ([], [])
        for coef, inner_slots, inner, outer_slots, outer, deg in patterns[degrees]:
            for p in inner_slots:
                inner = inner[combo[p][1]]
            for p in outer_slots:
                outer = outer[combo[p][1]]
            parts[deg].append((coef, inner, outer))
        return sum_products(n0, parts[0]) + sum_products(n1, parts[1])

    if alternating:  # sorted, and no degree-0 element twice
        combos = (c for c in combinations_with_replacement(elems, arity)
                  if not any(p == q and p[0] == 0 for p, q in zip(c, c[1:])))
    else:
        combos = product(elems, repeat=arity)
    rep.add("unshuffle_identity", unscaled(first_violation(
        (combo, residual(combo)) for combo in combos), D))
    return rep


# ---------------------------------------------------------------------------
# homomorphisms and 2-homomorphisms

@dataclass
class LInfHom:
    source: TwoTermLInfinity
    target: TwoTermLInfinity
    chain: ChainMap
    phi2: list  # [i][j] -> vector in target V1

    def __post_init__(self):
        _check_tensor_shape(self.phi2, (self.source.dim0, self.source.dim0,
                                        self.target.dim1), "phi2")
        if self.chain.source != self.source.complex or self.chain.target != self.target.complex:
            raise DimensionMismatch("chain map endpoints disagree with the structures")


def identity_hom(v: TwoTermLInfinity) -> LInfHom:
    return LInfHom(v, v, identity_chain_map(v.complex), zero_phi2(v.dim0, v.dim1))


def _hom_tables(f: LInfHom) -> tuple:
    """Nonzero tables of the columns of phi0 and of phi1, of phi2, and of
    the target's l2_01 with its first slot on each column of phi0."""
    phi0, phi1, m1 = f.chain.phi0, f.chain.phi1, f.target.dim1
    fe = nonzero_terms([phi0.col(i) for i in range(phi0.cols)])
    act = _columns_on(fe, nonzero_terms([list(chain(*row)) for row in f.target.l2_01]), m1, m1)
    return fe, nonzero_terms([phi1.col(a) for a in range(phi1.cols)]), nonzero_terms(f.phi2), act


def l3_compatibility_residuals(f: LInfHom, triples):
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
    tabulated once per call, a slot at a time, in O(n0 m0^3 m1 + n0^2 m0^2
    m1) (`_columns_on`), where l3 on phi0 afresh costs O(m0^3 m1) a triple.
    Each residual is the same finite sum of exact products as one
    contraction per term, added in another order (`sum_products`)."""
    src, n0, m0, m1 = f.source, f.source.dim0, f.target.dim0, f.target.dim1
    fe, phi1, phi2, act = _hom_tables(f)
    sb, phi2_t = nonzero_terms(src.l2_00), first_slot_last(phi2, (n0, n0))
    flat = nonzero_terms([list(chain(*chain(*plane))) for plane in f.target.l3])
    l3f = [_columns_on(fe, t, m0, m1) for t in _columns_on(fe, flat, m0, m0 * m1)]  # [i][j][c]
    for i, j, k in triples:
        l3 = [(a, x) for a, x in enumerate(src.l3[i][j][k]) if x]   # read once, not tabulated
        yield (i, j, k), sum_products(m1, [
            (1, sb[i][j], phi2_t[k]), (-1, phi2[i][j], act[k]), (1, l3, phi1),
            (-1, fe[k], l3f[i][j]), (-1, phi2[j][k], act[i]), (1, phi2[i][k], act[j]),
            (-1, sb[j][k], phi2[i]), (-1, sb[i][k], phi2_t[j])])


def check_hom(f: LInfHom) -> CheckReport:
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

    The bracket and action equations read the target's l2_00 and l2_01
    with their first slot on each column of phi0, tabulated once per call
    (`_columns_on`).  Each residual is the same finite sum of exact
    products as one contraction per term: every report is unchanged.
    """
    rep = CheckReport("l_infinity_hom")
    rep.extend(check_chain_map(f.chain), prefix="chain_")
    src, dst = f.source, f.target
    n0, n1, m0, m1 = src.dim0, src.dim1, dst.dim0, dst.dim1
    alternating = (rep.add("phi2_antisymmetry", antisymmetry_violations(f.phi2)).passed
                   and is_alternating(src) and not l3_antisymmetry_violations(dst.l3))

    fe, phi1, phi2, act = _hom_tables(f)
    bracket = _columns_on(fe, nonzero_terms([list(chain(*row)) for row in dst.l2_00]), m0, m0)
    sb, sa = nonzero_terms(src.l2_00), nonzero_terms(src.l2_01)
    ddst, dsrc = (nonzero_terms([d.col(a) for a in range(d.cols)]) for d in (dst.d, src.d))
    rep.add("bracket_compatibility", first_violation(
        ((i, j), sum_products(m0, [(1, phi2[i][j], ddst), (-1, sb[i][j], fe),
                                   (1, fe[j], bracket[i])]))
        for i in range(n0) for j in range(n0)))
    rep.add("action_compatibility", first_violation(
        ((i, a), sum_products(m1, [(1, dsrc[a], phi2[i]), (-1, sa[i][a], phi1),
                                   (1, phi1[a], act[i])]))
        for i in range(n0) for a in range(n1)))
    rep.add("l3_compatibility", first_violation(
        l3_compatibility_residuals(f, basis_tuples(n0, 3, alternating))))
    return rep


def compose_homs(f: LInfHom, g: LInfHom) -> LInfHom:
    """Diagram order: (f g)_2(x,y) = g2(f0 x, f0 y) + g1(f2(x,y))."""
    if f.target != g.source:
        raise DimensionMismatch("homomorphisms are not composable")
    chain = compose_chain_maps(f.chain, g.chain)
    n0 = f.source.dim0
    fe = [f.chain.phi0.col(i) for i in range(n0)]
    phi2 = [[vadd(contract(g.phi2, g.target.dim1, fe[i], fe[j]),
                  g.chain.phi1.matvec(f.phi2[i][j]))
             for j in range(n0)] for i in range(n0)]
    return LInfHom(f.source, g.target, chain, phi2)


@dataclass
class LInfTwoHom:
    from_hom: LInfHom
    to_hom: LInfHom
    homotopy: ChainHomotopy

    def __post_init__(self):
        if (self.from_hom.source != self.to_hom.source
                or self.from_hom.target != self.to_hom.target):
            raise DimensionMismatch("2-homomorphism endpoints must be parallel")


def check_two_hom(t: LInfTwoHom) -> CheckReport:
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


def identity_two_hom(f: LInfHom) -> LInfTwoHom:
    return LInfTwoHom(f, f, zero_homotopy(f.chain))


def vertical_two_hom(t1: LInfTwoHom, t2: LInfTwoHom) -> LInfTwoHom:
    if t1.to_hom != t2.from_hom:
        raise DimensionMismatch("vertical composite needs matching middle hom")
    return LInfTwoHom(t1.from_hom, t2.to_hom,
                      vertical_homotopy(t1.homotopy, t2.homotopy))


def horizontal_two_hom(t1: LInfTwoHom, t2: LInfTwoHom) -> LInfTwoHom:
    if t1.from_hom.target != t2.from_hom.source:
        raise DimensionMismatch("horizontal composite endpoints do not chain")
    return LInfTwoHom(compose_homs(t1.from_hom, t2.from_hom),
                      compose_homs(t1.to_hom, t2.to_hom),
                      horizontal_homotopy(t1.homotopy, t2.homotopy))


# ---------------------------------------------------------------------------
# JSON format

def linf_to_json(v: TwoTermLInfinity) -> dict:
    return {"dim0": v.dim0, "dim1": v.dim1, "d": mat_to_json(v.d),
            "l2_00": tensor_to_json(v.l2_00), "l2_01": tensor_to_json(v.l2_01),
            "l3": tensor_to_json(v.l3)}


def linf_from_json(obj: dict) -> TwoTermLInfinity:
    n0 = as_count(need(obj, "dim0"), "dim0")
    n1 = as_count(need(obj, "dim1"), "dim1")
    d = mat_from_json(obj, "d", n0, n1)
    l2_00 = tensor_from_json(need(obj, "l2_00"), (n0, n0, n0), "l2_00")
    l2_01 = tensor_from_json(need(obj, "l2_01"), (n0, n1, n1), "l2_01")
    l3 = tensor_from_json(need(obj, "l3"), (n0, n0, n0, n1), "l3")
    return TwoTermLInfinity(TwoTermComplex(n0, n1, d), l2_00, l2_01, l3)
