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
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm

from .exactlin import (DimensionMismatch, RMatrix, contract, vadd, vneg, vscale, vsub, vunit,
                       vzeros)
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
    """The nonzero (m, coefficient) pairs of each vector t[i][j], so that a
    sweep costs time in the nonzeros it reads."""
    return [[[(m, c) for m, c in enumerate(v) if c] for v in row] for row in t]


def jacobi_violations(bracket: list, antisymmetric: bool) -> list:
    """First (i, j, k) where [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    is nonzero.  The Jacobiator is alternating when the bracket is
    antisymmetric, as the caller's antisymmetry check says, and then only
    increasing triples are swept."""
    n, nz = len(bracket), nonzero_terms(bracket)

    def jacobiator(i: int, j: int, k: int) -> list:
        out = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in nz[a][b]:
                for p, y in nz[m][c]:
                    out[p] += x * y
        return out
    return first_violation(((i, j, k), jacobiator(i, j, k))
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


# ---------------------------------------------------------------------------
# clearing denominators for the sweeps

def _times(t: list, D: int) -> list:
    """t with every entry multiplied by D, a multiple of its denominator, as ints."""
    return [_times(x, D) if isinstance(x, list) else x.numerator * (D // x.denominator)
            for x in t]


def integral(v: TwoTermLInfinity) -> tuple:
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


def unscaled(violations: list, D: int, degree: int = 2) -> list:
    """The violations of a sweep over integral(v)[1] whose residual has
    this degree in the structure constants, each residual divided by
    D^degree: the violations of the same sweep over v."""
    if D == 1:
        return violations
    return [(loc, [Fraction(x, D ** degree) for x in resid]) for loc, resid in violations]


# ---------------------------------------------------------------------------
# the generalized Jacobi oracle

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


def generalized_jacobi(v: TwoTermLInfinity, arity: int) -> CheckReport:
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
    rep.add("phi2_difference", first_violation(
        ((i, j), vsub(vsub(f.phi2[i][j], g.phi2[i][j]),
                      vsub(vsub(dst.act(f.chain.phi0.col(i), tau.col(j)),
                                tau.matvec(src.l2_00[i][j])),
                           dst.act(g.chain.phi0.col(j), tau.col(i)))))
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
