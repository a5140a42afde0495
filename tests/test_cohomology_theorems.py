"""Lie algebra cohomology against theorems the library does not use.

Each algebra is written out here from its defining brackets, and only
`cohomology_dim`, `cohomologous` and `is_coboundary` are called; every
expected value comes from a theorem about the algebra, not from another
computation in the package:

* Heisenberg algebras h_(2m+1), trivial coefficients: dim H^k =
  C(2m, k) - C(2m, k-2) for k <= m, mirrored above m (Santharoubane,
  Proc. AMS 87, 1983).
* Chevalley-Eilenberg, Koszul: with trivial coefficients the Poincare
  polynomial of sl_n is (1 + t^3)(1 + t^5)...(1 + t^(2n-1)).
* Kunneth: with trivial coefficients the cohomology of g + h is the
  tensor product of the two, so its Poincare polynomial is the product.
* Top degree: H^n(g) of an n-dimensional g with trivial coefficients is
  1 when tr ad(x) = 0 for every x and 0 otherwise.
* Poincare duality: dim H^k(g, V) = dim H^(n-k)(g, V* ox chi), with
  rho*(x) = -rho(x)^T and chi(x) = tr ad(x).
* An invariant form B gives the 3-cocycle <x, [y, z]>_B; on sl2 + sl2
  the forms h1 K + h2 K give independent classes.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from lie2alg.cohomology import (Cochain, LieAlgebra, Representation, cohomologous,
                                cohomology_dim, is_coboundary)
from lie2alg.exactlin import RMatrix


def algebra(dim: int, brackets: dict) -> LieAlgebra:
    """The algebra with [e_i, e_j] = sum_k c_k e_k for each (i, j): {k: c_k}
    of `brackets`, extended antisymmetrically; unlisted pairs commute."""
    b = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, c in vec.items():
            b[i][j][k] += c
            b[j][i][k] -= c
    return LieAlgebra(dim, b)


def heisenberg(m: int) -> LieAlgebra:
    """h_(2m+1): [x_i, y_i] = z on the basis x_1..x_m, y_1..y_m, z."""
    return algebra(2 * m + 1, {(i, m + i): {2 * m: 1} for i in range(m)})


def sl2() -> LieAlgebra:
    """Basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return algebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def sl(n: int) -> LieAlgebra:
    """sl_n on the basis E_ij (i != j), then H_k = E_kk - E_(k+1)(k+1), with
    the matrix commutator; a traceless diag(d) is sum_k (d_0 + .. + d_k) H_k."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [{e: 1} for e in off] + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]

    def mul(a: dict, b: dict) -> dict:
        out = {}
        for ((i, j), x), ((p, q), y) in product(a.items(), b.items()):
            if j == p:
                out[(i, q)] = out.get((i, q), 0) + x * y
        return out

    def coords(m: dict) -> dict:
        vec = {off.index(e): c for e, c in m.items() if e[0] != e[1]}
        for k in range(n - 1):
            vec[len(off) + k] = sum(m.get((p, p), 0) for p in range(k + 1))
        return vec

    brackets = {}
    for a, b in combinations(range(len(mats)), 2):
        ab, ba = mul(mats[a], mats[b]), mul(mats[b], mats[a])
        brackets[(a, b)] = coords({e: ab.get(e, 0) - ba.get(e, 0) for e in ab.keys() | ba.keys()})
    return algebra(len(mats), brackets)


def r3(a) -> LieAlgebra:
    """r_(3,a): ad(e_3) = diag(1, a) on <e_1, e_2>, which commute."""
    return algebra(3, {(0, 2): {0: -1}, (1, 2): {1: -a}})


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    n = g.dim
    brackets = {(i, j): dict(enumerate(g.bracket[i][j])) for i, j in combinations(range(n), 2)}
    brackets.update({(n + i, n + j): {n + k: c for k, c in enumerate(h.bracket[i][j])}
                     for i, j in combinations(range(h.dim), 2)})
    return algebra(n + h.dim, brackets)


def conjugate(g: LieAlgebra, p: list, p_inv: list) -> LieAlgebra:
    """g in the basis f_i = sum_j p[j][i] e_j: [f_i, f_j] = p^-1 [p e_i, p e_j]."""
    n = g.dim
    brackets = {}
    for i, j in combinations(range(n), 2):
        br = [sum(p[a][i] * p[b][j] * g.bracket[a][b][k] for a in range(n) for b in range(n))
              for k in range(n)]
        brackets[(i, j)] = {k: sum(p_inv[k][m] * br[m] for m in range(n)) for k in range(n)}
    return algebra(n, brackets)


def ad_matrices(g: LieAlgebra) -> list:
    """ad(e_i) as dense rows: column j is [e_i, e_j]."""
    n = g.dim
    return [[[g.bracket[i][j][a] for j in range(n)] for a in range(n)] for i in range(n)]


def rep_of(g: LieAlgebra, mats: list) -> Representation:
    return Representation(g, len(mats[0]), [RMatrix.from_rows(m, len(m)) for m in mats])


def trivial(g: LieAlgebra) -> Representation:
    return rep_of(g, [[[0]] for _ in range(g.dim)])


def dual_twisted(g: LieAlgebra, mats: list) -> Representation:
    """V* ox chi: x acts by -rho(x)^T + tr ad(x)."""
    chi = [sum(g.bracket[i][j][j] for j in range(g.dim)) for i in range(g.dim)]
    d = len(mats[0])
    return rep_of(g, [[[-m[b][a] + (chi[i] if a == b else 0) for b in range(d)]
                       for a in range(d)] for i, m in enumerate(mats)])


def betti(rep: Representation) -> list:
    return [cohomology_dim(rep, k) for k in range(rep.algebra.dim + 1)]


def test_heisenberg_betti_numbers():
    for m in range(1, 5):
        low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0) for k in range(m + 1)]
        assert betti(trivial(heisenberg(m))) == low + low[::-1]
    assert betti(trivial(heisenberg(4))) == [1, 8, 27, 48, 42, 42, 48, 27, 8, 1]


def test_heisenberg_middle_degrees():
    """h_13 and h_15, where the middle degree is largest."""
    for m, want in ((6, 429), (7, 1430)):
        assert cohomology_dim(trivial(heisenberg(m)), m) == comb(2 * m, m) - comb(2 * m, m - 2)
        assert comb(2 * m, m) - comb(2 * m, m - 2) == want


def product_of(p: list, q: list) -> list:
    """The coefficients of the product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for (i, x), (j, y) in product(enumerate(p), enumerate(q)):
        out[i + j] += x * y
    return out


def test_sl4_trivial_coefficients_all_degrees():
    """H^0..H^15(sl4): the 16 coefficients of (1 + t^3)(1 + t^5)(1 + t^7)."""
    poincare = [1]
    for m in (2, 3, 4):
        poincare = product_of(poincare, [1] + [0] * (2 * m - 2) + [1])
    assert poincare == [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1]
    rep = trivial(sl(4))
    assert [cohomology_dim(rep, k) for k in range(16)] == poincare


def test_kunneth_with_trivial_coefficients():
    for h, want in ((sl2(), [1, 0, 0, 2, 0, 0, 1]), (heisenberg(1), [1, 2, 2, 2, 2, 2, 1])):
        got = betti(trivial(direct_sum(sl2(), h)))
        assert got == want == product_of(betti(trivial(sl2())), betti(trivial(h)))


def test_top_degree_detects_unimodularity():
    for a, top in ((-1, 1), (2, 0), (Fraction(1, 3), 0)):
        assert cohomology_dim(trivial(r3(a)), 3) == top


def assert_poincare_duality(g: LieAlgebra, mats: list) -> None:
    assert betti(rep_of(g, mats)) == betti(dual_twisted(g, mats))[::-1]


DUALITY_CASES = ([(r3(a), kind) for a in (-1, 2, Fraction(1, 3))
                  for kind in ("trivial", "adjoint")]
                 + [(heisenberg(1), "adjoint"), (sl2(), "adjoint")])


def coefficients(g: LieAlgebra, kind: str) -> list:
    return ad_matrices(g) if kind == "adjoint" else [[[0]] for _ in range(g.dim)]


def test_poincare_duality():
    for g, kind in DUALITY_CASES:
        assert_poincare_duality(g, coefficients(g, kind))


@st.composite
def unimodular(draw, n: int):
    """A random integer matrix of determinant +-1 and its inverse, as a
    product of elementary row additions and one row swap."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=5)):
        if i != j:
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            p_inv = [[row[k] - c * row[i] if k == j else row[k] for k in range(n)]
                     for row in p_inv]
    if draw(st.booleans()):
        p[0], p[1] = p[1], p[0]
        p_inv = [[row[1], row[0], *row[2:]] for row in p_inv]
    return p, p_inv


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DUALITY_CASES), unimodular(3))
def test_poincare_duality_on_conjugates(case, change):
    g, kind = case
    p, p_inv = change
    assert [[sum(p[i][k] * p_inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)] == [[int(i == j) for j in range(3)] for i in range(3)]
    h = conjugate(g, p, p_inv)
    assert_poincare_duality(h, coefficients(h, kind))


def killing(g: LieAlgebra) -> list:
    ads = ad_matrices(g)
    n = g.dim
    return [[sum(ads[i][a][b] * ads[j][b][a] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


def invariant_cochain(g: LieAlgebra, form: list) -> Cochain:
    """The 3-cochain <x, [y, z]>_B on increasing triples, trivial coefficients."""
    vals = {}
    for i, j, k in combinations(range(g.dim), 3):
        x = sum(form[i][m] * c for m, c in enumerate(g.bracket[j][k]))
        if x:
            vals[(i, j, k)] = [x]
    return Cochain(trivial(g), 3, vals)


def delta_trivial(g: LieAlgebra, w: Cochain) -> dict:
    """The Chevalley-Eilenberg differential with trivial coefficients,
    evaluated term by term: (delta w)(x_0..x_n) = sum over i < j of
    (-1)^(i+j) w([x_i, x_j], x_0..x_n without x_i, x_j)."""
    def w_at(idx: tuple):
        if len(set(idx)) < len(idx):
            return 0
        inversions = sum(a > b for a, b in combinations(idx, 2))
        return (-1) ** inversions * w.values.get(tuple(sorted(idx)), [0])[0]
    out = {}
    for key in combinations(range(g.dim), w.degree + 1):
        total = 0
        for i, j in combinations(range(len(key)), 2):
            rest = tuple(x for p, x in enumerate(key) if p not in (i, j))
            total += (-1) ** (i + j) * sum(c * w_at((m, *rest))
                                           for m, c in enumerate(g.bracket[key[i]][key[j]]) if c)
        if total:
            out[key] = total
    return out


def test_two_invariant_forms_on_sl2_plus_sl2():
    g = direct_sum(sl2(), sl2())
    k = killing(sl2())
    assert k == [[8, 0, 0], [0, 0, 4], [0, 4, 0]]

    def w(h1, h2) -> Cochain:
        form = [[0] * 6 for _ in range(6)]
        for a, b in product(range(3), repeat=2):
            form[a][b], form[3 + a][3 + b] = h1 * k[a][b], h2 * k[a][b]
        return invariant_cochain(g, form)
    w12, w21, w10 = w(1, 2), w(2, 1), w(1, 0)
    for c in (w12, w21, w10):
        assert c.values and delta_trivial(g, c) == {}
    assert not cohomologous(w12, w21)
    assert not is_coboundary(w10)
    # a coboundary added to w12 keeps its class
    theta = Cochain(trivial(g), 2, {(0, 1): [1], (2, 4): [-3], (3, 5): [2]})
    exact = delta_trivial(g, theta)
    shifted = {key: [w12.values.get(key, [0])[0] + exact.get(key, 0)]
               for key in set(w12.values) | set(exact)}
    assert exact and is_coboundary(Cochain(trivial(g), 3, {k: [x] for k, x in exact.items()}))
    assert cohomologous(Cochain(trivial(g), 3, shifted), w12)
