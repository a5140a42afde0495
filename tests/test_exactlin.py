import random
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lie2alg import exactlin
from lie2alg.cohomology import (adjoint_rep, build_g_hbar, classify, coboundary_matrix,
                                cochain_to_coords, sl_algebra)
from lie2alg.exactlin import (DimensionMismatch, RMatrix, _rref, block_diag, contract, invert,
                              kron, pivot_columns, rank_kernel, rat_str, rational,
                              solve_linear)
from lie2alg.lie2 import from_linfty
from lie2alg.serialize import mat_from_json, mat_to_json
from conftest import conjugate, rand_invertible

entries = st.integers(min_value=-6, max_value=6)


def small_matrix(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(RMatrix.from_rows)


def test_rational_parsing_and_formatting():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == -7
    assert rat_str(Fraction(-2, 6)) == "-1/3"
    assert rat_str(5) == "5"
    with pytest.raises(ValueError):
        rational("x")
    with pytest.raises(ValueError):
        rational("1/0")


def test_rank_kernel_identity():
    rank, basis = rank_kernel(RMatrix.identity(2))
    assert (rank, basis) == (2, [])


def test_rank_kernel_zero():
    rank, basis = rank_kernel(RMatrix.zeros(2, 2))
    assert rank == 0
    assert basis == [{0: 1}, {1: 1}]


def test_rank_kernel_rank_one():
    rank, basis = rank_kernel(RMatrix.from_rows([[1, 2], [2, 4]]))
    assert rank == 1
    assert basis == [{0: -2, 1: 1}]


def test_solve_identity():
    assert solve_linear(RMatrix.identity(2), [3, 5]) == [3, 5]


def test_solve_inconsistent():
    assert solve_linear(RMatrix.zeros(2, 2), [1, 0]) is None


def test_solve_free_coordinates_zero():
    assert solve_linear(RMatrix.from_rows([[1, 2], [2, 4]]), [1, 2]) == [1, 0]


def test_solve_shape_error():
    with pytest.raises(DimensionMismatch):
        solve_linear(RMatrix.identity(2), [1, 2, 3])


def test_kron_identity_factor_block_diagonal():
    a = RMatrix.from_rows([[1, 2], [3, 4]])
    k = kron(RMatrix.identity(2), a)
    assert k == RMatrix.from_rows([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]])


def test_kron_zero_factor():
    a = RMatrix.from_rows([[1, 2], [3, 4]])
    assert kron(a, RMatrix.zeros(2, 2)).is_zero()


def test_kron_direct_expansion():
    k = kron(RMatrix.from_rows([[2]]), RMatrix.from_rows([[1, 1]]))
    assert k == RMatrix.from_rows([[2, 2]])


@settings(max_examples=40, deadline=None)
@given(small_matrix(3, 3))
def test_kernel_vectors_annihilated(m):
    _, basis = rank_kernel(m)
    for v in basis:
        assert all(x == 0 for x in m.matvec([v.get(j, 0) for j in range(m.cols)]))
    # each echelon kernel vector is last nonzero at its free column, which
    # is how skeletalize_complex reads the pivot columns off the kernel
    free = [max(v) for v in basis]
    assert free == [j for j in range(m.cols) if j not in pivot_columns(m)]


@settings(max_examples=25, deadline=None)
@given(small_matrix(3, 3), small_matrix(3, 3))
def test_kron_rank_multiplicative(a, b):
    ra, _ = rank_kernel(a)
    rb, _ = rank_kernel(b)
    rk, _ = rank_kernel(kron(a, b))
    assert rk == ra * rb


@settings(max_examples=15, deadline=None)
@given(small_matrix(2, 2), small_matrix(2, 3), small_matrix(3, 2))
def test_kron_associative_under_flat_indexing(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@settings(max_examples=30, deadline=None)
@given(small_matrix(3, 4), st.lists(entries, min_size=4, max_size=4))
def test_solve_returns_actual_solutions(m, x):
    b = m.matvec(x)
    sol = solve_linear(m, b)
    assert sol is not None
    assert m.matvec(sol) == b


def test_rank_plus_kernel_dimension():
    rng = random.Random(3)
    for _ in range(20):
        m = RMatrix.from_rows([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
        rank, basis = rank_kernel(m)
        assert rank + len(basis) == m.cols


def test_empty_shapes():
    z = RMatrix.zeros(0, 3)
    rank, basis = rank_kernel(z)
    assert rank == 0 and len(basis) == 3
    assert RMatrix.identity(0) @ RMatrix.zeros(0, 2) == RMatrix.zeros(0, 2)


def test_invert_round_trip():
    m = RMatrix.from_rows([[1, 2], [1, 3]])
    assert m @ invert(m) == RMatrix.identity(2)
    with pytest.raises(ValueError):
        invert(RMatrix.from_rows([[1, 2], [2, 4]]))


def test_dense_view_is_read_only():
    m = RMatrix.from_rows([[0, 1], [2, 0]])
    assert m.data == ((0, 1), (2, 0)) and m.entries == [{1: 1}, {0: 2}]
    with pytest.raises(TypeError):
        m.data[0][0] = 5
    with pytest.raises(TypeError):
        RMatrix(2, 2, [[0, 1], [2, 0]])  # a grid goes through from_rows


def test_matrix_json_round_trip():
    m = RMatrix.from_rows([[Fraction(1, 2), 3], [0, -2]])
    assert mat_from_json({"m": mat_to_json(m)}, "m", 2, 2) == m


# mostly zeros, so that the skipping of zero coefficients is exercised
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-5, 5),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _nested(draw, dims):
    if len(dims) == 1:
        return draw(st.lists(sparse_entries, min_size=dims[0], max_size=dims[0]))
    return [_nested(draw, dims[1:]) for _ in range(dims[0])]


@st.composite
def tensor_with_vectors(draw):
    """A rank 2..4 tensor, one vector per leading slot; any dimension may be 0."""
    dims = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    vecs = [draw(st.lists(sparse_entries, min_size=n, max_size=n)) for n in dims[:-1]]
    return dims, _nested(draw, dims), vecs


@given(tensor_with_vectors())
@example(([2, 0, 3], [[], []], [[1, Fraction(1, 2)], []]))
@example(([2, 3, 0], [[[], [], []], [[], [], []]], [[1, 2], [0, -1, 3]]))
@settings(max_examples=150, deadline=None)
def test_contract_matches_brute_force_sum(case):
    dims, tensor, vecs = case
    want = [0] * dims[-1]
    for idx in product(*(range(n) for n in dims)):
        coeff = tensor
        for i in idx:
            coeff = coeff[i]
        for vec, i in zip(vecs, idx):
            coeff *= vec[i]
        want[idx[-1]] += coeff
    assert contract(tensor, dims[-1], *vecs) == want


# The dense Gauss-Jordan elimination that the sparse `_rref` replaced, with
# the readers built on it, kept verbatim as the oracle: the reduced row
# echelon form is unique, so the sparse path must give the same grid, the
# same pivots and the same free-column kernel basis.

def _dense_rref(data: list, rows: int, cols: int):
    m = [list(r) for r in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            inv = Fraction(1) / Fraction(pv)
            m[r] = [inv * x for x in m[r]]
        row_r = m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def _dense_rank_kernel(m: RMatrix):
    rr, pivots = _dense_rref(m.data, m.rows, m.cols)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = 1
        for r, p in enumerate(pivots):
            if rr[r][f]:
                v[p] = -rr[r][f]
        basis.append(v)
    return len(pivots), basis


def _dense_solve_linear(m: RMatrix, b: list):
    aug = [list(row) + [bv] for row, bv in zip(m.data, b)]
    rr, pivots = _dense_rref(aug, m.rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rr[r][m.cols]
    return x


def _dense_invert(m: RMatrix):
    aug = [list(row) + list(idr) for row, idr in zip(m.data, RMatrix.identity(m.rows).data)]
    rr, pivots = _dense_rref(aug, m.rows, 2 * m.cols)
    if pivots[: m.cols] != list(range(m.cols)):
        return None
    return RMatrix.from_rows([row[m.cols:] for row in rr], m.cols)


fraction_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def elimination_case(draw):
    """A matrix with 0..6 rows and columns (sparse, dense integer or
    Fraction entries), optionally made rank-deficient or given a zero row
    or column, and a right-hand side that is either in the column space
    or arbitrary."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from((sparse_entries, entries, fraction_entries)))
    data = [[draw(kind) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):  # one row a combination of two others
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        c = draw(st.integers(-3, 3))
        data[k] = [x + c * y for x, y in zip(data[i], data[j])]
    if rows and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [0] * cols
    if cols and draw(st.booleans()):
        zc = draw(st.integers(0, cols - 1))
        for row in data:
            row[zc] = 0
    m = RMatrix.from_rows(data, cols)
    if draw(st.booleans()):
        b = m.matvec([draw(entries) for _ in range(cols)])
    else:
        b = [draw(kind) for _ in range(rows)]
    return m, b


@given(elimination_case())
@example((RMatrix.zeros(0, 0), []))
@example((RMatrix.zeros(3, 0), [0, 1, 0]))
@example((RMatrix.from_rows([[1, 2], [2, 4]]), [1, 3]))  # unsolvable
@example((RMatrix.from_rows([[0, 0, 3], [0, 0, 0], [0, 5, 1]]), [3, 0, 2]))
@settings(max_examples=300, deadline=None)
def test_sparse_elimination_matches_dense_reference(case):
    m, b = case
    grid, pivots = _rref(m.entries, m.cols)
    ref_grid, ref_pivots = _dense_rref(m.data, m.rows, m.cols)
    assert pivots == ref_pivots
    assert all(x for row in grid for x in row.values())  # zero entries are dropped
    dense = [[row.get(j, 0) for j in range(m.cols)] for row in grid]
    assert dense + [[0] * m.cols] * (m.rows - len(grid)) == ref_grid
    assert pivot_columns(m) == ref_pivots
    rank, basis = rank_kernel(m)
    assert all(x for v in basis for x in v.values())  # no zero entry is stored
    assert (rank, [[v.get(j, 0) for j in range(m.cols)] for v in basis]) == _dense_rank_kernel(m)
    assert solve_linear(m, b) == _dense_solve_linear(m, b)
    if m.rows != m.cols:
        with pytest.raises(DimensionMismatch):
            invert(m)
        return
    want = _dense_invert(m)
    if want is None:
        with pytest.raises(ValueError):
            invert(m)
    else:
        assert invert(m) == want


@given(st.integers(1, 5).flatmap(lambda n: small_matrix(n, n)))
@example(RMatrix.from_rows([[1, 2], [1, 3]]))
@example(RMatrix.from_rows([[0, 1], [1, 0]]))
@settings(max_examples=100, deadline=None)
def test_sparse_invert_matches_dense_reference(m):
    want = _dense_invert(m)
    if want is None:
        with pytest.raises(ValueError):
            invert(m)
    else:
        assert invert(m) == want


# The sparse elimination that the fraction-free `_rref` replaced, kept
# verbatim as the oracle: it scans every pending row for each column and
# works over Fractions.  The reduced row echelon form is unique, so both
# must give the same rows and pivots, and the readers built on `_rref`
# (rank_kernel, solve_linear, invert) the same answers.

def _row_scan_rref(rows: list, cols: int):
    """Reduced row echelon form by Gauss-Jordan elimination over sparse
    {column: entry} rows without zeros, which are read and left as they are:
    (its nonzero rows top to bottom as {column: entry} dicts, pivot columns).
    The form is unique, so the shortest candidate row can be each pivot."""
    pending = [dict(r) for r in rows]
    done, pivots = [], []
    for c in range(cols):
        hits = [i for i, r in enumerate(pending) if c in r]
        if not hits:
            continue
        best = min(hits, key=lambda i: len(pending[i]))
        row, pending[best] = pending[best], {}
        if row[c] != 1:
            inv = Fraction(1) / row[c]
            row = {j: inv * x for j, x in row.items()}
        for other in [pending[i] for i in hits if i != best] + [r for r in done if c in r]:
            f = other[c]
            for j, y in row.items():
                x = other.get(j, 0) - f * y
                if x:
                    other[j] = x
                else:
                    del other[j]
        done.append(row)
        pivots.append(c)
    return done, pivots


def _readers(m: RMatrix, b: list, square: RMatrix):
    """What rank_kernel, solve_linear and invert give, an error as its type."""
    try:
        inverse = invert(square)
    except ValueError as e:
        inverse = type(e)
    return rank_kernel(m), solve_linear(m, b), inverse


@st.composite
def wide_elimination_case(draw):
    """A matrix of up to 40 x 25 whose rows are mostly combinations of a few
    sparse generator rows, so that columns have many holders and rows are
    duplicated, dependent or cancel to zero during elimination; entries are
    ints and Fractions with mixed denominators.  Also a right-hand side in
    the column space or arbitrary, and a square matrix to invert: the
    leading square block plus a multiple of the identity, often singular.
    The entries come from a drawn seed, so that an example stays small."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 25))
    gens = draw(st.integers(1, 8))
    density = draw(st.sampled_from((0.1, 0.3, 0.7)))
    shift = draw(st.sampled_from((0, 0, 1, Fraction(-5, 2))))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def entry():
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
        return int(x) if x.denominator == 1 and rng.random() < 0.5 else x

    def sparse_row():
        return [entry() if rng.random() < density else 0 for _ in range(cols)]
    basis = [sparse_row() for _ in range(gens)]
    data = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15:
            data.append(sparse_row())
        elif kind < 0.3 and data:
            data.append(list(rng.choice(data)))
        elif kind < 0.35:
            data.append([0] * cols)
        else:
            row = [0] * cols
            for g in rng.sample(basis, rng.randint(1, min(3, gens))):
                k = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
                row = [x + k * y for x, y in zip(row, g)]
            data.append(row)
    m = RMatrix.from_rows(data, cols)
    if rng.random() < 0.5:
        b = m.matvec([entry() for _ in range(cols)])
    else:
        b = [entry() for _ in range(rows)]
    n = min(rows, cols)
    square = RMatrix(n, n, [{j: x for j, x in row.items() if j < n}
                            for row in m.entries[:n]]) + RMatrix.identity(n).scale(shift)
    return m, b, square


@given(wide_elimination_case())
@example((RMatrix.from_rows([[1, 2, 0], [1, 2, 0], [2, 4, 0], [0, 1, 1]]), [1, 1, 2, 0],
          RMatrix.from_rows([[1, 2], [1, 2]])))  # duplicated rows that cancel
@example((RMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)],
                             [2, 0]]), [1, Fraction(3, 2), 0],
          RMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [2, 0]])))
@settings(max_examples=200, deadline=None)
def test_elimination_matches_row_scan_reference(case):
    m, b, square = case
    before = [dict(row) for row in m.entries]
    got = _rref(m.entries, m.cols), _readers(m, b, square)
    assert m.entries == before  # the input rows are read and left as they are
    with patch.object(exactlin, "_rref", _row_scan_rref):
        want = _row_scan_rref(m.entries, m.cols), _readers(m, b, square)
    assert got == want


def _coboundary_system_of_conjugated_ghbar_sl3():
    """The augmented system that is_coboundary solves for the classifying
    cocycle of g_hbar(sl3) under a dense change of basis: 56 x 29, with
    Fraction entries."""
    p0 = rand_invertible(random.Random(5), 8)
    moved = conjugate(build_g_hbar(sl_algebra(3), 1).data, p0, RMatrix.from_rows([[3]]))
    quad = classify(from_linfty(moved))
    m = coboundary_matrix(quad.rep, 2)
    n = m.cols
    b = cochain_to_coords(quad.cocycle)
    return [{**row, n: bv} if bv else row for row, bv in zip(m.entries, b)], n + 1


def test_elimination_matches_row_scan_reference_on_cohomology():
    """Identical rows and pivots on delta_0..delta_3 of sl3 and delta_2 of
    sl4 with adjoint coefficients, and on one is_coboundary system."""
    sl3, sl4 = adjoint_rep(sl_algebra(3)), adjoint_rep(sl_algebra(4))
    systems = [(d.entries, d.cols) for d in
               [coboundary_matrix(sl3, n) for n in range(4)] + [coboundary_matrix(sl4, 2)]]
    systems.append(_coboundary_system_of_conjugated_ghbar_sl3())
    for rows, cols in systems:
        assert _rref(rows, cols) == _row_scan_rref(rows, cols)
    rows, cols = systems[-1]
    assert any(type(x) is Fraction for row in rows for x in row.values())
    assert _rref(rows, cols)[1][-1] == cols - 1  # the class [K] is not zero


# The dense product, Kronecker product and matrix-vector product that the
# sparse RMatrix replaced, kept verbatim over list-of-lists grids as the
# oracle for the sparse ones.

def _dense_matmul(a: list, b: list, b_cols: int) -> list:
    nz = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = [[0] * b_cols for _ in range(len(a))]
    for i, arow in enumerate(a):
        out_i = out[i]
        for k, x in enumerate(arow):
            if x:
                for j, y in nz[k]:
                    out_i[j] += x * y
    return out


def _dense_kron(a: list, b: list, a_cols: int, b_cols: int) -> list:
    out = [[0] * (a_cols * b_cols) for _ in range(len(a) * len(b))]
    for i, arow in enumerate(a):
        for j, av in enumerate(arow):
            if av:
                base_j = j * b_cols
                for k, brow in enumerate(b):
                    orow = out[i * len(b) + k]
                    for l, bv in enumerate(brow):
                        if bv:
                            orow[base_j + l] = av * bv
    return out


def _dense_matvec(a: list, v: list) -> list:
    out = [0] * len(a)
    for k, x in enumerate(v):
        if x:
            for i in range(len(a)):
                e = a[i][k]
                if e:
                    out[i] += e * x
    return out


def _grid(m: RMatrix) -> list:
    return [list(row) for row in m.data]


@st.composite
def product_case(draw):
    """Matrices a (r x k), b (k x c) and c (s x t) and a vector of length k;
    any dimension may be 0, entries mostly zero, some cancelling."""
    r, k, c, s, t = (draw(st.integers(0, 5)) for _ in range(5))

    def grid(rows, cols):
        return [[draw(sparse_entries) for _ in range(cols)] for _ in range(rows)]
    return (RMatrix.from_rows(grid(r, k), k), RMatrix.from_rows(grid(k, c), c),
            RMatrix.from_rows(grid(s, t), t), [draw(sparse_entries) for _ in range(k)])


@given(product_case())
@example((RMatrix.from_rows([[1, 1]]), RMatrix.from_rows([[1], [-1]]),
          RMatrix.zeros(0, 2), [2, 2]))  # a product that cancels to zero
@settings(max_examples=100, deadline=None)
def test_sparse_products_match_dense_reference(case):
    a, b, c, v = case
    ab = a @ b
    assert _grid(ab) == _dense_matmul(_grid(a), _grid(b), b.cols)
    assert ab == RMatrix.from_rows(_grid(ab), b.cols)  # no zero is stored
    assert _grid(kron(a, c)) == _dense_kron(_grid(a), _grid(c), a.cols, c.cols)
    assert _grid(kron(c, b)) == _dense_kron(_grid(c), _grid(b), c.cols, b.cols)
    assert a.matvec(v) == _dense_matvec(_grid(a), v)
    ga, gb = _grid(a), _grid(b)
    assert _grid(a.transpose()) == [[row[j] for row in ga] for j in range(a.cols)]
    assert _grid(a - a.scale(2) + a) == [[0] * a.cols for _ in range(a.rows)]
    assert (a - a).is_zero() and (-a + a).is_zero()
    assert _grid(a.hstack(RMatrix.zeros(a.rows, 2))) == [row + [0, 0] for row in ga]
    assert _grid(b.vstack(b)) == gb + gb
    assert _grid(block_diag(a, c)) == (
        [row + [0] * c.cols for row in ga] + [[0] * a.cols + row for row in _grid(c)])
