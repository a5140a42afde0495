"""Exact rational scalars, dense matrices and Kronecker products.

Everything is over Q: entries are Python ints or `fractions.Fraction`,
never floats.  Matrices act on column vectors, so ``a @ b`` is the usual
matrix product and a diagram-order composite "f then g" multiplies as
``g.matrix @ f.matrix``.  Kronecker products use lexicographic pair
indexing with the left factor major, shared by every tensor construction
in the package.
"""

from __future__ import annotations

import sys
from fractions import Fraction

Rational = Fraction


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


def parse_int(s: str) -> int:
    """int(s), refusing more digits than the interpreter converts
    (sys.get_int_max_str_digits) with a ValueError that names the limit."""
    limit, digits = sys.get_int_max_str_digits(), sum(ch.isdigit() for ch in s)
    if limit and digits > limit:
        raise ValueError(f"integer with {digits} digits, more than the limit of {limit}")
    return int(s)


def rational(x) -> int | Fraction:
    """Parse an exact rational from an int, Fraction or 'p/q' / 'n' string."""
    if isinstance(x, bool):
        raise ValueError(f"not a rational: {x!r}")
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = (parse_int(p) for p in s.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator: {x!r}")
            return Fraction(num, den)
        return parse_int(s)
    raise ValueError(f"not a rational: {x!r}")


def rat_str(x) -> str:
    """Format an exact rational as 'p/q', or 'n' when the denominator is 1."""
    q = Fraction(x)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# vectors are plain lists of exact numbers

def vzeros(n: int) -> list:
    return [0] * n


def vunit(n: int, i: int) -> list:
    v = [0] * n
    v[i] = 1
    return v


def vadd(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b, strict=True)]


def vsub(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b, strict=True)]


def vneg(a: list) -> list:
    return [-x for x in a]


def vscale(c, a: list) -> list:
    return [c * x for x in a]


def contract(tensor: list, dim: int, *vecs) -> list:
    """Contract the leading slots of a structure tensor with vectors.

    ``contract(t, dim, u, v)`` is the vector of length dim whose m-th
    entry is the sum of u[i] v[j] t[i][j][m]; zero coefficients are
    skipped.  This is the one evaluator of every multilinear structure
    map in the package: brackets, actions, Jacobiators and phi2.
    """
    terms = [(tensor, 1)]  # (sub-tensor, product of the coefficients chosen so far)
    for vec in vecs:
        nxt = []
        for i, x in enumerate(vec):
            if x:
                for t, c in terms:
                    nxt.append((t[i], c * x))
        terms = nxt
    out = [0] * dim
    for t, c in terms:
        for m, x in enumerate(t):
            if x:
                out[m] += c * x
    return out


class RMatrix:
    """Dense matrix over Q with row-major storage."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"expected {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows: list, cols: int | None = None) -> "RMatrix":
        if cols is None:
            if not rows:
                raise DimensionMismatch("empty row list needs an explicit column count")
            cols = len(rows[0])
        return cls(len(rows), cols, [list(r) for r in rows])

    @classmethod
    def from_cols(cls, cols: list, rows: int | None = None) -> "RMatrix":
        if rows is None:
            if not cols:
                raise DimensionMismatch("empty column list needs an explicit row count")
            rows = len(cols[0])
        data = [[c[i] for c in cols] for i in range(rows)]
        return cls(rows, len(cols), data)

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def transpose(self) -> "RMatrix":
        return RMatrix(self.cols, self.rows,
                       [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    __hash__ = None

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RMatrix(self.rows, self.cols,
                       [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return RMatrix(self.rows, self.cols,
                       [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "RMatrix":
        return RMatrix(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c) -> "RMatrix":
        return RMatrix(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # skip zero entries; composites of braid-style matrices stay sparse
        nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(arow):
                if a:
                    for j, b in nz[k]:
                        out_i[j] += a * b
        return RMatrix(self.rows, other.cols, out)

    def matvec(self, v: list) -> list:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec length {len(v)} vs {self.cols} columns")
        out = [0] * self.rows
        data = self.data
        for k, x in enumerate(v):
            if x:
                for i in range(self.rows):
                    e = data[i][k]
                    if e:
                        out[i] += e * x
        return out

    def hstack(self, other: "RMatrix") -> "RMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return RMatrix(self.rows, self.cols + other.cols,
                       [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return RMatrix(self.rows + other.rows, self.cols,
                       [list(r) for r in self.data] + [list(r) for r in other.data])

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def kron(a: RMatrix, b: RMatrix) -> RMatrix:
    """Kronecker product; (a o b)[(i,k),(j,l)] = a[i,j] b[k,l], left factor major."""
    out = RMatrix.zeros(a.rows * b.rows, a.cols * b.cols)
    odata = out.data
    for i, arow in enumerate(a.data):
        for j, av in enumerate(arow):
            if av:
                base_j = j * b.cols
                for k, brow in enumerate(b.data):
                    orow = odata[i * b.rows + k]
                    for l, bv in enumerate(brow):
                        if bv:
                            orow[base_j + l] = av * bv
    return out


def block_diag(a: RMatrix, b: RMatrix) -> RMatrix:
    out = RMatrix.zeros(a.rows + b.rows, a.cols + b.cols)
    for i in range(a.rows):
        out.data[i][: a.cols] = list(a.data[i])
    for i in range(b.rows):
        out.data[a.rows + i][a.cols:] = list(b.data[i])
    return out


def _rref(data: list, cols: int):
    """Reduced row echelon form by Gauss-Jordan elimination over sparse rows:
    (its nonzero rows top to bottom as {column: entry} dicts, pivot columns).
    The form is unique, so the shortest candidate row can be each pivot."""
    pending = [{j: x for j, x in enumerate(row) if x} for row in data]
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


def pivot_columns(m: RMatrix) -> list:
    """Pivot column indices of the reduced row echelon form of m."""
    return _rref(m.data, m.cols)[1]


def rank_kernel(m: RMatrix):
    """Rank and kernel basis of m.

    The kernel basis is read off the reduced row echelon form: one vector
    per free column, unit in that coordinate, ordered by free column.
    This is the deterministic echelon convention every downstream
    construction (skeletalization, classification) relies on.
    """
    rr, pivots = _rref(m.data, m.cols)
    basis = {f: vunit(m.cols, f) for f in sorted(set(range(m.cols)) - set(pivots))}
    for p, row in zip(pivots, rr):
        for f, x in row.items():
            if f != p:  # the other entries of a pivot row sit in free columns
                basis[f][p] = -x
    return len(pivots), list(basis.values())


def solve_linear(m: RMatrix, b: list):
    """Particular solution of m x = b with zeros in the free coordinates.

    Returns None when b is not in the column space.
    """
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} vs {m.rows} rows")
    aug = [list(row) + [bv] for row, bv in zip(m.data, b)]
    rr, pivots = _rref(aug, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for p, row in zip(pivots, rr):
        x[p] = row.get(m.cols, 0)
    return x


def invert(m: RMatrix) -> RMatrix:
    """Inverse of a square invertible matrix; raises if singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    n = m.cols
    aug = [list(row) + idr for row, idr in zip(m.data, RMatrix.identity(n).data)]
    rr, pivots = _rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RMatrix(n, n, [[row.get(n + j, 0) for j in range(n)] for row in rr])
