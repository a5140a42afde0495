"""Exact rational scalars, sparse matrices and Kronecker products.

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
from math import gcd, lcm

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


def _int_str(n: int) -> str:
    """str(n) at any length: past the interpreter's digit limit
    (sys.get_int_max_str_digits) the digits are written 600 at a time."""
    try:
        return str(n)
    except ValueError:
        chunks, rest = [], abs(n)
        while rest:
            rest, low = divmod(rest, 10 ** 600)
            chunks.append(f"{low:0600d}")
        return "-" * (n < 0) + "".join(reversed(chunks)).lstrip("0")


def rat_str(x) -> str:
    """Format an exact rational as 'p/q', or 'n' when the denominator is 1."""
    q = Fraction(x)
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


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
    """Sparse matrix over Q: one {column: entry} dict per row, no zeros stored,
    so products, sums, kron, transposes and matvec cost time in the nonzeros.

    A matrix is never changed after it is built, so results may share
    row dicts with their operands; `data` is a read-only dense view.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list):
        if len(entries) != rows:
            raise DimensionMismatch(f"expected {rows} rows, got {len(entries)}")
        if entries and type(entries[0]) is not dict:
            raise TypeError("rows must be {column: entry} dicts; use RMatrix.from_rows for a grid")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RMatrix":
        return cls(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_cells(cls, rows: int, cols: int, cells) -> "RMatrix":
        """The matrix whose (i, j) entry is the sum of the x given as ((i, j), x)."""
        out = [{} for _ in range(rows)]
        for (i, j), x in cells:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"cell ({i}, {j}) outside a {rows}x{cols} matrix")
            row = out[i]
            x += row.pop(j, 0)
            if x:
                row[j] = x
        return cls(rows, cols, out)

    @classmethod
    def from_rows(cls, rows: list, cols: int | None = None) -> "RMatrix":
        if cols is None:
            if not rows:
                raise DimensionMismatch("empty row list needs an explicit column count")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatch(f"expected {len(rows)}x{cols} grid")
        return cls(len(rows), cols, [{j: x for j, x in enumerate(r) if x} for r in rows])

    @classmethod
    def from_cols(cls, cols: list, rows: int) -> "RMatrix":
        return cls.from_rows(cols, rows).transpose()

    @property
    def data(self) -> tuple:
        """Dense view: a tuple of row tuples."""
        return tuple(tuple(self.row(i)) for i in range(self.rows))

    def __getitem__(self, ij: tuple):
        return self.entries[ij[0]].get(ij[1], 0)

    def col(self, j: int) -> list:
        return [row.get(j, 0) for row in self.entries]

    def row(self, i: int) -> list:
        out = [0] * self.cols
        for j, x in self.entries[i].items():
            out[j] = x
        return out

    def transpose(self) -> "RMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return RMatrix(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    __hash__ = None

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        out = []
        for r1, r2 in zip(self.entries, other.entries):
            row = dict(r1) if r2 else r1
            for j, y in r2.items():
                x = row.pop(j, 0) + y
                if x:
                    row[j] = x
            out.append(row)
        return RMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        return self + -other

    def __neg__(self) -> "RMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RMatrix":
        if not c:
            return RMatrix.zeros(self.rows, self.cols)
        return RMatrix(self.rows, self.cols,
                       [{j: c * x for j, x in row.items()} for row in self.entries])

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        brows = other.entries
        out = []
        for arow in self.entries:
            if len(arow) == 1:  # a permutation-like row copies or scales one row
                (k, a), = arow.items()
                out.append(brows[k] if a == 1 else {j: a * b for j, b in brows[k].items()})
                continue
            acc = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return RMatrix(self.rows, other.cols, out)

    def matvec(self, v: list) -> list:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec length {len(v)} vs {self.cols} columns")
        out = []
        for row in self.entries:
            acc = 0
            for j, e in row.items():
                x = v[j]
                if x:
                    acc += e * x
            out.append(acc)
        return out

    def hstack(self, other: "RMatrix") -> "RMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        n = self.cols
        return RMatrix(self.rows, n + other.cols,
                       [{**r1, **{n + j: x for j, x in r2.items()}} if r2 else r1
                        for r1, r2 in zip(self.entries, other.entries)])

    def vstack(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return RMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def kron(a: RMatrix, b: RMatrix) -> RMatrix:
    """Kronecker product; (a o b)[(i,k),(j,l)] = a[i,j] b[k,l], left factor major."""
    n = b.cols
    brows = [r.items() for r in b.entries]
    out = []
    for arow in a.entries:
        shifted = [(j * n, av) for j, av in arow.items()]
        out.extend({base + l: av * bv for base, av in shifted for l, bv in bitems}
                   for bitems in brows)
    return RMatrix(a.rows * b.rows, a.cols * b.cols, out)


def block_diag(a: RMatrix, b: RMatrix) -> RMatrix:
    return a.hstack(RMatrix.zeros(a.rows, b.cols)).vstack(
        RMatrix.zeros(b.rows, a.cols).hstack(b))


def _primitive(row: dict) -> dict:
    """The row scaled to integers with no common factor: times the lcm of
    its denominators, then divided by the gcd of its entries."""
    den = lcm(*(x.denominator for x in row.values()))
    out = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g != 1 else out


def _rref(rows: list, cols: int):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination
    over sparse {column: entry} rows without zeros, which are read and left
    as they are: (its nonzero rows top to bottom as {column: entry} dicts,
    pivot columns).

    Each row is kept as a primitive integer row, so elimination replaces a
    row by (p/g) row - (f/g) pivot row, g = gcd(p, f), and divides by the
    pivot only when the row is final.  `index` maps each column to the ids
    of the rows that hold it, pending or done, as dict keys (smaller than a
    set), so a column's holders cost time in proportion to the nonzeros.  The form is unique, so the
    shortest pending holder (the lowest id on a tie) can be each pivot."""
    store = {i: _primitive(r) for i, r in enumerate(rows) if r}
    index = {}
    for i, row in store.items():
        for j in row:
            index.setdefault(j, {})[i] = None
    done, pivots, finished = [], [], set()
    for c in range(cols):
        # pending rows hold no column below c, so no later step reads or
        # changes column c, and its holders leave the index here
        holders = index.pop(c, ())
        candidates = [i for i in holders if i not in finished]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (len(store[i]), i))
        row = store[best]
        p = row[c]
        rest = [(j, y, index[j]) for j, y in row.items() if j != c]
        for t in holders:
            if t == best:
                continue
            other = store[t]
            f = other.pop(c)
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in other:
                    other[j] *= a
            for j, y, hold in rest:
                x = other.get(j)
                if x is None:
                    other[j] = -b * y
                    hold[t] = None
                else:
                    x -= b * y
                    if x:
                        other[j] = x
                    else:
                        del other[j]
                        del hold[t]
            if not other:
                del store[t]
                continue
            g = gcd(*other.values())
            if g != 1:
                for j in other:
                    other[j] //= g
        finished.add(best)
        done.append(best)
        pivots.append(c)
    out = []
    for i, c in zip(done, pivots):
        row = store[i]
        p = row[c]
        out.append(row if p == 1 else
                   {j: x // p if x % p == 0 else Fraction(x, p) for j, x in row.items()})
    return out, pivots


def pivot_columns(m: RMatrix) -> list:
    """Pivot column indices of the reduced row echelon form of m."""
    return _rref(m.entries, m.cols)[1]


def rank_kernel(m: RMatrix):
    """Rank and kernel basis of m.

    The kernel basis is read off the reduced row echelon form: one sparse
    {coordinate: entry} vector without zeros per free column, unit in that
    coordinate and its largest key, ordered by free column.  This is the
    deterministic echelon convention every downstream construction
    (skeletalization, classification) relies on.
    """
    rr, pivots = _rref(m.entries, m.cols)
    basis = {f: {f: 1} for f in sorted(set(range(m.cols)) - set(pivots))}
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
    n = m.cols
    rr, pivots = _rref([{**row, n: bv} if bv else row for row, bv in zip(m.entries, b)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for p, row in zip(pivots, rr):
        x[p] = row.get(n, 0)
    return x


def invert(m: RMatrix) -> RMatrix:
    """Inverse of a square invertible matrix; raises if singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    n = m.cols
    rr, pivots = _rref([{**row, n + i: 1} for i, row in enumerate(m.entries)], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RMatrix(n, n, [{j - n: x for j, x in row.items() if j >= n} for row in rr])
