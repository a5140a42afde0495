"""Input generators and the benchmark's own exact arithmetic.

Nothing here imports lie2alg.  The structure constants, the conjugated
copy, the homomorphism and cochain fixtures, and every oracle the
workloads compare the program against (matrix products, Jacobi sweeps,
the Chevalley-Eilenberg differential) are computed from first
principles, so a fault in the library cannot hide behind itself.  The
one input the library builds, g_hbar(sl3), is passed in and checked
here against the same formula.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations, product

SL3_DIM = 8
HBAR = Fraction(1, 2)


def rat(x) -> str:
    q = Fraction(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rat(s: str):
    q = Fraction(s)
    return q.numerator if q.denominator == 1 else q


def to_json(t):
    if isinstance(t, list):
        return [to_json(x) for x in t]
    return rat(t)


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def from_json(t):
    return [from_json(x) for x in t] if isinstance(t, list) else parse_rat(t)


def load_tensor(path: str, field: str):
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh)[field])


# ---------------------------------------------------------------------------
# dense exact matrices as lists of rows

def zeros(r: int, c: int) -> list:
    return [[0] * c for _ in range(r)]


def identity(n: int) -> list:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def matmul(a: list, b: list) -> list:
    """Row-sparse product; the oracle for every product the workloads check."""
    cols = len(b[0]) if b else 0
    nz = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for arow in a:
        o = [0] * cols
        for k, x in enumerate(arow):
            if x:
                for j, y in nz[k]:
                    o[j] += x * y
        out.append(o)
    return out


def matvec(a: list, v: list) -> list:
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a]


def trace(a: list) -> int:
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# sl3 from commutators of elementary matrices

def sl3_basis() -> list:
    """E_12, E_13, E_21, E_23, E_31, E_32, H_1 = E_11 - E_22, H_2 = E_22 - E_33."""
    out = []
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        m = zeros(3, 3)
        m[i][j] = 1
        out.append(m)
    for k in range(2):
        m = zeros(3, 3)
        m[k][k], m[k + 1][k + 1] = 1, -1
        out.append(m)
    return out


def sl3_coords(m: list) -> list:
    """Coordinates of a traceless 3x3 matrix in sl3_basis()."""
    if trace(m) != 0:
        raise ValueError("matrix is not traceless")
    off = [m[i][j] for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))]
    # diag(a, b, c) = a H_1 + (a + b) H_2 since c = -(a + b)
    return off + [m[0][0], m[0][0] + m[1][1]]


def sl3_bracket() -> list:
    e = sl3_basis()
    out = []
    for x in e:
        row = []
        for y in e:
            xy, yx = matmul(x, y), matmul(y, x)
            row.append(sl3_coords([[p - q for p, q in zip(r1, r2)]
                                   for r1, r2 in zip(xy, yx)]))
        out.append(row)
    return out


def bracket_vec(bracket: list, u: list, v: list) -> list:
    n = len(bracket)
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    for k, c in enumerate(bracket[i][j]):
                        if c:
                            out[k] += a * b * c
    return out


def jacobi_holds(bracket: list) -> bool:
    """Antisymmetry and the Jacobi identity on every basis triple."""
    n = len(bracket)
    for i, j in product(range(n), repeat=2):
        if any(x + y for x, y in zip(bracket[i][j], bracket[j][i])):
            return False
    unit = [[1 if p == i else 0 for p in range(n)] for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        r = [a + b + c for a, b, c in zip(bracket_vec(bracket, bracket[i][j], unit[k]),
                                          bracket_vec(bracket, bracket[j][k], unit[i]),
                                          bracket_vec(bracket, bracket[k][i], unit[j]))]
        if any(r):
            return False
    return True


def ad_matrices(bracket: list) -> list:
    """ad(e_i) as a matrix whose column j is [e_i, e_j]."""
    n = len(bracket)
    return [[[bracket[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]


def ghbar_l3(bracket: list, hbar) -> list:
    """l3(x, y, z) = hbar * K(x, [y, z]) with K(x, y) = 6 tr(xy) on sl3."""
    e = sl3_basis()
    n = len(bracket)
    kf = [[6 * trace(matmul(x, y)) for y in e] for x in e]
    return [[[[hbar * sum(kf[i][m] * c for m, c in enumerate(bracket[j][k]) if c)]
               for k in range(n)] for j in range(n)] for i in range(n)]


def linf_obj(l2_00: list, l3: list) -> dict:
    """Skeletal two-term structure on (g, Q, trivial) in the fixture format."""
    n = len(l2_00)
    return {"dim0": n, "dim1": 1, "d": to_json(zeros(n, 1)),
            "l2_00": to_json(l2_00), "l2_01": to_json([[[0]] for _ in range(n)]),
            "l3": to_json(l3)}


# ---------------------------------------------------------------------------
# the seeded unimodular change of basis

def unimodular(rng: random.Random, n: int) -> tuple:
    """P = L U with L, U unit triangular and every off-diagonal entry +-1,
    so det P = 1, P is dense and P^-1 = U^-1 L^-1 stays integral."""
    low, up = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = rng.choice((-1, 1))
            up[j][i] = rng.choice((-1, 1))

    def inv_unit_lower(m):
        inv = identity(n)
        for i in range(n):
            for j in range(i):
                inv[i][j] = -sum(m[i][k] * inv[k][j] for k in range(j, i))
        return inv

    def transpose(m):
        return [list(r) for r in zip(*m)]

    p = matmul(low, up)
    pinv = matmul(transpose(inv_unit_lower(transpose(up))), inv_unit_lower(low))
    if matmul(p, pinv) != identity(n):
        raise AssertionError("unimodular inverse is wrong")
    return p, pinv


def conjugate(l2_00: list, l3: list, p: list, pinv: list, s) -> tuple:
    """Structure constants in the basis e'_i = P e_i of V0 and f' = s f of V1."""
    n = len(l2_00)
    cols = [[p[k][i] for k in range(n)] for i in range(n)]
    b2 = [[matvec(pinv, bracket_vec(l2_00, cols[i], cols[j])) for j in range(n)]
          for i in range(n)]
    # contract the three slots of l3 with P one at a time
    t = [[[sum(p[a][i] * l3[a][b][c][0] for a in range(n)) for c in range(n)]
          for b in range(n)] for i in range(n)]
    t = [[[sum(p[b][j] * t[i][b][c] for b in range(n)) for c in range(n)]
          for j in range(n)] for i in range(n)]
    b3 = [[[[Fraction(sum(p[c][k] * t[i][j][c] for c in range(n))) / s]
            for k in range(n)] for j in range(n)] for i in range(n)]
    return b2, b3


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg differential, coded apart from the library

def _perm_sign(seq: tuple) -> int:
    sign = 1
    s = list(seq)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                sign = -sign
    return sign


def cochain_eval(values: dict, dimV: int, idx: tuple) -> list:
    if len(set(idx)) != len(idx):
        return [0] * dimV
    base = values.get(tuple(sorted(idx)), [0] * dimV)
    sg = _perm_sign(idx)
    return [sg * x for x in base]


def coboundary(bracket: list, rho: list, dimV: int, n: int, values: dict) -> dict:
    """(dw)(x_0..x_n) = sum_i (-1)^i rho(x_i) w(..^i..)
    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], ..^i..^j..), 0-based positions."""
    out = {}
    for key in combinations(range(len(bracket)), n + 1):
        acc = [0] * dimV
        for pos in range(n + 1):
            rest = key[:pos] + key[pos + 1:]
            term = matvec(rho[key[pos]], cochain_eval(values, dimV, rest))
            sg = -1 if pos % 2 else 1
            acc = [a + sg * t for a, t in zip(acc, term)]
        for pi, pj in combinations(range(n + 1), 2):
            rest = tuple(x for q, x in enumerate(key) if q not in (pi, pj))
            sg = -1 if (pi + pj) % 2 else 1
            for m, c in enumerate(bracket[key[pi]][key[pj]]):
                if c:
                    term = cochain_eval(values, dimV, (m,) + rest)
                    acc = [a + sg * c * t for a, t in zip(acc, term)]
        if any(acc):
            out[key] = acc
    return out


def cochain_values(obj: dict) -> dict:
    """The values map of a cochain in the fixture format, keyed by tuples."""
    return {tuple(int(i) for i in k.split("<")) if k else (): from_json(v)
            for k, v in obj["values"].items()}


def cochain_obj(bracket: list, degree: int, values: dict) -> dict:
    return {"algebra": {"dim": len(bracket), "bracket": to_json(bracket)},
            "degree": degree,
            "values": {"<".join(map(str, k)): to_json(v) for k, v in sorted(values.items())}}


# ---------------------------------------------------------------------------
# the generated fixture set

def generate_sl3(out_dir: str) -> dict:
    """Write sl3 and its adjoint representation; return what the
    workloads compare the program's outputs with."""
    os.makedirs(out_dir, exist_ok=True)
    n = SL3_DIM
    br = sl3_bracket()
    if not jacobi_holds(br):
        raise AssertionError("generated sl3 fails the Jacobi identity")
    ads = ad_matrices(br)
    for i, j in product(range(n), repeat=2):
        lhs = [[sum(c * ads[k][r][q] for k, c in enumerate(br[i][j]) if c) for q in range(n)]
               for r in range(n)]
        ab, ba = matmul(ads[i], ads[j]), matmul(ads[j], ads[i])
        if lhs != [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]:
            raise AssertionError("ad is not a representation")
    e = sl3_basis()
    return {
        "sl3": write_json(os.path.join(out_dir, "sl3.json"), {"dim": n, "bracket": to_json(br)}),
        "sl3_adjoint": write_json(os.path.join(out_dir, "sl3_adjoint.json"),
                                  {"dimV": n, "rho": to_json(ads)}),
        "sl3_bracket": br,
        "killing": [[6 * trace(matmul(x, y)) for y in e] for x in e],
    }


def generate_checks(out_dir: str, seed: int, build_ghbar) -> dict:
    """Write g_hbar(sl3), its seeded conjugated copy, homomorphisms and
    2-homomorphisms between the two, and three cochains on sl3.

    build_ghbar(bracket, hbar) is the library's construction, returning
    the structure in the fixture format; it must agree with ghbar_l3.

    Only the change of basis, the V1 scale, the broken entries and the
    cochain values depend on the seed.  The change of basis is dense for
    every seed; the copy's nonzero count moves only by chance
    cancellations (440 to 448 bracket coefficients over seeds 1 to 10).
    """
    f = generate_sl3(out_dir)
    rng = random.Random(seed)
    n = SL3_DIM
    br = f["sl3_bracket"]
    l3 = ghbar_l3(br, HBAR)
    orig = build_ghbar(br, HBAR)
    want = linf_obj(br, l3)
    if any(from_json(orig[k]) != from_json(want[k]) for k in ("d", "l2_00", "l2_01", "l3")):
        raise AssertionError("build_g_hbar(sl3, 1/2) differs from hbar K(x, [y, z])")
    f["ghbar_sl3"] = write_json(os.path.join(out_dir, "ghbar_sl3.json"), orig)
    p, pinv = unimodular(rng, n)
    s = rng.choice((2, 4, 5, 7))
    b2, b3 = conjugate(br, l3, p, pinv, s)
    if not jacobi_holds(b2):
        raise AssertionError("conjugated bracket fails the Jacobi identity")
    conj = linf_obj(b2, b3)
    f["ghbar_sl3_conj"] = write_json(os.path.join(out_dir, "ghbar_sl3_conj.json"), conj)

    # the change of basis is a strict isomorphism from the copy to the original
    hom = {"source": conj, "target": orig, "phi0": to_json(p), "phi1": [[rat(s)]],
           "phi2": to_json([[[0] for _ in range(n)] for _ in range(n)])}
    f["hom"] = write_json(os.path.join(out_dir, "hom.json"), hom)
    broken = [row[:] for row in p]
    broken[rng.randrange(n)][rng.randrange(n)] += 1
    f["hom_broken"] = write_json(os.path.join(out_dir, "hom_broken.json"),
                                 dict(hom, phi0=to_json(broken)))
    # the identity 2-cell on the isomorphism, and one with a nonzero tau:
    # d = 0 and V1 carries the trivial action, so tau must vanish on
    # [g, g] = g, and any nonzero tau fails
    for name, tau in (("twohom", [[0] * n]),
                      ("twohom_broken", [[rng.choice((-1, 1)) for _ in range(n)]])):
        f[name] = write_json(os.path.join(out_dir, f"{name}.json"),
                             {"source": conj, "target": orig, "from": hom, "to": hom,
                              "tau": to_json(tau)})

    # cochains on sl3 with trivial coefficients: the Cartan 3-cocycle, the
    # coboundary of a random 1-cochain and a random 2-cochain
    triv = [zeros(1, 1) for _ in range(n)]
    cartan = {k: l3[k[0]][k[1]][k[2]] for k in combinations(range(n), 3)
              if any(l3[k[0]][k[1]][k[2]])}
    one = {(k,): [rng.choice((-2, -1, 1, 2))] for k in range(n)}
    exact = coboundary(br, triv, 1, 1, one)
    two = {k: [rng.choice((-2, -1, 1, 2))] for k in combinations(range(n), 2)}
    while not coboundary(br, triv, 1, 2, two):   # a draw in ker d is kept out
        two[(0, 1)][0] += 1
    f["cochains"] = []
    for name, degree, vals in (("cartan", 3, cartan), ("exact2", 2, exact),
                               ("random2", 2, two)):
        path = write_json(os.path.join(out_dir, f"cochain_{name}.json"),
                          cochain_obj(br, degree, vals))
        closed = not coboundary(br, triv, 1, degree, vals)
        f["cochains"].append({"name": name, "path": path, "degree": degree,
                              "values": vals, "closed": closed})
    if [c["closed"] for c in f["cochains"]] != [True, True, False]:
        raise AssertionError("generated cochains do not have the intended closedness")
    return f
