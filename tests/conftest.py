"""Shared builders: named algebras, broken fixtures, random structure
generators and the equivalence constructions the acceptance suite sweeps."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from lie2alg.cohomology import (Cochain, LieAlgebra, abelian_algebra, build_two_slot,
                                coboundary, killing_triple_cochain, so3_algebra,
                                trivial_rep)
from lie2alg.exactlin import RMatrix, block_diag, invert, vzeros
from lie2alg.lie2 import DifferentialCrossedModule
from lie2alg.linfty import TwoTermLInfinity
from lie2alg.twoterm import TwoTermComplex


def rand_mat(rng, rows, cols, lo=-3, hi=3):
    return RMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)]
                              for _ in range(rows)], cols)


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        m = rand_mat(rng, n, n, lo, hi)
        try:
            invert(m)
            return m
        except ValueError:
            continue


def rand_antisymmetric_bracket(rng, n, lo=-2, hi=2):
    b = [[vzeros(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = [rng.randint(lo, hi) for _ in range(n)]
            b[i][j] = v
            b[j][i] = [-x for x in v]
    return b


def rand_cochain(rng, rep, degree, lo=-3, hi=3):
    from itertools import combinations
    vals = {}
    for key in combinations(range(rep.algebra.dim), degree):
        v = [Fraction(rng.randint(lo, hi), rng.randint(1, 2)) for _ in range(rep.dimV)]
        if any(v):
            vals[key] = v
    return Cochain(rep, degree, vals)


def inflate(v: TwoTermLInfinity, k: int, m: RMatrix) -> TwoTermLInfinity:
    """Direct sum with the acyclic complex m: Q^k -> Q^k (m invertible),
    brackets extended by zero; an equivalence inverse to the projection."""
    n0, n1 = v.dim0, v.dim1
    cx = TwoTermComplex(n0 + k, n1 + k, block_diag(v.d, m))
    l2_00 = [[(list(v.l2_00[i][j]) + [0] * k) if i < n0 and j < n0 else vzeros(n0 + k)
              for j in range(n0 + k)] for i in range(n0 + k)]
    l2_01 = [[(list(v.l2_01[i][a]) + [0] * k) if i < n0 and a < n1 else vzeros(n1 + k)
              for a in range(n1 + k)] for i in range(n0 + k)]
    l3 = [[[(list(v.l3[i][j][p]) + [0] * k) if i < n0 and j < n0 and p < n0
            else vzeros(n1 + k)
            for p in range(n0 + k)] for j in range(n0 + k)] for i in range(n0 + k)]
    return TwoTermLInfinity(cx, l2_00, l2_01, l3)


def conjugate(v: TwoTermLInfinity, p0: RMatrix, p1: RMatrix) -> TwoTermLInfinity:
    """Transport the structure along the invertible change of basis (p0, p1)."""
    n0, n1 = v.dim0, v.dim1
    p0i, p1i = invert(p0), invert(p1)
    d = p0 @ v.d @ p1i
    e = [p0i.col(i) for i in range(n0)]
    f = [p1i.col(a) for a in range(n1)]
    l2_00 = [[p0.matvec(v.bracket00(e[i], e[j])) for j in range(n0)] for i in range(n0)]
    l2_01 = [[p1.matvec(v.act(e[i], f[a])) for a in range(n1)] for i in range(n0)]
    l3 = [[[p1.matvec(v.l3_eval(e[i], e[j], e[p])) for p in range(n0)]
           for j in range(n0)] for i in range(n0)]
    return TwoTermLInfinity(TwoTermComplex(n0, n1, d), l2_00, l2_01, l3)


def quadruple_preserving_conjugation(rng, v: TwoTermLInfinity, base_dim0: int,
                                     base_dim1: int):
    """A block change of basis that fixes the first base_dim0 object rows
    and the first base_dim1 kernel coordinates, so classification lands
    on the same quadruple identification."""
    n0, n1 = v.dim0, v.dim1
    k0, k1 = n0 - base_dim0, n1 - base_dim1
    m0 = rand_invertible(rng, k0) if k0 else RMatrix.identity(0)
    m1 = rand_invertible(rng, k1) if k1 else RMatrix.identity(0)
    rows0 = [[1 if i == j else 0 for j in range(base_dim0)] + [0] * k0
             for i in range(base_dim0)]
    rows0 += [[rng.randint(-2, 2) for _ in range(base_dim0)] + m0.row(r)
              for r in range(k0)]
    rows1 = [[1 if i == j else 0 for j in range(base_dim1)] + [0] * k1
             for i in range(base_dim1)]
    rows1 += [[0] * base_dim1 + m1.row(r) for r in range(k1)]
    return RMatrix.from_rows(rows0), RMatrix.from_rows(rows1)


def broken_abelian4() -> TwoTermLInfinity:
    """Abelian Q^4, trivial line, rho(e4) = 1, l3 = e1* ^ e2* ^ e3*:
    passes (a)-(h), fails exactly (i) at (e1, e2, e3, e4)."""
    g4 = abelian_algebra(4)
    rep = trivial_rep(g4, 1)
    v = build_two_slot(Cochain(rep, 3, {(0, 1, 2): [1]}))
    v.l2_01[3][0][0] = 1
    return v


def broken_abelian4_thirds() -> TwoTermLInfinity:
    """broken_abelian4 with l3 = (1/3) e1* ^ e2* ^ e3*: fails exactly (i)
    at (e1, e2, e3, e4), with residual 1/3."""
    v = broken_abelian4()
    for i, j, k, sign in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (1, 0, 2, -1), (0, 2, 1, -1), (2, 1, 0, -1)):
        v.l3[i][j][k][0] = Fraction(sign, 3)
    return v


def broken_jacobi3() -> LieAlgebra:
    b = [[vzeros(3) for _ in range(3)] for _ in range(3)]
    b[0][1][2], b[1][0][2] = 1, -1
    b[2][0][0], b[0][2][0] = -1, 1
    return LieAlgebra(3, b)


def so3_adjoint_dcm() -> DifferentialCrossedModule:
    g = so3_algebra()
    return DifferentialCrossedModule(3, copy.deepcopy(g.bracket),
                                     3, copy.deepcopy(g.bracket),
                                     RMatrix.identity(3), copy.deepcopy(g.bracket))


@pytest.fixture(scope="session")
def ghbar_so3_1():
    from lie2alg.cohomology import build_g_hbar
    return build_g_hbar(so3_algebra(), 1)


@pytest.fixture(scope="session")
def tetra_so3_1(ghbar_so3_1):
    from lie2alg.braid import build_Y
    return build_Y(ghbar_so3_1)


@pytest.fixture
def rng():
    return random.Random(20240811)


def delta_twist_pair(rng, g=None, hbar=1):
    """Two equivalent skeletal structures: l3 = w and l3 = w + delta(theta)."""
    g = g or so3_algebra()
    rep = trivial_rep(g, 1)
    w = killing_triple_cochain(g, hbar)
    theta = rand_cochain(rng, rep, 2)
    v1 = build_two_slot(w)
    v2 = build_two_slot(w + coboundary(theta))
    return v1, v2, theta
