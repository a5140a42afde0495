
import pytest

from lie2alg.exactlin import DimensionMismatch, RMatrix
from lie2alg.twoterm import (ChainHomotopy, ChainMap, TwoTermComplex,
                             check_chain_map, check_homotopy, complex_from_json,
                             complex_to_json, compose_chain_maps,
                             identity_chain_map, skeletalize_complex,
                             vertical_homotopy, zero_homotopy)
from conftest import rand_mat


def rand_complex(rng, n0, n1):
    return TwoTermComplex(n0, n1, rand_mat(rng, n0, n1))


def valid_homotopy(rng, c, c2):
    """A chain map plus a homotopic partner built from a random tau."""
    phi0 = rand_mat(rng, c2.dim0, c.dim0)
    phi1 = None
    # build phi1 by pushing a random map through the differentials is not
    # always possible; start from a block construction instead
    f = ChainMap(c, c, RMatrix.identity(c.dim0), RMatrix.identity(c.dim1))
    tau = rand_mat(rng, c.dim1, c.dim0)
    g = ChainMap(c, c, f.phi0 + c.d @ tau, f.phi1 + tau @ c.d)
    return f, g, ChainHomotopy(f, g, tau)


def test_identity_chain_map_passes():
    c = TwoTermComplex(2, 2, RMatrix.from_rows([[1, 2], [0, 1]]))
    assert check_chain_map(identity_chain_map(c)).passed


def test_zero_chain_map_passes():
    c = TwoTermComplex(2, 1, RMatrix.from_rows([[1], [2]]))
    c2 = TwoTermComplex(1, 1, RMatrix.from_rows([[3]]))
    f = ChainMap(c, c2, RMatrix.zeros(1, 2), RMatrix.zeros(1, 1))
    assert check_chain_map(f).passed


def test_broken_square_reports_residual_cell():
    c = TwoTermComplex(1, 1, RMatrix.from_rows([[1]]))
    c2 = TwoTermComplex(1, 1, RMatrix.from_rows([[0]]))
    f = ChainMap(c, c2, RMatrix.identity(1), RMatrix.identity(1))
    rep = check_chain_map(f)
    assert not rep.passed
    assert rep.result("differential_square").violations == [((0, 0), -1)]


def test_zero_homotopy_between_equal_maps_passes():
    c = TwoTermComplex(2, 2, RMatrix.from_rows([[1, 0], [1, 1]]))
    f = identity_chain_map(c)
    assert check_homotopy(zero_homotopy(f)).passed


def test_zero_homotopy_between_distinct_maps_fails():
    c = TwoTermComplex(1, 1, RMatrix.from_rows([[0]]))
    f = identity_chain_map(c)
    g = ChainMap(c, c, RMatrix.zeros(1, 1), RMatrix.zeros(1, 1))
    rep = check_homotopy(ChainHomotopy(f, g, RMatrix.zeros(1, 1)))
    assert not rep.passed
    # the residual is psi - phi
    assert rep.result("degree0_equation").violations[0] == ((0, 0), -1)


def test_zero_differentials_make_any_tau_a_homotopy():
    c = TwoTermComplex(2, 2, RMatrix.zeros(2, 2))
    f = identity_chain_map(c)
    h = ChainHomotopy(f, f, RMatrix.from_rows([[1, 2], [3, 4]]))
    assert check_homotopy(h).passed


def test_homotopy_endpoint_mismatch_raises():
    c = TwoTermComplex(1, 1, RMatrix.zeros(1, 1))
    c2 = TwoTermComplex(2, 1, RMatrix.zeros(2, 1))
    f = identity_chain_map(c)
    g = ChainMap(c, c2, RMatrix.zeros(2, 1), RMatrix.zeros(1, 1))
    with pytest.raises(DimensionMismatch):
        ChainHomotopy(f, g, RMatrix.zeros(1, 1))


def test_vertical_homotopy_adds_taus(rng):
    c = rand_complex(rng, 2, 2)
    f, g, h1 = valid_homotopy(rng, c, c)
    tau2 = rand_mat(rng, 2, 2)
    k = ChainMap(c, c, g.phi0 + c.d @ tau2, g.phi1 + tau2 @ c.d)
    h2 = ChainHomotopy(g, k, tau2)
    v = vertical_homotopy(h1, h2)
    assert v.tau == h1.tau + h2.tau
    assert check_homotopy(v).passed


def test_vertical_of_zeros_is_zero():
    c = TwoTermComplex(2, 2, RMatrix.zeros(2, 2))
    f = identity_chain_map(c)
    v = vertical_homotopy(zero_homotopy(f), zero_homotopy(f))
    assert v.tau.is_zero()


def test_horizontal_homotopy_unit_law(rng):
    from lie2alg.twoterm import horizontal_homotopy
    c = rand_complex(rng, 2, 2)
    f, g, h = valid_homotopy(rng, c, c)
    unit = zero_homotopy(identity_chain_map(c))
    right = horizontal_homotopy(h, unit)
    assert right.tau == h.tau
    left = horizontal_homotopy(unit, h)
    assert left.tau == h.tau


def test_horizontal_homotopy_passes_check(rng):
    from lie2alg.twoterm import horizontal_homotopy
    c = rand_complex(rng, 2, 2)
    _, _, h1 = valid_homotopy(rng, c, c)
    _, _, h2 = valid_homotopy(rng, c, c)
    assert check_homotopy(horizontal_homotopy(h1, h2)).passed


def test_composition_associative_and_unital(rng):
    c = rand_complex(rng, 2, 3)
    maps = []
    for _ in range(3):
        tau = rand_mat(rng, 3, 2)
        maps.append(ChainMap(c, c, RMatrix.identity(2) + c.d @ tau,
                             RMatrix.identity(3) + tau @ c.d))
    f, g, h = maps
    lhs = compose_chain_maps(compose_chain_maps(f, g), h)
    rhs = compose_chain_maps(f, compose_chain_maps(g, h))
    assert lhs.phi0 == rhs.phi0 and lhs.phi1 == rhs.phi1
    e = identity_chain_map(c)
    assert compose_chain_maps(e, f).phi1 == f.phi1
    assert compose_chain_maps(f, e).phi1 == f.phi1


@pytest.mark.parametrize("d_rows", [
    [[0, 0], [0, 0]],
    [[1, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[1, 2], [3, 4]],
])
def test_skeletalize_properties(d_rows):
    c = TwoTermComplex(2, 2, RMatrix.from_rows(d_rows))
    sk = skeletalize_complex(c)
    from lie2alg.exactlin import rank_kernel
    rank, kernel = rank_kernel(c.d)
    assert sk.skeletal.d.is_zero()
    assert sk.skeletal.dim0 == c.dim0 - rank
    assert sk.skeletal.dim1 == len(kernel)
    assert check_chain_map(sk.include).passed
    assert check_chain_map(sk.project).passed
    assert check_homotopy(sk.homotopy).passed
    rt = compose_chain_maps(sk.include, sk.project)
    ident = identity_chain_map(sk.skeletal)
    assert rt.phi0 == ident.phi0 and rt.phi1 == ident.phi1


def test_skeletalize_already_skeletal_is_identity():
    c = TwoTermComplex(2, 1, RMatrix.zeros(2, 1))
    sk = skeletalize_complex(c)
    assert sk.skeletal == c
    assert sk.include.phi0 == RMatrix.identity(2)
    assert sk.include.phi1 == RMatrix.identity(1)
    assert sk.homotopy.tau.is_zero()


def test_skeletalize_collapses_invertible_differential():
    c = TwoTermComplex(1, 1, RMatrix.from_rows([[1]]))
    sk = skeletalize_complex(c)
    assert (sk.skeletal.dim0, sk.skeletal.dim1) == (0, 0)
    assert check_homotopy(sk.homotopy).passed


def test_skeletalize_random_sweep(rng):
    for _ in range(25):
        n0, n1 = rng.randint(0, 4), rng.randint(0, 4)
        c = rand_complex(rng, n0, n1)
        sk = skeletalize_complex(c)
        assert sk.skeletal.d.is_zero()
        assert check_chain_map(sk.include).passed
        assert check_chain_map(sk.project).passed
        assert check_homotopy(sk.homotopy).passed


def test_skeletalize_eliminates_d_once(monkeypatch):
    """One elimination of d and one of its transpose, then one inverse: the
    projection on C1 selects the free columns of d with no second one."""
    from lie2alg import exactlin
    shapes, rref = [], exactlin._rref

    def logged(rows, cols):
        shapes.append((len(rows), cols))
        return rref(rows, cols)
    monkeypatch.setattr(exactlin, "_rref", logged)
    sk = skeletalize_complex(TwoTermComplex(3, 2, RMatrix.from_rows([[1, 2], [2, 4], [0, 1]])))
    assert shapes == [(3, 2), (2, 3), (3, 6)]
    assert check_homotopy(sk.homotopy).passed


def test_complex_json_round_trip():
    c = TwoTermComplex(2, 1, RMatrix.from_rows([[1], [-2]]))
    assert complex_from_json(complex_to_json(c)) == c
