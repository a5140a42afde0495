
from lie2alg.exactlin import RMatrix, kron, rank_kernel, vsub
from lie2alg.twoterm import (ChainHomotopy, ChainMap, TwoTermComplex,
                             check_chain_map, check_homotopy, horizontal_homotopy,
                             identity_chain_map, vertical_homotopy)
from lie2alg.twovect import (CellId, CellLeaf, CellTensor, CellVert, CellWhiskerL,
                             LinearNatTrans, Morphism,
                             TwoVectorSpace, check_functor, check_nat_trans,
                             check_space, compose_functors, compose_morphisms,
                             direct_sum, eval_cell_expr, eval_two_cell, functor_S,
                             functor_T, ground_field, horizontal_nat, identity_functor,
                             identity_morphism, identity_nat, is_invertible_functor,
                             left_unitor, right_unitor, S_on_functor, S_on_nat_trans,
                             space_from_json, space_to_json, st_roundtrip_iso,
                             T_on_chain_map, T_on_homotopy, tensor_2vs, tensor_functor,
                             tensor_nat, vertical_nat)
from conftest import rand_mat


def rand_complex(rng, n0, n1):
    return rand_mat(rng, n0, n1) and TwoTermComplex(n0, n1, rand_mat(rng, n0, n1))


def rand_space(rng, n0=2, n1=3):
    """A generic 2-vector space: conjugate a T-model by a random basis change."""
    from lie2alg.exactlin import invert
    from conftest import rand_invertible
    c = TwoTermComplex(n0, n1 - n0, rand_mat(rng, n0, n1 - n0))
    v = functor_T(c)
    p0 = rand_invertible(rng, n0)
    p1 = rand_invertible(rng, n1)
    p0i, p1i = invert(p0), invert(p1)
    return TwoVectorSpace(n0, n1, p0 @ v.s @ p1i, p0 @ v.t @ p1i, p1 @ v.i @ p0i)


def chain_map_with_tau(rng, c):
    tau = rand_mat(rng, c.dim1, c.dim0)
    f = identity_chain_map(c)
    g = ChainMap(c, c, f.phi0 + c.d @ tau, f.phi1 + tau @ c.d)
    return f, g, ChainHomotopy(f, g, tau)


def test_ground_field_shape():
    k = ground_field()
    assert (k.dim0, k.dim1) == (1, 1)
    assert k.s == k.t == k.i == RMatrix.from_rows([[1]])
    assert check_space(k).passed


def test_compose_left_unit_law(rng):
    v = rand_space(rng)
    f = Morphism(v, [1, -2, 3])
    one = identity_morphism(v, f.source())
    assert compose_morphisms(one, f) == f
    assert compose_morphisms(f, identity_morphism(v, f.target())) == f


def test_ker_s_matches_dense_kernel_basis(rng):
    """ker_s wraps the sparse echelon basis as columns; it is the matrix
    whose columns are the dense reference basis of ker(s), in order."""
    from test_exactlin import _dense_rank_kernel
    for _ in range(40):
        n0 = rng.randint(0, 3)
        v = rand_space(rng, n0, n0 + rng.randint(0, 3))
        _, basis = _dense_rank_kernel(v.s)
        assert v.ker_s() == RMatrix.from_cols(basis, rows=v.dim1)
        assert (v.s @ v.ker_s()).is_zero()


def test_ground_field_morphisms_are_identities():
    k = ground_field()
    f = Morphism(k, [5])
    assert f.arrow() == [0]
    assert compose_morphisms(f, f) == f


def test_arrow_parts_add_with_target_bookkeeping():
    c = TwoTermComplex(1, 1, RMatrix.from_rows([[1]]))
    v = functor_T(c)
    f = Morphism(v, [0, 1])
    g = Morphism(v, [1, 2])
    assert f.target() == [1] and g.source() == [1] and g.target() == [3]
    assert compose_morphisms(f, g).vec == [0, 3]


def test_compose_associativity(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    v = functor_T(c)
    x = [1, 2]
    f = Morphism(v, x + [1, 0])
    g = Morphism(v, f.target() + [0, 2])
    h = Morphism(v, g.target() + [-1, 1])
    lhs = compose_morphisms(compose_morphisms(f, g), h)
    rhs = compose_morphisms(f, compose_morphisms(g, h))
    assert lhs == rhs


def test_t_minus_s_is_d_of_arrow(rng):
    c = TwoTermComplex(2, 3, rand_mat(rng, 2, 3))
    v = functor_T(c)
    for _ in range(10):
        f = Morphism(v, [rng.randint(-3, 3) for _ in range(5)])
        assert vsub(f.target(), f.source()) == c.d.matvec(f.vec[2:])


def test_functor_T_of_trivial_complex():
    c = TwoTermComplex(1, 1, RMatrix.zeros(1, 1))
    v = functor_T(c)
    assert (v.dim0, v.dim1) == (1, 2)
    assert v.s == v.t == RMatrix.from_rows([[1, 0]])
    assert v.i == RMatrix.from_rows([[1], [0]])


def test_S_of_T_is_canonical_identity(rng):
    for _ in range(10):
        n0, n1 = rng.randint(0, 3), rng.randint(0, 3)
        c = TwoTermComplex(n0, n1, rand_mat(rng, n0, n1))
        assert functor_S(functor_T(c)) == c


def test_S_of_T_single_entry():
    c = TwoTermComplex(1, 1, RMatrix.from_rows([[2]]))
    assert functor_S(functor_T(c)).d == RMatrix.from_rows([[2]])


def test_T_of_S_explicit_iso(rng):
    for _ in range(10):
        v = rand_space(rng, rng.randint(1, 3), rng.randint(3, 4))
        alpha = st_roundtrip_iso(v)
        assert check_functor(alpha).passed
        assert is_invertible_functor(alpha)


def test_S_on_functor_generic_space(rng):
    """S transports the roundtrip isomorphism of a generic (conjugated)
    space to a chain isomorphism, using the solve against the cached
    kernel basis."""
    v = rand_space(rng, 2, 4)
    alpha = st_roundtrip_iso(v)
    phi = S_on_functor(alpha)
    assert check_chain_map(phi).passed
    assert rank_kernel(phi.phi1)[0] == phi.phi1.rows  # isomorphism on arrows


def test_S_T_on_morphism_layers(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    f, g, h = chain_map_with_tau(rng, c)
    F = T_on_chain_map(f)
    assert check_functor(F).passed
    th = T_on_homotopy(h)
    assert check_nat_trans(th).passed
    back = S_on_nat_trans(th)
    assert check_homotopy(back).passed
    assert back.tau == h.tau
    assert S_on_functor(F).phi1 == f.phi1


def test_transport_preserves_failures(rng):
    c = TwoTermComplex(2, 2, RMatrix.from_rows([[1, 0], [0, 0]]))
    f, g, h = chain_map_with_tau(rng, c)
    bad_chain = ChainMap(c, c, f.phi0 + RMatrix.identity(2), f.phi1)
    assert not check_chain_map(bad_chain).passed
    assert not check_functor(T_on_chain_map(bad_chain)).passed
    th = T_on_homotopy(h)
    # perturb theta into (0, ker d): rows stay valid, naturality and the
    # transported homotopy both break
    # arrow slot of the kernel direction of d
    bump = RMatrix.from_cells(th.theta.rows, th.theta.cols, [((2 + 1, 0), 1)])
    bad_nat = LinearNatTrans(th.from_functor, th.to_functor, th.theta + bump)
    assert bad_nat.theta != th.theta
    rep = check_nat_trans(bad_nat)
    assert rep.result("source_row").passed and rep.result("target_row").passed
    assert not rep.result("naturality").passed
    assert not check_homotopy(S_on_nat_trans(bad_nat)).passed


def test_identity_nat_passes(rng):
    v = rand_space(rng)
    assert check_nat_trans(identity_nat(identity_functor(v))).passed


def test_direct_sum_with_zero_is_componentwise(rng):
    v = rand_space(rng)
    zero = TwoVectorSpace(0, 0, RMatrix.zeros(0, 0), RMatrix.zeros(0, 0),
                          RMatrix.zeros(0, 0))
    ds = direct_sum(v, zero)
    assert ds.space.s == v.s and ds.space.t == v.t and ds.space.i == v.i
    assert check_functor(ds.include_left).passed
    assert check_functor(ds.project_left).passed


def test_direct_sum_injections_projections(rng):
    v, w = rand_space(rng), rand_space(rng, 1, 2)
    ds = direct_sum(v, w)
    assert check_space(ds.space).passed
    comp = compose_functors(ds.include_left, ds.project_left)
    assert comp.f0 == RMatrix.identity(v.dim0) and comp.f1 == RMatrix.identity(v.dim1)
    cross = compose_functors(ds.include_left, ds.project_right)
    assert cross.f0.is_zero() and cross.f1.is_zero()


def test_tensor_dims_and_invariants(rng):
    for _ in range(5):
        v = rand_space(rng, rng.randint(1, 2), rng.randint(2, 3))
        w = rand_space(rng, rng.randint(1, 2), rng.randint(2, 3))
        tw = tensor_2vs(v, w)
        assert (tw.dim0, tw.dim1) == (v.dim0 * w.dim0, v.dim1 * w.dim1)
        assert check_space(tw).passed


def test_tensor_functor_of_identities_is_identity(rng):
    v, w = rand_space(rng), rand_space(rng, 1, 2)
    t = tensor_functor(identity_functor(v), identity_functor(w))
    assert t.f0 == RMatrix.identity(v.dim0 * w.dim0)
    assert t.f1 == RMatrix.identity(v.dim1 * w.dim1)


def test_unitors_are_isomorphisms(rng):
    v = rand_space(rng)
    for u in (left_unitor(v), right_unitor(v)):
        assert check_functor(u).passed
        assert is_invertible_functor(u)


def test_nat_trans_from_homotopy_passes_and_breaks(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    _, _, h = chain_map_with_tau(rng, c)
    th = T_on_homotopy(h)
    assert check_nat_trans(th).passed
    # corrupt one target row entry
    grid = [list(r) for r in th.theta.data]
    grid[0][0] += 1
    bad_theta = RMatrix.from_rows(grid, th.theta.cols)
    assert bad_theta != th.theta
    bad = LinearNatTrans(th.from_functor, th.to_functor, bad_theta)
    rep = check_nat_trans(bad)
    assert not rep.passed
    assert rep.first_failure.first_violation[0] is not None


def test_vertical_and_horizontal_nat(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    f, g, h1 = chain_map_with_tau(rng, c)
    tau2 = rand_mat(rng, 2, 2)
    k = ChainMap(c, c, g.phi0 + c.d @ tau2, g.phi1 + tau2 @ c.d)
    h2 = ChainHomotopy(g, k, tau2)
    a, b = T_on_homotopy(h1), T_on_homotopy(h2)
    vab = vertical_nat(a, b)
    assert check_nat_trans(vab).passed
    assert S_on_nat_trans(vab).tau == vertical_homotopy(h1, h2).tau

    hor1 = horizontal_nat(a, b2 := T_on_homotopy(h2), form=1)
    hor2 = horizontal_nat(a, b2, form=2)
    assert hor1.theta == hor2.theta
    assert check_nat_trans(hor1).passed
    assert S_on_nat_trans(hor1).tau == horizontal_homotopy(h1, h2).tau


def test_interchange_law(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    f, g, h1 = chain_map_with_tau(rng, c)
    tau2 = rand_mat(rng, 2, 2)
    k = ChainMap(c, c, g.phi0 + c.d @ tau2, g.phi1 + tau2 @ c.d)
    h2 = ChainHomotopy(g, k, tau2)
    a, b = T_on_homotopy(h1), T_on_homotopy(h2)
    tau3 = rand_mat(rng, 2, 2)
    f2 = identity_chain_map(c)
    g2 = ChainMap(c, c, f2.phi0 + c.d @ tau3, f2.phi1 + tau3 @ c.d)
    ap = T_on_homotopy(ChainHomotopy(f2, g2, tau3))
    tau4 = rand_mat(rng, 2, 2)
    k2 = ChainMap(c, c, g2.phi0 + c.d @ tau4, g2.phi1 + tau4 @ c.d)
    bp = T_on_homotopy(ChainHomotopy(g2, k2, tau4))
    lhs = horizontal_nat(vertical_nat(a, b), vertical_nat(ap, bp))
    rhs = vertical_nat(horizontal_nat(a, ap), horizontal_nat(b, bp))
    assert lhs.theta == rhs.theta


def test_tensor_nat_components_multiply(rng):
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    _, _, h1 = chain_map_with_tau(rng, c)
    c2 = TwoTermComplex(1, 2, rand_mat(rng, 1, 2))
    _, _, h2 = chain_map_with_tau(rng, c2)
    a, b = T_on_homotopy(h1), T_on_homotopy(h2)
    t = tensor_nat(a, b)
    va, vb = a.from_functor.source, b.from_functor.source
    for i in range(va.dim0):
        for j in range(vb.dim0):
            ei = [1 if p == i else 0 for p in range(va.dim0)]
            ej = [1 if p == j else 0 for p in range(vb.dim0)]
            assert t.theta.col(i * vb.dim0 + j) == kron_vec(
                a.theta.matvec(ei), b.theta.matvec(ej))
    # identity 2-cells supply i(y) factors
    one = identity_nat(identity_functor(vb))
    assert tensor_nat(a, one).theta == kron(a.theta, vb.i)
    assert t.from_functor.f0 == kron(a.from_functor.f0, b.from_functor.f0)
    assert t.to_functor.f1 == kron(a.to_functor.f1, b.to_functor.f1)


def test_eval_two_cell_identity_and_units(rng):
    v = rand_space(rng)
    idf = identity_functor(v)
    for j in range(v.dim0):
        m = eval_two_cell(CellId(idf), j)
        x = [1 if p == j else 0 for p in range(v.dim0)]
        assert m == identity_morphism(v, x)
    c = TwoTermComplex(2, 2, rand_mat(rng, 2, 2))
    _, _, h = chain_map_with_tau(rng, c)
    a = T_on_homotopy(h)
    vert = CellVert(CellLeaf(a), CellId(a.to_functor))
    assert eval_cell_expr(vert).theta == a.theta


def test_eval_whisker_then_tensor_matches_hand_expansion(rng):
    c = TwoTermComplex(1, 1, rand_mat(rng, 1, 1))
    _, _, h = chain_map_with_tau(rng, c)
    a = T_on_homotopy(h)
    v = a.from_functor.source
    expr = CellTensor(CellLeaf(a), CellId(identity_functor(v)))
    nat = eval_cell_expr(expr)
    for i in range(v.dim0):
        for j in range(v.dim0):
            got = eval_two_cell(expr, i * v.dim0 + j)
            ei = [1 if p == i else 0 for p in range(v.dim0)]
            ej = [1 if p == j else 0 for p in range(v.dim0)]
            hand = kron_vec(a.theta.matvec(ei), v.i.matvec(ej))
            assert got.vec == hand
    wl = CellWhiskerL(identity_functor(v), CellLeaf(a))
    assert eval_cell_expr(wl).theta == a.theta


def kron_vec(u, w):
    out = []
    for x in u:
        out.extend([x * y for y in w])
    return out


def test_space_json_round_trip(rng):
    v = rand_space(rng)
    assert space_from_json(space_to_json(v)) == v
