"""Two-term chain complexes, chain maps, chain homotopies, skeletalization.

Conventions: the differential d maps C1 -> C0 and is stored as a
dim0 x dim1 matrix acting on column vectors.  Composites are diagram
order: ``compose_chain_maps(f, g)`` is "f then g".  A homotopy tau
from phi to psi is a map C0 -> C1' with d' tau = psi0 - phi0 and
tau d = psi1 - phi1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import DimensionMismatch, RMatrix, invert, pivot_columns, rank_kernel
from .report import CheckReport, grid_violations
from .serialize import as_count, mat_from_json, mat_to_json, need


@dataclass
class TwoTermComplex:
    dim0: int
    dim1: int
    d: RMatrix  # C1 -> C0

    def __post_init__(self):
        if (self.d.rows, self.d.cols) != (self.dim0, self.dim1):
            raise DimensionMismatch(
                f"differential must be {self.dim0}x{self.dim1}, got {self.d.rows}x{self.d.cols}")

    def is_skeletal(self) -> bool:
        return self.d.is_zero()


@dataclass
class ChainMap:
    source: TwoTermComplex
    target: TwoTermComplex
    phi0: RMatrix  # C0 -> C0'
    phi1: RMatrix  # C1 -> C1'

    def __post_init__(self):
        if (self.phi0.rows, self.phi0.cols) != (self.target.dim0, self.source.dim0):
            raise DimensionMismatch("phi0 has the wrong shape")
        if (self.phi1.rows, self.phi1.cols) != (self.target.dim1, self.source.dim1):
            raise DimensionMismatch("phi1 has the wrong shape")


@dataclass
class ChainHomotopy:
    from_map: ChainMap
    to_map: ChainMap
    tau: RMatrix  # C0 -> C1'

    def __post_init__(self):
        f, t = self.from_map, self.to_map
        if f.source != t.source or f.target != t.target:
            raise DimensionMismatch("homotopy endpoints must be parallel chain maps")
        if (self.tau.rows, self.tau.cols) != (f.target.dim1, f.source.dim0):
            raise DimensionMismatch("tau has the wrong shape")


def check_chain_map(f: ChainMap) -> CheckReport:
    """Pass iff the square d' phi1 = phi0 d commutes; lists every bad cell."""
    rep = CheckReport("chain_map")
    resid = (f.target.d @ f.phi1) - (f.phi0 @ f.source.d)
    rep.add("differential_square", grid_violations(resid))
    return rep


def check_homotopy(h: ChainHomotopy) -> CheckReport:
    """Residuals are oriented as (psi - phi) minus what tau produces."""
    rep = CheckReport("chain_homotopy")
    f, t = h.from_map, h.to_map
    resid0 = (t.phi0 - f.phi0) - (f.target.d @ h.tau)
    resid1 = (t.phi1 - f.phi1) - (h.tau @ f.source.d)
    rep.add("degree0_equation", grid_violations(resid0))
    rep.add("degree1_equation", grid_violations(resid1))
    return rep


def identity_chain_map(c: TwoTermComplex) -> ChainMap:
    return ChainMap(c, c, RMatrix.identity(c.dim0), RMatrix.identity(c.dim1))


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """Diagram order: f then g."""
    if f.target != g.source:
        raise DimensionMismatch("chain maps are not composable")
    return ChainMap(f.source, g.target, g.phi0 @ f.phi0, g.phi1 @ f.phi1)


def zero_homotopy(f: ChainMap) -> ChainHomotopy:
    return ChainHomotopy(f, f, RMatrix.zeros(f.target.dim1, f.source.dim0))


def vertical_homotopy(h1: ChainHomotopy, h2: ChainHomotopy) -> ChainHomotopy:
    """Homotopy phi => chi from phi => psi and psi => chi; tau = tau1 + tau2."""
    if h1.to_map != h2.from_map:
        raise DimensionMismatch("vertical composite needs matching middle chain map")
    return ChainHomotopy(h1.from_map, h2.to_map, h1.tau + h2.tau)


def horizontal_homotopy(h1: ChainHomotopy, h2: ChainHomotopy) -> ChainHomotopy:
    """Horizontal composite of tau: phi => psi (C -> C') with
    tau': phi' => psi' (C' -> C''): x |-> tau'(phi0 x) + psi'1(tau x).

    This is the image under the chain-complex dictionary of the
    2-category composite of natural transformations.
    """
    if h1.from_map.target != h2.from_map.source:
        raise DimensionMismatch("horizontal composite endpoints do not chain")
    tau = (h2.tau @ h1.from_map.phi0) + (h2.to_map.phi1 @ h1.tau)
    return ChainHomotopy(compose_chain_maps(h1.from_map, h2.from_map),
                         compose_chain_maps(h1.to_map, h2.to_map), tau)


@dataclass
class Skeletalization:
    """Skeletal replacement with explicit equivalence data.

    include: skeletal -> original and project: original -> skeletal
    satisfy project-after-include = identity exactly, and the homotopy
    witnesses include-after-project ~ identity on the original.
    """

    skeletal: TwoTermComplex
    include: ChainMap
    project: ChainMap
    homotopy: ChainHomotopy


def skeletalize_complex(c: TwoTermComplex) -> Skeletalization:
    """Deterministic skeletal equivalence built from echelon pivots.

    C1 splits as ker(d) + span{e_p : p a pivot column of d}; C0 splits
    as im(d) + span{e_q : q not a pivot of the column space}.  The
    witnesses invert the square decomposition of C0 and read C1 off the
    free coordinates, so the construction is reproducible and exact.
    """
    rank, kernel = rank_kernel(c.d)
    free = [max(k) for k in kernel]  # each echelon kernel vector's free column is its largest key
    piv_cols = sorted(set(range(c.dim1)) - set(free))
    d_t = c.d.transpose()
    piv_rows = set(pivot_columns(d_t))  # basis rows of the column space
    comp_rows = [q for q in range(c.dim0) if q not in piv_rows]

    skeletal = TwoTermComplex(len(comp_rows), len(kernel),
                              RMatrix.zeros(len(comp_rows), len(kernel)))

    # include: skeletal -> c on the chosen complement / kernel bases
    units = [{q: 1} for q in comp_rows]
    u0 = RMatrix(len(comp_rows), c.dim0, units).transpose()
    include = ChainMap(skeletal, c, u0, RMatrix(len(kernel), c.dim1, kernel).transpose())

    # solve x = d w + sum c_q e_q with w supported on pivot columns:
    # m0 = [d|_P  E_comp] is square invertible, giving project0 and tau,
    # whose row p is row r of m0^-1 for p the r-th pivot column
    m0_t = RMatrix(c.dim0, c.dim0, [d_t.entries[p] for p in piv_cols] + units)
    m0_inv = invert(m0_t.transpose())
    v0 = RMatrix(len(comp_rows), c.dim0, m0_inv.entries[rank:])
    tau_rows = dict(zip(piv_cols, m0_inv.entries))
    tau = RMatrix(c.dim1, c.dim0, [tau_rows.get(p, {}) for p in range(c.dim1)])

    # h = sum a_i k_i + sum b_p e_p has a_i = h[f_i], as k_j is 0 at f_i for j != i
    v1 = RMatrix(len(kernel), c.dim1, [{f: 1} for f in free])
    project = ChainMap(c, skeletal, v0, v1)

    round_trip = compose_chain_maps(project, include)
    homotopy = ChainHomotopy(round_trip, identity_chain_map(c), tau)
    return Skeletalization(skeletal, include, project, homotopy)


def complex_to_json(c: TwoTermComplex) -> dict:
    return {"dim0": c.dim0, "dim1": c.dim1, "d": mat_to_json(c.d)}


def complex_from_json(obj: dict) -> TwoTermComplex:
    dim0 = as_count(need(obj, "dim0"), "dim0")
    dim1 = as_count(need(obj, "dim1"), "dim1")
    return TwoTermComplex(dim0, dim1, mat_from_json(obj, "d", dim0, dim1))
