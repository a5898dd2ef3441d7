"""Decorated-lattice dimer machinery.

Each vertex of the original lattice becomes a "city" of four nodes (left,
top, right, bottom) joined by a diamond of internal edges of weight u;
adjacent cities are joined by external edges of weight C.  At the solvable
point the close-packed dimer model on this lattice reproduces the six-vertex
partition function, and the signed adjacency matrix R of a face-parity
(Pfaffian) orientation gives Z^2 = det R.  The lattice has two kinds of
bounded face, the diamond inside each city and the octagon between four
cities, so one fixed sign rule orients every lattice, as Kasteleyn's rule
does the square lattice (see ``kasteleyn_orientation``).

Node indexing is city-major: node = 4*(row*cols + col) + k with
k = 0 left, 1 top, 2 right, 3 bottom.  The edge list order is fixed
(internal diamonds city by city, then horizontal externals, then vertical
externals) so edge indices are reproducible across runs; the lattice holds
it as three arrays, edge e joining nodes i[e] and j[e] with weight[e].

The external edges come in the order of ``model.enumerate_partition``'s
free edges, so a vertex configuration with mask ``mask`` has its dimers on
external edge 4*rows*cols + b exactly where bit b of the line set
``mask ^ model.ground_state_mask(params)`` is 1.  Each city's diamond then
completes the matching: two ways with no line at the city, one way with
lines on two adjacent sides or on all four, none otherwise (the ice rule).
So one configuration's weight is ``enumerate_matchings`` with every
external edge pinned, which is how the mapping is checked.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BadInput, ConstraintConflict, EdgeOutOfRange,
                     FieldOverflow, NotFreeFermion, OrientationFailure,
                     TooLarge, TooManyConstraints)
from .model import (FREE_FERMION_BETA_EPS, Boundary, ModelParams, STATE_BITS,
                    sublattice, Sublattice)

MATCHING_NODE_BOUND = 36
CONSTRAINT_BOUND = 5

#: most cities (rows * cols) of a decorated lattice: 512x512, the largest
#: measured to finish, took 12.6 s and 2.3 GB to factor K on a 2-core Xeon
CITY_BOUND = 512 * 512

#: an inclusion-exclusion sum within this many ulps of the sum of its terms'
#: magnitudes is rounding left by terms that cancel, and reads as exactly 0.
#: Over 6100 random sets on 1x1 to 3x3 lattices at |beta_s| <= 6, those no
#: matching satisfies whose terms are all true probabilities left at most
#: 1.75 ulps (one set 6e4), satisfiable ones at least 1.1e4.  A term that is
#: rounding of a true 0 carries the scale of K^-1, which this rule cannot see.
_CANCELLATION_ULPS = 8


@dataclass(frozen=True)
class EdgeConstraint:
    edge: int
    occupied: bool


@dataclass(frozen=True)
class DecoratedLattice:
    """Edge e joins nodes i[e] and j[e] with weight[e], in the module's edge
    order; the three arrays are read-only."""

    rows: int
    cols: int
    weight_c: float
    weight_u: float
    i: np.ndarray = field(repr=False, compare=False)
    j: np.ndarray = field(repr=False, compare=False)
    weight: np.ndarray = field(repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return 4 * self.rows * self.cols

    def external_h(self, row: int, col: int) -> int:
        """Edge index of the horizontal external edge east of city (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols - 1):
            raise EdgeOutOfRange(f"no external edge east of city ({row}, "
                                 f"{col}) on {self.rows}x{self.cols}")
        return 4 * self.rows * self.cols + row * (self.cols - 1) + col

    def external_v(self, row: int, col: int) -> int:
        """Edge index of the vertical external edge south of city (row, col)."""
        if not (0 <= row < self.rows - 1 and 0 <= col < self.cols):
            raise EdgeOutOfRange(f"no external edge south of city ({row}, "
                                 f"{col}) on {self.rows}x{self.cols}")
        return (4 * self.rows * self.cols + self.rows * (self.cols - 1)
                + row * self.cols + col)


def build_decorated(params: ModelParams) -> DecoratedLattice:
    """City decoration of the lattice at the solvable point.

    Weights: C = exp(-beta_s/2) on external edges, u = (sqrt2/2)
    exp(beta_s/2) on internal ones; requires beta_eps = ln(2)/2, the
    fixed ground-state boundary (lines cannot cross the boundary, so no
    external stubs are needed and the graph stays planar-with-boundary)
    and at most CITY_BOUND cities, checked before any array is allocated.
    """
    if abs(params.beta_eps - FREE_FERMION_BETA_EPS) > 1e-12:
        raise NotFreeFermion(
            f"beta_eps={params.beta_eps!r} is off the solvable point")
    if params.boundary is not Boundary.FIXED_GROUND_STATE:
        raise BadInput("decorated lattice uses the fixed ground-state boundary")
    n, m = params.rows, params.cols
    if n * m > CITY_BOUND:
        raise TooLarge(f"{n}x{m} has {n * m} cities, above the Kasteleyn "
                       f"bound {CITY_BOUND}")
    try:
        c_w = math.exp(-0.5 * params.beta_s)
        u_w = 0.5 * math.sqrt(2.0) * math.exp(0.5 * params.beta_s)
    except OverflowError:
        raise FieldOverflow("a Kasteleyn weight e^(|beta_s|/2) overflows "
                            "a double") from None
    city = 4 * np.arange(n * m, dtype=np.int64).reshape(n, m)
    i = np.concatenate([
        (city[:, :, None] + np.arange(4)).ravel(),  # L-T, T-R, R-B, B-L
        (city[:, :-1] + 2).ravel(),                 # R to the east city's L
        (city[:-1, :] + 3).ravel()])                # B to the south city's T
    j = np.concatenate([
        (city[:, :, None] + (np.arange(4) + 1) % 4).ravel(),
        city[:, 1:].ravel(),
        (city[1:, :] + 1).ravel()])
    weight = np.repeat([u_w, c_w], [4 * n * m, len(i) - 4 * n * m])
    for a in (i, j, weight):
        a.flags.writeable = False
    return DecoratedLattice(n, m, c_w, u_w, i, j, weight)


# --- the Kasteleyn matrix ----------------------------------------------------

class KasteleynMatrix:
    """Signed anti-symmetric adjacency matrix K of a Pfaffian orientation.

    ``signs[e]`` is +1 when edge e is oriented i -> j in edge-list order.
    K is held as a sparse CSC matrix and factored once, by a sparse LU,
    when the object is built; log det K and any block of K^-1 come from
    that one factorization.  The subset terms of the last edge set asked
    for are kept (``subset_terms``), so the six states of one site, which
    constrain the same four edges, share one solve and one batched
    elimination.  The fixed boundary always leaves one perfect matching,
    the ground state's completion, so K is never singular: a failed
    factorization or a non-positive det K means the field has swamped a
    double's precision.
    """

    def __init__(self, lattice: DecoratedLattice, signs: np.ndarray):
        self.lattice = lattice
        self.signs = signs
        n, i, j = lattice.n_nodes, lattice.i, lattice.j
        k = signs * lattice.weight
        self.sparse = sp.csc_matrix(
            (np.concatenate([k, -k]),
             (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
        try:
            self._lu = spla.splu(self.sparse)
        except RuntimeError as exc:
            raise FieldOverflow(
                "the sparse LU of K loses its pivots at this field") from exc
        self._last_terms: tuple[tuple[int, ...], Mapping[int, float]] | None = None

    def log_det(self) -> float:
        """log det K from the diagonal of U; det K = Pf(K)^2 must be > 0."""
        diag = self._lu.U.diagonal()
        sign = (_parity(self._lu.perm_r) * _parity(self._lu.perm_c)
                * np.prod(np.sign(diag)))
        if sign <= 0:
            raise FieldOverflow(
                "det K = Pf(K)^2 comes out non-positive at this field")
        log_det = float(np.sum(np.log(np.abs(diag))))
        if not math.isfinite(log_det):
            raise FieldOverflow("a pivot of log det K overflows a double")
        return log_det

    def inverse_block(self, nodes: list[int]) -> np.ndarray:
        """K^-1[I, I] for the node list I, from one solve on its unit vectors."""
        rhs = np.zeros((self.lattice.n_nodes, len(nodes)))
        rhs[nodes, np.arange(len(nodes))] = 1.0
        return self._lu.solve(rhs)[nodes, :]

    def subset_terms(self, edges: tuple[int, ...]) -> Mapping[int, float]:
        """{S: prod_{e in S} (-K_e) Pf(K^-1[V(S)])} over the node-disjoint
        subsets S of the sorted edge tuple, S a bit mask over its positions.

        One solve gives K^-1 on the edges' ends, rows (i_e, j_e) edge by
        edge.  Each subset is that block with every edge outside it given a
        unit 2x2 pair in place of its rows and columns, which leaves the
        Pfaffian that of the subset's own rows, so one elimination takes
        every subset at once.  The table of the last edge tuple asked for is
        kept for the next call on the same tuple.
        """
        if self._last_terms is not None and self._last_terms[0] == edges:
            return self._last_terms[1]
        lat, k, index = self.lattice, len(edges), list(edges)
        ends = np.stack([lat.i[index], lat.j[index]], axis=1).ravel()
        nodes, position = np.unique(ends, return_inverse=True)
        block = self.inverse_block(nodes.tolist())[np.ix_(position, position)]
        block = 0.5 * (block - block.T)  # the solve is anti-symmetric to rounding
        masks = np.arange(1 << k)
        keep = np.repeat((masks[:, None] >> np.arange(k)) & 1 == 1, 2, axis=1)
        # a subset whose edges share a node holds no matching and has no term
        uses = keep.astype(np.int64) @ (position[:, None] == np.arange(len(nodes)))
        disjoint = uses.max(axis=1, initial=0) <= 1
        masks, keep = masks[disjoint], keep[disjoint]
        unit = np.zeros((2 * k, 2 * k))
        unit[0::2, 1::2] = np.eye(k)
        unit[1::2, 0::2] = -np.eye(k)
        # selection, not a 0/1 product: an entry of K^-1 may be inf
        pf = pfaffians(np.where(keep[:, :, None] & keep[:, None, :], block, unit))
        weights = (-self.signs[index] * lat.weight[index]).tolist()
        # Python floats: a weight product that overflows times a Pfaffian of
        # 0 is nan, which the caller's finiteness check reports
        terms = {s: math.prod(w for b, w in enumerate(weights) if (s >> b) & 1)
                 * p for s, p in zip(masks.tolist(), pf.tolist())}
        self._last_terms = edges, MappingProxyType(terms)
        return self._last_terms[1]


def _parity(perm: np.ndarray) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    perm = perm.tolist()
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            node = start
            while not seen[node]:
                seen[node] = True
                node = perm[node]
    return -1 if (len(perm) - cycles) % 2 else 1


def kasteleyn_orientation(lat: DecoratedLattice) -> KasteleynMatrix:
    """Orient edges so every bounded face is odd-clockwise.

    Every edge runs i -> j in edge-list order except each city's internal
    edge 3, which runs L -> B.  Each diamond then has three clockwise
    edges (L-T, T-R, R-B); each octagon has three (its top and right
    externals and internal edge 3 of its top-right city).  Local statistics
    and det K do not depend on which valid orientation is used.
    """
    signs = np.ones(len(lat.i), dtype=np.int8)
    signs[3:4 * lat.rows * lat.cols:4] = -1
    kast = KasteleynMatrix(lat, signs)
    audit_faces(kast)
    return kast


def audit_faces(kast: KasteleynMatrix) -> None:
    """Re-check anti-symmetry and odd-clockwise parity on every bounded face.

    An edge oriented i -> j runs clockwise around its diamond, and around
    the octagon between cities (r, c), (r, c+1), (r+1, c) and (r+1, c+1)
    exactly when it is that octagon's top or right external edge; the
    octagon's other six edges then run counterclockwise.
    """
    if (kast.sparse + kast.sparse.T).count_nonzero() != 0:
        raise OrientationFailure("matrix is not anti-symmetric")
    n, m = kast.lattice.rows, kast.lattice.cols
    along = (kast.signs > 0).astype(np.int64)
    internal = along[:4 * n * m].reshape(n, m, 4)
    horizontal = along[4 * n * m:4 * n * m + n * (m - 1)].reshape(n, m - 1)
    vertical = along[4 * n * m + n * (m - 1):].reshape(n - 1, m)
    diamonds = internal.sum(axis=2)
    octagons = (horizontal[:-1, :] + vertical[:, 1:] + 6
                - horizontal[1:, :] - vertical[:, :-1]
                - internal[:-1, :-1, 2] - internal[:-1, 1:, 3]
                - internal[1:, 1:, 0] - internal[1:, :-1, 1])
    if np.any(diamonds % 2 == 0) or np.any(octagons % 2 == 0):
        raise OrientationFailure("face parity audit failed")


def partition_dimer(kast: KasteleynMatrix) -> float:
    """log Z of the close-packed dimer model, from Z^2 = det R."""
    return 0.5 * kast.log_det()


# --- exhaustive matching oracle ----------------------------------------------

def enumerate_matchings(lat: DecoratedLattice,
                        forced_present: tuple[int, ...] = (),
                        forced_absent: tuple[int, ...] = ()) -> float:
    """Weighted perfect-matching sum by branching on the lowest open node."""
    if lat.n_nodes > MATCHING_NODE_BOUND:
        raise TooLarge(f"{lat.n_nodes} nodes exceeds {MATCHING_NODE_BOUND}")
    absent = set(forced_absent)
    ends = list(zip(lat.i.tolist(), lat.j.tolist()))
    weights = lat.weight.tolist()
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(lat.n_nodes)}
    for e_idx, (i, j) in enumerate(ends):
        if e_idx in absent or e_idx in forced_present:
            continue
        adj[i].append((j, weights[e_idx]))
        adj[j].append((i, weights[e_idx]))

    covered = [False] * lat.n_nodes
    prefactor = 1.0
    for e_idx in forced_present:
        if e_idx in absent:
            return 0.0
        i, j = ends[e_idx]
        if covered[i] or covered[j]:
            return 0.0
        covered[i] = covered[j] = True
        prefactor *= weights[e_idx]

    def recurse(start: int) -> float:
        node = start
        while node < lat.n_nodes and covered[node]:
            node += 1
        if node == lat.n_nodes:
            return 1.0
        total = 0.0
        covered[node] = True
        for other, w in adj[node]:
            if not covered[other]:
                covered[other] = True
                total += w * recurse(node + 1)
                covered[other] = False
        covered[node] = False
        return total

    return prefactor * recurse(0)


# --- constrained partition functions -----------------------------------------

def pfaffians(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack of anti-symmetric matrices of one even size.

    Skew Gaussian elimination over the leading axis: each step brings the
    largest entry of the next row into the pivot position, takes the 2x2
    block out and updates the rest by a skew rank-2 correction.  A zero
    pivot means the rest of its row is zero, and that Pfaffian is 0.
    """
    a = np.array(a, dtype=float)
    stack, n = np.arange(len(a)), a.shape[-1]
    pf = np.ones(len(a))
    for k in range(0, n - 1, 2):
        p = k + 1 + np.argmax(np.abs(a[:, k, k + 1:]), axis=1)
        row = a[stack, p].copy()
        a[stack, p] = a[:, k + 1]
        a[:, k + 1] = row
        col = a[stack, :, p].copy()
        a[stack, :, p] = a[:, :, k + 1]
        a[:, :, k + 1] = col
        pivot = a[:, k, k + 1]
        pf = np.where(p != k + 1, -pf, pf) * pivot
        if k + 2 < n:
            tau = a[:, k, k + 2:] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
            col = a[:, k + 2:, k + 1]
            a[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                     - col[:, :, None] * tau[:, None, :])
    return pf


def check_constraints(lat: DecoratedLattice,
                      constraints) -> tuple[list[int], list[int]]:
    """The occupied and the empty edges of a constraint set; BadInput for
    more than CONSTRAINT_BOUND constraints, an edge outside the lattice or
    an edge given twice."""
    if len(constraints) > CONSTRAINT_BOUND:
        raise TooManyConstraints(
            f"at most {CONSTRAINT_BOUND} simultaneous constraints")
    seen = set()
    occ, emp = [], []
    for c in constraints:
        if not 0 <= c.edge < len(lat.i):
            raise EdgeOutOfRange(f"edge {c.edge} outside [0, {len(lat.i)})")
        if c.edge in seen:
            raise ConstraintConflict(f"edge {c.edge} constrained twice")
        seen.add(c.edge)
        (occ if c.occupied else emp).append(c.edge)
    return occ, emp


def constrained_ratio(kast: KasteleynMatrix, constraints) -> float:
    """Z^cons / Z_0 under the given edge occupation constraints.

    An all-occupied set {(u_1,v_1) ... (u_k,v_k)} has the local Pfaffian
    probability prod(-K(u_i,v_i)) Pf(K^-1[u_1,v_1,...,u_k,v_k]) (Kenyon,
    "Local statistics of lattice dimers"), which is 0 when two edges share
    a node.  Mixed sets are reduced to all-occupied ones by
    inclusion-exclusion over the edges required to be empty; a sum whose
    terms cancel to within its rounding returns exactly 0.  The terms come
    from ``KasteleynMatrix.subset_terms`` of the sorted edge set: one solve
    and one batched elimination per set, kept for the next call on it.
    """
    occ, emp = check_constraints(kast.lattice, constraints)
    # sorted, so every occupation pattern on the same edges shares one table
    edges = tuple(sorted(occ + emp))
    terms = kast.subset_terms(edges)
    bit = {e: 1 << b for b, e in enumerate(edges)}
    required = sum(bit[e] for e in occ)
    total = magnitude = 0.0
    for t in range(1 << len(emp)):
        chosen = [e for b, e in enumerate(emp) if (t >> b) & 1]
        term = terms.get(required | sum(bit[e] for e in chosen))
        if term is None:
            continue  # two edges share a node: no matching holds both
        total += (-1) ** len(chosen) * term
        magnitude += abs(term)
    if not math.isfinite(total):   # an overflow in K^-1 reaches the sum too
        raise FieldOverflow(
            "K^-1 or its Pfaffian sum overflows a double at this field")
    if abs(total) <= _CANCELLATION_ULPS * np.finfo(float).eps * magnitude:
        return 0.0
    return float(total)


# --- vertex-state constraints ------------------------------------------------

def incident_external_edges(lat: DecoratedLattice, site: tuple[int, int]):
    """The W, E, N and S external edges of a site; BadInput unless the site
    is interior, so that all four are present."""
    r, c = site
    if not (0 < r < lat.rows - 1 and 0 < c < lat.cols - 1):
        raise BadInput(f"site ({r}, {c}) is not an interior site of "
                       f"{lat.rows}x{lat.cols}")
    return (lat.external_h(r, c - 1),   # W
            lat.external_h(r, c),       # E
            lat.external_v(r - 1, c),   # N
            lat.external_v(r, c))       # S


def vertex_state_constraints(lat: DecoratedLattice, site: tuple[int, int],
                             state: int) -> list[EdgeConstraint]:
    """Edge constraints pinning an interior vertex to a given state.

    A line sits on an incident edge exactly where the state's arrow opposes
    the reference ground state (state 6 on sublattice A, 5 on B).
    """
    r, c = site
    ref = 6 if sublattice(r, c) is Sublattice.A else 5
    bits = STATE_BITS[state]
    ref_bits = STATE_BITS[ref]
    edges = incident_external_edges(lat, site)
    return [EdgeConstraint(e, bits[k] != ref_bits[k])
            for k, e in enumerate(edges)]


def vertex_constrained_ratio(kast: KasteleynMatrix, site: tuple[int, int],
                             state: int) -> float:
    """Z_site(state) / Z_0 for an interior site.  Every state constrains the
    same four edges, so the six states of a site share one solve and one
    elimination of the 16 subset Pfaffians."""
    return constrained_ratio(
        kast, vertex_state_constraints(kast.lattice, site, state))
