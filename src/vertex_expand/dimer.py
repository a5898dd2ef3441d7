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

A constrained ratio Z^cons / Z_0 is one Pfaffian of a block of K^-1 per
occupation pattern, with the inclusion-exclusion over the empty edges
folded in (``KasteleynMatrix.ratios``); a pattern that forced moves rule
out is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BadInput, ConstraintConflict, EdgeOutOfRange,
                     FieldOverflow, NotFreeFermion, OrientationFailure,
                     TooLarge, TooManyConstraints)
from .model import (FREE_FERMION_BETA_EPS, STATE_BITS, VERTEX_STATES, Boundary,
                    ModelParams, sublattice, Sublattice)

MATCHING_NODE_BOUND = 36
CONSTRAINT_BOUND = 5

#: most cities (rows * cols) of a decorated lattice: 512x512, the largest
#: measured to finish, took 12.6 s and 2.3 GB to factor K on a 2-core Xeon
CITY_BOUND = 512 * 512


@dataclass(frozen=True)
class EdgeConstraint:
    edge: int
    occupied: bool


@dataclass(frozen=True, eq=False)
class DecoratedLattice:
    """Edge e joins nodes i[e] and j[e] with weight[e], in the module's edge
    order; the three arrays are read-only.  Two lattices are equal only when
    they are the same object."""

    rows: int
    cols: int
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

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
    return DecoratedLattice(n, m, i, j, weight)


# --- the Kasteleyn matrix ----------------------------------------------------

class KasteleynMatrix:
    """Signed anti-symmetric adjacency matrix K of a Pfaffian orientation.

    ``signs[e]`` is +1 when edge e is oriented i -> j in edge-list order.
    K is held as a sparse CSC matrix and factored once, by a sparse LU,
    when the object is built; log det K and any block of K^-1 come from
    that one factorization.  The ratios of the last edge set and patterns
    asked for are kept (``ratios``), so the six states of one site, which
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
        self._last: tuple[tuple, tuple[float, ...]] | None = None

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

    def ratios(self, edges: tuple[int, ...],
               patterns: tuple[tuple[bool, ...], ...]) -> tuple[float, ...]:
        """Z^cons / Z_0 for each occupation pattern (True where occupied) of
        the edge tuple.

        One solve gives B = K^-1 on the edges' ends, rows (i_e, j_e) edge by
        edge.  A pattern's matrix is B with row and column i_e scaled by
        -K_e where e is occupied and by K_e where it is empty, plus a unit
        pair at (i_e, j_e) of each empty edge.  Expanded in the unit pairs,
        its Pfaffian is sum_{T in empty} (-1)^|T| P(occupied + T), the
        inclusion-exclusion over the local Pfaffians P(S) =
        prod_{e in S} (-K_e) Pf(B[S]) (Kenyon, "Local statistics of lattice
        dimers"), so one batched elimination gives every pattern.  A
        pattern that forced moves show no matching holds (``_unmatchable``)
        is exactly 0.  The result of the last call is kept for the next
        call with the same arguments.
        """
        if self._last is not None and self._last[0] == (edges, patterns):
            return self._last[1]
        lat, index, k = self.lattice, list(edges), len(edges)
        ends = np.stack([lat.i[index], lat.j[index]], axis=1).ravel()
        block = self.inverse_block(ends.tolist())
        block = 0.5 * (block - block.T)  # the solve is anti-symmetric to rounding
        occupied = np.array(patterns, dtype=bool).reshape(len(patterns), k)
        k_e = self.signs[index] * lat.weight[index]
        scale = np.ones((len(patterns), 2 * k))
        scale[:, 0::2] = np.where(occupied, -k_e, k_e)
        pairs = np.zeros((len(patterns), 2 * k, 2 * k))
        pairs[:, 0::2, 1::2] = ~occupied[:, :, None] * np.eye(k)
        pairs -= pairs.transpose(0, 2, 1)
        pf = pfaffians(scale[:, :, None] * block * scale[:, None, :] + pairs)
        zero = [_unmatchable(lat, edges, pattern) for pattern in patterns]
        pf = np.where(zero, 0.0, pf) + 0.0  # never -0.0
        if not np.all(np.isfinite(pf)):
            raise FieldOverflow(
                "K^-1 or its Pfaffian overflows a double at this field")
        self._last = (edges, patterns), tuple(pf.tolist())
        return self._last[1]


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


def check_constraints(lat: DecoratedLattice, constraints) -> None:
    """BadInput for more than CONSTRAINT_BOUND constraints, an edge outside
    the lattice or an edge given twice."""
    if len(constraints) > CONSTRAINT_BOUND:
        raise TooManyConstraints(
            f"at most {CONSTRAINT_BOUND} simultaneous constraints")
    seen = set()
    for c in constraints:
        if not 0 <= c.edge < len(lat.i):
            raise EdgeOutOfRange(f"edge {c.edge} outside [0, {len(lat.i)})")
        if c.edge in seen:
            raise ConstraintConflict(f"edge {c.edge} constrained twice")
        seen.add(c.edge)


def _neighbours(lat: DecoratedLattice, node: int) -> list[int]:
    """The nodes joined to ``node``: its two diamond neighbours, and the
    facing node of the next city (L the west city's R, R the east city's L,
    T the north city's B, B the south city's T) where there is one."""
    k, (row, col) = node % 4, divmod(node // 4, lat.cols)
    out = [node - k + (k + 1) % 4, node - k + (k + 3) % 4]
    if k == 0 and col > 0:
        out.append(node - 2)
    elif k == 2 and col < lat.cols - 1:
        out.append(node + 2)
    elif k == 1 and row > 0:
        out.append(node - 4 * lat.cols + 2)
    elif k == 3 and row < lat.rows - 1:
        out.append(node + 4 * lat.cols - 2)
    return out


def _unmatchable(lat: DecoratedLattice, edges, pattern) -> bool:
    """True when forced moves leave a node no edge to match along: two
    occupied edges share a node, or, once every open node left with one
    usable edge has taken it, some node has none.  Each move is forced, so
    a pattern that a perfect matching holds is never unmatchable."""
    covered: set[int] = set()
    cut: set[tuple[int, int]] = set()
    todo: list[int] = []
    for e, occupied in zip(edges, pattern):
        ends = int(lat.i[e]), int(lat.j[e])
        if not occupied:
            cut.update((ends, ends[::-1]))
            todo += ends
        elif covered.intersection(ends):
            return True
        else:
            covered.update(ends)
            todo += _neighbours(lat, ends[0]) + _neighbours(lat, ends[1])
    while todo:
        node = todo.pop()
        if node not in covered:
            usable = [other for other in _neighbours(lat, node)
                      if other not in covered and (node, other) not in cut]
            if not usable:
                return True
            if len(usable) == 1:
                covered.update((node, usable[0]))
                todo += _neighbours(lat, node) + _neighbours(lat, usable[0])
    return False


def constrained_ratio(kast: KasteleynMatrix, constraints) -> float:
    """Z^cons / Z_0 under the given edge occupation constraints, from
    ``KasteleynMatrix.ratios`` with the edges sorted, so that the order they
    come in does not reach the rounding."""
    check_constraints(kast.lattice, constraints)
    pairs = sorted((c.edge, c.occupied) for c in constraints)
    return kast.ratios(tuple(e for e, _ in pairs),
                       (tuple(o for _, o in pairs),))[0]


# --- vertex-state constraints ------------------------------------------------

#: the occupation of a site's W, E, N and S external edges in states 1-6,
#: by sublattice: a line sits where the state's arrow opposes the reference
#: ground state (state 6 on sublattice A, 5 on B)
_STATE_LINES = {
    sub: tuple(tuple(b != r for b, r in zip(STATE_BITS[s], STATE_BITS[ref]))
               for s in VERTEX_STATES)
    for sub, ref in ((Sublattice.A, 6), (Sublattice.B, 5))}


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


def vertex_constrained_ratio(kast: KasteleynMatrix, site: tuple[int, int],
                             state: int) -> float:
    """Z_site(state) / Z_0 for an interior site.  Every state constrains the
    same four edges, so the six states of a site come from one solve and
    one elimination of six matrices of size 8."""
    ratios = kast.ratios(incident_external_edges(kast.lattice, site),
                         _STATE_LINES[sublattice(*site)])
    return ratios[VERTEX_STATES.index(state)]
