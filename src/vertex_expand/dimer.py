"""Decorated-lattice dimer machinery.

Each vertex of the original lattice becomes a "city" of four nodes (left,
top, right, bottom) joined by a diamond of internal edges of weight u;
adjacent cities are joined by external edges of weight C.  At the solvable
point the close-packed dimer model on this lattice reproduces the six-vertex
partition function.  Its bounded faces, the diamond inside each city and
the octagon between four cities, are even: the lattice is bipartite, one
sign rule orients every lattice (``kasteleyn_orientation``), and
Z = |det B| for the black-white block B of the signed adjacency matrix.

Node indexing is city-major: node = 4*(row*cols + col) + k with
k = 0 left, 1 top, 2 right, 3 bottom.  The edge list order is fixed
(internal diamonds city by city, then horizontal externals, then vertical
externals) so edge indices are reproducible across runs; the lattice holds
it as three arrays, edge e joining nodes i[e] and j[e] with weight
e^log_weight[e].

The external edges come in the order of ``model.enumerate_partition``'s
free edges, so a vertex configuration with mask ``mask`` has its dimers on
external edge 4*rows*cols + b exactly where bit b of the line set
``mask ^ model.ground_state_mask(params)`` is 1.  Each city's diamond then
completes the matching: two ways with no line at the city, one way with
lines on two adjacent sides or on all four, none otherwise (the ice rule).
So one configuration's weight is ``enumerate_matchings`` with every
external edge pinned, which is how the mapping is checked.

A constrained ratio Z^cons / Z_0 is one small determinant of entries of
B^-1 per occupation pattern (``KasteleynMatrix.ratios``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BadInput, FieldOverflow, VertexExpandError
from .model import (FREE_FERMION_BETA_EPS, STATE_BITS, VERTEX_STATES, Boundary,
                    ModelParams, sublattice, Sublattice)

LN2 = math.log(2.0)
MATCHING_NODE_BOUND = 36
CONSTRAINT_BOUND = 5

#: most cities (rows * cols) of a decorated lattice: 512x512, the largest
#: measured to finish, took 7.2 s and 1.2 GB to factor B on a 2-core Xeon
CITY_BOUND = 512 * 512


@dataclass(frozen=True)
class EdgeConstraint:
    edge: int
    occupied: bool


@dataclass(frozen=True, eq=False)
class DecoratedLattice:
    """Edge e joins nodes i[e] and j[e] with weight e^log_weight[e], in
    the module's edge order, at the field beta_s; the three arrays are
    read-only.  Two lattices are equal only when they are the same object."""

    rows: int
    cols: int
    beta_s: float
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    log_weight: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return 4 * self.rows * self.cols

    def external_h(self, row: int, col: int) -> int:
        """Edge index of the horizontal external edge east of city (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols - 1):
            raise BadInput(f"no external edge east of city ({row}, "
                           f"{col}) on {self.rows}x{self.cols}")
        return 4 * self.rows * self.cols + row * (self.cols - 1) + col

    def external_v(self, row: int, col: int) -> int:
        """Edge index of the vertical external edge south of city (row, col)."""
        if not (0 <= row < self.rows - 1 and 0 <= col < self.cols):
            raise BadInput(f"no external edge south of city ({row}, "
                           f"{col}) on {self.rows}x{self.cols}")
        return (4 * self.rows * self.cols + self.rows * (self.cols - 1)
                + row * self.cols + col)


def build_decorated(params: ModelParams) -> DecoratedLattice:
    """City decoration of the lattice at the solvable point.

    Weights: C = exp(-beta_s/2) on external edges, u = (sqrt2/2)
    exp(beta_s/2) on internal ones, held as their logs -beta_s/2 and
    beta_s/2 - ln(2)/2, which are finite at every finite field;
    requires beta_eps = ln(2)/2, the fixed ground-state boundary (lines
    cannot cross the boundary, so no external stubs are needed and the
    graph stays planar-with-boundary) and at most CITY_BOUND cities,
    checked before any array is allocated.
    """
    if abs(params.beta_eps - FREE_FERMION_BETA_EPS) > 1e-12:
        raise BadInput(
            f"beta_eps={params.beta_eps!r} is off the solvable point")
    if params.boundary is not Boundary.FIXED_GROUND_STATE:
        raise BadInput("decorated lattice uses the fixed ground-state boundary")
    n, m = params.rows, params.cols
    if n * m > CITY_BOUND:
        raise BadInput(f"{n}x{m} has {n * m} cities, above the Kasteleyn "
                       f"bound {CITY_BOUND}")
    city = 4 * np.arange(n * m, dtype=np.int64).reshape(n, m)
    i = np.concatenate([
        (city[:, :, None] + np.arange(4)).ravel(),  # L-T, T-R, R-B, B-L
        (city[:, :-1] + 2).ravel(),                 # R to the east city's L
        (city[:-1, :] + 3).ravel()])                # B to the south city's T
    j = np.concatenate([
        (city[:, :, None] + (np.arange(4) + 1) % 4).ravel(),
        city[:, 1:].ravel(),
        (city[1:, :] + 1).ravel()])
    log_weight = np.repeat(
        [0.5 * params.beta_s - 0.5 * LN2, -0.5 * params.beta_s],
        [4 * n * m, len(i) - 4 * n * m])
    for a in (i, j, log_weight):
        a.flags.writeable = False
    return DecoratedLattice(n, m, params.beta_s, i, j, log_weight)


# --- the Kasteleyn matrix ----------------------------------------------------

class KasteleynMatrix:
    """The black-white block B of the signed adjacency matrix K of a
    Pfaffian orientation, scaled so that its sparse LU is exact at any field.

    ``signs[e]`` is +1 when edge e is oriented i -> j in edge-list order.
    L and R are black in the cities with row + col even, T and B in the
    others, so every edge joins black to white, Pf K = +-det B with
    B = K[black, white] of size 2nm (Percus, J. Math. Phys. 10, 1881, 1969)
    and Z = |det B|.  B's entry on edge e is ``signs[e]`` times its weight,
    negated where i[e] is the white end.  A matching with x external edges
    weighs u^(2nm) e^(x Delta), Delta = ln(C/u) = ln(2)/2 - beta_s; the
    rows and columns of B_s are B's divided by sqrt(u) e^(k Delta) with the
    integer duals k of ``_duals`` (Olschowka and Neumaier, Linear Algebra
    Appl. 240, 1996), so every entry of B_s is at most 1 and those of a
    dominant matching are 1.  B_s is factored once, when the object is
    built; the last ``ratios`` call is kept for the next with the same
    arguments, so the six states of one site share one solve.
    """

    def __init__(self, lattice: DecoratedLattice, signs: np.ndarray):
        self.lattice, self.signs = lattice, signs
        lat, n_half = lattice, 2 * lattice.rows * lattice.cols
        city = lat.i // 4
        i_black = lat.i % 2 == (city // lat.cols + city % lat.cols) % 2
        # each city's L and T are row or column 2 city of B, R and B 2 city + 1
        ends = [2 * (e // 4) + e % 4 // 2 for e in (lat.i, lat.j)]
        self._black = np.where(i_black, *ends)
        self._white = np.where(i_black, *ends[::-1])
        ext = (np.arange(len(lat.i)) >= 2 * n_half).astype(np.int64)
        delta = 0.5 * LN2 - lat.beta_s
        # where Delta <= 0 the all-diamond matching is dominant and k = 0
        self.duals = (_duals(n_half, self._black, self._white, ext,
                             np.where(ext, 2, ~i_black))
                      if delta > 0.0 else (np.zeros(n_half, np.int64),) * 2)
        # the exponent is never positive; where it overflows to -inf, e^-inf
        # = 0 is the entry rounded
        with np.errstate(over="ignore"):
            self._entries = np.where(i_black, signs, -signs) * np.exp(delta * (
                ext - self.duals[0][self._black] - self.duals[1][self._white]))
        self.scaled = sp.csc_matrix((self._entries, (self._black, self._white)),
                                    shape=(n_half, n_half))
        try:
            self._lu = spla.splu(self.scaled)
        except RuntimeError as exc:
            raise FieldOverflow(
                "the sparse LU of B loses its pivots at this field") from exc
        self._last: tuple[tuple, tuple[float, ...]] | None = None

    def ratios(self, edges: tuple[int, ...],
               patterns: tuple[tuple[bool, ...], ...]) -> tuple[float, ...]:
        """Z^cons / Z_0 for each occupation pattern (True where occupied) of
        the edge tuple.

        One solve of B_s on the edges' black ends gives
        A_ij = B_s(b_i, w_i) B_s^-1(w_i, b_j), and det A[S, S] is the chance
        that every edge of S is occupied (Kenyon, "Local statistics of
        lattice dimers"); the scalings cancel.  A pattern's ratio is the
        determinant with row A_i where edge i is occupied and e_i - A_i
        where it is empty, the inclusion-exclusion over the empty edges, or
        exactly 0 where forced moves rule it out (``_unmatchable``).
        """
        if self._last is not None and self._last[0] == (edges, patterns):
            return self._last[1]
        index, k = list(edges), len(edges)
        rhs = np.zeros((self.scaled.shape[0], k))
        rhs[self._black[index], np.arange(k)] = 1.0
        a = self._entries[index, None] * self._lu.solve(rhs)[self._white[index]]
        occupied = np.array(patterns, dtype=bool).reshape(len(patterns), k)
        ratio = np.linalg.det(np.where(occupied[:, :, None], a, np.eye(k) - a))
        zero = [_unmatchable(self.lattice, edges, p) for p in patterns]
        ratio = np.where(zero, 0.0, ratio) + 0.0  # never -0.0
        if not np.all(np.isfinite(ratio)):
            raise FieldOverflow("B^-1 or a ratio overflows a double at this field")
        self._last = (edges, patterns), tuple(ratio.tolist())
        return self._last[1]


def _duals(n_half: int, black: np.ndarray, white: np.ndarray,
           ext: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer duals (k_black, k_white) with ext_e <= k_b + k_w on every
    edge (b, w), and equality on a perfect matching with the most external
    edges, from scipy's sparse assignment solver.

    With k_w = ext(w's matched edge) - k_b' for w's partner b', each edge
    (b, w) asks k_b' <= k_b + ext(b', w) - ext(b, w), so k_black is a
    shortest-path distance over the arcs b -> b', from 0 at every node
    (the matched edge is a 0-length loop).  Each Bellman-Ford sweep relaxes
    only the arcs leaving the nodes whose distance fell in the last one.
    ``slot`` numbers each black node's edges: 0 where it is the i end of an
    internal edge, 1 the j end, 2 for an external edge.
    """
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    _, mate = min_weight_full_bipartite_matching(
        sp.csr_matrix((1.0 + ext, (black, white)), shape=(n_half, n_half)),
        maximize=True)
    partner = np.argsort(mate)  # the black end of each white's matched edge
    tight, matched_ext = mate[black] == white, np.zeros(n_half, dtype=np.int64)
    matched_ext[white[tight]] = ext[tight]
    # an empty slot, on the boundary, is a 0-length loop
    target = np.repeat(np.arange(n_half)[:, None], 3, axis=1)
    length = np.zeros((n_half, 3), dtype=np.int64)
    target[black, slot] = partner[white]
    length[black, slot] = matched_ext[white] - ext
    dist, active = np.zeros(n_half, dtype=np.int64), np.arange(n_half)
    for _ in range(n_half + 1):
        if not active.size:
            return dist, matched_ext - dist[partner]
        to = target[active].ravel()
        cand = (dist[active, None] + length[active]).ravel()
        better = cand < dist[to]
        np.minimum.at(dist, to[better], cand[better])
        active = np.unique(to[better])
    raise VertexExpandError("the matching duals do not settle")


def kasteleyn_orientation(lat: DecoratedLattice) -> KasteleynMatrix:
    """Orient edges so every bounded face is odd-clockwise.

    Every edge runs i -> j in edge-list order except each city's internal
    edge 3, which runs L -> B.  Each diamond then has three clockwise
    edges (L-T, T-R, R-B); each octagon has three (its top and right
    externals and internal edge 3 of its top-right city), as the tests
    prove on traced faces.  Local statistics and det K do not depend on
    which valid orientation is used.
    """
    signs = np.ones(len(lat.i), dtype=np.int8)
    signs[3:4 * lat.rows * lat.cols:4] = -1
    return KasteleynMatrix(lat, signs)


def partition_dimer(kast: KasteleynMatrix) -> float:
    """log Z = log |det B_s| + 2nm ln u + Delta sum(k): with
    ln u = beta_s/2 - ln(2)/2 and x = sum(k), the external edges of a
    dominant matching, (nm - x) beta_s - (nm - x/2) ln 2 after the first;
    FieldOverflow where that is not a finite double."""
    lat, x = kast.lattice, int(kast.duals[0].sum() + kast.duals[1].sum())
    log_det = float(np.sum(np.log(np.abs(kast._lu.U.diagonal()))))
    nm = lat.rows * lat.cols
    log_z = (log_det - (nm - 0.5 * x) * LN2) + (nm - x) * lat.beta_s
    if not math.isfinite(log_z):
        raise FieldOverflow(f"log Z = {log_z} is not a finite double")
    return log_z


# --- exhaustive matching oracle ----------------------------------------------

def enumerate_matchings(lat: DecoratedLattice,
                        forced_present: tuple[int, ...] = (),
                        forced_absent: tuple[int, ...] = ()) -> float:
    """Weighted perfect-matching sum by branching on the lowest open node.

    Each branch's sum is formed in log space, shifted by its largest term,
    so that no partial product underflows or overflows before the terms
    meet; FieldOverflow where the sum is nonzero but not a normal double.
    """
    n = lat.n_nodes
    if n > MATCHING_NODE_BOUND:
        raise BadInput(f"{n} nodes exceeds {MATCHING_NODE_BOUND}")
    absent = set(forced_absent)
    ends = list(zip(lat.i.tolist(), lat.j.tolist()))
    log_w = lat.log_weight.tolist()
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for e_idx, (i, j) in enumerate(ends):
        if e_idx in absent or e_idx in forced_present:
            continue
        adj[i].append((j, log_w[e_idx]))
        adj[j].append((i, log_w[e_idx]))

    covered = [False] * n
    log_prefactor = 0.0
    for e_idx in forced_present:
        if e_idx in absent:
            return 0.0
        i, j = ends[e_idx]
        if covered[i] or covered[j]:
            return 0.0
        covered[i] = covered[j] = True
        log_prefactor += log_w[e_idx]

    def recurse(start: int) -> float:
        """log of the sum over the matchings of the open nodes, -inf if none"""
        node = start
        while node < n and covered[node]:
            node += 1
        if node == n:
            return 0.0
        terms = []
        covered[node] = True
        for other, lw in adj[node]:
            if not covered[other]:
                covered[other] = True
                rest = recurse(node + 1)
                if rest > -math.inf:
                    terms.append(lw + rest)
                covered[other] = False
        covered[node] = False
        if len(terms) < 2:
            return terms[0] if terms else -math.inf
        top = max(terms)
        return top + math.log(sum([math.exp(t - top) for t in terms]))

    log_z = log_prefactor + recurse(0)
    if (-math.inf < log_z < math.log(sys.float_info.min)
            or log_z > math.log(sys.float_info.max)):
        raise FieldOverflow(f"the matching sum e^{log_z:.6g} is not a "
                            "normal double")
    return math.exp(log_z)


# --- constrained partition functions -----------------------------------------

def check_constraints(lat: DecoratedLattice, constraints) -> None:
    """BadInput for more than CONSTRAINT_BOUND constraints, an edge outside
    the lattice or an edge given twice."""
    if len(constraints) > CONSTRAINT_BOUND:
        raise BadInput(f"at most {CONSTRAINT_BOUND} simultaneous constraints")
    seen = set()
    for c in constraints:
        if not 0 <= c.edge < len(lat.i):
            raise BadInput(f"edge {c.edge} outside [0, {len(lat.i)})")
        if c.edge in seen:
            raise BadInput(f"edge {c.edge} constrained twice")
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
    one stack of six 4x4 determinants."""
    ratios = kast.ratios(incident_external_edges(kast.lattice, site),
                         _STATE_LINES[sublattice(*site)])
    return ratios[VERTEX_STATES.index(state)]
