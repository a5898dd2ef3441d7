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
B^-1 per occupation pattern (``KasteleynMatrix.ratios``), or where that is
below the rounding the pattern's minor of B, exactly 0 where no matching
satisfies the pattern.  A vertex state of an interior site is the pattern
of lines on its four external edges, read off ``model.STATE_BITS`` against
``model.GROUND_STATE`` at the site's parity (``_STATE_LINES``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BadInput, FieldOverflow, VertexExpandError
from .model import (FREE_FERMION_BETA_EPS, GROUND_STATE, STATE_BITS, Boundary,
                    ModelParams)

LN2 = math.log(2.0)
MATCHING_NODE_BOUND = 36
CONSTRAINT_BOUND = 5

#: most cities (rows * cols): the square 512x512 took 3.2 s and 0.83 GB for
#: log Z in a fresh process on a 2-core Xeon; a 1 x N strip is quadratic in
#: N in ``_duals`` below beta_s = ln(2)/2 (1 x 262144: 76 s at 0.3)
CITY_BOUND = 512 * 512

#: the fast determinant is accurate to about 1e-16 absolute: a ratio below
#: this, as an unsatisfiable set's always is, is the minor's (``_minor``)
RATIO_FLOOR = 2.0 ** -26


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
    Pfaffian orientation, scaled so that its sparse LU is exact at any
    field (``_factor``).

    ``signs[e]`` is +1 when edge e is oriented i -> j in edge-list order.
    L and R are black in the cities with row + col even, T and B in the
    others, so every edge joins black to white, Pf K = +-det B with
    B = K[black, white] of size 2nm (Percus, J. Math. Phys. 10, 1881, 1969)
    and Z = |det B|.  B's entry on edge e is ``signs[e]`` times its weight,
    negated where i[e] is the white end.  B's rows and columns are numbered
    city by city in the nested-dissection order of ``_dissection_order``,
    each city's two rows and two columns together; the edges are sorted
    once, by column and then row, a layout every block of B keeps.  B_s is
    factored once, when the object is built; the last ``ratios`` call is
    kept for the next with the same arguments, so the six states of one
    site share one solve.
    """

    def __init__(self, lattice: DecoratedLattice, signs: np.ndarray):
        self.lattice, self.signs = lattice, signs
        lat, n_half = lattice, 2 * lattice.rows * lattice.cols
        city = lat.i // 4
        i_black = lat.i % 2 == (city // lat.cols + city % lat.cols) % 2
        rank = np.empty(lat.rows * lat.cols, dtype=np.int64)
        rank[_dissection_order(lat.rows, lat.cols)] = np.arange(rank.size)
        # each city's L and T are row or column 2 rank of B, R and B
        # 2 rank + 1, so its diamond's L-T and R-B edges are diagonal entries
        ends = [2 * rank[e // 4] + e % 4 // 2 for e in (lat.i, lat.j)]
        self._black = np.where(i_black, *ends)
        self._white = np.where(i_black, *ends[::-1])
        self._sign = np.where(i_black, signs, -signs)
        self._ext = (np.arange(len(lat.i)) >= 2 * n_half).astype(np.int64)
        self._order = np.lexsort((self._black, self._white))
        self.duals, entries, self.scaled, self._lu = self._factor(
            n_half, self._order, *[np.arange(n_half)] * 2)
        self._entries = np.empty_like(entries)
        self._entries[self._order] = entries
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
        where it is empty, the inclusion-exclusion over the empty edges.
        A ratio below RATIO_FLOOR, or one that is not finite, is the
        pattern's minor instead (``_minor``).
        """
        if self._last is not None and self._last[0] == (edges, patterns):
            return self._last[1]
        index, k = list(edges), len(edges)
        rhs = np.zeros((self.scaled.shape[0], k))
        rhs[self._black[index], np.arange(k)] = 1.0
        a = self._entries[index, None] * self._lu.solve(rhs)[self._white[index]]
        occupied = np.array(patterns, dtype=bool).reshape(len(patterns), k)
        ratio = np.linalg.det(np.where(occupied[:, :, None], a, np.eye(k) - a))
        self._last = (edges, patterns), tuple(
            r if RATIO_FLOOR <= r < math.inf else self._minor(edges, p)
            for r, p in zip(ratio.tolist(), patterns))
        return self._last[1]

    def _minor(self, edges: tuple[int, ...], pattern: tuple[bool, ...]) -> float:
        """Z^cons / Z_0 = e^``_log_minor``, exactly 0 for no matching."""
        return math.exp(self._log_minor(edges, pattern))

    def _log_minor(self, edges: tuple[int, ...],
                   pattern: tuple[bool, ...]) -> float:
        """ln(Z^cons / Z_0) = ln(prod_S w_e |det B'| / Z_0), B' being B
        without the rows and columns of the occupied edges' ends (Jacobi's
        complementary minor of Kenyon's formula) and without the empty
        edges, scaled and factored as B is, so nothing cancels; -inf where
        two occupied edges share a node or B' has no perfect matching."""
        n = self.scaled.shape[0]
        held = [e for e, o in zip(edges, pattern) if o]
        rows, cols = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        rows[self._black[held]] = cols[self._white[held]] = False
        if not rows.sum() == cols.sum() == n - len(held):
            return -math.inf
        keep = rows[self._black] & cols[self._white]
        keep[list(edges)] = False
        # B' keeps B's order of rows and columns, so B's layout masked is B''s
        minor = self._factor(n - len(held), self._order[keep[self._order]],
                             np.cumsum(rows) - 1, np.cumsum(cols) - 1)
        if minor is None:
            return -math.inf
        (k_black, k_white), _, _, lu = minor
        # partition_dimer's log Z' - log Z, differenced before |log Z| rounds
        more_ext = int(k_black.sum() + k_white.sum() + self._ext[held].sum()
                       - self.duals[0].sum() - self.duals[1].sum())
        return (_log_det(lu) - _log_det(self._lu)
                + more_ext * (0.5 * LN2 - self.lattice.beta_s))

    def _factor(self, n: int, edges: np.ndarray, row: np.ndarray,
                col: np.ndarray):
        """(duals k, entries, B_s, LU of B_s) for the n x n block of B on
        ``edges``, in B's layout, at rows ``row[b]`` and columns ``col[w]``
        for B's row b and column w, the layout's rows and column offsets
        being B_s's CSC arrays; None where it has no perfect matching.

        B's entries are u e^(ext Delta), Delta = ln(C/u) = ln(2)/2 - beta_s,
        and B_s's sign e^(Delta (ext - k_b - k_w)), with integer duals that
        make each exponent at most 0 and those of a dominant matching 0
        (Olschowka and Neumaier, Linear Algebra Appl. 240, 1996); sum(k)
        counts its external edges.  They are the ``_duals`` of ext where
        Delta > 0; where Delta <= 0, 1 - g_b and -g_w for the duals g of
        1 - ext, or 0 where every edge is kept (the all-diamond matching).
        SuperLU keeps a diagonal pivot down to 0.1 of its column's largest
        entry (with diagonal pivots only, 2x2 at beta_s = -400 is singular).
        """
        delta = 0.5 * LN2 - self.lattice.beta_s
        black, white = row[self._black[edges]], col[self._white[edges]]
        ext, start = self._ext[edges], np.searchsorted(white, np.arange(n + 1))
        if delta > 0.0:
            duals = _duals(black, start, ext)
        elif len(ext) == len(self._ext):
            duals = (np.zeros(n, np.int64),) * 2
        else:
            g = _duals(black, start, 1 - ext)
            duals = None if g is None else (1 - g[0], -g[1])
        if duals is None:
            return None
        # the exponent is never positive; where it overflows to -inf, e^-inf
        # = 0 is the entry rounded
        with np.errstate(over="ignore"):
            entries = self._sign[edges] * np.exp(
                delta * (ext - duals[0][black] - duals[1][white]))
        scaled = sp.csc_matrix((entries, black, start), shape=(n, n))
        try:
            lu = spla.splu(scaled, permc_spec="NATURAL", diag_pivot_thresh=0.1)
        except RuntimeError as exc:
            raise FieldOverflow(
                "the sparse LU of B loses its pivots at this field") from exc
        return duals, entries, scaled, lu


def _log_det(lu) -> float:
    """log |det B_s| of a factored block, 0 for one with no nodes."""
    return float(np.sum(np.log(np.abs(lu.U.diagonal()))))


def _dissection_order(rows: int, cols: int) -> np.ndarray:
    """The cities, numbered row * cols + col, in nested-dissection order
    (George, SIAM J. Numer. Anal. 10, 345, 1973): a block of more than 16
    cities is cut by its middle row, or its middle column where it is
    wider than tall; the two halves come first, each in this order, and the
    cut, which separates them, last.  A block of at most 16 cities is taken
    row by row."""
    out: list[np.ndarray] = []

    def visit(block: np.ndarray) -> None:
        r, c = block.shape
        if r * c <= 16:
            out.append(block.ravel())
        elif r >= c:
            visit(block[:r // 2])
            visit(block[r // 2 + 1:])
            out.append(block[r // 2])
        else:
            visit(block[:, :c // 2])
            visit(block[:, c // 2 + 1:])
            out.append(block[:, c // 2])

    visit(np.arange(rows * cols, dtype=np.int64).reshape(rows, cols))
    return np.concatenate(out)


def _duals(black: np.ndarray, start: np.ndarray, ext: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer duals (k_black, k_white) with ext_e <= k_b + k_w on every
    edge (b, w), and equality on a perfect matching with the largest
    sum(ext), from scipy's sparse assignment solver; ext is 0 or 1 per edge.
    The edges come by column: those of white node w are at rows
    black[start[w]:start[w + 1]].  None where they hold no perfect
    matching, which is how a minor of B is found to be exactly 0.

    With k_w = ext(w's matched edge) - k_b' for w's partner b', each edge
    (b, w) asks k_b' <= k_b + ext(b', w) - ext(b, w), so k_black is a
    shortest-path distance over the arcs b -> b', from 0 at every node
    (the matched edge is a 0-length loop).  Each Bellman-Ford sweep pulls
    onto the partner b' of each column w it visits the least
    k_b - ext(b, w) + ext(b', w) over w's edges: every column at first,
    then only the columns next to a node that moved.
    """
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    n = len(start) - 1
    try:  # the white nodes are the graph's rows
        _, partner = min_weight_full_bipartite_matching(
            sp.csr_matrix((1.0 + ext, black, start), shape=(n, n)),
            maximize=True)
    except ValueError:  # "no full matching exists"
        return None
    white = np.repeat(np.arange(n), np.diff(start))
    # a perfect matching holds one edge of each column: matched[w] is its ext
    matched = ext[black == partner[white]]
    # each column's rows and arc lengths, and each black node's columns
    # (its row's edges, by a stable argsort of the rows), as padded tables
    cell, by_row = _padded(start), np.argsort(black, kind="stable")
    rows, length = black[cell], (matched[white] - ext)[cell]
    near = white[by_row[_padded(np.searchsorted(black[by_row],
                                                np.arange(n + 1)))]]
    dist, cols = np.zeros(n, dtype=np.int64), np.arange(n)
    for _ in range(n + 1):
        at = partner[cols]
        bound = (dist[rows[cols]] + length[cols]).min(axis=1)
        moved = bound < dist[at]  # never above: the matched edge is 0 long
        if not moved.any():
            return dist, matched - dist[partner]
        at = at[moved]
        dist[at] = bound[moved]
        cols = np.unique(near[at])
    raise VertexExpandError("the matching duals do not settle")


def _padded(start: np.ndarray) -> np.ndarray:
    """Row i holds the positions start[i] ... start[i + 1] - 1 of segment
    i, none empty, its last repeated up to the longest's length (>= 1)."""
    return np.minimum(start[:-1, None] + np.arange(np.diff(start).max(
        initial=1)), start[1:, None] - 1)


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
    nm = lat.rows * lat.cols
    log_z = (_log_det(kast._lu) - (nm - 0.5 * x) * LN2) + (nm - x) * lat.beta_s
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


def constrained_ratio(kast: KasteleynMatrix, constraints) -> float:
    """Z^cons / Z_0 under the given edge occupation constraints, from
    ``KasteleynMatrix.ratios`` with the edges sorted, so that the order they
    come in does not reach the rounding."""
    check_constraints(kast.lattice, constraints)
    pairs = sorted((c.edge, c.occupied) for c in constraints)
    return kast.ratios(tuple(e for e, _ in pairs),
                       (tuple(o for _, o in pairs),))[0]


def constrained_log_ratio(kast: KasteleynMatrix, constraints) -> float:
    """ln(Z^cons / Z_0): the log of ``constrained_ratio`` where that is
    positive; where it is 0.0, the exponent of the pattern's minor
    (``KasteleynMatrix._log_minor``), finite for a set whose ratio is below
    the smallest double and -inf for one that no matching satisfies."""
    ratio = constrained_ratio(kast, constraints)
    if ratio > 0.0:
        return math.log(ratio)
    return kast._log_minor(*zip(*sorted((c.edge, c.occupied)
                                        for c in constraints)))


# --- vertex-state constraints ------------------------------------------------

#: the occupation of a site's W, E, N and S external edges in states 1-6,
#: indexed by the site's parity (row + col) % 2: a line sits where the
#: state's arrow opposes model.GROUND_STATE's state there
_STATE_LINES = tuple(
    tuple(tuple(b != r for b, r in zip(bits, STATE_BITS[ref]))
          for bits in STATE_BITS.values())
    for ref in GROUND_STATE)


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
    """Z_site(state) / Z_0 for an interior site; BadInput for a state
    outside 1-6.  Every state constrains the same four edges, so the six
    states of a site come from one solve and one stack of six 4x4
    determinants."""
    if state not in STATE_BITS:
        raise BadInput(f"invalid vertex state {state}")
    ratios = kast.ratios(incident_external_edges(kast.lattice, site),
                         _STATE_LINES[sum(site) % 2])
    return ratios[state - 1]
