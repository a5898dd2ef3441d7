"""Independent references shared by the tests.

The decorated lattice's edge list is built city by city in Python loops,
where the package broadcasts index arrays.  The planar-face tracer finds
the bounded faces of a decorated lattice from a drawing of it, with no
knowledge of the lattice's face structure; the Kasteleyn tests check the
package's closed-form orientation against it, the only check of that rule.

The arrow configurations are plain (h, v) arrays with their own edge
layout, the west and north arrow of each vertex.  The helpers on them (the
ground state built vertex by vertex from ``STATE_BITS``, full reversal, the
vertex states and the reduced Hamiltonian, and the decoder of an
enumeration mask) and the series helpers (term by term derivative,
PiRational as a float) serve the tests only.  ``pinned_matchings`` weighs a
line set by the matching sum with every external edge pinned, and
``mp_constrained_ratios`` forms a constrained ratio from dense mpmath
determinants, the oracle for ratios far below the rounding of a double.
``lerch_tail_series`` is ``integrals.baxter_series`` with its nine Lerch
tails evaluated at every field, the check of the skip where they underflow.

The enumeration reference backtracks one configuration at a time in
Python, where the package grows the whole frontier of partial
configurations as numpy arrays, one vertex per step.

The infinite-lattice quantities are each an mpmath quadrature of a 1-D reduction of the defining double
integral (cos t1 cos t2 = [cos(t1 + t2) + cos(t1 - t2)]/2 and
<ln(x + cos b)>_b = arccosh x - ln 2), at 30 digits, with breakpoints where
the integrand peaks for small beta_s; none uses the elliptic-integral forms
of the package.

The transfer-matrix reference contracts a column row by row with one
``np.einsum`` over the full 16-entry vertex tensor, reshuffling the whole
interface into a rest/done layout, where the package applies each column
as dense group matrices of 4 rows.  It builds the two-column
operator densely from both columns' contractions on unit vectors and
diagonalises it with LAPACK's general (non-symmetric) eigensolver, where
the package builds one column and runs a symmetric Lanczos iteration on
A = R C0, the column followed by arrow reversal, whose square is that
operator.

The singular series are the paper's own assembly: Stirling's series for the
central binomial ratio (``stirling_correction``), then the singular part of
each sum_n e^{-n t}/n^p, then the map t = 2 ln cosh(2 beta_s).  The package
builds the same coefficients from the generating series of a_n^2 instead.
"""

import math
from fractions import Fraction as Q
from itertools import chain
from math import factorial

import mpmath
import numpy as np

from vertex_expand import dimer, integrals, model
from vertex_expand.errors import FieldOverflow
from vertex_expand.series import (
    LogSeries,
    PiRational,
    RationalSeries,
    stirling_correction,
)

DPS = 30


def decorated_edges(params):
    """(i, j, log weight) lists of the decorated lattice, edge by edge: each
    city's diamond L-T, T-R, R-B, B-L, then the horizontal externals (R of
    a city to L of its east neighbour), then the vertical ones (B to T of
    its south neighbour)."""
    n, m = params.rows, params.cols
    log_c = -0.5 * params.beta_s
    log_u = 0.5 * params.beta_s - 0.5 * math.log(2.0)

    def node(r, c, k):
        return 4 * (r * m + c) + k

    edges = []
    for r in range(n):
        for c in range(m):
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
                edges.append((node(r, c, a), node(r, c, b), log_u))
    for r in range(n):
        for c in range(m - 1):
            edges.append((node(r, c, 2), node(r, c + 1, 0), log_c))
    for r in range(n - 1):
        for c in range(m):
            edges.append((node(r, c, 3), node(r + 1, c, 1), log_c))
    return tuple(list(col) for col in zip(*edges))


#: node offsets from the city centre: left, top, right, bottom
_NODE_OFFSET = ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0))


def planar_faces(lat):
    """Bounded faces of a decorated lattice as (cycle, ccw) pairs.

    Cities are drawn 4 apart on a square grid, and each face is traced by
    the rotation system of that drawing.  ``cycle`` lists (edge_index,
    along) pairs, ``along`` True when the traversal runs i -> j in
    edge-list order; ``ccw`` records the rotational sense of the traversal.
    The outer face (largest enclosed area) is dropped.
    """
    coords = [(4.0 * c + dx, -4.0 * r + dy)
              for r in range(lat.rows) for c in range(lat.cols)
              for dx, dy in _NODE_OFFSET]
    ends = list(zip(lat.i.tolist(), lat.j.tolist()))
    nbrs = {i: [] for i in range(lat.n_nodes)}
    edge_of = {}
    for e_idx, (i, j) in enumerate(ends):
        for a, b in ((i, j), (j, i)):
            dx = coords[b][0] - coords[a][0]
            dy = coords[b][1] - coords[a][1]
            nbrs[a].append((math.atan2(dy, dx), b))
            edge_of[(a, b)] = e_idx
    for ring in nbrs.values():
        ring.sort()

    def next_half_edge(a, b):
        # face to the left of a -> b: rotate the reversed edge ccw around b
        ring = nbrs[b]
        pos = next(p for p, (_, tgt) in enumerate(ring) if tgt == a)
        return b, ring[(pos + 1) % len(ring)][1]

    seen = set()
    faces = []
    for start in edge_of:
        if start in seen:
            continue
        cycle = []
        area = 0.0
        a, b = start
        while (a, b) not in seen:
            seen.add((a, b))
            idx = edge_of[(a, b)]
            cycle.append((idx, ends[idx] == (a, b)))
            area += coords[a][0] * coords[b][1] - coords[b][0] * coords[a][1]
            a, b = next_half_edge(a, b)
        faces.append((cycle, area))
    if len(faces) <= 1:
        return []
    outer = max(range(len(faces)), key=lambda f: abs(faces[f][1]))
    return [(cycle, area > 0) for f, (cycle, area) in enumerate(faces)
            if f != outer]


def odd_clockwise(signs, faces) -> bool:
    """Whether every face has an odd number of edges oriented clockwise
    around it (``signs[e]`` +1 for i -> j).  For a counterclockwise listing
    these are the edges oriented against the traversal."""
    for cycle, ccw in faces:
        against = sum(1 for idx, along in cycle
                      if signs[idx] == (-1 if along else 1))
        if (against if ccw else len(cycle) - against) % 2 == 0:
            return False
    return True


def ground_state_config(params):
    """The reference ground state, every A vertex in state 6 and every B
    vertex in state 5, as arrow arrays (h, v).

    ``h[r, c]`` is the arrow on the edge west of vertex (r, c), column
    ``cols`` the east boundary; ``v[r, c]`` the arrow on the edge north of
    it, row ``rows`` the south boundary.  On a torus the last column and
    row repeat the first.
    """
    n, m = params.rows, params.cols
    h = np.zeros((n, m + 1), dtype=np.uint8)
    v = np.zeros((n + 1, m), dtype=np.uint8)
    for r in range(n):
        for c in range(m):
            w, e, north, s = model.STATE_BITS[6 if (r + c) % 2 == 0 else 5]
            h[r, c], h[r, c + 1], v[r, c], v[r + 1, c] = w, e, north, s
    return h, v


def reversed_config(config):
    """``config`` with every arrow reversed."""
    h, v = config
    return 1 - h, 1 - v


def vertex_state(config, r, c):
    """The state 1..6 of vertex (r, c), or 0 where its arrows are not
    two-in/two-out."""
    h, v = config
    bits = (int(h[r, c]), int(h[r, c + 1]), int(v[r, c]), int(v[r + 1, c]))
    return next((s for s, b in model.STATE_BITS.items() if b == bits), 0)


def reduced_hamiltonian(config, params):
    """H(c) = -sum of reduced vertex energies."""
    energies = model.vertex_energies(params).tolist()
    total = 0.0
    for r in range(params.rows):
        for c in range(params.cols):
            state = vertex_state(config, r, c)
            assert state, f"vertex ({r}, {c}) breaks the ice rule"
            total -= energies[(r + c) % 2][state]
    return total


def free_edges(params):
    """('h' | 'v', r, c) of each free arrow in enumeration-mask order, in
    the layout of ``ground_state_config``: columns 1 .. cols - 1 of h row
    by row, then rows 1 .. rows - 1 of v; on a torus also column cols and
    row rows."""
    n, m = params.rows, params.cols
    torus = params.boundary is model.Boundary.PERIODIC
    return ([("h", r, c) for r in range(n) for c in range(1, m + torus)]
            + [("v", r, c) for r in range(1, n + torus) for c in range(m)])


def config_from_mask(params, mask):
    """The arrow arrays of an enumeration mask: bit b is the b-th arrow of
    ``free_edges``, and the fixed boundary keeps the ground state's."""
    h, v = ground_state_config(params)
    for b, (kind, r, c) in enumerate(free_edges(params)):
        (h if kind == "h" else v)[r, c] = mask >> b & 1
    if params.boundary is model.Boundary.PERIODIC:
        h[:, 0], v[0] = h[:, -1], v[-1]
    return h, v


def enumerate_by_backtracking(params):
    """``model.enumerate_partition`` by per-configuration backtracking.

    Vertices are visited in order; each assigns the free edges it touches
    first, and only extensions that leave it two-in/two-out survive, one
    Python tuple (mask, H) at a time.  H accumulates -energy vertex by
    vertex from 0, and Z and log Z are formed from the sorted H as the
    package forms them, so every field of the result compares bitwise.
    """
    slots, fixed = model._edge_layout(params)
    table = model.vertex_energies(params).tolist()
    energies = [table[(r + c) % 2]
                for r in range(params.rows) for c in range(params.cols)]
    partial = [(0, 0.0)]
    assigned = 0
    for vslots, vfixed, venergy in zip(slots.tolist(), fixed.tolist(),
                                       energies):
        new = 0
        for s in vslots:
            if s >= 0 and not assigned >> s & 1:
                new |= 1 << s
        assigned |= new
        extensions = [new]          # every subset of the new edges' bits
        while extensions[-1]:
            extensions.append((extensions[-1] - 1) & new)
        grown = []
        for mask, ham in partial:
            for ext in extensions:
                m = mask | ext
                pattern = 0
                for s, bit in zip(vslots, vfixed):
                    pattern = pattern << 1 | (m >> s & 1 if s >= 0 else bit)
                state = model.PATTERN_TO_STATE[pattern]
                if state:
                    grown.append((m, ham - venergy[state]))
        partial = grown
    configs = sorted(partial)
    masks = np.array([m for m, _ in configs], dtype=np.int32)
    hams = np.array([h for _, h in configs])
    if not np.all(np.isfinite(hams)):
        raise FieldOverflow("a configuration energy overflows a double")
    log_z = hams.max() + math.log(math.fsum(np.exp(hams - hams.max())))
    with np.errstate(over="ignore"):
        weights = np.exp(hams)
        z = float(np.sum(weights))
    return model.EnumerationResult(z, float(log_z), masks, weights)


def pinned_matchings(lat, lines):
    """Dimer weight of a line set, a bit mask over the external edges (bit
    b on edge 4 rows cols + b): the matching sum with every external edge
    pinned occupied or empty."""
    external = range(4 * lat.rows * lat.cols, len(lat.i))
    return dimer.enumerate_matchings(
        lat, tuple(e for b, e in enumerate(external) if lines >> b & 1),
        tuple(e for b, e in enumerate(external) if not lines >> b & 1))


def mp_constrained_ratios(lat, signs, edges, patterns,
                          log=False) -> list[float]:
    """Z^cons / Z_0 for each occupation pattern of the edges (True where
    occupied), from dense mpmath determinants at 400 digits with no sparse
    factor, scaling or inverse.  The black-white block of K with the
    orientation ``signs`` (L and R black where row + col is even, T and B
    elsewhere) loses the rows and columns of the occupied edges' ends and
    the empty edges' entries; its determinant times the occupied edges'
    weights, over the whole block's, is the ratio, and 0 where two
    occupied edges share a node.  With ``log``, ln of each ratio, -inf for
    0, so that a ratio below the smallest double keeps its value."""
    n_nodes, ends = lat.n_nodes, list(zip(lat.i.tolist(), lat.j.tolist()))
    black = [v % 2 == (v // 4 // lat.cols + v // 4 % lat.cols) % 2
             for v in range(n_nodes)]
    with mpmath.workdps(400):
        weight = [mpmath.exp(w) for w in lat.log_weight.tolist()]

        def det_b(gone, skip):
            """Gaussian elimination with partial pivoting, exactly 0 where
            a column has no nonzero pivot"""
            rows = [v for v in range(n_nodes) if black[v] and v not in gone]
            cols = [v for v in range(n_nodes) if not black[v] and v not in gone]
            b = [[mpmath.mpf(0)] * len(cols) for _ in rows]
            for e, (i, j) in enumerate(ends):
                if e not in skip and i not in gone and j not in gone:
                    s = int(signs[e]) if black[i] else -int(signs[e])
                    r, c = (i, j) if black[i] else (j, i)
                    b[rows.index(r)][cols.index(c)] = s * weight[e]
            det = mpmath.mpf(1)
            for c in range(len(b)):
                p = max(range(c, len(b)), key=lambda r: abs(b[r][c]))
                if not b[p][c]:
                    return mpmath.mpf(0)
                if p != c:
                    b[c], b[p], det = b[p], b[c], -det
                det *= b[c][c]
                for r in range(c + 1, len(b)):
                    f = b[r][c] / b[c][c]
                    b[r][c:] = [x - f * y for x, y in zip(b[r][c:], b[c][c:])]
            return det

        z0, out = det_b(set(), set()), []
        to = (lambda x: float(mpmath.log(x))) if log else float
        for pattern in patterns:
            held = [e for e, o in zip(edges, pattern) if o]
            gone = {v for e in held for v in ends[e]}
            out.append(to(0) if len(gone) < 2 * len(held) else to(abs(
                mpmath.fprod(weight[e] for e in held)
                * det_b(gone, set(edges)) / z0)))
        return out


def column_tensors(params):
    """Per-sublattice tensors W[north, south, west, east] of the vertex
    weights, zero on every arrow pattern the ice rule forbids."""
    tensors = []
    for energy in model.vertex_energies(params).tolist():
        w = np.zeros((2, 2, 2, 2))
        for state, (wb, eb, nb, sb) in model.STATE_BITS.items():
            w[nb, sb, wb, eb] = math.exp(-energy[state])
        tensors.append(w)
    return tensors


def apply_column(psi, parity, wa, wb, n_rows):
    """One transfer-matrix column on a 2^N interface vector (row 0 the most
    significant bit), contracting the vertical bond and each row's incoming
    horizontal bit with one einsum per row; the periodic bond is traced at
    the end."""
    # b[top bond, current bond, remaining h_in, done h_out]
    b = np.zeros((2, 2, 1 << n_rows, 1))
    b[0, 0, :, 0] = psi
    b[1, 1, :, 0] = psi
    for r in range(n_rows):
        w = wa if (r + parity) % 2 == 0 else wb
        rest = 1 << (n_rows - 1 - r)
        done = 1 << r
        b = b.reshape(2, 2, 2, rest, done)
        b = np.einsum("byhe,abhrd->ayrde", w, b)
        b = b.reshape(2, 2, rest, done * 2)
    return b[0, 0, 0, :] + b[1, 1, 0, :]


def dense_transfer(params):
    """(free energy, gap) of a torus from the dense two-column matrix built
    by :func:`apply_column`: every eigenvalue by ``np.linalg.eigvals``, then
    ln|lambda_1|/(2N) and |lambda_2|/|lambda_1|."""
    n = params.rows
    wa, wb = column_tensors(params)
    eye = np.eye(1 << n)
    dense = np.column_stack([
        apply_column(apply_column(col, 0, wa, wb, n), 1, wa, wb, n)
        for col in eye.T])
    evals = np.sort(np.abs(np.linalg.eigvals(dense)))[::-1]
    return math.log(evals[0]) / (2 * n), evals[1] / evals[0]


def _mean_near_pi(f, width):
    """(1/pi) int_0^pi f(u) du, split at pi - k * width."""
    pts = [mpmath.mpf(0)]
    pts += [mpmath.pi - k * width for k in (64, 8, 1) if k * width < mpmath.pi / 2]
    return mpmath.quad(f, pts + [mpmath.pi]) / mpmath.pi


def mp_free_energy(beta_s):
    """F0 = (1/2)<arccosh(2 cosh 2 beta_s + cos u)> - (1/2) ln 2; at
    beta_s = 0 the closed form 2G/pi - (1/2) ln 2."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return 2 * mpmath.catalan / mpmath.pi - mpmath.log(2) / 2
        x = 2 * mpmath.cosh(2 * bs)
        mean = _mean_near_pi(lambda u: mpmath.acosh(x + mpmath.cos(u)),
                             mpmath.sqrt(x - 1))
        return mean / 2 - mpmath.log(2) / 2


def mp_derivative(beta_s):
    """dF0/d beta_s = <2 sinh 2 beta_s / sqrt((2 cosh 2 beta_s + cos u)^2 - 1)>."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(0)
        x = 2 * mpmath.cosh(2 * bs)
        s = 2 * mpmath.sinh(2 * bs)
        return _mean_near_pi(
            lambda u: s / mpmath.sqrt((x + mpmath.cos(u)) ** 2 - 1),
            mpmath.sqrt(x - 1))


def mp_zb_ratio(beta_s):
    """Z_b/Z_0 = (1/4)[1 - (a - e^{-2 beta_s}) <(a^2 - cos^2 u)^{-1/2}>]^2,
    a = cosh 2 beta_s (the mean of 1/(a + cos t1 cos t2) over one angle).
    The bracket cancels about 1.74 |beta_s| digits, which the working
    precision adds to DPS."""
    with mpmath.workdps(DPS + math.ceil(4 * abs(beta_s) / math.log(10))):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(1) / 4
        a = mpmath.cosh(2 * bs)
        w = mpmath.sqrt(a * a - 1)
        # the integrand is symmetric about pi/2; its peak is at u = 0
        pts = [mpmath.mpf(0)] + [k * w for k in (1, 8, 64)
                                 if k * w < mpmath.pi / 4] + [mpmath.pi / 2]
        mean = mpmath.quad(lambda u: 1 / mpmath.sqrt(a * a - mpmath.cos(u) ** 2),
                           pts) * 2 / mpmath.pi
        return (1 - (a - mpmath.exp(-2 * bs)) * mean) ** 2 / 4


def series_head(beta_s, n_max):
    """The head of ``integrals.baxter_series``: ln(2 cosh 2 beta_s)/2 and
    its first n_max sech terms, summed with ``math.fsum`` as it sums them."""
    ch = math.cosh(2.0 * beta_s)
    z = 1.0 / (ch * ch)
    return math.fsum(chain([0.5 * math.log(2.0 * ch)],
                           integrals._sech_terms(z, n_max)))


def lerch_tail_series(beta_s, n_max):
    """``integrals.baxter_series`` below the frozen cutoff |beta_s| = 10
    with all nine Lerch tails evaluated, also where z^(n_max + 1) underflows
    to 0.0.  The head, the tail terms and the rounding part of the bound
    are the package's own expressions, so the two agree bit for bit."""
    ch = math.cosh(2.0 * beta_s)
    z = 1.0 / (ch * ch)
    head = series_head(beta_s, n_max)
    a0 = n_max + 1
    tail = [-float(c) * (float(mpmath.lerchphi(z, s, a0)) * z ** a0)
            / (4.0 * math.pi) for s, c in enumerate(
                stirling_correction(integrals._STIRLING_ORDER).coeffs, 2)]
    ulp = math.ulp(1.0)
    t2 = math.tanh(2.0 * beta_s) ** 2
    shift = (min(ulp, t2) * integrals._elliptic_k(beta_s) / math.pi
             if t2 else 0.0)
    return head + sum(tail), 2.0 * abs(tail[-1]) + ulp * abs(head) + shift


def differentiate(series: RationalSeries) -> RationalSeries:
    """The term-by-term derivative, one order shorter."""
    if series.order == 0:
        return RationalSeries([], 0)
    return RationalSeries(
        [d * series.coeffs[d] for d in range(1, series.order + 1)],
        series.order - 1)


def pi_rational_float(x: PiRational) -> float:
    """rational / pi**pi_power as a float."""
    return float(x.rational) / math.pi ** x.pi_power


def t_of_betas(K: int) -> RationalSeries:
    """t = 2 ln cosh(2 x) as an exact series in x = beta_s."""
    if K > 16 or K % 2 != 0:
        raise ValueError("K must be even and <= 16")
    # cosh(2x) - 1, then ln(1+y) composed with it.
    ch = [Q(0)] * (K + 1)
    for m in range(1, K // 2 + 1):
        ch[2 * m] = Q(2 ** (2 * m), factorial(2 * m))
    ln1p = RationalSeries(
        [Q(0)] + [Q((-1) ** (j + 1), j) for j in range(1, K + 1)], K)
    return ln1p.compose(RationalSeries(ch, K)).scaled(2)


def u_p_singular(p: int) -> LogSeries:
    """Singular part of sum_n exp(-n t)/n^p at t = 0.

    The p = 1 sum is -ln(1 - e^{-t}), whose non-analytic part is -ln t;
    integrating the recurrence d/dt (order p+1) = -(order p) gives
    (-1)^p t^{p-1}/(p-1)! * ln t.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    coeff = Q((-1) ** p, factorial(p - 1))
    return LogSeries(RationalSeries.monomial(p - 1, coeff), PiRational(Q(1)), "ln t")


def paper_singular_t_series(K: int) -> LogSeries:
    """The singular t-series as the paper assembles it: the free energy's
    log-expansion is -(1/4 pi) sum_n n^{-2} e^{-n t} * bracket(1/n) with
    bracket from ``stirling_correction``; each 1/n^{2+q} sum contributes its
    singular part via :func:`u_p_singular`.  Stirling's series caps K at 17.
    """
    bracket = stirling_correction(max(K - 1, 0))
    acc = RationalSeries([], K)
    for q in range(K):
        up = u_p_singular(q + 2)
        term = RationalSeries.monomial(q + 1, bracket[q] * up.singular[q + 1], K)
        acc = acc + term
    return LogSeries(acc, PiRational(Q(-1, 4), 1), "ln t")


def paper_singular_betas_series(K: int) -> LogSeries:
    """The paper's t-series at K/2 composed with t(beta_s) (K even, <= 16);
    ln t -> 2 ln|beta_s| and t ~ 4 beta_s^2 fold 2 * 4 into the scale."""
    ts = paper_singular_t_series(K // 2)
    bracket = ts.singular.compose(t_of_betas(K)).scaled(Q(1, 4))
    return LogSeries(bracket, ts.scale.scaled(2 * 4), "ln|beta_s|")


def paper_b2_series(K: int) -> LogSeries:
    """g'^2/4 with g the bracket of the paper's beta_s-series at K + 2."""
    gp = differentiate(paper_singular_betas_series(K + 2).singular)
    sq = gp * gp
    return LogSeries(RationalSeries([c / 4 for c in sq.coeffs[:K + 1]], K),
                     PiRational(Q(8), 2), "ln^2|beta_s|")
