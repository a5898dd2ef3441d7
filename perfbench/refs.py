"""Reference values computed apart from the program under test.

Nothing here imports ``vertex_expand``.  The infinite-lattice quantities
come from mpmath quadrature of the 1-D reductions of the double integrals
(cos t1 cos t2 = [cos(t1+t2) + cos(t1-t2)]/2 and <ln(x + cos b)> =
arccosh x - ln 2 reduce each to a mean over one angle alpha), and from the
closed forms at beta_s = 0.  The finite-lattice quantities come from
backtracking enumerations of ice configurations and of perfect matchings.
"""

from __future__ import annotations

import math

import mpmath

DPS = 20

# arrow bits (W, E, N, S) of the six vertex states; horizontal 1 = east,
# vertical 1 = north.  The fixed ground-state boundary puts state 6 on
# sublattice A ((r + c) even) and state 5 on sublattice B.
STATE_BITS = {1: (1, 1, 1, 1), 2: (0, 0, 0, 0), 3: (1, 1, 0, 0),
              4: (0, 0, 1, 1), 5: (1, 0, 1, 0), 6: (0, 1, 0, 1)}
FREE_FERMION_BETA_EPS = 0.5 * math.log(2.0)


# --- infinite lattice: mpmath 1-D forms --------------------------------------

def _mean_over_alpha(f, width):
    """(1/pi) int_0^pi f(alpha) d alpha, with extra breakpoints at pi - k*width
    where the integrand peaks when beta_s is small."""
    pi = mpmath.pi
    pts = [mpmath.mpf(0)]
    for k in (64, 8, 1):
        if k * width < pi / 2:
            pts.append(pi - k * width)
    pts.append(pi)
    return mpmath.quad(f, pts) / pi


def free_energy(beta_s: float) -> mpmath.mpf:
    """F0 = (1/2)<arccosh(2 cosh 2 beta_s + cos alpha)> - (1/2) ln 2."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return catalan_free_energy()
        x = 2 * mpmath.cosh(2 * bs)
        w = mpmath.sqrt(x - 1)
        mean = _mean_over_alpha(
            lambda a: mpmath.acosh(x + mpmath.cos(a)), w)
        return mean / 2 - mpmath.log(2) / 2


def free_energy_derivative(beta_s: float) -> mpmath.mpf:
    """dF0/d beta_s = <2 sinh 2 beta_s / sqrt((2 cosh 2 beta_s + cos alpha)^2 - 1)>."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(0)
        x = 2 * mpmath.cosh(2 * bs)
        s = 2 * mpmath.sinh(2 * bs)
        w = mpmath.sqrt(x - 1)
        return _mean_over_alpha(
            lambda a: s / mpmath.sqrt((x + mpmath.cos(a)) ** 2 - 1), w)


def zb_ratio(beta_s: float) -> mpmath.mpf:
    """Z_b/Z_0 = (1/4)[1 - (a - e^{-2 beta_s}) <(a^2 - cos^2 alpha)^{-1/2}>]^2,
    a = cosh 2 beta_s."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(1) / 4
        a = mpmath.cosh(2 * bs)
        w = mpmath.sqrt(a * a - 1)
        pts = [mpmath.mpf(0)] + [k * w for k in (1, 8, 64)
                                 if k * w < mpmath.pi / 4] + [mpmath.pi / 2]
        # the integrand depends on cos^2, so the mean over [0, 2 pi) is the
        # mean over [0, pi/2]; its peak sits at alpha = 0
        mean = mpmath.quad(lambda t: 1 / mpmath.sqrt(a * a - mpmath.cos(t) ** 2),
                           pts) * 2 / mpmath.pi
        return (1 - (a - mpmath.exp(-2 * bs)) * mean) ** 2 / 4


def za_ratio(beta_s: float) -> mpmath.mpf:
    """Z_a/Z_0 by field reversal, Z_a(beta_s) = Z_b(-beta_s)."""
    return zb_ratio(-beta_s)


def catalan_free_energy() -> mpmath.mpf:
    """F0(0) = 2G/pi - (1/2) ln 2, G Catalan's constant."""
    with mpmath.workdps(DPS):
        return 2 * mpmath.catalan / mpmath.pi - mpmath.log(2) / 2


def singular_exponent(beta_eps: float) -> mpmath.mpf:
    """Coulomb-gas exponent 2/(2 - pi/(4 j)), j = arccos(1 - e^{2 beta_eps}/2)/2."""
    with mpmath.workdps(DPS):
        j = mpmath.acos(1 - mpmath.exp(2 * mpmath.mpf(beta_eps)) / 2) / 2
        return 2 / (2 - mpmath.pi / (4 * j))


# --- finite lattices: backtracking over ice configurations -------------------

def _vertex_weight(state: int, row: int, col: int, beta_s: float) -> float:
    """exp(-reduced energy) of one vertex at the solvable point."""
    if state <= 4:
        return math.exp(-FREE_FERMION_BETA_EPS)
    sign = 1.0 if state == 5 else -1.0
    if (row + col) % 2:
        sign = -sign
    return math.exp(-sign * beta_s)


def ground_state(row: int, col: int) -> int:
    return 6 if (row + col) % 2 == 0 else 5


class IceConfig:
    """One ice-rule configuration: its Boltzmann weight, the state of every
    vertex, and the arrow bit of every edge keyed ('h'|'v', row, col)."""

    __slots__ = ("weight", "states", "bits")

    def __init__(self, weight, states, bits):
        self.weight = weight
        self.states = states
        self.bits = bits


def ice_configurations(rows: int, cols: int, beta_s: float,
                       periodic: bool) -> list[IceConfig]:
    """Every ice-rule configuration, by backtracking vertex by vertex.

    Edge keys: ('h', r, c) is the edge west of vertex (r, c) and ('v', r, c)
    the edge north of it; on a torus the indices wrap, on the fixed
    ground-state boundary the outermost edges carry the ground state's
    arrows.  Only configurations that satisfy the ice rule at every vertex
    so far are extended, so the cost is proportional to their number.
    """
    bits: dict = {}
    if not periodic:
        for r in range(rows):
            bits[("h", r, 0)] = STATE_BITS[ground_state(r, 0)][0]
            bits[("h", r, cols)] = STATE_BITS[ground_state(r, cols - 1)][1]
        for c in range(cols):
            bits[("v", 0, c)] = STATE_BITS[ground_state(0, c)][2]
            bits[("v", rows, c)] = STATE_BITS[ground_state(rows - 1, c)][3]

    def incident(r, c):
        if periodic:
            return (("h", r, c), ("h", r, (c + 1) % cols),
                    ("v", r, c), ("v", (r + 1) % rows, c))
        return (("h", r, c), ("h", r, c + 1), ("v", r, c), ("v", r + 1, c))

    out: list[IceConfig] = []
    states = [[0] * cols for _ in range(rows)]

    def extend(index, weight):
        if index == rows * cols:
            out.append(IceConfig(weight, [list(s) for s in states], dict(bits)))
            return
        r, c = divmod(index, cols)
        keys = incident(r, c)
        for state, state_bits in STATE_BITS.items():
            if any(bits.get(k, b) != b for k, b in zip(keys, state_bits)):
                continue
            added = [k for k in keys if k not in bits]
            for k, b in zip(keys, state_bits):
                bits[k] = b
            states[r][c] = state
            extend(index + 1, weight * _vertex_weight(state, r, c, beta_s))
            for k in added:
                del bits[k]

    extend(0, 1.0)
    return out


def reference_bit(key) -> int:
    """Arrow bit of an edge in the fixed-boundary ground state: the W bit
    (for 'h') or N bit (for 'v') of state 6 at even r + c, state 5 at odd."""
    _, r, c = key
    return (r + c) % 2


def vertex_probabilities(configs, site) -> dict[int, float]:
    """P(state) at a site over the enumerated configurations."""
    r, c = site
    z = math.fsum(cfg.weight for cfg in configs)
    return {s: math.fsum(cfg.weight for cfg in configs
                         if cfg.states[r][c] == s) / z
            for s in STATE_BITS}


def line_pattern_ratio(configs, pattern) -> float:
    """Z(lines present/absent on the given edges)/Z.

    ``pattern`` is a list of (edge_key, occupied); a line sits on an edge
    exactly where its arrow opposes the fixed-boundary ground state.
    """
    z = math.fsum(cfg.weight for cfg in configs)
    return math.fsum(
        cfg.weight for cfg in configs
        if all((cfg.bits[k] != reference_bit(k)) == occ for k, occ in pattern)) / z


# --- finite lattices: backtracking over perfect matchings --------------------

def decorated_edges(rows: int, cols: int, beta_s: float):
    """Edge list (i, j, weight) of the city-decorated lattice.

    The order follows the program's documented convention: the four
    internal diamond edges of each city (L-T, T-R, R-B, B-L) city by city,
    then horizontal externals row by row, then vertical externals.  Node
    4*(r*cols + c) + k, k = 0 left, 1 top, 2 right, 3 bottom.  Weights:
    C = exp(-beta_s/2) external, u = (sqrt 2/2) exp(beta_s/2) internal.
    """
    c_w = math.exp(-0.5 * beta_s)
    u_w = 0.5 * math.sqrt(2.0) * math.exp(0.5 * beta_s)

    def node(r, c, k):
        return 4 * (r * cols + c) + k

    edges = []
    for r in range(rows):
        for c in range(cols):
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
                edges.append((node(r, c, a), node(r, c, b), u_w))
    for r in range(rows):
        for c in range(cols - 1):
            edges.append((node(r, c, 2), node(r, c + 1, 0), c_w))
    for r in range(rows - 1):
        for c in range(cols):
            edges.append((node(r, c, 3), node(r + 1, c, 1), c_w))
    return 4 * rows * cols, edges


def matching_sum(n_nodes: int, edges, occupied=(), empty=()) -> float:
    """Weighted sum over perfect matchings that use every edge in
    ``occupied`` and none in ``empty``, by backtracking on the lowest
    uncovered node."""
    banned = set(occupied) | set(empty)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_nodes)]
    for idx, (i, j, w) in enumerate(edges):
        if idx not in banned:
            adj[i].append((j, w))
            adj[j].append((i, w))
    covered = [False] * n_nodes
    weight = 1.0
    for idx in occupied:
        i, j, w = edges[idx]
        if covered[i] or covered[j]:
            return 0.0
        covered[i] = covered[j] = True
        weight *= w

    def extend(node):
        while node < n_nodes and covered[node]:
            node += 1
        if node == n_nodes:
            return 1.0
        covered[node] = True
        total = 0.0
        for other, w in adj[node]:
            if not covered[other]:
                covered[other] = True
                total += w * extend(node + 1)
                covered[other] = False
        covered[node] = False
        return total

    return weight * extend(0)
