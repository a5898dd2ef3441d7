"""Independent references shared by the tests.

The planar-face tracer finds the bounded faces of a decorated lattice from
a drawing of it, with no knowledge of the lattice's face structure; the
Kasteleyn tests check the package's closed-form orientation and its face
audit against it.

The infinite-lattice quantities are each an mpmath quadrature of a 1-D reduction of the defining double
integral (cos t1 cos t2 = [cos(t1 + t2) + cos(t1 - t2)]/2 and
<ln(x + cos b)>_b = arccosh x - ln 2), at 30 digits, with breakpoints where
the integrand peaks for small beta_s; none uses the elliptic-integral forms
of the package.

The transfer-matrix reference builds the two-column operator densely from
its action on unit vectors and diagonalises it with LAPACK, where the package
asks ARPACK for two eigenvalues of the matrix-free operator.

The singular series are the paper's own assembly: Stirling's series for the
central binomial ratio (``stirling_correction``), then the singular part of
each sum_n e^{-n t}/n^p, then the map t = 2 ln cosh(2 beta_s).  The package
builds the same coefficients from the generating series of a_n^2 instead.
"""

import math
from fractions import Fraction as Q
from math import factorial

import mpmath
import numpy as np

from vertex_expand import model
from vertex_expand.series import (
    LogSeries,
    PiRational,
    RationalSeries,
    stirling_correction,
    t_of_betas,
)

DPS = 30

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
    nbrs = {i: [] for i in range(lat.n_nodes)}
    edge_of = {}
    for e_idx, e in enumerate(lat.edges):
        for a, b in ((e.i, e.j), (e.j, e.i)):
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
            cycle.append((idx, (lat.edges[idx].i, lat.edges[idx].j) == (a, b)))
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


def dense_transfer(params):
    """(free energy, gap) of a torus from the dense two-column matrix: every
    eigenvalue by ``np.linalg.eigvals``, then ln|lambda_1|/(2N) and
    |lambda_2|/|lambda_1|."""
    n = params.rows
    wa, wb = model._column_tensors(params)
    eye = np.eye(1 << n)
    dense = np.column_stack([
        model._apply_column(model._apply_column(col, 0, wa, wb, n),
                            1, wa, wb, n) for col in eye.T])
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
    a = cosh 2 beta_s (the mean of 1/(a + cos t1 cos t2) over one angle)."""
    with mpmath.workdps(DPS):
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
    acc = RationalSeries.zero(K)
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
    gp = paper_singular_betas_series(K + 2).singular.differentiate()
    sq = gp * gp
    return LogSeries(RationalSeries([c / 4 for c in sq.coeffs[:K + 1]], K),
                     PiRational(Q(8), 2), "ln^2|beta_s|")
