"""Staggered six-vertex model on the square lattice.

Defines the six vertex states, the two-sublattice staggered energies and
two independent small-lattice oracles: exhaustive ice-rule enumeration and
a matrix-free two-column transfer matrix whose leading eigenvalues a
symmetric Lanczos iteration finds (the second column is the transpose of
the first).  The enumeration encodes a configuration as a bit mask of its
free arrows, and ``mask ^ ground_state_mask(params)`` is its line set.

Conventions (used consistently across the package):

* rows increase downward, columns to the right; vertex (0, 0) is on
  sublattice A, and ``(r + c) % 2`` selects the sublattice.
* horizontal arrow bit 1 = arrow points east; vertical bit 1 = points north.
* the reference ground state has every A vertex in state 6 and every
  B vertex in state 5: arrow bit 1 exactly on the edges east and south of
  the A vertices.
* enumeration masks number the free edges row-major, every edge east of a
  vertex before every edge south of one; on the fixed boundary that is the
  order of the decorated lattice's external edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .coulomb import FREE_FERMION_BETA_EPS
from .errors import BadInput, FieldOverflow, VertexExpandError

ENUMERATION_EDGE_BOUND = 24

#: relative tolerance of the Ritz residuals in transfer_matrix_free_energy
EIGEN_TOL = 1e-13

#: Lanczos steps transfer_matrix_free_energy takes before it gives up
LANCZOS_STEP_CAP = 60

#: arrow bits (W, E, N, S) for each vertex state
STATE_BITS = {
    1: (1, 1, 1, 1),
    2: (0, 0, 0, 0),
    3: (1, 1, 0, 0),
    4: (0, 0, 1, 1),
    5: (1, 0, 1, 0),
    6: (0, 1, 0, 1),
}

VERTEX_STATES = (1, 2, 3, 4, 5, 6)

#: vertex state for each incident-bit pattern w*8 + e*4 + n*2 + s; exactly
#: the six two-in/two-out patterns map to a state, 0 marks an ice-rule
#: violation
_STATE_OF_PATTERN = {w * 8 + e * 4 + n * 2 + s: state
                     for state, (w, e, n, s) in STATE_BITS.items()}
PATTERN_TO_STATE = tuple(_STATE_OF_PATTERN.get(p, 0) for p in range(16))


class Boundary(Enum):
    PERIODIC = "periodic"
    FIXED_GROUND_STATE = "fixed-ground-state"


class Sublattice(Enum):
    A = "A"
    B = "B"


def sublattice(row: int, col: int) -> Sublattice:
    return Sublattice.A if (row + col) % 2 == 0 else Sublattice.B


@dataclass(frozen=True)
class ModelParams:
    """Reduced couplings and lattice geometry.

    ``beta_eps`` is the reduced energy of the four non-staggered states,
    ln(2)/2 + U at a coupling U off the solvable point; ``beta_s`` the
    reduced staggered field.
    """

    beta_s: float
    rows: int
    cols: int
    beta_eps: float = FREE_FERMION_BETA_EPS
    boundary: Boundary = Boundary.FIXED_GROUND_STATE

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise BadInput(f"lattice dimensions must be >= 1, not "
                           f"{self.rows}x{self.cols}")
        if self.boundary is Boundary.PERIODIC and (
                self.rows % 2 or self.cols % 2):
            raise BadInput(f"periodic staggered lattices need even rows "
                           f"and cols, not {self.rows}x{self.cols}")


def vertex_energy(state: int, sub: Sublattice, params: ModelParams) -> float:
    """Reduced energy of one vertex (the Hamiltonian sums -1 times these)."""
    if state not in STATE_BITS:
        raise BadInput(f"invalid vertex state {state}")
    if state <= 4:
        return params.beta_eps
    sign = 1.0 if state == 5 else -1.0
    if sub is Sublattice.B:
        sign = -sign
    return sign * params.beta_s


# --- exhaustive enumeration oracle -------------------------------------------

def _free_shape(params: ModelParams) -> tuple[int, int]:
    """(free edges east of the vertices of a row, rows of free edges south
    of a vertex): every vertex's on a torus, under the fixed boundary only
    those that join two vertices."""
    if params.boundary is Boundary.PERIODIC:
        return params.cols, params.rows
    return params.cols - 1, params.rows - 1


def ground_state_mask(params: ModelParams) -> int:
    """The reference ground state as an enumeration mask: bit 1 on each free
    edge east or south of a vertex with row + col even."""
    n, m = params.rows, params.cols
    east, south = _free_shape(params)
    even = ([(r + c) % 2 == 0 for r in range(n) for c in range(east)]
            + [(r + c) % 2 == 0 for r in range(south) for c in range(m)])
    return sum(1 << b for b, bit in enumerate(even) if bit)


def _edge_layout(params: ModelParams):
    """Per-vertex slot tables for the enumeration.

    Free edges are numbered row-major, every edge east of a vertex before
    every edge south of one.  Returns (slots, fixed) where slots[vertex, k]
    is the free edge feeding arrow slot k (W, E, N, S) or -1, and
    fixed[vertex] the vertex's ground-state arrow bits, which the -1 slots
    keep.
    """
    n, m = params.rows, params.cols
    torus = params.boundary is Boundary.PERIODIC
    east, south = _free_shape(params)
    slots = np.full((n * m, 4), -1, dtype=np.int32)
    fixed = np.zeros((n * m, 4), dtype=np.int8)
    for r in range(n):
        for c in range(m):
            vtx = r * m + c
            # W and E are east of (r, c - 1) and (r, c), N and S south of
            # (r - 1, c) and (r, c)
            for k, (er, ec) in enumerate(
                    ((r, c - 1), (r, c), (r - 1, c), (r, c))):
                if torus:
                    er, ec = er % n, ec % m
                if k < 2 and 0 <= ec < east:
                    slots[vtx, k] = er * east + ec
                elif k >= 2 and 0 <= er < south:
                    slots[vtx, k] = n * east + er * m + ec
            fixed[vtx] = STATE_BITS[6 if (r + c) % 2 == 0 else 5]
    return slots, fixed


def _energy_table(params: ModelParams) -> np.ndarray:
    n, m = params.rows, params.cols
    table = np.zeros((n * m, 7))
    for r in range(n):
        for c in range(m):
            for state in VERTEX_STATES:
                table[r * m + c, state] = vertex_energy(
                    state, sublattice(r, c), params)
    return table


@dataclass(frozen=True)
class EnumerationResult:
    z: float
    log_z: float
    masks: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _ice_configurations(slots: np.ndarray, fixed: np.ndarray,
                        energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ice-rule configuration as (masks, H) arrays, ascending in mask;
    the masks are int32, which holds the ENUMERATION_EDGE_BOUND free bits.

    The frontier of partial configurations is a pair of arrays.  Vertices
    are visited in order; each ORs every mask of the frontier with every
    subset of the free edges it touches first, reads its incident-bit
    pattern with array shifts and keeps the extensions that leave it
    two-in/two-out.  H accumulates -energies[vertex, state] vertex by vertex
    from 0.
    """
    pattern_to_state = np.array(PATTERN_TO_STATE)
    masks = np.zeros(1, dtype=np.int32)
    hams = np.zeros(1)
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
        masks = (masks[:, None] | np.array(extensions, np.int32)).ravel()
        hams = np.repeat(hams, len(extensions))
        pattern = np.zeros(len(masks), dtype=np.int64)
        for s, bit in zip(vslots, vfixed):
            pattern <<= 1
            pattern |= masks >> s & 1 if s >= 0 else bit
        states = pattern_to_state[pattern]
        ice = states != 0
        with np.errstate(over="ignore", invalid="ignore"):  # checked later
            masks, hams = masks[ice], hams[ice] - venergy[states[ice]]
    order = np.argsort(masks)
    return masks[order], hams[order]


def enumerate_partition(params: ModelParams) -> EnumerationResult:
    """Exact Z = sum_c exp(H(c)) over all ice-rule configurations.

    Configurations are reported in ascending bit-mask order over the free
    edges: all 2 rows cols of them on a torus, the interior ones under the
    fixed boundary.  Their count is checked before any table is built.
    """
    n, m = params.rows, params.cols
    east, south = _free_shape(params)
    free = n * east + south * m
    if free > ENUMERATION_EDGE_BOUND:
        raise BadInput(f"{n}x{m} has {free} free edges, above the "
                       f"enumeration bound {ENUMERATION_EDGE_BOUND}")
    slots, fixed = _edge_layout(params)
    masks, hams = _ice_configurations(slots, fixed, _energy_table(params))
    if not np.all(np.isfinite(hams)):
        raise FieldOverflow("a configuration energy overflows a double")
    log_z = hams.max() + math.log(math.fsum(np.exp(hams - hams.max())))
    with np.errstate(over="ignore"):     # log_z stays finite where Z is not
        weights = np.exp(hams)
        z = float(np.sum(weights))
    return EnumerationResult(z, float(log_z), masks, weights)


# --- transfer-matrix oracle --------------------------------------------------

#: rows of a column that one dense group matrix applies; the last group of
#: a column takes the rows that are left
GROUP_ROWS = 4


def _group_matrix(row_weights: list[np.ndarray]) -> np.ndarray:
    """The 2^(s+1) square matrix by which s consecutive rows act on
    (entering vertical bond, their s arrow bits, the first row's most
    significant), from each row's w[south, east, north, west] weights.

    Every entry is one path's product of row weights, multiplied in row
    order: the vertical bond leaving a row follows from its other three
    arrows, so each einsum sum has one nonzero term.
    """
    s = len(row_weights)
    g = np.eye(2 << s)
    for k, w in enumerate(row_weights):
        g = np.einsum("yebh,bahrc->yaerc", w,
                      g.reshape(2, 1 << k, 2, 1 << (s - 1 - k), 2 << s))
    return g.reshape(2 << s, 2 << s)


def _log_scale(params: ModelParams) -> float:
    """max(-E), by which the transfer oracles scale every weight down:
    states 5 and 6 have E = +-beta_s, the other four E = beta_eps."""
    return max(abs(params.beta_s), -params.beta_eps)


def _column_weights(params: ModelParams, log_scale: float):
    """The group matrices of the two columns of ``params.rows`` rows, in
    row order, with vertex weights e^(-E - log_scale).

    Row r of the parity-p column sits on sublattice A when r + p is even.
    Groups of GROUP_ROWS start at even rows, so every full group of a
    column shares one matrix, built once with the last, shorter one.
    """
    rows = []
    for sub in (Sublattice.A, Sublattice.B):
        w = np.zeros((2, 2, 2, 2))
        for state, (w_bit, e_bit, n_bit, s_bit) in STATE_BITS.items():
            w[s_bit, e_bit, n_bit, w_bit] = math.exp(
                -vertex_energy(state, sub, params) - log_scale)
        rows.append(w)
    n = params.rows
    sizes = [min(GROUP_ROWS, n - r) for r in range(0, n, GROUP_ROWS)]
    columns = []
    for parity in (0, 1):
        groups = {s: _group_matrix([rows[(r + parity) % 2] for r in range(s)])
                  for s in set(sizes)}
        columns.append([groups[s] for s in sizes])
    return tuple(columns)


def _apply_column(psi: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """One column of the transfer matrix, as its group matrices, applied
    to a 2^N interface vector.

    The interface holds the horizontal arrow bits of the N rows (row 0 most
    significant).  The state is [entering bond, interface, periodic bond at
    the top of the column], so the bond and the first group's arrow bits
    lead: each group is one matmul over them, and one transpose moves its
    bits to the back, behind the top bond.  After the last group the state
    is [bond, top bond, interface] in row order, and the trace over the
    periodic bond is two of its rows.
    """
    x = np.zeros((2, len(psi), 2))
    x[0, :, 0] = x[1, :, 1] = psi
    for g in groups:
        x = g @ x.reshape(len(g), -1)
        x = x.reshape(2, len(g) // 2, -1).transpose(0, 2, 1)
    x = x.reshape(2, 2, -1)
    return x[0, 0] + x[1, 1]


@dataclass(frozen=True)
class TransferResult:
    """Free energy per vertex, relative gap lambda_2 / lambda_1 and the
    Lanczos steps taken, one two-column operator call each."""

    free_energy: float
    gap: float
    steps: int


def transfer_matrix_free_energy(params: ModelParams) -> TransferResult:
    """Reduced free energy per vertex in the infinite-column limit.

    The parity-1 column is the transpose of the parity-0 one, so the
    two-column operator T = C^T C (two columns absorb the A/B staggering)
    is symmetric positive semi-definite.  A Lanczos iteration from the
    uniform vector, fully reorthogonalized twice a step, runs until the
    Ritz residuals of the top two values are within EIGEN_TOL of the
    largest; weights are scaled down by e^_log_scale, so none overflows at
    any finite field, and f gets that log scale back.
    Returns f = ln(lambda_max) / (2 N), the relative gap lambda_2 /
    lambda_1 as a convergence diagnostic, good to about EIGEN_TOL absolute
    (a smaller gap, as at |beta_s| >= 10, is rounding and may read 0), and
    the number of Lanczos steps.
    lambda_2 is the second level the uniform vector reaches: a level of
    another symmetry sector stays unseen (at beta_s = 0 and beta_eps = 0.9
    one lies above it from N = 2 on).
    """
    if params.boundary is not Boundary.PERIODIC:
        raise BadInput("transfer matrix requires periodic boundary")
    n = params.rows
    if n % 2 or n > 16:
        raise BadInput(f"transfer-matrix rows must be even and <= 16, "
                       f"not {n}")
    log_scale = _log_scale(params)
    first, second = _column_weights(params, log_scale)
    dim = 1 << n
    basis = np.empty((min(dim, LANCZOS_STEP_CAP), dim))
    basis[0] = 1.0 / math.sqrt(dim)
    alpha, beta = [], []
    for m in range(len(basis)):
        w = _apply_column(_apply_column(basis[m], first), second)
        alpha.append(float(basis[m] @ w))
        for _ in range(2):
            w -= basis[:m + 1].T @ (basis[:m + 1] @ w)
        beta.append(float(np.linalg.norm(w)))
        theta, s = np.linalg.eigh(
            np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        residual = beta[-1] * np.abs(s[-1, -2:])
        if (beta[-1] == 0.0 or m + 1 == dim    # the Krylov space is exhausted
                or np.all(residual <= EIGEN_TOL * theta[-1])):
            break
        if m + 1 < len(basis):
            basis[m + 1] = w / beta[-1]
    else:
        raise VertexExpandError("transfer-matrix eigensolve stalled")
    lam1 = float(theta[-1])
    lam2 = float(abs(theta[-2])) if len(theta) > 1 else 0.0
    if not np.isfinite(lam1) or lam1 <= 0:
        raise VertexExpandError("non-positive leading eigenvalue")
    return TransferResult(math.log(lam1) / (2 * n) + log_scale,
                          lam2 / lam1, len(alpha))


def transfer_partition(params: ModelParams) -> float:
    """Finite-torus Z, the trace of the product of the ``params.cols``
    columns (an even count, as ModelParams requires of a torus), summed
    one basis vector at a time through the group matrices that
    transfer_matrix_free_energy uses, scaled alike: Z = total e^(rows cols
    _log_scale), and FieldOverflow where that is not a finite double."""
    if params.boundary is not Boundary.PERIODIC:
        raise BadInput("transfer partition requires periodic boundary")
    log_scale = _log_scale(params)
    columns = _column_weights(params, log_scale)
    dim = 1 << params.rows
    total = 0.0
    for j in range(dim):
        psi = np.zeros(dim)
        psi[j] = 1.0
        for c in range(params.cols):
            psi = _apply_column(psi, columns[c % 2])
        total += psi[j]
    with np.errstate(over="ignore"):
        z = float(total * np.exp(params.rows * params.cols * log_scale))
    if not math.isfinite(z):
        raise FieldOverflow("Z overflows a double at this field")
    return z
