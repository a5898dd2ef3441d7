"""Staggered six-vertex model on the square lattice.

Defines the six vertex states, the two-sublattice staggered energies and
two independent small-lattice oracles: exhaustive ice-rule enumeration and
a matrix-free transfer matrix T = A^2, A = R C0 one column followed by
arrow reversal R, which is symmetric; a Lanczos iteration finds its leading
eigenvalues.  The enumeration encodes a configuration as a bit mask of its
free arrows, and ``mask ^ ground_state_mask(params)`` is its line set.

Conventions (used consistently across the package):

* rows increase downward, columns to the right; the parity ``(r + c) % 2``
  of vertex (r, c) is its sublattice, 0 for A and 1 for B.
* horizontal arrow bit 1 = arrow points east; vertical bit 1 = points north.
* ``GROUND_STATE[parity]`` is the reference ground state's vertex state:
  6 on A and 5 on B, so arrow bit 1 exactly on the edges east and south of
  the A vertices.  It is the one place this pairing is written.
* ``vertex_energies(params)[parity, state]`` is a vertex's reduced energy,
  the one place the staggered energies are written.
* enumeration masks number the free edges row-major, every edge east of a
  vertex before every edge south of one; on the fixed boundary that is the
  order of the decorated lattice's external edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import FREE_FERMION_BETA_EPS
from .errors import BadInput, FieldOverflow, VertexExpandError

ENUMERATION_EDGE_BOUND = 24

#: relative tolerance of the Ritz residuals in transfer_matrix_free_energy
EIGEN_TOL = 1e-13

#: column applies transfer_matrix_free_energy takes before it gives up; it
#: took 2-24 on 2-16 rows x 20 fields in [-40, 40] x 6 beta_eps in [0.1, 0.9]
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

#: the reference ground state's vertex state on sublattice A ((r + c) even)
#: and on B
GROUND_STATE = (6, 5)

#: vertex state for each incident-bit pattern w*8 + e*4 + n*2 + s; exactly
#: the six two-in/two-out patterns map to a state, 0 marks an ice-rule
#: violation
_STATE_OF_PATTERN = {w * 8 + e * 4 + n * 2 + s: state
                     for state, (w, e, n, s) in STATE_BITS.items()}
PATTERN_TO_STATE = tuple(_STATE_OF_PATTERN.get(p, 0) for p in range(16))


class Boundary(Enum):
    PERIODIC = "periodic"
    FIXED_GROUND_STATE = "fixed-ground-state"


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


def vertex_energies(params: ModelParams) -> np.ndarray:
    """Reduced vertex energies (the Hamiltonian sums -1 times these) as a
    (2, 7) table: row (r + c) % 2, column the state, column 0 unused.
    States 1-4 cost beta_eps; state 5 costs beta_s on A and -beta_s on B,
    state 6 the opposite."""
    e, s = params.beta_eps, params.beta_s
    return np.array([[0.0, e, e, e, e, s, -s],
                     [0.0, e, e, e, e, -s, s]])


# --- exhaustive enumeration oracle -------------------------------------------

def _free_shape(params: ModelParams) -> tuple[int, int]:
    """(free edges east of the vertices of a row, rows of free edges south
    of a vertex): every vertex's on a torus, under the fixed boundary only
    those that join two vertices."""
    if params.boundary is Boundary.PERIODIC:
        return params.cols, params.rows
    return params.cols - 1, params.rows - 1


def ground_state_mask(params: ModelParams) -> int:
    """The reference ground state as an enumeration mask: each free edge
    east or south of a vertex takes that vertex's E or S arrow bit in
    GROUND_STATE."""
    n, m = params.rows, params.cols
    east, south = _free_shape(params)
    bits = ([STATE_BITS[GROUND_STATE[(r + c) % 2]][1]
             for r in range(n) for c in range(east)]
            + [STATE_BITS[GROUND_STATE[(r + c) % 2]][3]
               for r in range(south) for c in range(m)])
    return sum(bit << b for b, bit in enumerate(bits))


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
            fixed[vtx] = STATE_BITS[GROUND_STATE[(r + c) % 2]]
    return slots, fixed


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
    parity = (np.arange(n)[:, None] + np.arange(m)).ravel() % 2
    masks, hams = _ice_configurations(slots, fixed,
                                      vertex_energies(params)[parity])
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
    """max(-E) over states 1-6, by which the transfer oracles scale every
    weight down; 0.0 - min(E) is never -0.0."""
    return 0.0 - float(vertex_energies(params)[:, 1:].min())


def _column_weights(params: ModelParams, log_scale: float) -> list[np.ndarray]:
    """The group matrices of the parity-0 column C0 of ``params.rows``
    rows, in row order, with vertex weights e^(-E - log_scale).

    Row r takes row r % 2 of vertex_energies.  Groups of GROUP_ROWS start
    at even rows, so every full group shares one matrix, built once with
    the last, shorter one; the parity-1 column is R C0 R (R reverses psi).
    """
    rows = []
    for energy in vertex_energies(params).tolist():
        w = np.zeros((2, 2, 2, 2))
        for state, (w_bit, e_bit, n_bit, s_bit) in STATE_BITS.items():
            w[s_bit, e_bit, n_bit, w_bit] = math.exp(-energy[state] - log_scale)
        rows.append(w)
    n = params.rows
    sizes = [min(GROUP_ROWS, n - r) for r in range(0, n, GROUP_ROWS)]
    groups = {s: _group_matrix([rows[r % 2] for r in range(s)])
              for s in set(sizes)}
    return [groups[s] for s in sizes]


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
    Lanczos steps taken, one column apply each."""

    free_energy: float
    gap: float
    steps: int


def transfer_matrix_free_energy(params: ModelParams) -> TransferResult:
    """Reduced free energy per vertex in the infinite-column limit.

    Arrow reversal R, which reverses a 2^N interface vector, maps one
    column onto the next, R C0 R = C1 = C0^T, so A = R C0 is symmetric and
    the two-column operator, which absorbs the A/B staggering, is A^2.  A
    Lanczos iteration on A from the uniform vector, reorthogonalized twice
    a step, stops once each of the top two Ritz values by |theta| has
    residual r with 2 r <= EIGEN_TOL theta_1, as its residual in A^2 is at
    most 2 |theta_1| r.  A >= 0, so theta_1 > 0 is its Perron root;
    lambda = theta^2, and lambda_2 may come from a negative theta.  Weights
    are scaled down by e^_log_scale, so none overflows at any finite field.
    Returns f = ln(lambda_1) / (2 N) + _log_scale, the gap lambda_2 /
    lambda_1, a convergence diagnostic good to about EIGEN_TOL absolute
    (at |beta_s| >= 10 it is rounding and may read 0), and the steps.
    lambda_2 is the second level the uniform vector reaches: at beta_s = 0,
    beta_eps = 0.9 another sector's lies above it from N = 2 on.
    """
    if params.boundary is not Boundary.PERIODIC:
        raise BadInput("transfer matrix requires periodic boundary")
    n = params.rows
    if n % 2 or n > 16:
        raise BadInput(f"transfer-matrix rows must be even and <= 16, "
                       f"not {n}")
    log_scale = _log_scale(params)
    column = _column_weights(params, log_scale)
    dim = 1 << n
    basis = np.empty((min(dim, LANCZOS_STEP_CAP), dim))
    basis[0] = 1.0 / math.sqrt(dim)
    tri = np.zeros((len(basis), len(basis)))    # A on the basis
    for m in range(len(basis)):
        # contiguous: a reversed view slows the products below
        w = _apply_column(basis[m], column)[::-1].copy()
        tri[m, m] = basis[m] @ w
        for _ in range(2):
            w -= basis[:m + 1].T @ (basis[:m + 1] @ w)
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(tri[:m + 1, :m + 1])
        top = np.argsort(np.abs(theta))[-2:]
        residual = 2 * beta * np.abs(s[-1, top])
        if (beta == 0.0 or m + 1 == dim     # the Krylov space is exhausted
                or np.all(residual <= EIGEN_TOL * abs(theta[top[-1]]))):
            break
        if m + 1 < len(basis):
            basis[m + 1] = w / beta
            tri[m, m + 1] = tri[m + 1, m] = beta
    else:
        raise VertexExpandError("transfer-matrix eigensolve stalled")
    theta1 = float(theta[top[-1]])
    theta2 = float(theta[top[0]]) if len(top) > 1 else 0.0
    if not np.isfinite(theta1) or theta1 <= 0:
        raise VertexExpandError("non-positive leading eigenvalue")
    return TransferResult(math.log(theta1) / n + log_scale,
                          (theta2 / theta1) ** 2, m + 1)


def transfer_partition(params: ModelParams) -> float:
    """Finite-torus Z = tr(A^cols), A = R C0 as transfer_matrix_free_energy
    applies it, for the even ``params.cols`` of a torus: summed one basis
    vector at a time, the vector reversed after each column, and scaled
    alike: Z = total e^(rows cols _log_scale), and FieldOverflow where that
    is not a finite double."""
    if params.boundary is not Boundary.PERIODIC:
        raise BadInput("transfer partition requires periodic boundary")
    log_scale = _log_scale(params)
    column = _column_weights(params, log_scale)
    dim = 1 << params.rows
    total = 0.0
    for j in range(dim):
        psi = np.zeros(dim)
        psi[j] = 1.0
        for _ in range(params.cols):
            psi = _apply_column(psi, column)[::-1]
        total += psi[j]
    with np.errstate(over="ignore"):
        z = float(total * np.exp(params.rows * params.cols * log_scale))
    if not math.isfinite(z):
        raise FieldOverflow("Z overflows a double at this field")
    return z
