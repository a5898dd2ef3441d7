"""Six-vertex model definition, enumeration, and transfer-matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import (
    apply_column,
    column_tensors,
    config_from_mask,
    dense_transfer,
    enumerate_by_backtracking,
    ground_state_config,
    reduced_hamiltonian,
    reversed_config,
    vertex_state,
)

from vertex_expand import dimer, model
from vertex_expand.errors import BadInput, FieldOverflow
from vertex_expand.integrals import baxter_free_energy
from vertex_expand.model import (
    ENUMERATION_EDGE_BOUND,
    FREE_FERMION_BETA_EPS,
    GROUND_STATE,
    PATTERN_TO_STATE,
    STATE_BITS,
    Boundary,
    ModelParams,
    enumerate_partition,
    ground_state_mask,
    transfer_matrix_free_energy,
    transfer_partition,
    vertex_energies,
)


def fixed(rows, cols, beta_s=0.3):
    return ModelParams(beta_s=beta_s, rows=rows, cols=cols)


def periodic(rows, cols, beta_s=0.3, u=0.0):
    return ModelParams(beta_s=beta_s, rows=rows, cols=cols,
                       beta_eps=FREE_FERMION_BETA_EPS + u,
                       boundary=Boundary.PERIODIC)


class TestParams:
    def test_free_fermion_point(self):
        assert FREE_FERMION_BETA_EPS == 0.5 * math.log(2.0)
        assert math.exp(-2.0 * FREE_FERMION_BETA_EPS) == pytest.approx(0.5)

    def test_periodic_needs_even_dims(self):
        with pytest.raises(ValueError):
            periodic(3, 4)
        with pytest.raises(ValueError):
            periodic(4, 3)

    def test_u_shift_roundtrip(self):
        # a shift U off the solvable point reaches the four symmetric states
        # only
        p = ModelParams(beta_s=0.3, rows=2, cols=2,
                        beta_eps=FREE_FERMION_BETA_EPS + 0.1)
        shifted, solvable = vertex_energies(p), vertex_energies(fixed(2, 2))
        assert shifted[:, 1:5] - FREE_FERMION_BETA_EPS == pytest.approx(0.1)
        assert np.array_equal(shifted[:, 5:], solvable[:, 5:])

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            fixed(0, 2)


class TestEnergies:
    def test_symmetric_states_cost_eps(self):
        p = fixed(2, 2)
        assert np.all(vertex_energies(p)[:, 1:5] == p.beta_eps)

    def test_staggered_states(self):
        # row 0 is sublattice A, (r + c) even; row 1 is B
        table = vertex_energies(fixed(2, 2, beta_s=0.7))
        assert table.shape == (2, 7)
        assert table[0, 5] == table[1, 6] == 0.7
        assert table[0, 6] == table[1, 5] == -0.7

    @settings(max_examples=200, deadline=None)
    @given(beta_s=st.floats(allow_nan=False),
           beta_eps=st.floats(allow_nan=False))
    @example(beta_s=0.0, beta_eps=FREE_FERMION_BETA_EPS)
    @example(beta_s=-0.0, beta_eps=FREE_FERMION_BETA_EPS)
    @example(beta_s=0.0, beta_eps=0.0)
    @example(beta_s=-0.0, beta_eps=-0.0)
    @example(beta_s=0.0, beta_eps=-0.0)
    @example(beta_s=-0.0, beta_eps=0.0)
    def test_closed_form(self, beta_s, beta_eps):
        # the table is beta_eps for states 1-4 and +-beta_s with A/B signs,
        # and the log scale is max(|beta_s|, -beta_eps), both bitwise
        p = ModelParams(beta_s=beta_s, rows=2, cols=2, beta_eps=beta_eps)
        table = vertex_energies(p)
        for parity, sign in ((0, 1.0), (1, -1.0)):
            closed = [beta_eps] * 4 + [sign * beta_s, -sign * beta_s]
            assert table[parity, 1:].tobytes() == np.array(closed).tobytes()
        scale = model._log_scale(p)
        assert type(scale) is float
        assert np.float64(scale).tobytes() == np.float64(
            max(abs(beta_s), -beta_eps)).tobytes()


class TestGroundState:
    @pytest.mark.parametrize("params", [fixed(2, 3), fixed(3, 3),
                                        periodic(2, 2), periodic(4, 4)])
    def test_ground_state_energy(self, params):
        # every site carries a favored staggered vertex worth +beta_s
        gs = ground_state_config(params)
        expected = params.rows * params.cols * params.beta_s
        assert reduced_hamiltonian(gs, params) == pytest.approx(
            expected, abs=1e-12)

    def test_antiferroelectric_pattern(self):
        params = periodic(4, 4)
        gs = ground_state_config(params)
        for r in range(4):
            for c in range(4):
                assert vertex_state(gs, r, c) == GROUND_STATE[(r + c) % 2]

    def test_full_reversal_energy(self):
        # reversing every arrow swaps states 5 and 6, so the reversed ground
        # state pays beta_s at every site
        params = periodic(4, 4, beta_s=0.3)
        flipped = reversed_config(ground_state_config(params))
        assert reduced_hamiltonian(flipped, params) == pytest.approx(
            -16 * 0.3, abs=1e-12)

    @pytest.mark.parametrize("params", [fixed(3, 3), fixed(2, 3), fixed(1, 4),
                                        periodic(2, 2), periodic(2, 4)])
    def test_no_lines(self, params):
        # the ground-state mask decodes to the ground state, so its line set
        # mask ^ ground_state_mask is empty
        h, v = config_from_mask(params, ground_state_mask(params))
        gs_h, gs_v = ground_state_config(params)
        assert np.array_equal(h, gs_h) and np.array_equal(v, gs_v)

    @pytest.mark.parametrize("params,mask", [(fixed(2, 2), 0x5),
                                             (fixed(2, 3), 0x59)])
    def test_ground_mask_pinned(self, params, mask):
        assert ground_state_mask(params) == mask


#: every fixed lattice and torus within the enumeration bound
ENUMERABLE = (
    [(rows, cols, Boundary.FIXED_GROUND_STATE)
     for rows in range(1, 26) for cols in range(1, 26)
     if rows * (cols - 1) + (rows - 1) * cols <= ENUMERATION_EDGE_BOUND]
    + [(rows, cols, Boundary.PERIODIC)
       for rows in range(2, 13, 2) for cols in range(2, 13, 2)
       if 2 * rows * cols <= ENUMERATION_EDGE_BOUND])


def bits(x):
    """The bytes of a float or an array, to compare results bitwise."""
    return np.asarray(x).tobytes()


class TestEnumeration:
    def test_state_counts(self):
        assert len(enumerate_partition(fixed(3, 3, 0.0)).masks) == 7
        assert len(enumerate_partition(periodic(2, 4, 0.5)).masks) == 114

    def test_partition_value_frozen(self):
        z = enumerate_partition(periodic(2, 4, 0.5)).z
        assert z == pytest.approx(92.71403120070201, rel=1e-14)
        lnz = math.log(enumerate_partition(fixed(3, 3, 0.3)).z)
        assert lnz == pytest.approx(2.9805620603925673, rel=1e-14)

    def test_ice_rule_everywhere(self):
        params = periodic(2, 4, 0.5)
        result = enumerate_partition(params)
        for mask in result.masks:
            cfg = config_from_mask(params, int(mask))
            for r in range(2):
                for c in range(4):
                    assert 1 <= vertex_state(cfg, r, c) <= 6

    def test_weights_match_hamiltonian(self):
        params = fixed(2, 3, 0.4)
        result = enumerate_partition(params)
        for mask, w in zip(result.masks, result.weights):
            cfg = config_from_mask(params, int(mask))
            assert w == pytest.approx(
                math.exp(reduced_hamiltonian(cfg, params)), rel=1e-14)

    def test_too_large(self):
        with pytest.raises(BadInput, match="above the enumeration bound"):
            enumerate_partition(periodic(4, 4))

    @pytest.mark.parametrize("rows,cols,boundary", ENUMERABLE)
    def test_bitwise_the_backtracking(self, rows, cols, boundary):
        # the frontier arrays subtract the same energies in the same vertex
        # order as the per-configuration backtracking
        for beta_s in (-400.0, -0.7, 0.0, 0.3, 400.0):
            for beta_eps in (FREE_FERMION_BETA_EPS, 0.1, 0.9):
                params = ModelParams(beta_s=beta_s, rows=rows, cols=cols,
                                     beta_eps=beta_eps, boundary=boundary)
                got = enumerate_partition(params)
                want = enumerate_by_backtracking(params)
                assert got.masks.dtype == want.masks.dtype == np.int32
                assert bits(got.masks) == bits(want.masks)
                assert bits(got.weights) == bits(want.weights)
                assert bits(got.z) == bits(want.z)
                assert bits(got.log_z) == bits(want.log_z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta_s", [1.7e308, -1.7e308])
    @pytest.mark.parametrize("params", [fixed(2, 2), fixed(4, 4),
                                        periodic(2, 6)])
    def test_overflowing_energy_raises_without_warning(self, params, beta_s):
        params = ModelParams(beta_s=beta_s, rows=params.rows,
                             cols=params.cols, boundary=params.boundary)
        with pytest.raises(FieldOverflow):
            enumerate_partition(params)

    def test_pattern_table_matches_state_bits(self):
        for state, (w, e, n, s) in STATE_BITS.items():
            assert PATTERN_TO_STATE[w * 8 + e * 4 + n * 2 + s] == state
        assert sum(1 for state in PATTERN_TO_STATE if state) == 6

    def test_masks_ascending_unique(self):
        masks = enumerate_partition(periodic(2, 4, 0.5)).masks
        assert np.all(np.diff(masks) > 0)

    def test_largest_lattices_pinned(self):
        # 4x4 fixed and the 2x6 torus each have 24 free edges, the bound
        result = enumerate_partition(fixed(4, 4, 0.41))
        assert len(result.masks) == 64
        assert np.all(np.diff(result.masks) > 0)
        kast = dimer.kasteleyn_orientation(
            dimer.build_decorated(fixed(4, 4, 0.41)))
        assert result.z == pytest.approx(
            math.exp(dimer.partition_dimer(kast)), rel=1e-12)

        result = enumerate_partition(periodic(2, 6, -0.2))
        assert len(result.masks) == 858
        assert np.all(np.diff(result.masks) > 0)
        assert result.z == pytest.approx(
            transfer_partition(periodic(2, 6, -0.2)), rel=1e-12)

    @given(shape=st.sampled_from([(r, c) for r in (2, 4, 6) for c in (2, 4, 6)
                                  if 2 * r * c <= ENUMERATION_EDGE_BOUND]),
           beta_s=st.floats(-1.5, 1.5),
           u=st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_matches_transfer_on_even_tori(self, shape, beta_s, u):
        params = periodic(*shape, beta_s, u)
        assert enumerate_partition(params).z == pytest.approx(
            transfer_partition(params), rel=1e-12)

    @given(st.integers(0, 113))
    @settings(max_examples=30, deadline=None)
    def test_masks_sorted_and_distinct(self, i):
        masks = enumerate_partition(periodic(2, 4, 0.5)).masks
        if i + 1 < len(masks):
            assert masks[i] < masks[i + 1]


class TestArrowConfig:
    def test_double_reversal_is_identity(self):
        params = periodic(2, 2)
        gs = ground_state_config(params)
        back = reversed_config(reversed_config(gs))
        assert np.array_equal(back[0], gs[0]) and np.array_equal(back[1], gs[1])

    def test_line_parity_even(self):
        # ice rule means the line set mask ^ ground enters and leaves each
        # vertex in pairs
        params = periodic(2, 4, 0.5)
        result = enumerate_partition(params)
        ground = ground_state_mask(params)
        for mask in result.masks[:40]:
            # on a torus every arrow is free, so this decodes the line set
            h, v = config_from_mask(params, int(mask) ^ ground)
            for r in range(2):
                for c in range(4):
                    lines = int(h[r, c]) + h[r, c + 1] + v[r, c] + v[r + 1, c]
                    assert lines % 2 == 0


#: fields of the dense-spectrum checks; at +-40 an unscaled norm overflows
DENSE_BETAS = [40.0, -40.0, 5.0, -5.0, -0.7, 0.0, 0.05, 0.3, 0.45, 1.0]


class TestTransferMatrix:
    def test_matches_enumeration(self):
        params = periodic(2, 4, 0.5)
        z_direct = enumerate_partition(params).z
        z = transfer_partition(params)
        assert type(z) is float     # not np.float64, as annotated
        assert z == pytest.approx(z_direct, rel=1e-12)

    def test_free_energy_frozen(self):
        f = transfer_matrix_free_energy(periodic(6, 6, 0.5)).free_energy
        assert f == pytest.approx(0.5334268968760706, rel=1e-12)

    def test_gap_positive(self):
        res = transfer_matrix_free_energy(periodic(6, 6, 0.5))
        assert res.gap > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta_s", [50.0, -50.0])
    def test_scaled_trace_matches_enumeration_near_overflow(self, beta_s):
        # Z ~ e^600, near the largest double, e^709.8
        params = periodic(2, 6, beta_s)
        assert transfer_partition(params) == pytest.approx(
            math.exp(enumerate_partition(params).log_z), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta_s", [60.0, -60.0, 400.0, 1500.0])
    def test_overflowing_z_raises_without_warning(self, beta_s):
        with pytest.raises(FieldOverflow):
            transfer_partition(periodic(2, 6, beta_s))

    def test_field_reversal_symmetry(self):
        # Z(beta_s) = Z(-beta_s) on a torus (reverse all arrows)
        za = transfer_partition(periodic(2, 4, 0.5))
        zb = transfer_partition(periodic(2, 4, -0.5))
        assert za == pytest.approx(zb, rel=1e-12)

    @staticmethod
    def assert_matches_dense(params):
        res = transfer_matrix_free_energy(params)
        f, gap = dense_transfer(params)
        assert abs(res.free_energy - f) <= 1e-14
        assert abs(res.gap - gap) <= 1e-12

    @pytest.mark.parametrize("rows", [2, 4, 6, 8])
    @pytest.mark.parametrize("beta_s", DENSE_BETAS)
    def test_matches_dense_spectrum(self, rows, beta_s):
        self.assert_matches_dense(periodic(rows, rows, beta_s))

    @pytest.mark.parametrize("rows", [2, 4, 6, 8])
    @pytest.mark.parametrize("beta_s", DENSE_BETAS)
    @pytest.mark.parametrize("u", [0.01, -0.01, 0.2 - FREE_FERMION_BETA_EPS])
    def test_matches_dense_spectrum_off_the_free_fermion_point(
            self, rows, beta_s, u):
        self.assert_matches_dense(periodic(rows, rows, beta_s, u))

    @pytest.mark.parametrize("rows", range(2, 17))
    def test_column_kernel_is_the_einsum_within_rounding(self, rows):
        # a path's weight is a product of `rows` factors, and each output
        # sums the products of its paths: the a-priori bound on the
        # rounding of either kernel is (rows + 2) eps |C| |psi|, |C| |psi|
        # being the einsum on |psi|; from 13 rows on, one field pair keeps
        # the einsum's time down
        rng = np.random.default_rng(rows)
        pairs = [(beta_s, beta_eps) for beta_s in (-0.7, 0.0, 0.3, 0.9)
                 for beta_eps in (FREE_FERMION_BETA_EPS, 0.1, 0.9)]
        for beta_s, beta_eps in pairs if rows <= 12 else [(-0.7, 0.9)]:
            params = ModelParams(beta_s=beta_s, rows=rows, cols=2,
                                 beta_eps=beta_eps)
            column = model._column_weights(params, 0.0)
            tensors = column_tensors(params)
            psi = rng.standard_normal(1 << rows)
            # the parity-1 column is R C0 R, R the reversal of psi
            for parity, got in (
                    (0, model._apply_column(psi, column)),
                    (1, model._apply_column(psi[::-1], column)[::-1])):
                want = apply_column(psi, parity, *tensors, rows)
                scale = apply_column(np.abs(psi), parity, *tensors, rows)
                assert np.all(np.abs(got - want)
                              <= (rows + 2) * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("rows", range(2, 11))
    @pytest.mark.parametrize("beta_s", [-0.7, 0.0, 0.3, 5.0])
    def test_reversed_column_is_symmetric(self, rows, beta_s):
        # R C0 R = C0^T bitwise, R the reversal of the interface: the
        # identity that makes A = R C0 symmetric and the two-column
        # operator A^2
        eye = np.eye(1 << rows)
        for beta_eps in (FREE_FERMION_BETA_EPS, 0.1, 0.9):
            params = ModelParams(beta_s=beta_s, rows=rows, cols=2,
                                 beta_eps=beta_eps)
            column = model._column_weights(params, 0.0)
            a = np.column_stack([model._apply_column(col, column)[::-1]
                                  for col in eye])
            assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("beta_s,steps", [
        (0.3, [5, 7, 10, 11, 12, 13, 14]),
        (0.8, [5, 7, 8, 9, 10, 10, 10])])
    def test_lanczos_step_counts(self, beta_s, steps):
        assert [transfer_matrix_free_energy(periodic(n, n, beta_s)).steps
                for n in range(4, 17, 2)] == steps

    @pytest.mark.parametrize("beta_s", [0.3, 0.8])
    def test_width_14_is_closer_to_f0_than_width_12(self, beta_s):
        f0 = baxter_free_energy(beta_s)
        res = transfer_matrix_free_energy(periodic(14, 14, beta_s))
        f12 = transfer_matrix_free_energy(periodic(12, 12, beta_s)).free_energy
        assert abs(res.free_energy - f0) < abs(f12 - f0)
        assert 0.0 < res.gap < 1.0

    def test_rows_above_16_are_rejected(self):
        with pytest.raises(ValueError, match="<= 16"):
            transfer_matrix_free_energy(periodic(18, 18))
