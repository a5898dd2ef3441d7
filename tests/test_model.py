"""Six-vertex model definition, enumeration, and transfer-matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    apply_column,
    column_tensors,
    config_from_mask,
    dense_transfer,
    ground_state_config,
    reduced_hamiltonian,
    reversed_config,
    vertex_state,
)

from vertex_expand import dimer, model
from vertex_expand.errors import BadInput, TooLarge
from vertex_expand.integrals import baxter_free_energy
from vertex_expand.model import (
    ENUMERATION_EDGE_BOUND,
    FREE_FERMION_BETA_EPS,
    PATTERN_TO_STATE,
    STATE_BITS,
    Boundary,
    ModelParams,
    Sublattice,
    enumerate_partition,
    ground_state_mask,
    sublattice,
    transfer_matrix_free_energy,
    transfer_partition,
    vertex_energy,
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
        for sub in Sublattice:
            assert vertex_energy(1, sub, p) - FREE_FERMION_BETA_EPS == (
                pytest.approx(0.1))
            assert vertex_energy(5, sub, p) == vertex_energy(5, sub, fixed(2, 2))

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            fixed(0, 2)


class TestEnergies:
    def test_symmetric_states_cost_eps(self):
        p = fixed(2, 2)
        for state in (1, 2, 3, 4):
            for sub in Sublattice:
                assert vertex_energy(state, sub, p) == p.beta_eps

    def test_staggered_states(self):
        p = fixed(2, 2, beta_s=0.7)
        assert vertex_energy(5, Sublattice.A, p) == pytest.approx(0.7)
        assert vertex_energy(5, Sublattice.B, p) == pytest.approx(-0.7)
        assert vertex_energy(6, Sublattice.A, p) == pytest.approx(-0.7)
        assert vertex_energy(6, Sublattice.B, p) == pytest.approx(0.7)

    def test_sublattice_checkerboard(self):
        assert sublattice(0, 0) is Sublattice.A
        assert sublattice(0, 1) is Sublattice.B
        assert sublattice(1, 0) is Sublattice.B
        assert sublattice(2, 2) is Sublattice.A


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
                state = vertex_state(gs, r, c)
                expected = 6 if sublattice(r, c) is Sublattice.A else 5
                assert state == expected

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
        with pytest.raises(TooLarge):
            enumerate_partition(periodic(4, 4))

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
        assert transfer_partition(params) == pytest.approx(z_direct, rel=1e-12)

    def test_free_energy_frozen(self):
        f = transfer_matrix_free_energy(periodic(6, 6, 0.5)).free_energy
        assert f == pytest.approx(0.5334268968760706, rel=1e-12)

    def test_gap_positive(self):
        res = transfer_matrix_free_energy(periodic(6, 6, 0.5))
        assert res.gap > 0.0

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

    @pytest.mark.parametrize("rows", range(2, 13))
    def test_column_kernel_is_bitwise_the_einsum(self, rows):
        # every output sums at most two nonzero products, as the einsum does
        rng = np.random.default_rng(rows)
        for beta_s in (-0.7, 0.0, 0.3, 0.9):
            for beta_eps in (FREE_FERMION_BETA_EPS, 0.1, 0.9):
                params = ModelParams(beta_s=beta_s, rows=rows, cols=2,
                                     beta_eps=beta_eps)
                weights = model._column_weights(params)
                tensors = column_tensors(params)
                psi = rng.standard_normal(1 << rows)
                for parity in (0, 1):
                    assert np.array_equal(
                        model._apply_column(psi, parity, *weights, rows),
                        apply_column(psi, parity, *tensors, rows))

    @pytest.mark.parametrize("rows", range(2, 11))
    @pytest.mark.parametrize("beta_s", [-0.7, 0.0, 0.3, 5.0])
    def test_second_column_is_the_transpose_of_the_first(self, rows, beta_s):
        # the identity that makes the two-column operator symmetric
        eye = np.eye(1 << rows)
        for beta_eps in (FREE_FERMION_BETA_EPS, 0.1, 0.9):
            params = ModelParams(beta_s=beta_s, rows=rows, cols=2,
                                 beta_eps=beta_eps)
            wa, wb = model._column_weights(params)
            first, second = (
                np.column_stack([model._apply_column(col, parity, wa, wb, rows)
                                 for col in eye])
                for parity in (0, 1))
            assert np.array_equal(second, first.T)

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
