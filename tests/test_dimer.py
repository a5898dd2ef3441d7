"""Dimer representation, Kasteleyn orientation, and constrained sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from references import (config_from_mask, decorated_edges, free_edges,
                        ground_state_config, odd_clockwise, pinned_matchings,
                        planar_faces)
from vertex_expand import dimer
from vertex_expand.dimer import (
    MATCHING_NODE_BOUND,
    EdgeConstraint,
    KasteleynMatrix,
    build_decorated,
    constrained_ratio,
    enumerate_matchings,
    kasteleyn_orientation,
    partition_dimer,
    vertex_constrained_ratio,
)
from vertex_expand.errors import BadInput, FieldOverflow
from vertex_expand.integrals import za_ratio, zb_ratio
from vertex_expand.model import (
    ENUMERATION_EDGE_BOUND,
    FREE_FERMION_BETA_EPS,
    STATE_BITS,
    Boundary,
    ModelParams,
    enumerate_partition,
    ground_state_mask,
)


MAX_CITIES = MATCHING_NODE_BOUND // 4  # four nodes per city

#: every fixed lattice the matching oracle takes
SMALL_SHAPES = [(rows, cols) for rows in range(1, MAX_CITIES + 1)
                for cols in range(1, MAX_CITIES // rows + 1)]


def params_for(rows, cols, beta_s=0.3):
    return ModelParams(beta_s=beta_s, rows=rows, cols=cols)


def dense_k(kast):
    """The anti-symmetric K of the orientation, from the lattice's edge
    arrays and the signs alone."""
    lat = kast.lattice
    k = np.zeros((lat.n_nodes, lat.n_nodes))
    k[lat.i, lat.j] = kast.signs * np.exp(lat.log_weight)
    k[lat.j, lat.i] = -kast.signs * np.exp(lat.log_weight)
    return k


@pytest.fixture(scope="module")
def kast22():
    return kasteleyn_orientation(build_decorated(params_for(2, 2)))


class TestDecoration:
    def test_requires_free_fermion_point(self):
        params = ModelParams(beta_s=0.3, rows=2, cols=2,
                             beta_eps=FREE_FERMION_BETA_EPS + 0.1)
        with pytest.raises(BadInput, match="off the solvable point"):
            build_decorated(params)

    def test_requires_fixed_boundary(self):
        params = ModelParams(beta_s=0.3, rows=2, cols=2,
                             boundary=Boundary.PERIODIC)
        with pytest.raises(ValueError):
            build_decorated(params)

    def test_counts(self):
        lat = build_decorated(params_for(2, 3))
        assert lat.n_nodes == 24
        # 4 internal per city + horizontal + vertical externals
        assert len(lat.i) == 24 + 2 * 2 + 3

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 4),
                                           (8, 8)])
    @pytest.mark.parametrize("beta_s", [-0.5, 0.0, 0.3])
    def test_arrays_match_loop_reference(self, rows, cols, beta_s):
        params = params_for(rows, cols, beta_s)
        lat = build_decorated(params)
        i, j, log_weight = decorated_edges(params)
        assert lat.i.dtype == lat.j.dtype == np.int64
        assert np.array_equal(lat.i, i)
        assert np.array_equal(lat.j, j)
        assert np.array_equal(lat.log_weight, log_weight)
        assert not (lat.i.flags.writeable or lat.j.flags.writeable
                    or lat.log_weight.flags.writeable)
        # a lattice equals only itself, so one at another field never does
        assert lat == lat
        assert lat != build_decorated(params_for(rows, cols, beta_s + 1.0))

    @pytest.mark.parametrize("kind,row,col", [
        ("h", 3, 0), ("h", -1, 0), ("h", 0, 2), ("h", 0, -1),
        ("v", 0, 3), ("v", 0, -1), ("v", 2, 0), ("v", -1, 0)])
    def test_external_index_out_of_range(self, kind, row, col):
        # each coordinate is checked: an unchecked one reads another edge
        lat = build_decorated(params_for(3, 3))
        with pytest.raises(BadInput, match="no external edge"):
            (lat.external_h if kind == "h" else lat.external_v)(row, col)

    def test_empty_city_weight(self):
        # a lone city has two diamond matchings of weight u^2 each, so
        # Z = 2 u^2 = exp(beta_s), the weight of the pinned ground state
        lat = build_decorated(params_for(1, 1, beta_s=0.4))
        assert enumerate_matchings(lat) == pytest.approx(
            math.exp(0.4), rel=1e-13)


class TestKasteleyn:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("beta_s", [-0.5, 0.0, 0.3])
    def test_pfaffian_counts_matchings(self, rows, cols, beta_s):
        lat = build_decorated(params_for(rows, cols, beta_s))
        kast = kasteleyn_orientation(lat)
        z_pf = math.exp(partition_dimer(kast))
        z_direct = enumerate_matchings(lat)
        assert z_pf == pytest.approx(z_direct, rel=1e-12)

    def test_log_partition_frozen(self, kast22):
        assert partition_dimer(kast22) == pytest.approx(
            1.27259834672205, rel=1e-13)

    def test_sign_rule_pinned(self):
        # every edge runs i -> j except each city's internal edge 3 (L -> B)
        lat = build_decorated(params_for(3, 4))
        signs = kasteleyn_orientation(lat).signs
        assert signs.tolist() == [
            -1 if e in {4 * (r * 4 + c) + 3
                        for r in range(3) for c in range(4)} else 1
            for e in range(len(lat.i))]

    def test_closed_form_odd_on_traced_faces(self):
        # the only check of the sign rule: nothing re-checks it at run time
        shapes = [(rows, cols) for rows in range(1, 9) for cols in range(1, 9)]
        for rows, cols in shapes + [(1, 16), (16, 1), (12, 12), (24, 24)]:
            lat = build_decorated(params_for(rows, cols))
            faces = planar_faces(lat)
            # rows*cols diamonds and (rows-1)(cols-1) octagons
            assert len(faces) == rows * cols + (rows - 1) * (cols - 1)
            assert odd_clockwise(kasteleyn_orientation(lat).signs, faces)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
    def test_gauge_flips_keep_log_z(self, rows, cols, data):
        # reversing every edge at a node keeps each face's parity and
        # leaves log Z unchanged
        lat = build_decorated(params_for(rows, cols))
        kast = kasteleyn_orientation(lat)
        nodes = data.draw(st.lists(st.integers(0, lat.n_nodes - 1),
                                   min_size=1, max_size=8))
        signs = kast.signs.copy()
        for node in nodes:
            touches = (lat.i == node) | (lat.j == node)
            signs[touches] = -signs[touches]
        gauged = KasteleynMatrix(lat, signs)
        assert partition_dimer(gauged) == pytest.approx(
            partition_dimer(kast), abs=1e-12)

    def test_b_is_the_black_white_block_of_k(self, kast22):
        # L and R are black in the cities with row + col even, T and B in
        # the others; no edge joins two nodes of one colour, so
        # det K = (det B)^2 for B = K[black, white], and Z = |det B|
        lat = kast22.lattice
        k = dense_k(kast22)
        node = np.arange(lat.n_nodes)
        row, col = divmod(node // 4, lat.cols)
        black = node % 2 == (row + col) % 2
        assert not k[np.ix_(black, black)].any()
        assert not k[np.ix_(~black, ~black)].any()
        b = k[np.ix_(black, ~black)]
        assert np.linalg.det(k) == pytest.approx(np.linalg.det(b) ** 2,
                                                 rel=1e-12)
        assert partition_dimer(kast22) == pytest.approx(
            math.log(abs(np.linalg.det(b))), rel=1e-13)

    def test_matching_enumeration_bound(self):
        with pytest.raises(BadInput, match="64 nodes exceeds 36"):
            enumerate_matchings(build_decorated(params_for(4, 4)))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.integers(1, MAX_CITIES).flatmap(lambda rows: st.tuples(
               st.just(rows), st.integers(1, MAX_CITIES // rows))),
           beta_s=st.floats(-1.0, 1.0))
    @example(shape=(1, MAX_CITIES), beta_s=0.3)
    def test_pfaffian_vs_matchings_random_shapes(self, shape, beta_s):
        lat = build_decorated(params_for(*shape, beta_s))
        assert partition_dimer(kasteleyn_orientation(lat)) == pytest.approx(
            math.log(enumerate_matchings(lat)), abs=1e-12)


class TestMappingEquivalence:
    @pytest.mark.parametrize("rows,cols", SMALL_SHAPES)
    @pytest.mark.parametrize("beta_s", [-0.7, 0.0, 0.3])
    def test_per_configuration_weights(self, rows, cols, beta_s):
        params = params_for(rows, cols, beta_s)
        lat = build_decorated(params)
        result = enumerate_partition(params)
        ground = ground_state_mask(params)
        for mask, weight in zip(result.masks, result.weights):
            assert pinned_matchings(lat, int(mask) ^ ground) == pytest.approx(
                weight, rel=1e-13)

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (2, 3), (3, 3),
                                           (4, 4), (2, 5)])
    def test_mask_bit_is_external_edge(self, rows, cols):
        # flipping free bit b of the ground mask reverses one arrow, and it
        # sits on external edge 4 rows cols + b
        params = params_for(rows, cols)
        lat = build_decorated(params)
        ground, gs = ground_state_mask(params), ground_state_config(params)
        assert len(free_edges(params)) == len(lat.i) - 4 * rows * cols
        for b in range(len(lat.i) - 4 * rows * cols):
            h, v = config_from_mask(params, ground ^ 1 << b)
            flipped = ([("h", r, c) for r, c in zip(*np.nonzero(h != gs[0]))]
                       + [("v", r, c) for r, c in zip(*np.nonzero(v != gs[1]))])
            assert len(flipped) == 1
            kind, r, c = flipped[0]
            edge = (lat.external_h(r, c - 1) if kind == "h"
                    else lat.external_v(r - 1, c))
            assert edge == 4 * rows * cols + b

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (1, 4)])
    def test_single_flip_weighs_zero(self, rows, cols):
        # one reversed arrow breaks the ice rule at both of its vertices
        params = params_for(rows, cols)
        lat = build_decorated(params)
        ground = ground_state_mask(params)
        n_free = len(lat.i) - 4 * rows * cols
        for mask in enumerate_partition(params).masks:
            for b in range(n_free):
                assert pinned_matchings(lat, int(mask) ^ ground ^ 1 << b) == 0.0

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3)])
    def test_partition_functions_agree(self, rows, cols):
        params = params_for(rows, cols)
        z_vertex = enumerate_partition(params).z
        kast = kasteleyn_orientation(build_decorated(params))
        assert math.exp(partition_dimer(kast)) == pytest.approx(
            z_vertex, rel=1e-13)


class TestConstrained:
    def test_single_edge_frozen(self, kast22):
        assert constrained_ratio(
            kast22, [EdgeConstraint(0, True)]) == pytest.approx(
                0.535012858879755, rel=1e-13)

    def test_occupied_plus_empty_is_total(self, kast22):
        k = dense_k(kast22)
        k_inv = np.linalg.inv(k)
        for edge in (0, 7, 16):
            occ = constrained_ratio(kast22, [EdgeConstraint(edge, True)])
            emp = constrained_ratio(kast22, [EdgeConstraint(edge, False)])
            assert occ + emp == pytest.approx(1.0, rel=1e-12)
            # one edge's occupation is K(i,j) K^-1(j,i), here from a dense inverse
            i, j = kast22.lattice.i[edge], kast22.lattice.j[edge]
            assert occ == pytest.approx(k[i, j] * k_inv[j, i], rel=1e-12)

    def test_against_direct_enumeration(self, kast22):
        lat = build_decorated(params_for(2, 2))
        z0 = enumerate_matchings(lat)
        edges = [0, 5, 16, 18]
        for r in (1, 2):
            for combo in itertools.combinations(edges, r):
                for occ in itertools.product((True, False), repeat=r):
                    cons = [EdgeConstraint(e, o)
                            for e, o in zip(combo, occ)]
                    direct = enumerate_matchings(
                        lat,
                        tuple(e for e, o in zip(combo, occ) if o),
                        tuple(e for e, o in zip(combo, occ) if not o)) / z0
                    assert constrained_ratio(kast22, cons) == pytest.approx(
                        direct, abs=1e-11)

    def test_five_edge_pattern(self, kast22):
        lat = build_decorated(params_for(2, 2))
        z0 = enumerate_matchings(lat)
        cons = ([EdgeConstraint(e, True) for e in (0, 5)]
                + [EdgeConstraint(e, False) for e in (16, 17, 18)])
        direct = enumerate_matchings(lat, (0, 5), (16, 17, 18)) / z0
        assert constrained_ratio(kast22, cons) == pytest.approx(
            direct, abs=1e-11)

    def test_conflicting_constraints(self, kast22):
        with pytest.raises(BadInput, match="edge 0 constrained twice"):
            constrained_ratio(kast22, [EdgeConstraint(0, True),
                                       EdgeConstraint(0, False)])

    def test_too_many_constraints(self, kast22):
        cons = [EdgeConstraint(e, True) for e in range(6)]
        with pytest.raises(BadInput, match="at most 5 simultaneous"):
            constrained_ratio(kast22, cons)

    def test_neighbours_in_closed_form(self):
        for rows, cols in [(1, 1), (1, 3), (3, 1), (3, 4)]:
            lat = build_decorated(params_for(rows, cols))
            ends = list(zip(lat.i.tolist(), lat.j.tolist()))
            for node in range(lat.n_nodes):
                assert sorted(dimer._neighbours(lat, node)) == sorted(
                    [j for i, j in ends if i == node]
                    + [i for i, j in ends if j == node])

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("beta_s", [-3.0, 0.0, 3.0])
    def test_every_one_or_two_edge_set(self, rows, cols, beta_s):
        # a set no matching satisfies is exactly 0, never a rounding residue
        lat = build_decorated(params_for(rows, cols, beta_s))
        kast = kasteleyn_orientation(lat)
        z0 = enumerate_matchings(lat)
        for r in (1, 2):
            for combo in itertools.combinations(range(len(lat.i)), r):
                for occ in itertools.product((True, False), repeat=r):
                    direct = enumerate_matchings(
                        lat, tuple(e for e, o in zip(combo, occ) if o),
                        tuple(e for e, o in zip(combo, occ) if not o)) / z0
                    cons = [EdgeConstraint(e, o) for e, o in zip(combo, occ)]
                    ratio = constrained_ratio(kast, cons)
                    if direct == 0.0:
                        assert ratio == 0.0, (combo, occ)
                    else:
                        assert ratio == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("edge", [-1, 20, 9999])
    def test_edge_index_out_of_range(self, kast22, edge):
        # 2x2 has 20 edges; a negative index must not wrap to the last one
        with pytest.raises(BadInput, match=r"outside \[0, 20\)"):
            constrained_ratio(kast22, [EdgeConstraint(edge, True)])

    @pytest.mark.parametrize("beta_s", [-0.7, 0.0, 0.3, 1.1])
    def test_cancelling_terms_are_exactly_zero(self, beta_s):
        # 3x3 corner city 0: node L has only edges 0 (L-T) and 3 (B-L), so
        # 1 - P(0) - P(3) cancels; a lone city's L-T dimer forces R-B
        kast = kasteleyn_orientation(build_decorated(params_for(3, 3, beta_s)))
        assert constrained_ratio(kast, [EdgeConstraint(0, False),
                                        EdgeConstraint(3, False)]) == 0.0
        kast = kasteleyn_orientation(build_decorated(params_for(1, 1, beta_s)))
        assert constrained_ratio(kast, [EdgeConstraint(0, True),
                                        EdgeConstraint(2, False)]) == 0.0

    @pytest.mark.parametrize("beta_s", [2.0, 3.0])
    def test_small_ratio_from_cancelling_terms_is_kept(self, beta_s):
        # the centre city of 3x3 with all four internal edges empty: 16
        # terms of order 1 sum to about 3e-8 (beta_s = 2) or 1e-11 (3)
        lat = build_decorated(params_for(3, 3, beta_s))
        cons = [EdgeConstraint(e, False) for e in range(16, 20)]
        direct = (enumerate_matchings(lat, (), tuple(range(16, 20)))
                  / enumerate_matchings(lat))
        assert constrained_ratio(kasteleyn_orientation(lat), cons) == (
            pytest.approx(direct, rel=1e-4))

    def test_node_sharing_edges_exactly_zero(self, kast22):
        # internal edges 0 (L-T) and 1 (T-R) of city 0 share node T
        both = [EdgeConstraint(0, True), EdgeConstraint(1, True)]
        assert constrained_ratio(kast22, both) == 0.0
        assert constrained_ratio(
            kast22, [EdgeConstraint(0, True), EdgeConstraint(1, False)]
        ) == pytest.approx(constrained_ratio(kast22, [EdgeConstraint(0, True)]),
                           rel=1e-14)
        # edges 12 and 17 share node 12; the Pfaffian of this block alone
        # rounds to about 1e-18, not to 0
        four = [EdgeConstraint(e, True) for e in (12, 1, 5, 17)]
        assert constrained_ratio(kast22, four) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([2, 3]), data=st.data(),
           beta_s=st.floats(-1.0, 1.0))
    def test_random_patterns_against_enumeration(self, size, data, beta_s):
        lat = build_decorated(params_for(size, size, beta_s))
        edges = data.draw(st.lists(st.integers(0, len(lat.i) - 1),
                                   min_size=1, max_size=5, unique=True))
        occupied = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                      max_size=len(edges)))
        cons = [EdgeConstraint(e, o) for e, o in zip(edges, occupied)]
        direct = enumerate_matchings(
            lat, tuple(e for e, o in zip(edges, occupied) if o),
            tuple(e for e, o in zip(edges, occupied) if not o))
        ratio = constrained_ratio(kasteleyn_orientation(lat), cons)
        assert ratio == pytest.approx(direct / enumerate_matchings(lat),
                                      abs=1e-12)


@pytest.fixture(scope="module")
def kast33():
    return kasteleyn_orientation(build_decorated(params_for(3, 3)))


#: every fixed lattice the enumeration takes
ENUMERABLE_SHAPES = [(rows, cols) for rows in range(1, 26)
                     for cols in range(1, 26)
                     if rows * (cols - 1) + (rows - 1) * cols
                     <= ENUMERATION_EDGE_BOUND]

#: fields from the edge of the weights' range (C or u near DBL_MAX) to the
#: all-diamond point beta_s = ln(2)/2 = 0.3466
GRID_FIELDS = [1418.0, -1418.0, -1000.0, 700.0, -700.0, -480.0, 400.0,
               -400.0, 50.0, -50.0, 3.0, -3.0, 1.0, -1.0, -0.7, 0.0, 0.3,
               0.35]


class TestScaledDeterminant:
    """B scaled by the integer matching duals: log Z and ratios at any
    field the weights allow."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 16), cols=st.integers(1, 16))
    @example(rows=15, cols=16)
    @example(rows=1, cols=16)
    def test_scaled_entries_hold_a_unit_matching(self, rows, cols):
        # Delta = ln(C/u) > 0 at both fields, so the duals are the
        # matching's, and they do not depend on the field
        kasts = [kasteleyn_orientation(build_decorated(
            params_for(rows, cols, beta_s))) for beta_s in (-0.1, -400.0)]
        for kast in kasts:
            b = kast.scaled.tocoo()
            assert np.abs(b.data).max() <= 1.0
            unit = np.abs(b.data) == 1.0
            pattern = csr_matrix((np.ones(unit.sum()),
                                  (b.row[unit], b.col[unit])), shape=b.shape)
            mate = maximum_bipartite_matching(pattern, perm_type="column")
            assert (mate >= 0).all()
        for k_low, k_high in zip(kasts[0].duals, kasts[1].duals):
            assert np.array_equal(k_low, k_high)

    @pytest.mark.parametrize("rows,cols", ENUMERABLE_SHAPES)
    def test_log_z_against_enumeration(self, rows, cols):
        for beta_s in GRID_FIELDS:
            params = params_for(rows, cols, beta_s)
            want = enumerate_partition(params).log_z
            got = partition_dimer(kasteleyn_orientation(build_decorated(params)))
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), beta_s

    def test_matching_sum_at_a_frozen_field(self):
        # 3x3 at beta_s = -400: the sum stays in log space until the end,
        # so no partial product of e^(+-200) weights underflows
        params = params_for(3, 3, -400.0)
        lat = build_decorated(params)
        z = enumerate_matchings(lat)
        assert math.log(z) == pytest.approx(-401.3862943611198, abs=1e-12)
        assert math.log(z) == pytest.approx(enumerate_partition(params).log_z,
                                            abs=1e-12)
        assert enumerate_matchings(lat, (), (40,)) / z == pytest.approx(
            0.5, rel=1e-12)

    @pytest.mark.parametrize("beta_s", [400.0, -750.0])
    def test_matching_sum_out_of_range_raises(self, beta_s):
        # 2x2 at 400: Z = e^1600; 1x1 at -750: Z = e^-750
        size = 2 if beta_s > 0 else 1
        lat = build_decorated(params_for(size, size, beta_s))
        with pytest.raises(FieldOverflow):
            enumerate_matchings(lat)

    @pytest.mark.parametrize("beta_s", [-300.0, -400.0])
    @pytest.mark.parametrize("edge", [40, 31])
    def test_frozen_ratio_against_matchings(self, edge, beta_s):
        lat = build_decorated(params_for(3, 3, beta_s))
        ratio = constrained_ratio(kasteleyn_orientation(lat),
                                  [EdgeConstraint(edge, False)])
        direct = enumerate_matchings(lat, (), (edge,)) / enumerate_matchings(lat)
        assert ratio == pytest.approx(0.5, rel=1e-12)
        assert ratio == pytest.approx(direct, rel=1e-12)


class TestVertexStates:
    def test_probabilities_sum_to_one(self, kast33):
        total = sum(vertex_constrained_ratio(kast33, (1, 1), s)
                    for s in range(1, 7))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_dominates(self, kast33):
        # site (1,1) sits on sublattice A where state 6 is the reference
        probs = {s: vertex_constrained_ratio(kast33, (1, 1), s)
                 for s in range(1, 7)}
        assert probs[6] == max(probs.values())
        assert probs[5] == min(probs.values())

    def test_boundary_site_rejected(self, kast33):
        with pytest.raises(ValueError):
            vertex_constrained_ratio(kast33, (0, 0), 6)

    def test_six_states_share_one_solve(self, monkeypatch):
        kast = kasteleyn_orientation(build_decorated(params_for(4, 4)))
        lu, solves, dets = kast._lu, [], []
        det = np.linalg.det

        class CountingLU:
            def solve(self, rhs):
                solves.append(rhs.shape[1])
                return lu.solve(rhs)

        def counting_det(a):
            dets.append(a.shape)
            return det(a)

        monkeypatch.setattr(kast, "_lu", CountingLU())
        monkeypatch.setattr(np.linalg, "det", counting_det)
        probs = [vertex_constrained_ratio(kast, (1, 2), s) for s in range(1, 7)]
        # one solve on the four black ends, one determinant per pattern
        assert solves == [4]
        assert dets == [(6, 4, 4)]
        # site (1, 2) is on sublattice B: a line sits on each edge where a
        # state's arrow differs from state 5's
        edges = dimer.incident_external_edges(kast.lattice, (1, 2))
        lines = tuple(
            tuple(b != r for b, r in zip(STATE_BITS[s], STATE_BITS[5]))
            for s in range(1, 7))
        kept = kast.ratios(edges, lines)
        assert kept == tuple(probs) and solves == [4]
        with pytest.raises(TypeError):
            kept[0] = 0.0  # the kept result is read-only
        # another edge set, even a subset of the last, is a new solve
        constrained_ratio(kast, [EdgeConstraint(edges[0], False)])
        assert solves == [4, 1]
        assert dets == [(6, 4, 4), (1, 1, 1)]
        fresh = kasteleyn_orientation(build_decorated(params_for(4, 4)))
        assert probs == [vertex_constrained_ratio(fresh, (1, 2), s)
                         for s in range(1, 7)]

    def test_kept_ratios_follow_their_arguments(self, kast33):
        # every pattern of three edges against the matching sums, and the
        # same edges in another order give the same ratios
        lat = kast33.lattice
        z0 = enumerate_matchings(lat)
        edges = (5, 9, 20)
        patterns = tuple(itertools.product((True, False), repeat=3))
        first = kast33.ratios(edges, patterns)
        for pattern, ratio in zip(patterns, first):
            direct = enumerate_matchings(
                lat, tuple(e for e, o in zip(edges, pattern) if o),
                tuple(e for e, o in zip(edges, pattern) if not o)) / z0
            assert ratio == pytest.approx(direct, abs=1e-13)
        other = kast33.ratios(edges[::-1], tuple(p[::-1] for p in patterns))
        assert other == pytest.approx(first, rel=1e-14, abs=1e-15)
        assert kast33.ratios(edges, patterns) == first

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(3, 16), cols=st.integers(3, 16), data=st.data(),
           beta_s=st.floats(-1.0, 1.0))
    def test_probabilities_sum_to_one_random_sites(self, rows, cols, data,
                                                   beta_s):
        site = (data.draw(st.integers(1, rows - 2)),
                data.draw(st.integers(1, cols - 2)))
        kast = kasteleyn_orientation(
            build_decorated(params_for(rows, cols, beta_s)))
        total = sum(vertex_constrained_ratio(kast, site, s)
                    for s in range(1, 7))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestInfiniteLatticeLimit:
    """Centre-site state probabilities converge to the infinite-lattice
    Za/Z0 (state 6) and Zb/Z0 (state 5); the centre of an even L x L
    lattice is on sublattice A, where state 6 is the reference."""

    @pytest.mark.parametrize("size,tol",
                             [(32, 1e-9), (64, 1e-12), (128, 1e-12)])
    def test_centre_site_matches_integrals(self, size, tol):
        kast = kasteleyn_orientation(
            build_decorated(params_for(size, size, 0.3)))
        site = (size // 2, size // 2)
        probs = {s: vertex_constrained_ratio(kast, site, s)
                 for s in range(1, 7)}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-14)
        assert probs[6] == pytest.approx(za_ratio(0.3), abs=tol)
        assert probs[5] == pytest.approx(zb_ratio(0.3), abs=tol)
