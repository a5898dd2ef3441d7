"""Dimer representation, Kasteleyn orientation, and constrained sums."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from references import (config_from_mask, decorated_edges, free_edges,
                        ground_state_config, mp_constrained_ratios,
                        odd_clockwise, pinned_matchings, planar_faces)
from vertex_expand import dimer
from vertex_expand.dimer import (
    MATCHING_NODE_BOUND,
    RATIO_FLOOR,
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


class TestStrips:
    """A lattice with one row or one column holds one ice configuration,
    the ground state, so log Z = N beta_s and no matching uses an
    external edge."""

    @pytest.mark.parametrize("rows,cols", [(1, 25), (25, 1)])
    def test_one_configuration(self, rows, cols):
        params = params_for(rows, cols)
        result = enumerate_partition(params)
        assert [int(mask) for mask in result.masks] == [
            ground_state_mask(params)]

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
    @pytest.mark.parametrize("beta_s", [-400.0, -3.0, 0.0, 0.3, 0.35, 3.0,
                                        400.0])
    def test_log_z_is_n_beta_s(self, n, beta_s):
        for rows, cols in [(1, n), (n, 1)]:
            kast = kasteleyn_orientation(
                build_decorated(params_for(rows, cols, beta_s)))
            assert partition_dimer(kast) == pytest.approx(n * beta_s,
                                                          rel=1e-12)


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
            assert occ == pytest.approx(k[i, j] * k_inv[j, i], rel=1e-12,
                                        abs=0.0)

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

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("beta_s", [-3.0, 0.0, 3.0])
    def test_every_one_or_two_edge_set(self, rows, cols, beta_s):
        # a set no matching satisfies is exactly 0, never a rounding residue;
        # on 1x1, edges 0 and 2 occupied leave a B' with no nodes
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

    @pytest.mark.parametrize("beta_s,rel", [(2.0, 1e-4), (3.0, 1e-12)])
    def test_small_ratio_from_cancelling_terms_is_kept(self, beta_s, rel):
        # the centre city of 3x3 with all four internal edges empty: 16
        # terms of order 1 sum to about 3e-8 (beta_s = 2), above
        # RATIO_FLOOR, or 1e-11 (3), below it, where the minor answers
        lat = build_decorated(params_for(3, 3, beta_s))
        cons = [EdgeConstraint(e, False) for e in range(16, 20)]
        direct = (enumerate_matchings(lat, (), tuple(range(16, 20)))
                  / enumerate_matchings(lat))
        assert constrained_ratio(kasteleyn_orientation(lat), cons) == (
            pytest.approx(direct, rel=rel, abs=0.0))

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


    @pytest.mark.parametrize("beta_s", [-400.0, -50.0, -10.0, -1.0, 0.0, 0.3,
                                        0.35, 1.0, 3.0, 50.0, 400.0])
    def test_minor_decides_below_the_floor(self, beta_s):
        # every pattern of random 1-5 edge sets on 1x1 ... 3x3: a set no
        # matching satisfies reads exactly 0, a ratio below RATIO_FLOOR is
        # the mpmath determinants' to 1e-12, and one at or above it is the
        # fast determinant's, bit for bit
        rng = np.random.default_rng(26)
        for rows, cols in itertools.product((1, 2, 3), repeat=2):
            lat = build_decorated(params_for(rows, cols, beta_s))
            kast, fast = kasteleyn_orientation(lat), kasteleyn_orientation(lat)
            fast._minor = lambda edges, pattern: math.nan
            for _ in range(60):
                k = int(rng.integers(1, min(5, len(lat.i)) + 1))
                edges = tuple(sorted(rng.choice(len(lat.i), k, replace=False)
                                     .tolist()))
                patterns = tuple(itertools.product((True, False), repeat=k))
                got = kast.ratios(edges, patterns)
                low = []
                for pattern, r, f in zip(patterns, got,
                                         fast.ratios(edges, patterns)):
                    present = tuple(e for e, o in zip(edges, pattern) if o)
                    absent = tuple(e for e, o in zip(edges, pattern) if not o)
                    try:
                        empty = enumerate_matchings(lat, present, absent) == 0.0
                    except FieldOverflow:  # a nonzero sum past a double
                        empty = False
                    where = (rows, cols, edges, pattern)
                    if empty:
                        assert r == 0.0, where
                    elif r < RATIO_FLOOR:
                        low.append((pattern, r))
                    if not math.isnan(f):
                        assert r.hex() == f.hex(), where
                want = mp_constrained_ratios(lat, kast.signs, edges,
                                             [p for p, _ in low])
                for (pattern, r), w in zip(low, want):
                    # both round to 0.0 where the ratio is below e^-745
                    assert abs(r - w) <= 1e-12 * w, (rows, cols, edges,
                                                     pattern)


class TestTinyRatios:
    """Ratios far below the rounding of B^-1's entries, from the minor of
    B, against dense mpmath determinants at 400 digits."""

    @pytest.mark.parametrize("rows,cols,beta_s,site", [
        (4, 6, -50.0, (2, 1)),    # the fast path was 8 % off in states 1, 2
        (4, 6, -10.0, (2, 4)),    # and read state 4 below 0
        (5, 5, 0.3, (2, 2))])
    def test_site_states(self, rows, cols, beta_s, site):
        lat = build_decorated(params_for(rows, cols, beta_s))
        kast = kasteleyn_orientation(lat)
        edges = dimer.incident_external_edges(lat, site)
        patterns = dimer._STATE_LINES[sum(site) % 2]
        want = mp_constrained_ratios(lat, kast.signs, edges, patterns)
        assert kast.ratios(edges, patterns) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rows,cols,beta_s,cons,ratio", [
        (2, 2, -50.0, ((1, False), (11, False)), 1.3838965267367324e-87),
        (3, 3, -50.0, ((0, True), (2, True), (40, False)),
         1.3838965267367324e-87),
        # no matching: only a global count rules it out, not forced moves
        *[(4, 6, beta_s, ((2, False), (29, True), (47, True), (56, False),
                          (113, True)), 0.0) for beta_s in (0.0, -1.0)]])
    def test_edge_sets(self, rows, cols, beta_s, cons, ratio):
        lat = build_decorated(params_for(rows, cols, beta_s))
        kast = kasteleyn_orientation(lat)
        edges, pattern = zip(*cons)
        (want,) = mp_constrained_ratios(lat, kast.signs, edges, [pattern])
        assert want == pytest.approx(ratio, rel=1e-15, abs=0.0)
        got = constrained_ratio(kast, [EdgeConstraint(*c) for c in cons])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta_s", [-400.0, 400.0])
    def test_log_ratio_below_the_smallest_double(self, beta_s):
        # random 1-3 edge sets on 2x2 and 3x3 whose ratio rounds to 0.0: the
        # log is -inf exactly where no matching satisfies the set, and the
        # mpmath determinants' log to 1e-12 elsewhere
        rng = np.random.default_rng(29)
        finite = 0
        for size in (2, 3):
            lat = build_decorated(params_for(size, size, beta_s))
            kast = kasteleyn_orientation(lat)
            for _ in range(40):
                edges = sorted(rng.choice(len(lat.i), rng.integers(1, 4),
                                          replace=False).tolist())
                pattern = tuple(bool(o) for o in rng.random(len(edges)) < 0.5)
                cons = [EdgeConstraint(*c) for c in zip(edges, pattern)]
                if constrained_ratio(kast, cons) > 0.0:
                    continue
                (want,) = mp_constrained_ratios(lat, kast.signs, edges,
                                                [pattern], log=True)
                got = dimer.constrained_log_ratio(kast, cons)
                if want == -math.inf:
                    assert got == -math.inf, (size, edges, pattern)
                else:
                    finite += 1
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert finite > 0
        if beta_s < 0.0:  # a brute-force mpmath sum over the matchings
            kast = kasteleyn_orientation(build_decorated(params_for(2, 2,
                                                                    beta_s)))
            assert dimer.constrained_log_ratio(
                kast, [EdgeConstraint(8, True)]) == pytest.approx(
                    -1599.30685281944006, rel=1e-12, abs=0.0)

    def test_no_site_probability_is_negative(self):
        # every state of every interior site at 16 fields: the minor
        # answers every ratio the fast determinant rounds below the floor
        for rows, cols in [(n, n) for n in range(3, 10)] + [(4, 6)]:
            for beta_s in (-400.0, -50.0, -20.0, -10.0, -3.0, -1.0, -0.3, 0.0,
                           0.3, 0.35, 1.0, 3.0, 10.0, 20.0, 50.0, 400.0):
                kast = kasteleyn_orientation(
                    build_decorated(params_for(rows, cols, beta_s)))
                for site in itertools.product(range(1, rows - 1),
                                              range(1, cols - 1)):
                    probs = [vertex_constrained_ratio(kast, site, s)
                             for s in range(1, 7)]
                    assert min(probs) >= 0.0, (rows, cols, beta_s, site)


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
        # matching's, and they do not depend on the field; B' with edge 0
        # occupied (its city's L-T) and edge 1 empty is scaled by its own
        # duals, at Delta < 0 (beta_s = 400) too
        kasts = [kasteleyn_orientation(build_decorated(
            params_for(rows, cols, beta_s))) for beta_s in (-0.1, -400.0)]
        scaled = [kast.scaled for kast in kasts]
        factor = KasteleynMatrix._factor

        def keep_scaled(*args):
            out = factor(*args)
            scaled.append(out[2])
            return out

        for kast in kasts + [kasteleyn_orientation(build_decorated(
                params_for(rows, cols, 400.0)))]:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(KasteleynMatrix, "_factor", keep_scaled)
                assert kast._minor((0, 1), (True, False)) > 0.0
        for b in (m.tocoo() for m in scaled):
            assert np.abs(b.data).max() <= 1.0
            unit = np.abs(b.data) == 1.0
            pattern = csr_matrix((np.ones(unit.sum()),
                                  (b.row[unit], b.col[unit])), shape=b.shape)
            mate = maximum_bipartite_matching(pattern, perm_type="column")
            assert (mate >= 0).all()
        assert len(scaled) == 5
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


class TestDuals:
    """Every ``_duals`` call that B and its minors make, against the
    definition of the duals and scipy's dense assignment solver."""

    @staticmethod
    def recorded(monkeypatch):
        calls, duals = [], dimer._duals

        def record(black, start, ext):
            calls.append((black, start, ext, duals(black, start, ext)))
            return calls[-1][-1]

        monkeypatch.setattr(dimer, "_duals", record)
        return calls

    @staticmethod
    def check(black, start, ext, duals):
        n = len(start) - 1
        white = np.repeat(np.arange(n), np.diff(start))
        weight = np.full((n, n), -np.inf)
        weight[black, white] = ext
        try:
            mate = linear_sum_assignment(weight, maximize=True)
        except ValueError:  # "cost matrix is infeasible": no perfect matching
            assert duals is None
            return False
        k_black, k_white = duals
        assert k_black.dtype == k_white.dtype == np.int64
        assert (k_black[black] + k_white[white] >= ext).all()
        assert np.array_equal(k_black[mate[0]] + k_white[mate[1]],
                              weight[mate])
        assert k_black.sum() + k_white.sum() == weight[mate].sum()
        return True

    @pytest.mark.parametrize("rows", range(1, 14))
    def test_duals_of_b(self, monkeypatch, rows):
        calls = self.recorded(monkeypatch)
        for cols in range(1, 14):
            kast = kasteleyn_orientation(build_decorated(params_for(rows,
                                                                    cols)))
            assert len(calls) == 1
            assert self.check(*calls[0])
            assert kast.duals is calls.pop()[-1]

    @pytest.mark.parametrize("beta_s", [-3.0, 0.3, 3.0, 400.0])
    def test_duals_of_minors(self, monkeypatch, beta_s):
        # Delta > 0 at -3 and 0.3, where the weights are ext; Delta < 0 at
        # 3 and 400, where they are 1 - ext
        rng = np.random.default_rng(29)
        calls, matched = self.recorded(monkeypatch), []
        for rows, cols in itertools.product(range(1, 5), repeat=2):
            kast = kasteleyn_orientation(build_decorated(
                params_for(rows, cols, beta_s)))
            for _ in range(25):
                k = int(rng.integers(1, min(5, len(kast.signs)) + 1))
                edges = tuple(sorted(rng.choice(len(kast.signs), k,
                                                replace=False).tolist()))
                kast._minor(edges, tuple(rng.random(k) < 0.5))
            matched += [self.check(*call) for call in calls]
            calls.clear()
        # B' with and without a perfect matching
        assert 100 < sum(matched) < len(matched)


class TestDissectionOrder:
    """B's rows and columns are numbered city by city in nested-dissection
    order and factored without a fill-reducing column order."""

    def test_order_is_a_permutation(self):
        for rows, cols in itertools.product(range(1, 65), repeat=2):
            order = dimer._dissection_order(rows, cols)
            assert np.array_equal(np.sort(order), np.arange(rows * cols)), (
                rows, cols)

    @pytest.mark.parametrize("rows", range(1, 14))
    def test_log_z_against_a_colamd_factor(self, rows):
        # the same scaled B, factored with SuperLU's default COLAMD column
        # order and partial pivoting
        for cols in range(1, 14):
            for beta_s in (-1418.0, -400.0, -50.0, -3.0, 0.0, 0.3, 3.0,
                           400.0):
                kast = kasteleyn_orientation(
                    build_decorated(params_for(rows, cols, beta_s)))
                got = partition_dimer(kast)
                kast._lu = spla.splu(kast.scaled)
                want = partition_dimer(kast)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (
                    cols, beta_s)


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

    @pytest.mark.parametrize("state", [0, 7])
    def test_invalid_state_rejected(self, kast33, state):
        with pytest.raises(BadInput, match="invalid vertex state"):
            vertex_constrained_ratio(kast33, (1, 1), state)

    def test_state_lines_pinned(self):
        # row 0 is sublattice A, where the reference holds state 6: state 6
        # has no lines and its reversal, state 5, a line on all four edges;
        # row 1 is B, where 5 and 6 swap
        lines = dimer._STATE_LINES
        assert len(lines) == 2 and all(len(row) == 6 for row in lines)
        assert lines[0][5] == lines[1][4] == (False,) * 4
        assert lines[0][4] == lines[1][5] == (True,) * 4
        assert [sum(p) for p in lines[0][:4]] == [2] * 4

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
