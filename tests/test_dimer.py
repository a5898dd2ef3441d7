"""Dimer representation, Kasteleyn orientation, and constrained sums."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import (decorated_edges, odd_clockwise, pfaffian_by_expansion,
                        planar_faces)
from vertex_expand import dimer
from vertex_expand.dimer import (
    MATCHING_NODE_BOUND,
    EdgeConstraint,
    KasteleynMatrix,
    audit_faces,
    build_decorated,
    constrained_partition,
    constrained_ratio,
    enumerate_matchings,
    kasteleyn_orientation,
    line_completion_weight,
    partition_dimer,
    pfaffians,
    vertex_constrained_ratio,
    vertex_state_constraints,
)
from vertex_expand.errors import (
    ConstraintConflict,
    NotFreeFermion,
    OrientationFailure,
    TooLarge,
    TooManyConstraints,
)
from vertex_expand.integrals import za_ratio, zb_ratio
from vertex_expand.model import (
    FREE_FERMION_BETA_EPS,
    Boundary,
    ModelParams,
    config_from_mask,
    enumerate_partition,
    line_representation,
)


MAX_CITIES = MATCHING_NODE_BOUND // 4  # four nodes per city


def params_for(rows, cols, beta_s=0.3):
    return ModelParams(beta_s=beta_s, rows=rows, cols=cols)


def reoriented(kast, signs):
    """``kast`` with other edge signs, for the face-parity audit alone: a
    mis-oriented K can be singular, so none is built or factored, and the
    anti-symmetry check sees the valid matrix."""
    return SimpleNamespace(lattice=kast.lattice, signs=signs,
                           sparse=kast.sparse)


@pytest.fixture(scope="module")
def kast22():
    return kasteleyn_orientation(build_decorated(params_for(2, 2)))


class TestDecoration:
    def test_requires_free_fermion_point(self):
        params = ModelParams(beta_s=0.3, rows=2, cols=2,
                             beta_eps=FREE_FERMION_BETA_EPS + 0.1)
        with pytest.raises(NotFreeFermion):
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
        i, j, weight = decorated_edges(params)
        assert lat.i.dtype == lat.j.dtype == np.int64
        assert lat.i.tolist() == i
        assert lat.j.tolist() == j
        assert lat.weight.tolist() == weight
        assert not (lat.i.flags.writeable or lat.j.flags.writeable
                    or lat.weight.flags.writeable)
        # the frozen dataclass compares its scalars, never its arrays
        assert lat == build_decorated(params)

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

    def test_face_audit(self, kast22):
        audit_faces(kast22)

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
        for rows in range(1, 9):
            for cols in range(1, 9):
                lat = build_decorated(params_for(rows, cols))
                faces = planar_faces(lat)
                # rows*cols diamonds and (rows-1)(cols-1) octagons
                assert len(faces) == rows * cols + (rows - 1) * (cols - 1)
                assert odd_clockwise(kasteleyn_orientation(lat).signs, faces)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 3)])
    def test_audit_rejects_any_single_flip(self, rows, cols):
        kast = kasteleyn_orientation(build_decorated(params_for(rows, cols)))
        for edge in range(len(kast.signs)):
            signs = kast.signs.copy()
            signs[edge] = -signs[edge]
            with pytest.raises(OrientationFailure):
                audit_faces(reoriented(kast, signs))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
    def test_audit_accepts_gauge_flips(self, rows, cols, data):
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
        audit_faces(gauged)
        assert partition_dimer(gauged) == pytest.approx(
            partition_dimer(kast), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
    def test_audit_agrees_with_traced_faces(self, rows, cols, data):
        kast = kasteleyn_orientation(build_decorated(params_for(rows, cols)))
        flips = data.draw(st.lists(st.integers(0, len(kast.signs) - 1),
                                   min_size=1, max_size=4))
        signs = kast.signs.copy()
        for e in flips:
            signs[e] = -signs[e]
        if odd_clockwise(signs, planar_faces(kast.lattice)):
            audit_faces(reoriented(kast, signs))
        else:
            with pytest.raises(OrientationFailure):
                audit_faces(reoriented(kast, signs))

    def test_audit_rejects_asymmetric_matrix(self, kast22):
        sparse = kast22.sparse.tolil()
        sparse[0, 1] = 2.0 * sparse[0, 1]
        broken = SimpleNamespace(lattice=kast22.lattice, signs=kast22.signs,
                                 sparse=sparse.tocsc())
        with pytest.raises(OrientationFailure, match="anti-symmetric"):
            audit_faces(broken)

    def test_matching_enumeration_bound(self):
        with pytest.raises(TooLarge):
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
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3)])
    def test_per_configuration_weights(self, rows, cols):
        params = params_for(rows, cols)
        lat = build_decorated(params)
        result = enumerate_partition(params)
        for mask, weight in zip(result.masks, result.weights):
            cfg = config_from_mask(params, int(mask))
            lines = line_representation(cfg, params)
            assert line_completion_weight(lat, lines) == pytest.approx(
                weight, rel=1e-13)

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
        k_inv = np.linalg.inv(kast22.sparse.toarray())
        for edge in (0, 7, 16):
            occ = constrained_ratio(kast22, [EdgeConstraint(edge, True)])
            emp = constrained_ratio(kast22, [EdgeConstraint(edge, False)])
            assert occ + emp == pytest.approx(1.0, rel=1e-12)
            # one edge's occupation is K(i,j) K^-1(j,i), here from a dense inverse
            i, j = kast22.lattice.i[edge], kast22.lattice.j[edge]
            assert occ == pytest.approx(kast22.sparse[i, j] * k_inv[j, i],
                                        rel=1e-12)

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

    def test_constrained_partition_log(self, kast22):
        cons = [EdgeConstraint(0, True)]
        expected = partition_dimer(kast22) + math.log(
            constrained_ratio(kast22, cons))
        assert constrained_partition(kast22, cons) == pytest.approx(
            expected, rel=1e-12)

    def test_conflicting_constraints(self, kast22):
        with pytest.raises(ConstraintConflict):
            constrained_ratio(kast22, [EdgeConstraint(0, True),
                                       EdgeConstraint(0, False)])

    def test_too_many_constraints(self, kast22):
        cons = [EdgeConstraint(e, True) for e in range(6)]
        with pytest.raises(TooManyConstraints):
            constrained_ratio(kast22, cons)

    @pytest.mark.parametrize("edge", [-1, 20, 9999])
    def test_edge_index_out_of_range(self, kast22, edge):
        # 2x2 has 20 edges; a negative index must not wrap to the last one
        with pytest.raises(IndexError):
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


@st.composite
def skew_stacks(draw):
    """(stack, zero_rows): anti-symmetric matrices of one even size 2-10
    with integer entries in [-3, 3], so their Pfaffians are exact integers
    and rows hold ties of equal magnitude; some have a zero row."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10]))
    upper = st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2)
    stack, zero_rows = [], []
    for _ in range(draw(st.integers(1, 4))):
        a = np.zeros((n, n))
        a[np.triu_indices(n, 1)] = draw(upper)
        a -= a.T
        zero = draw(st.none() | st.integers(0, n - 1))
        if zero is not None:
            a[zero, :] = a[:, zero] = 0.0
        stack.append(a)
        zero_rows.append(zero is not None)
    return np.array(stack), zero_rows


class TestPfaffians:
    """The batched elimination against an expansion over all matchings."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=skew_stacks(), data=st.data())
    def test_against_expansion(self, drawn, data):
        stack, zero_rows = drawn
        n = stack.shape[-1]
        exact = [pfaffian_by_expansion(a) for a in stack]
        got = pfaffians(stack)
        # (n-1)!! matchings, each a product of n/2 entries of size <= 3
        tol = 1e-12 * math.prod(range(n - 1, 0, -2)) * 3 ** (n // 2)
        for pf, want, zero in zip(got, exact, zero_rows):
            assert abs(pf - want) <= tol
            if zero:
                assert pf == 0.0 == want  # a zero pivot gives exactly 0
        # D A D with power-of-two d_i in pairs +-s: entries span 2^+-498,
        # about 1e+-150, and Pf(D A D) = det D Pf(A) = Pf(A)
        scaled = []
        for a in stack:
            s = data.draw(st.lists(st.integers(-249, 249), min_size=n // 2,
                                   max_size=n // 2))
            order = data.draw(st.permutations(range(n)))
            d = np.ldexp(1.0, np.array(s + [-x for x in s])[order])
            scaled.append(d[:, None] * a * d[None, :])
        for pf, want in zip(pfaffians(np.array(scaled)), exact):
            assert abs(pf - want) <= tol
        # Pf^2 = det wherever the determinant can be trusted to 1e-12
        for a, pf in zip(stack, got):
            if np.linalg.cond(a) < 1e3:
                assert pf * pf == pytest.approx(np.linalg.det(a), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(drawn=skew_stacks(), data=st.data())
    def test_unit_pair_padding_leaves_the_pfaffian(self, drawn, data):
        # the form the subset stacks take: an aligned unit 2x2 pair in
        # place of an edge's rows leaves the other rows' Pfaffian, bit for bit
        stack, _ = drawn
        n = stack.shape[-1]
        padded = []
        for a in stack:
            at = 2 * data.draw(st.integers(0, n // 2))
            keep = np.r_[0:at, at + 2:n + 2]
            p = np.zeros((n + 2, n + 2))
            p[np.ix_(keep, keep)] = a
            p[at, at + 1], p[at + 1, at] = 1.0, -1.0
            padded.append(p)
        assert pfaffians(np.array(padded)).tolist() == pfaffians(stack).tolist()


@pytest.fixture(scope="module")
def kast33():
    return kasteleyn_orientation(build_decorated(params_for(3, 3)))


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
        lu, solves, eliminations = kast._lu, [], []

        class CountingLU:
            def solve(self, rhs):
                solves.append(rhs.shape[1])
                return lu.solve(rhs)

        def counting_pfaffians(a):
            eliminations.append(a.shape)
            return pfaffians(a)

        monkeypatch.setattr(kast, "_lu", CountingLU())
        monkeypatch.setattr(dimer, "pfaffians", counting_pfaffians)
        probs = [vertex_constrained_ratio(kast, (1, 2), s) for s in range(1, 7)]
        # the four edges are node-disjoint: all 16 subsets in one stack
        assert solves == [8]
        assert eliminations == [(16, 8, 8)]
        edges = tuple(sorted(c.edge for c in
                             vertex_state_constraints(kast.lattice, (1, 2), 1)))
        with pytest.raises(TypeError):
            kast.subset_terms(edges)[0] = 0.0  # the kept table is read-only
        # another edge set, even a subset of the last, is a new elimination
        constrained_ratio(kast, [EdgeConstraint(edges[0], False)])
        assert solves == [8, 2]
        assert eliminations == [(16, 8, 8), (2, 2, 2)]
        fresh = kasteleyn_orientation(build_decorated(params_for(4, 4)))
        assert probs == [vertex_constrained_ratio(fresh, (1, 2), s)
                         for s in range(1, 7)]

    def test_kept_block_is_never_handed_out(self, kast33):
        nodes = [5, 9, 20]
        first = kast33.inverse_block(nodes)
        expected = first.copy()
        first[:] = 0.0
        again = kast33.inverse_block(nodes)
        assert (again == expected).all()
        other = kast33.inverse_block([9, 5])
        assert other == pytest.approx(expected[[1, 0]][:, [1, 0]],
                                      rel=1e-14, abs=1e-15)

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
