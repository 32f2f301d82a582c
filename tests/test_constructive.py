import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import analysis, constructive as con, exact_oracle as eo, graph_core as gc
from bchromatic.matching import HallViolator
from tests import oracles
from tests.test_analysis import c4_free_ring


def assert_outcome_ok(g, outcome, exact_colors=None, min_colors=None):
    rep = con.verify_bcoloring(g, outcome.coloring)
    assert rep.is_b_coloring
    if exact_colors is not None:
        assert len(rep.used_colors) == exact_colors
    if min_colors is not None:
        assert len(rep.used_colors) >= min_colors


class TestVerification:
    def test_proper_and_dominating(self):
        g = gc.generate_cycle(3)
        rep = con.verify_bcoloring(g, con.Coloring(3, (1, 2, 3)))
        assert rep.proper and rep.is_b_coloring
        assert rep.realized == {1: 0, 2: 1, 3: 2}

    def test_conflict_detected(self):
        g = gc.Graph.from_edges(2, [(0, 1)])
        rep = con.verify_bcoloring(g, con.Coloring(2, (1, 1)))
        assert not rep.proper and rep.conflict_edge == (0, 1)
        assert not rep.is_b_coloring

    def test_unrealized_color(self):
        g = gc.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rep = con.verify_bcoloring(g, con.Coloring(3, (1, 2, 1, 3)))
        # only color 1 has a vertex seeing both other colors
        assert rep.proper and not rep.is_b_coloring
        assert rep.realized == {1: 2, 2: None, 3: None}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            con.verify_bcoloring(gc.generate_cycle(3), con.Coloring(3, (1, 2)))

    def test_partial_validation(self):
        g = gc.generate_cycle(4)
        con.validate_partial_coloring(g, con.PartialColoring(2, (1, None, None, 2)))
        with pytest.raises(ValueError):
            con.validate_partial_coloring(g, con.PartialColoring(2, (1, 1, None, None)))
        with pytest.raises(ValueError):
            con.validate_partial_coloring(g, con.PartialColoring(2, (3, None, None, None)))


class TestColorMaps:
    def test_identity(self):
        assert con.identity_color_map(3) == (1, 2, 3, 4)

    @pytest.mark.parametrize("target,d", [
        ((1, 2, 3), 3), ((4,), 3), ((2, 4), 3), ((1, 2, 3, 4), 3),
        ((1, 2, 3, 4), 6), ((5, 6, 7), 6),
    ])
    def test_realizing_map_hits_target(self, target, d):
        sigma = con.color_map_realizing(target, d)
        assert sorted(sigma) == list(range(1, d + 2))
        steps = len(target) - 1
        canonical = list(range(1, steps + 1)) + [d + 1]
        assert sorted(sigma[c - 1] for c in canonical) == sorted(target)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            con.color_map_realizing((0, 1), 3)
        with pytest.raises(ValueError):
            con.color_map_realizing((1, 1), 3)
        with pytest.raises(ValueError):
            con.color_map_realizing((5,), 3)


class TestSeedPlans:
    def test_plan_seed_orders_neighbors(self, petersen):
        plan = con.plan_seed(petersen, 0, 2)
        assert plan.center == 0 and plan.steps == 2
        assert sorted(plan.ordered_neighbors) == list(petersen.adjacency[0])
        assert con.validate_seed_plan(petersen, plan) == 3

    def test_odd_degree_full_seeding_picks_free_pivot(self, petersen):
        plan = con.plan_seed(petersen, 0, 2)
        pivot = plan.ordered_neighbors[1]
        assert not (petersen.neighbor_sets[pivot] & petersen.neighbor_sets[0])

    def test_triangle_plan(self):
        g = gc.generate_random_c4_free_regular(4, 20, 0)
        tri = analysis.find_triangle(g)
        assert tri is not None
        plan = con.plan_seed(g, tri[0], 3, triangle_mode=True)
        a, b = plan.ordered_neighbors[0], plan.ordered_neighbors[2]
        assert g.has_edge(a, b)

    def test_triangle_mode_needs_even_degree(self, petersen):
        with pytest.raises(ValueError):
            con.plan_seed(petersen, 0, 2, triangle_mode=True)

    def test_triangle_mode_needs_a_triangle(self, petersen):
        g = gc.generate_random_c4_free_regular(4, 24, 3)
        center = 0
        if analysis.find_triangle(g) is not None:
            # pick a center outside every triangle if one exists
            in_tri = set()
            for v in range(g.vertex_count):
                for u in g.adjacency[v]:
                    if g.neighbor_sets[v] & g.neighbor_sets[u]:
                        in_tri.add(v)
            free = [v for v in range(g.vertex_count) if v not in in_tri]
            if not free:
                pytest.skip("every vertex lies in a triangle for this seed")
            center = free[0]
        with pytest.raises(ValueError):
            con.plan_seed(g, center, 3, triangle_mode=True)

    def test_rejects_irregular_and_c4(self):
        with pytest.raises(ValueError):
            con.plan_seed(gc.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 0, 1)
        with pytest.raises(ValueError):
            con.plan_seed(gc.generate_complete_bipartite(3), 0, 1)

    def test_validate_rejects_bad_plans(self, petersen):
        good = con.plan_seed(petersen, 0, 2)
        bad_neighbors = con.SeedPlan(0, (1, 2, 3), 2, good.color_map)
        with pytest.raises(ValueError):
            con.validate_seed_plan(petersen, bad_neighbors)
        bad_map = con.SeedPlan(0, good.ordered_neighbors, 2, (1, 1, 2, 3))
        with pytest.raises(ValueError):
            con.validate_seed_plan(petersen, bad_map)
        bad_steps = con.SeedPlan(0, good.ordered_neighbors, 3, good.color_map)
        with pytest.raises(ValueError):
            con.validate_seed_plan(petersen, bad_steps)


class TestSeeding:
    def test_petersen_seeding_dominates(self, petersen):
        plan = con.plan_seed(petersen, 0, 2)
        partial = con.seed_dominating_neighborhood(petersen, plan)
        con.validate_partial_coloring(petersen, partial)
        full = set(range(1, 5))
        for w in (0, *plan.ordered_neighbors[:2]):
            seen = {partial.assignment[w]} | {
                partial.assignment[y] for y in petersen.adjacency[w]
            }
            assert seen == full

    def test_seeding_respects_color_map(self, petersen):
        sigma = con.color_map_realizing((2, 3, 4), 3)
        plan = con.plan_seed(petersen, 0, 2, color_map=sigma)
        partial = con.seed_dominating_neighborhood(petersen, plan)
        assert partial.assignment[0] == 4  # center canonical d+1 -> max target

    def test_seeding_on_graph_with_c4_fails_loudly(self):
        g = gc.generate_complete_bipartite(3)
        plan = con.SeedPlan(0, g.adjacency[0], 2, con.identity_color_map(3))
        with pytest.raises((con.ConstructionInvariantError, ValueError)):
            con.seed_dominating_neighborhood(g, plan)

    @pytest.mark.parametrize("n,edges,steps,message", [
        # K4: the first step neighbor 1 sees both 2 and 3 inside N(0)
        (4, list(itertools.combinations(range(4), 2)), 1, "slipped past the gate"),
        # neighbor 1 has degree 4: a ring of 3 against 2 needed colors, the
        # check that keeps every matching balanced
        (7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)], 1,
         "ring size 3 and needed colors 2 disagree with degree counting"),
        # 0-1-5-2 is a 4-cycle: the first ring {4, 5} matches, and the second
        # ring {5, 6} meets its vertex 5
        (9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 7), (3, 8)], 2,
         "step 2: ring overlaps an earlier ring"),
    ], ids=["two-inside", "ring-size", "overlap"])
    def test_ring_checks_on_ungated_graphs(self, n, edges, steps, message):
        g = gc.Graph.from_edges(n, edges)
        plan = con.SeedPlan(0, g.adjacency[0], steps, con.identity_color_map(3))
        with pytest.raises(con.ConstructionInvariantError, match=message):
            con.seed_dominating_neighborhood(g, plan)

    def test_half_degree_assertion_only_in_bounded_seedings(self):
        # 4-regular, with 4-cycles away from vertex 0 only: both rings of a
        # 2-step seeding at 0 have matchings, but one availability degree is
        # below half the ring. The full seeding at 0 walks the same two rings
        # first and asserts nothing: a later ring's Hall violator rejects it.
        g = gc.Graph.from_edges(16, [
            (0, 2), (0, 11), (0, 12), (0, 14), (1, 6), (1, 8), (1, 9), (1, 10),
            (2, 5), (2, 13), (2, 15), (3, 4), (3, 11), (3, 13), (3, 15), (4, 7),
            (4, 14), (4, 15), (5, 6), (5, 7), (5, 10), (6, 7), (6, 14), (7, 12),
            (8, 9), (8, 11), (8, 15), (9, 12), (9, 13), (10, 11), (10, 13), (12, 14),
        ])
        plan = con.plan_seed(g, 0, 2)
        with pytest.raises(con.ConstructionInvariantError, match="below half"):
            con.seed_dominating_neighborhood(g, plan)
        assert plan.ordered_neighbors == g.adjacency[0]
        assert isinstance(con._full_seed_at(g, 4, 0, None), HallViolator)

    def test_trace_records_steps(self, petersen):
        trace = con.ConstructionTrace()
        plan = con.plan_seed(petersen, 0, 2)
        con.seed_dominating_neighborhood(petersen, plan, trace=trace)
        assert len(trace.seed_steps) == 2
        for rec in trace.seed_steps:
            assert len(rec.ring) == len(rec.needed_colors) == len(rec.placed)


class TestGreedyExtend:
    def test_extends_to_proper_total(self, petersen):
        plan = con.plan_seed(petersen, 0, 2)
        partial = con.seed_dominating_neighborhood(petersen, plan)
        total = con.greedy_extend(petersen, partial, sources=(0,))
        rep = con.verify_bcoloring(petersen, total)
        assert rep.proper

    def test_needs_enough_colors(self, petersen):
        with pytest.raises(ValueError):
            con.greedy_extend(petersen, con.PartialColoring(3, (None,) * 10), sources=(0,))

    def test_covers_unreached_components(self):
        g = gc.disjoint_union(gc.generate_cycle(5), gc.generate_cycle(5))
        total = con.greedy_extend(g, con.PartialColoring(3, (None,) * 10), sources=(0,))
        assert None not in total.assignment


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_extend_against_the_reference(data):
    """greedy_extend gives the reference's colors (a BFS from the sorted
    distinct sources, then the smallest free color in that order) on random
    graphs, random proper partial colorings, palettes of max degree + 1 and
    more, and random sources: duplicated, unsorted, empty or the colored
    vertices."""
    n = data.draw(st.integers(min_value=0, max_value=14))
    rng = data.draw(st.randoms(use_true_random=False))
    p = data.draw(st.floats(min_value=0.0, max_value=0.6))
    g = gc.Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    palette = g.max_degree() + 1 + data.draw(st.integers(min_value=0, max_value=2))
    share = data.draw(st.floats(min_value=0.0, max_value=1.0))
    assignment: list[int | None] = [None] * n
    for v in rng.sample(range(n), n):
        free = sorted(set(range(1, palette + 1)) - {assignment[u] for u in g.adjacency[v]})
        if rng.random() < share:
            assignment[v] = rng.choice(free)
    partial = con.PartialColoring(palette, tuple(assignment))
    colored = tuple(v for v, c in enumerate(assignment) if c is not None)
    sources = data.draw(st.just(colored) | st.lists(st.integers(0, max(n - 1, 0)),
                                                    max_size=6 if n else 0).map(tuple))
    expected = oracles.reference_greedy_extend(g, partial.assignment, palette, sources)
    assert con.greedy_extend(g, partial, sources=sources) == con.Coloring(palette, expected)


class TestReduction:
    def test_already_b_coloring_is_returned_unchanged(self):
        g = gc.generate_cycle(3)
        c = con.Coloring(3, (1, 2, 3))
        assert con.reduce_unrealized(g, c) == (c, con.verify_bcoloring(g, c))

    def test_removes_unrealizable_color(self):
        g = gc.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        c = con.Coloring(3, (1, 2, 1, 3))
        trace = con.ConstructionTrace()
        out, report = con.reduce_unrealized(g, c, trace=trace)
        rep = con.verify_bcoloring(g, out)
        assert rep.is_b_coloring and report == rep
        assert len(trace.reduction_passes) >= 1

    def test_improper_input_rejected(self):
        g = gc.Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            con.reduce_unrealized(g, con.Coloring(2, (1, 1)))

    def test_complete_bipartite_collapses_to_two(self):
        g = gc.generate_complete_bipartite(3)
        c = con.Coloring(4, (1, 1, 2, 3, 3, 4))
        out, report = con.reduce_unrealized(g, c)
        rep = con.verify_bcoloring(g, out)
        assert rep.is_b_coloring and len(rep.used_colors) == 2 and report == rep

    def test_pass_count_bounded_by_initial_colors(self):
        rng = random.Random(11)
        for _ in range(30):
            d, n = rng.choice([(3, 14), (3, 20), (4, 24)])
            g = gc.generate_random_c4_free_regular(d, n, rng.randrange(100))
            total = con.greedy_extend(g, con.PartialColoring(d + 1, (None,) * n), sources=())
            trace = con.ConstructionTrace()
            out, _ = con.reduce_unrealized(g, total, trace=trace)
            assert con.verify_bcoloring(g, out).is_b_coloring
            assert len(trace.reduction_passes) <= len(set(total.assignment))


class TestLowerBoundStrategy:
    def test_petersen_exact_three(self, petersen):
        out = con.construct_lower_bound_bcoloring(petersen)
        assert out.strategy == "lower-bound" and out.guaranteed_colors == 3
        assert_outcome_ok(petersen, out, exact_colors=3)

    def test_heawood(self, heawood):
        out = con.construct_lower_bound_bcoloring(heawood)
        assert_outcome_ok(heawood, out, min_colors=3)

    def test_triangle_mode_on_even_degree(self):
        g = gc.generate_random_c4_free_regular(4, 20, 0)
        assert analysis.find_triangle(g) is not None
        trace = con.ConstructionTrace()
        out = con.construct_lower_bound_bcoloring(g, trace=trace)
        assert out.plans[0].triangle_mode and out.guaranteed_colors == 4
        assert len(trace.seed_steps) == 3
        assert_outcome_ok(g, out, min_colors=4)

    def test_small_cases(self):
        for g, k in [
            (gc.generate_cycle(5), 3),
            (gc.generate_cycle(7), 3),
            (gc.Graph.from_edges(4, [(0, 1), (2, 3)]), 2),
            (gc.Graph.from_edges(3, []), 1),
            (gc.disjoint_union(gc.generate_cycle(7), gc.generate_cycle(3)), 3),
        ]:
            out = con.construct_lower_bound_bcoloring(g)
            assert_outcome_ok(g, out, exact_colors=k)

    def test_rejections(self):
        with pytest.raises(con.HypothesisRejection):
            con.construct_lower_bound_bcoloring(gc.Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(con.HypothesisRejection):
            con.construct_lower_bound_bcoloring(gc.generate_complete_bipartite(3))

    def test_deterministic(self, petersen):
        a = con.construct_lower_bound_bcoloring(petersen)
        b = con.construct_lower_bound_bcoloring(petersen)
        assert a.coloring == b.coloring


def levi_graph(q):
    """Point-line incidence graph of the projective plane PG(2, q), q prime:
    points and lines are the normalized nonzero vectors of GF(q)^3, and a
    point lies on a line when their dot product is 0. (q+1)-regular, girth 6,
    2(q^2 + q + 1) vertices."""
    vectors = (
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, b) for b in range(q)]
        + [(0, 0, 1)]
    )
    m = len(vectors)
    return gc.Graph.from_edges(2 * m, [
        (i, m + j)
        for i, p in enumerate(vectors)
        for j, line in enumerate(vectors)
        if sum(x * y for x, y in zip(p, line)) % q == 0
    ])


GIRTH_SIX = [gc.generate_heawood()] + [levi_graph(q) for q in (2, 3, 5)]
GIRTH_SIX_IDS = ["heawood", "levi2", "levi3", "levi5"]


class TestFullSeedStrategy:
    def test_petersen_rejects_each_center_by_a_hall_violator(self, petersen):
        for center in range(petersen.vertex_count):
            assert isinstance(con._full_seed_at(petersen, 3, center, None), HallViolator)
        with pytest.raises(con.HypothesisRejection, match="10 centers tried"):
            con.construct_full_seed_bcoloring(petersen)

    @pytest.mark.parametrize("g", GIRTH_SIX, ids=GIRTH_SIX_IDS)
    def test_girth_six_every_vertex_is_a_center(self, g):
        d = analysis.is_regular(g)
        assert analysis.girth(g) == 6
        for center in range(g.vertex_count):
            out = con._full_seed_at(g, d, center, None)
            assert isinstance(out, con.ConstructionOutcome), center
            assert_outcome_ok(g, out, exact_colors=d + 1)

    def test_trace_holds_the_center_and_no_plan(self):
        g = gc.generate_cubic_chain(3)
        trace = con.ConstructionTrace()
        out = con.construct_full_seed_bcoloring(g, trace=trace)
        assert out.strategy == "full-seed" and out.plans == () and out.guaranteed_colors == 4
        assert trace.centers == [0] and len(trace.seed_steps) == 3
        assert [rec.step_vertex for rec in trace.seed_steps] == list(g.adjacency[0])
        assert_outcome_ok(g, out, exact_colors=4)

    def test_later_center_after_rejections(self, petersen, heawood):
        g = gc.disjoint_union(petersen, heawood)
        trace = con.ConstructionTrace()
        out = con.construct_full_seed_bcoloring(g, trace=trace)
        assert trace.centers == [10]
        assert_outcome_ok(g, out, exact_colors=4)

    def test_small_cases(self):
        out = con.construct_full_seed_bcoloring(gc.generate_cycle(7))
        assert out.strategy == "small-case"
        assert_outcome_ok(gc.generate_cycle(7), out, exact_colors=3)

    def test_rejections(self):
        with pytest.raises(con.HypothesisRejection):
            con.construct_full_seed_bcoloring(gc.Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(con.HypothesisRejection):
            con.construct_full_seed_bcoloring(gc.generate_complete_bipartite(3))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), d=st.sampled_from([3, 4, 5]))
    def test_random_graphs_reach_d_plus_one_or_reject(self, seed, d):
        g = gc.generate_random_c4_free_regular(d, {3: 16, 4: 24, 5: 32}[d], seed)
        try:
            out = con.construct_full_seed_bcoloring(g)
        except con.HypothesisRejection:
            return
        assert_outcome_ok(g, out, exact_colors=d + 1)


# three sizes a little above the d^2 - d + 1 floor for each degree: the
# smallest with n*d even at which the generator succeeds on seeds 0-2
NEAR_FLOOR_SIZES = {3: (10, 12, 14), 4: (16, 18, 20), 5: (28, 30, 32), 6: (46, 48, 50)}


class TestAutoReachesTheReportedBound:
    """Auto emits at least the analysis' phi_lower_bound, and where the
    exhaustive search runs (n <= 24) exactly phi. The bound is d+1 exactly
    where auto certifies d+1 by a route other than the lower bound, and
    otherwise the lower-bound route's count. A five-cycle predicate that
    holds at d >= 3 comes with a full-seed center."""

    def check(self, g):
        rep = analysis.check_hypotheses(g)
        if not rep.lower_bound_applies:
            with pytest.raises(con.HypothesisRejection):
                con.construct_auto_bcoloring(g)
            return
        out = con.construct_auto_bcoloring(g)
        used = len(out.report.used_colors)
        assert out.report.is_b_coloring
        assert used >= rep.phi_lower_bound, (out.strategy, used, rep.phi_lower_bound)
        d = rep.regular_degree
        expected = rep.lower_bound_colors if out.strategy == "lower-bound" else d + 1
        assert rep.phi_lower_bound == expected, (out.strategy, rep.phi_lower_bound)
        if d >= 3 and (rep.five_cycle_count_vertex_exists or rep.five_cycle_packing_vertex_exists):
            assert rep.full_seed_center is not None
        if g.vertex_count <= eo.DEFAULT_VERTEX_CEILING:
            assert used == eo.exact_b_chromatic(g).phi, out.strategy

    def test_corpus(self, small_corpus):
        for _, g in small_corpus:
            self.check(g)

    @pytest.mark.parametrize("g", GIRTH_SIX, ids=GIRTH_SIX_IDS)
    def test_girth_six(self, g):
        self.check(g)

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d, sizes in NEAR_FLOOR_SIZES.items() for n in sizes]
    )
    def test_random_near_floor(self, d, n):
        for seed in range(3):
            self.check(gc.generate_random_c4_free_regular(d, n, seed))


class TestDiameterStrategy:
    def test_chain_gadgets(self):
        # chains of 3 or more beads have diameter at least 7
        for beads in range(3, 11):
            g = gc.generate_cubic_chain(beads)
            out = con.construct_diameter_bcoloring(g)
            assert out.strategy == "diameter"
            assert_outcome_ok(g, out, exact_colors=4)

    def test_two_plans_cover_all_colors(self):
        g = gc.generate_cubic_bridge_pair()
        out = con.construct_diameter_bcoloring(g)
        covered = set()
        for plan in out.plans:
            covered |= set(con.realized_targets(plan, 3))
        assert covered == {1, 2, 3, 4}

    def test_disconnected_passes_gate(self, heawood):
        g = gc.disjoint_union(heawood, heawood)
        out = con.construct_diameter_bcoloring(g)
        assert_outcome_ok(g, out, exact_colors=4)

    def test_small_diameter_rejected(self, petersen):
        with pytest.raises(con.HypothesisRejection):
            con.construct_diameter_bcoloring(petersen)
        with pytest.raises(con.HypothesisRejection):
            con.construct_diameter_bcoloring(gc.generate_cubic_chain(2))

    def test_long_cycle_small_case(self):
        out = con.construct_diameter_bcoloring(gc.generate_cycle(13))
        assert out.strategy == "small-case"
        assert_outcome_ok(gc.generate_cycle(13), out, exact_colors=3)


class TestConnectivityStrategy:
    def test_chain_gadgets(self):
        for beads in range(2, 11):
            g = gc.generate_cubic_chain(beads)
            out = con.construct_connectivity_bcoloring(g)
            assert out.strategy == "connectivity"
            assert_outcome_ok(g, out, exact_colors=4)

    def test_disconnected_union(self, heawood):
        g = gc.disjoint_union(heawood, heawood)
        out = con.construct_connectivity_bcoloring(g)
        assert out.strategy == "connectivity"
        assert_outcome_ok(g, out, exact_colors=4)

    def test_anchors_avoid_separator(self):
        g = gc.generate_cubic_chain(2)
        cert = analysis.vertex_connectivity(g)
        out = con.construct_connectivity_bcoloring(g)
        sep = set(cert.separator)
        for plan in out.plans:
            assert not (g.neighbor_sets[plan.center] & sep)

    def test_even_degree_ring(self):
        """d = 4, kappa = 2: the colours split 3 + 2 between the two sides."""
        g = c4_free_ring()
        out = con.construct_connectivity_bcoloring(g)
        assert out.strategy == "connectivity"
        assert_outcome_ok(g, out, exact_colors=5)
        assert [con.realized_targets(p, 4) for p in out.plans] == [(1, 2, 3), (4, 5)]

    def test_degree_at_most_two_small_case(self):
        triangles = gc.disjoint_union(gc.generate_cycle(3), gc.generate_cycle(3))
        k2 = gc.Graph.from_edges(2, [(0, 1)])
        for g, colors in ((triangles, 3), (k2, 2)):
            out = con.construct_connectivity_bcoloring(g)
            assert out.strategy == "small-case"
            assert_outcome_ok(g, out, exact_colors=colors)

    def test_high_connectivity_rejected(self, petersen, heawood):
        with pytest.raises(con.HypothesisRejection):
            con.construct_connectivity_bcoloring(petersen)
        with pytest.raises(con.HypothesisRejection):
            con.construct_connectivity_bcoloring(heawood)


class TestCertification:
    """Each seed plan is validated once, each route's final coloring is
    verified once, and two seedings merge only when they are apart."""

    ROUTES = [
        ("lower-bound", con.construct_lower_bound_bcoloring, gc.generate_petersen),
        ("lower-bound", con.construct_lower_bound_bcoloring,
         lambda: gc.generate_random_c4_free_regular(4, 20, 0)),
        ("diameter", con.construct_diameter_bcoloring, lambda: gc.generate_cubic_chain(3)),
        ("connectivity", con.construct_connectivity_bcoloring,
         lambda: gc.generate_cubic_chain(2)),
        ("full-seed", con.construct_full_seed_bcoloring,
         lambda: gc.disjoint_union(gc.generate_petersen(), gc.generate_heawood())),
        ("small-case", con.construct_lower_bound_bcoloring, lambda: gc.generate_cycle(7)),
    ]

    @pytest.mark.parametrize("strategy,route,make", ROUTES, ids=[r[0] for r in ROUTES])
    def test_each_plan_validated_and_final_coloring_verified_once(
        self, monkeypatch, strategy, route, make
    ):
        g = make()
        validated, verified = [], []
        validate, verify = con.validate_seed_plan, con.verify_bcoloring

        def count_validate(graph, plan):
            validated.append(plan)
            return validate(graph, plan)

        def count_verify(graph, coloring):
            verified.append(coloring)
            return verify(graph, coloring)

        monkeypatch.setattr(con, "validate_seed_plan", count_validate)
        monkeypatch.setattr(con, "verify_bcoloring", count_verify)
        out = route(g)
        assert out.strategy == strategy
        assert Counter(validated) == Counter(out.plans)
        assert verified.count(out.coloring) == 1
        assert_outcome_ok(g, out, min_colors=out.guaranteed_colors)

    @pytest.mark.parametrize("distance", [1, 2, 3])
    def test_two_center_finish_refuses_seedings_that_touch(self, distance):
        # 0-step seedings color the closed neighborhoods of their centers,
        # which share a vertex or an edge when the centers are this close
        g = gc.generate_cubic_chain(3)
        far = analysis._bfs_distances(g, 0).index(distance)
        plans = (con.plan_seed(g, 0, 0), con.plan_seed(g, far, 0))
        with pytest.raises(con.ConstructionInvariantError, match="second seeding"):
            con._two_center_finish(g, 3, "diameter", plans, None)


class TestTrace:
    """seed_dominating_neighborhood writes the seeding's part of the trace,
    once every ring has matched, and builds no record without a trace."""

    @pytest.mark.parametrize("route,beads", [
        (con.construct_diameter_bcoloring, 4),
        (con.construct_connectivity_bcoloring, 3),
    ], ids=["diameter", "connectivity"])
    def test_two_center_routes_trace_both_plans(self, route, beads):
        g = gc.generate_cubic_chain(beads)
        trace = con.ConstructionTrace()
        out = route(g, trace=trace)
        assert len(out.plans) == 2
        assert trace.centers == [plan.center for plan in out.plans]
        assert len(trace.seed_steps) == sum(plan.steps for plan in out.plans)
        assert [rec.center for rec in trace.seed_steps] == [
            plan.center for plan in out.plans for _ in range(plan.steps)
        ]

    def test_no_record_without_a_trace(self, monkeypatch, petersen):
        built = []
        record = con.SeedStepRecord

        def counting_record(*args):
            built.append(args)
            return record(*args)

        monkeypatch.setattr(con, "SeedStepRecord", counting_record)
        con.construct_auto_bcoloring(gc.generate_cubic_chain(3))
        con.construct_lower_bound_bcoloring(petersen)
        assert built == []
        # the stand-in is the one the seeding builds: two steps at the center
        con.construct_lower_bound_bcoloring(petersen, trace=con.ConstructionTrace())
        assert len(built) == 2


def _c4_free(adj):
    return all(len(adj[u] & adj[w]) < 2 for u, w in itertools.combinations(range(len(adj)), 2))


def _separator_attachments(k, inner):
    """Every way a cubic graph attaches the component C = 0..k-1 with edges
    `inner` to a minimum separator S of size 1 or 2 (vertices k, k+1): each
    vertex of C takes its missing degree from S, and each s in S sends 1 or
    2 edges into C, keeping a neighbor in another component. Edges inside S
    and into other components are left out; they only add 4-cycles."""
    missing = [3] * k
    for u, v in inner:
        missing[u] -= 1
        missing[v] -= 1
    for size in (1, 2):
        if min(missing) < 0 or max(missing) > size:
            continue
        choices = [list(itertools.combinations(range(k, k + size), m)) for m in missing]
        for picks in itertools.product(*choices):
            adj = [set() for _ in range(k + size)]
            for u, v in inner:
                adj[u].add(v)
                adj[v].add(u)
            for u, ss in enumerate(picks):
                for s in ss:
                    adj[u].add(s)
                    adj[s].add(u)
            if all(1 <= len(adj[s]) <= 2 for s in range(k, k + size)):
                yield adj


class TestDegreeThreeAnchorLemma:
    def test_every_c4_free_attachment_has_an_anchor(self):
        # the connectivity route's docstring proves that at degree 3 each
        # component of G - S holds a vertex with no S-neighbor and a
        # neighbor with none either; the proof bounds |C| by 5
        checked = 0
        for k in range(1, 7):
            pairs = list(itertools.combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                inner = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                if 3 * k - 2 * len(inner) > 4:
                    continue
                c = gc.Graph.from_edges(k, inner)
                if len(analysis.connected_components(c)) != 1:
                    continue
                for adj in _separator_attachments(k, inner):
                    if not _c4_free(adj):
                        continue
                    checked += 1
                    free = [v for v in range(k) if max(adj[v]) < k]
                    assert any(adj[a] & set(free) for a in free), adj
        assert checked > 0


class TestStrategyAgreementProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_lower_bound_on_random_cubics(self, seed):
        g = gc.generate_random_c4_free_regular(3, 16, seed)
        out = con.construct_lower_bound_bcoloring(g)
        assert_outcome_ok(g, out, min_colors=out.guaranteed_colors)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_lower_bound_on_random_quintics(self, seed):
        g = gc.generate_random_c4_free_regular(5, 32, seed)
        out = con.construct_lower_bound_bcoloring(g)
        assert_outcome_ok(g, out, min_colors=4)
