"""Acceptance suite: ten end-to-end checks with wall-clock budgets.

Each test prints one ACCEPT line on success so a log scrape can recover the
per-criterion outcome. Budgets are generous on purpose; blowing one signals
an algorithmic regression, not load noise.
"""

import itertools
import random
import time

import pytest

from bchromatic import analysis, constructive as con, exact_oracle as eo, graph_core as gc
from bchromatic.matching import perfect_matching
from tests import oracles
from tests.test_matching import build_half_degree_instance, int_instance


def _finish(number: int, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPT {number} PASS ({elapsed:.2f}s)")


def test_criterion_01_petersen_exact_and_constructive():
    t0 = time.monotonic()
    g = gc.generate_petersen()
    assert eo.exact_b_chromatic(g).phi == 3
    out = con.construct_lower_bound_bcoloring(g)
    rep = con.verify_bcoloring(g, out.coloring)
    assert rep.is_b_coloring and len(rep.used_colors) == 3
    _finish(1, t0, 1.0)


def test_criterion_02_complete_bipartite_collapse():
    t0 = time.monotonic()
    for d in (2, 3, 4):
        g = gc.generate_complete_bipartite(d)
        assert eo.exact_b_chromatic(g).phi == 2, d
    _finish(2, t0, 10.0)


CRITERION_3_SUITES = {
    3: [(n, s) for n in (14, 16, 20, 24, 30) for s in range(10)],
    4: [(n, s) for n in (20, 24, 26, 30) for s in range(13)],
    5: [(n, s) for n in (32, 36, 40) for s in range(17)],
    6: [(48, s) for s in range(10)]
       + [(54, s) for s in range(20)]
       + [(60, s) for s in range(20)],
}


def test_criterion_03_lower_bound_sweep():
    t0 = time.monotonic()
    for d, cases in CRITERION_3_SUITES.items():
        assert len(cases) >= 50
        for n, seed in cases:
            assert n <= 60
            g = gc.generate_random_c4_free_regular(d, n, seed)
            out = con.construct_lower_bound_bcoloring(g)
            promised = (d + 4) // 2 if analysis.find_triangle(g) is not None else (d + 3) // 2
            rep = con.verify_bcoloring(g, out.coloring)
            assert rep.is_b_coloring, (d, n, seed)
            assert len(rep.used_colors) >= promised, (d, n, seed)
            assert out.guaranteed_colors == promised, (d, n, seed)
    _finish(3, t0, 300.0)


def test_criterion_04_triangle_mode_trace():
    t0 = time.monotonic()
    d, n, seed = 4, 20, 0
    g = gc.generate_random_c4_free_regular(d, n, seed)
    tri = analysis.find_triangle(g)
    assert tri is not None
    trace = con.ConstructionTrace()
    out = con.construct_lower_bound_bcoloring(g, trace=trace)
    assert out.plans[0].triangle_mode
    assert out.guaranteed_colors == (d + 4) // 2 == 4
    assert len(trace.seed_steps) == d // 2 + 1 == 3
    plan = out.plans[0]
    first, middle = plan.ordered_neighbors[0], plan.ordered_neighbors[d // 2]
    assert g.has_edge(first, middle)
    assert g.has_edge(plan.center, first) and g.has_edge(plan.center, middle)
    # the two triangle neighbors each lose one ring slot to the other
    assert len(trace.seed_steps[0].ring) == d - 2
    assert len(trace.seed_steps[-1].ring) == d - 2
    for rec in trace.seed_steps:
        assert len(rec.ring) == len(rec.needed_colors) == len(rec.placed)
    rep = con.verify_bcoloring(g, out.coloring)
    assert rep.is_b_coloring and len(rep.used_colors) >= 4
    for color in plan.targets:
        assert rep.realized[color] is not None
    _finish(4, t0, 60.0)


def test_criterion_05_diameter_route():
    t0 = time.monotonic()
    instances = [
        gc.generate_cubic_chain(3),
        gc.generate_cubic_chain(4),
        gc.generate_cubic_bridge_pair(),
        gc.disjoint_union(gc.generate_heawood(), gc.generate_heawood()),
    ]
    assert len(instances) >= 3
    for g in instances:
        diam, _ = analysis.diameter(g)
        assert diam >= 6
        out = con.construct_diameter_bcoloring(g)
        assert out.strategy == "diameter"
        rep = con.verify_bcoloring(g, out.coloring)
        assert rep.is_b_coloring and len(rep.used_colors) == 4
        if g.vertex_count <= eo.DEFAULT_VERTEX_CEILING:
            assert eo.exact_b_chromatic(g).phi == 4
    assert any(g.vertex_count <= eo.DEFAULT_VERTEX_CEILING for g in instances)
    _finish(5, t0, 120.0)


def test_criterion_06_connectivity_route():
    t0 = time.monotonic()
    two_heawood = gc.disjoint_union(gc.generate_heawood(), gc.generate_heawood())
    small_cut = [gc.generate_cubic_chain(2), gc.generate_cubic_chain(3),
                 gc.generate_cubic_bridge_pair()]
    for g in [two_heawood] + small_cut:
        kappa = analysis.vertex_connectivity(g).kappa
        assert 2 * kappa <= 4
        out = con.construct_connectivity_bcoloring(g)
        assert out.strategy == "connectivity"
        rep = con.verify_bcoloring(g, out.coloring)
        assert rep.is_b_coloring and len(rep.used_colors) == 4
        if g.vertex_count <= eo.DEFAULT_VERTEX_CEILING:
            assert eo.exact_b_chromatic(g).phi == 4
    assert sum(g.vertex_count <= eo.DEFAULT_VERTEX_CEILING for g in small_cut) >= 2
    with pytest.raises(con.HypothesisRejection):
        con.construct_connectivity_bcoloring(gc.generate_petersen())
    _finish(6, t0, 120.0)


def test_criterion_07_matching_guarantee():
    t0 = time.monotonic()
    rng = random.Random(2024)
    produced = 0
    for _ in range(1100):
        k = rng.randrange(2, 9)
        h = build_half_degree_instance(rng, k)
        if not oracles.meets_half_degree_condition(h, range(k), 0, 0):
            continue
        assert isinstance(perfect_matching(h), dict)
        produced += 1
    assert produced >= 1000

    # all instances on at most 7 nodes total, against brute force
    for k in (2, 3):
        cells = [(l, r) for l in range(k) for r in range(k)]
        for mask in range(1 << len(cells)):
            edges = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            outcome = perfect_matching(int_instance(k, edges))
            assert isinstance(outcome, dict) == oracles.brute_matching_exists(
                k, k, edges
            )
    _finish(7, t0, 60.0)


def test_criterion_08_oracle_against_naive():
    t0 = time.monotonic()
    corpus = [gc.generate_cycle(n) for n in range(3, 9)]
    corpus += [gc.generate_complete(4), gc.generate_complete_bipartite(3),
               gc.generate_generalized_petersen(4, 1)]
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randrange(1, 9)
        possible = list(itertools.combinations(range(n), 2))
        edges = [e for e in possible if rng.random() < 0.45]
        corpus.append(gc.Graph.from_edges(n, edges))
    for g in corpus:
        res = eo.exact_b_chromatic(g)
        assert res.phi == oracles.naive_b_chromatic(g)
        if g.vertex_count:
            rep = con.verify_bcoloring(g, res.witness)
            assert rep.is_b_coloring and len(rep.used_colors) == res.phi
    _finish(8, t0, 120.0)


def test_criterion_09_five_cycle_statistics():
    t0 = time.monotonic()
    g = gc.generate_petersen()
    stats = analysis.five_cycle_stats(g)
    assert len(stats.cycles) == 12
    assert all(count == 4 for count in stats.per_edge_count.values())
    report = analysis.check_hypotheses(g)
    assert report.girth == 5
    # 4 cycles per edge is far above the allowed slack, so the count route is off
    assert not report.five_cycle_count_vertex_exists
    assert not report.five_cycle_packing_vertex_exists
    _finish(9, t0, 1.0)


def test_criterion_10_reduction_behavior():
    t0 = time.monotonic()
    rng = random.Random(99)
    cases = 0
    while cases < 100:
        d, n = rng.choice([(3, 14), (3, 16), (3, 20), (4, 20), (4, 24), (5, 32)])
        g = gc.generate_random_c4_free_regular(d, n, rng.randrange(10_000))
        blank = con.PartialColoring(d + 1, (None,) * n)
        start = rng.randrange(n)
        total = con.greedy_extend(g, blank, sources=(start,))
        before = con.verify_bcoloring(g, total)
        trace = con.ConstructionTrace()
        reduced, after = con.reduce_unrealized(g, total, trace=trace)
        assert after == con.verify_bcoloring(g, reduced)
        assert after.is_b_coloring
        assert len(trace.reduction_passes) <= len(before.used_colors)
        # vertices that dominated their color before still do afterwards
        for color, witness in before.realized.items():
            if witness is None:
                continue
            assert reduced.assignment[witness] == color
            seen = {reduced.assignment[u] for u in g.adjacency[witness]}
            assert set(after.used_colors) - {color} <= seen
        cases += 1
    _finish(10, t0, 60.0)
