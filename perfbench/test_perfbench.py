"""Tests of the benchmark itself: python3 -m pytest perfbench

The input generator must give regular C4-free graphs, and every checker
must reject a planted fault while accepting a correct output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import checks
import graphs as G
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def common_neighbour_pair(n, edges):
    """Brute force: a vertex pair with two common neighbours, or None."""
    adj = G.adjacency(n, edges)
    for u, v in itertools.combinations(range(n), 2):
        if len(adj[u] & adj[v]) >= 2:
            return u, v
    return None


def regular_degree(n, edges):
    degrees = {len(s) for s in G.adjacency(n, edges)}
    assert len(degrees) == 1, degrees
    return degrees.pop()


BASES = {
    "petersen": (G.petersen(), 3, False),
    "levi-pg2-3": (G.levi_pg2(3), 4, False),
    "levi-pg2-5": (G.levi_pg2(5), 6, False),
    "line-petersen": (G.line_graph(*G.petersen()), 4, True),
    "truncated-petersen": (G.truncate(*G.petersen()), 3, True),
    "gp-12-5": (G.generalized_petersen(12, 5), 3, False),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_are_regular_and_c4_free(name):
    (n, edges), d, triangle = BASES[name]
    assert regular_degree(n, edges) == d
    assert common_neighbour_pair(n, edges) is None
    assert G.has_triangle(n, edges) == triangle


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_lifts_are_regular_connected_and_c4_free(name, seed):
    base, d, triangle = BASES[name]
    n, edges = G.random_lift(base, 4, random.Random(seed))
    assert n == 4 * base[0] and len(edges) == 4 * len(base[1])
    assert regular_degree(n, edges) == d
    assert common_neighbour_pair(n, edges) is None
    assert G.is_connected(n, edges)
    assert G.has_triangle(n, edges) == triangle


def test_planted_triangle_keeps_regular_and_c4_free():
    n, edges = G.random_lift(G.levi_pg2(5), 3, random.Random(5))
    n, planted = G.plant_triangle(n, edges, random.Random(6))
    assert len(planted) == len(edges)
    assert regular_degree(n, planted) == 6
    assert G.has_triangle(n, planted)
    assert common_neighbour_pair(n, planted) is None


def test_ring_of_blocks_has_connectivity_two():
    rng = random.Random(7)
    n, edges = G.ring_of_blocks([G.random_lift(G.petersen(), 2, rng) for _ in range(3)], rng)
    assert regular_degree(n, edges) == 3
    assert common_neighbour_pair(n, edges) is None
    assert checks.vertex_connectivity(G.adjacency(n, edges)) == 2


def test_vertex_connectivity_of_known_graphs():
    assert checks.vertex_connectivity(G.adjacency(*G.petersen())) == 3
    assert checks.vertex_connectivity(G.adjacency(*G.complete_bipartite(4))) == 4
    assert checks.vertex_connectivity(G.adjacency(*G.levi_pg2(3))) == 4


def test_has_four_cycle_finds_k22():
    assert G.has_four_cycle(*G.complete_bipartite(2))
    assert not G.has_four_cycle(*G.petersen())


def test_parse_inverts_serialize():
    n, edges = G.random_lift(G.petersen(), 3, random.Random(1))
    assert G.parse(G.serialize(n, edges)) == (n, edges)


def test_workload_inputs_depend_only_on_the_seed():
    a = workloads.mid_auto(3)
    b = workloads.mid_auto(3)
    c = workloads.mid_auto(4)
    assert [x.stdin for x in a] == [x.stdin for x in b]
    assert [x.stdin for x in a] != [x.stdin for x in c]


# ----------------------------------------------------------------------------
# checkers reject planted faults
# ----------------------------------------------------------------------------

def colourings(n, edges, k):
    """Every proper colouring of a small graph with colours 1..k."""
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            yield list(assignment)


@pytest.fixture(scope="module")
def petersen_colourings():
    """A b-colouring of Petersen with 3 colours, and a proper 4-colouring
    in which some colour has no vertex seeing all the others."""
    n, edges = G.petersen()
    info = checks.Info(n, edges)

    def is_b(a):
        try:
            checks.check_b_coloring(info, a)
            return True
        except checks.CheckFailed:
            return False

    good = next(a for a in colourings(n, edges, 3) if len(set(a)) == 3 and is_b(a))
    bad = next(a for a in colourings(n, edges, 4) if len(set(a)) == 4 and not is_b(a))
    return info, good, bad


def certificate(assignment, strategy="lower-bound"):
    return json.dumps({"palette": max(assignment), "assignment": assignment,
                       "dominating": {}, "strategy": strategy})


def test_color_check_accepts_a_b_colouring(petersen_colourings):
    info, good, _ = petersen_colourings
    checks.check_color(info, certificate(good))


def test_color_check_rejects_a_monochromatic_edge(petersen_colourings):
    info, good, _ = petersen_colourings
    u, v = info.edges[0]
    broken = list(good)
    broken[v] = broken[u]
    with pytest.raises(checks.CheckFailed, match="monochromatic"):
        checks.check_color(info, certificate(broken))


def test_color_check_rejects_a_colour_without_dominating_vertex(petersen_colourings):
    info, _, bad = petersen_colourings
    with pytest.raises(checks.CheckFailed, match="no vertex that sees"):
        checks.check_color(info, certificate(bad))


def test_color_check_rejects_too_few_colours_for_a_d_plus_1_route(petersen_colourings):
    info, good, _ = petersen_colourings
    with pytest.raises(checks.CheckFailed, match="not d\\+1"):
        checks.check_color(info, certificate(good, strategy="diameter"))


def test_generate_check_rejects_k22_as_a_four_cycle():
    n, edges = G.complete_bipartite(2)
    with pytest.raises(checks.CheckFailed, match="two common neighbours"):
        checks.check_generate(G.serialize(n, edges), d=2, n=4)
    n, edges = G.random_lift(G.petersen(), 2, random.Random(0))
    checks.check_generate(G.serialize(n, edges), d=3, n=20)


def analyze_report(info, separator):
    return json.dumps({
        "regular_degree": info.d, "c4_free": not info.c4, "has_triangle": info.triangle,
        "girth": info.girth, "diameter": info.diameter, "kappa": info.kappa,
        "separator": separator, "phi_lower_bound": info.paper_bound(),
        "phi_upper_bound": info.d + 1,
    })


def test_analyze_check_rejects_a_separator_that_does_not_disconnect():
    rng = random.Random(2)
    n, edges = G.ring_of_blocks([G.relabel(*G.petersen(), rng) for _ in range(3)], rng)
    info = checks.Info(n, edges)
    pairs = list(itertools.combinations(range(n), 2))
    cut = next(p for p in pairs if info.disconnects(set(p)))
    not_cut = next(p for p in pairs if not info.disconnects(set(p)))
    checks.check_analyze(info, analyze_report(info, list(cut)))
    with pytest.raises(checks.CheckFailed, match="does not disconnect"):
        checks.check_analyze(info, analyze_report(info, list(not_cut)))


def test_exact_check_rejects_a_wrong_phi(petersen_colourings):
    info, good, _ = petersen_colourings
    out = json.dumps({"phi": 3, "witness": {"assignment": good}, "explored": 1})
    checks.check_exact(info, out, expected_phi=3)
    with pytest.raises(checks.CheckFailed, match="expected 4"):
        checks.check_exact(info, out, expected_phi=None)


# ----------------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------------

def test_tracer_self_times_add_up_counts_rejected_routes_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from bchromatic import analysis, cli
    from tracer import Tracer

    original = analysis.find_four_cycle
    tracer = Tracer()
    tracer.install()
    tracer.auto = True
    try:
        assert analysis.find_four_cycle is not original
        monkeypatch.setattr(sys, "stdin", io.StringIO(G.serialize(*G.petersen())))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["color", "--input", "-"]) == 0
    finally:
        tracer.uninstall()
    assert analysis.find_four_cycle is original
    top = [s for s in tracer.spans if s[2] == 0]
    assert [s[3] for s in top] == ["cli.main"]
    total = top[0][5] - top[0][4]
    assert sum(s[7] for s in tracer.spans) == pytest.approx(total, rel=1e-6)
    m = tracer.metrics(cli_calls=1, explored=0)
    assert m["analysis.find_four_cycle.calls"] >= 1
    # Petersen: kappa 3 > (3+1)/2 and diameter 2 < 6, so auto rejects the
    # connectivity and diameter routes before the lower-bound one succeeds
    assert m["constructive.route_rejected.calls"] == 2
