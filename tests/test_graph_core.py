import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import graph_core as gc
from tests import oracles
from tests.test_analysis import compare_outputs


class TestGraphBasics:
    def test_from_edges_dedups_and_sorts(self):
        g = gc.Graph.from_edges(3, [(1, 0), (0, 1), (1, 2)])
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.edge_count == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            gc.Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            gc.Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            gc.Graph.from_edges(2, [(-1, 0)])

    def test_degree_and_neighbor_sets(self):
        g = gc.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees() == (3, 1, 1, 1)
        assert g.max_degree() == 3
        assert g.neighbor_sets[0] == {1, 2, 3}
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)

    def test_empty_graph(self):
        g = gc.Graph.from_edges(0, [])
        assert g.vertex_count == 0 and g.edge_count == 0
        assert g.max_degree() == 0


class TestEdgeListFormat:
    def test_round_trip(self):
        g = gc.generate_petersen()
        assert gc.parse_edge_list(gc.serialize_edge_list(g)) == g

    def test_parse_simple(self):
        g = gc.parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(gc.ParseError, match="line 1"):
            gc.parse_edge_list("nonsense\n")
        with pytest.raises(gc.ParseError, match="line 2"):
            gc.parse_edge_list("2 1\n0 x\n")
        with pytest.raises(gc.ParseError, match="line 3"):
            gc.parse_edge_list("3 2\n0 1\n")  # truncated
        err = None
        try:
            gc.parse_edge_list("2 1\n0 1\n0 1\n")
        except gc.ParseError as exc:
            err = exc
        assert err is not None and err.line == 3

    def test_parse_rejects_trailing_garbage(self):
        with pytest.raises(gc.ParseError):
            gc.parse_edge_list("2 1\n0 1\nextra junk\n")

    def test_vertex_ceiling(self, monkeypatch):
        with pytest.raises(gc.ParseError, match="line 1.*ceiling"):
            gc.parse_edge_list("1000000000 0\n")
        monkeypatch.setattr(gc, "PARSE_VERTEX_CEILING", 4)
        assert gc.parse_edge_list("4 0\n").vertex_count == 4
        with pytest.raises(gc.ParseError, match="line 1.*ceiling"):
            gc.parse_edge_list("5 0\n")


class TestDimacsFormat:
    def test_parse_with_comments(self):
        text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
        g = gc.parse_dimacs(text)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_errors(self):
        with pytest.raises(gc.ParseError):
            gc.parse_dimacs("e 1 2\np edge 2 1\n")  # edge before header
        with pytest.raises(gc.ParseError):
            gc.parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")
        with pytest.raises(gc.ParseError):
            gc.parse_dimacs("p edge 2 1\nq 1 2\n")
        with pytest.raises(gc.ParseError):
            gc.parse_dimacs("p edge 2 1\ne 0 1\n")  # vertices are 1-based

    def test_vertex_ceiling(self, monkeypatch):
        with pytest.raises(gc.ParseError, match="line 2.*ceiling"):
            gc.parse_dimacs("c huge\np edge 1000000000 0\n")
        monkeypatch.setattr(gc, "PARSE_VERTEX_CEILING", 4)
        assert gc.parse_dimacs("p edge 4 0\n").vertex_count == 4
        with pytest.raises(gc.ParseError, match="line 1.*ceiling"):
            gc.parse_dimacs("p edge 5 0\n")


class TestGenerators:
    def test_petersen_shape(self):
        g = gc.generate_petersen()
        assert g.vertex_count == 10 and g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_complete_bipartite(self):
        g = gc.generate_complete_bipartite(3)
        assert g.vertex_count == 6 and g.edge_count == 9
        assert all(g.degree(v) == 3 for v in range(6))
        assert not g.has_edge(0, 1) and g.has_edge(0, 3)

    def test_cycle(self):
        g = gc.generate_cycle(5)
        assert g.edge_count == 5 and all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(ValueError):
            gc.generate_cycle(2)

    def test_complete(self):
        g = gc.generate_complete(4)
        assert g.edge_count == 6

    def test_generalized_petersen_cube(self):
        g = gc.generate_generalized_petersen(4, 1)
        assert g.vertex_count == 8 and g.edge_count == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_heawood(self):
        g = gc.generate_heawood()
        assert g.vertex_count == 14 and g.edge_count == 21
        assert all(g.degree(v) == 3 for v in range(14))

    def test_disjoint_union_offsets_second_block(self):
        g = gc.disjoint_union(gc.generate_cycle(3), gc.generate_cycle(3))
        assert g.vertex_count == 6
        assert g.has_edge(0, 1) and g.has_edge(3, 4) and not g.has_edge(2, 3)


class TestCubicGadgets:
    def test_bridge_pair_is_cubic_and_c4_free(self):
        from bchromatic import analysis

        g = gc.generate_cubic_bridge_pair()
        assert g.vertex_count == 24
        assert all(g.degree(v) == 3 for v in range(24))
        assert analysis.find_four_cycle(g) is None
        diam, _ = analysis.diameter(g)
        assert diam >= 6

    @pytest.mark.parametrize("beads", [2, 3, 4])
    def test_chain_is_cubic_and_c4_free(self, beads):
        from bchromatic import analysis

        g = gc.generate_cubic_chain(beads)
        assert g.vertex_count == 10 * beads
        assert all(g.degree(v) == 3 for v in range(g.vertex_count))
        assert analysis.find_four_cycle(g) is None

    def test_chain_needs_two_beads(self):
        with pytest.raises(ValueError):
            gc.generate_cubic_chain(1)


class TestRandomRegularC4Free:
    def test_feasibility_errors(self):
        with pytest.raises(ValueError):
            gc.generate_random_c4_free_regular(3, 9, 0)  # n*d odd
        with pytest.raises(ValueError):
            gc.generate_random_c4_free_regular(5, 4, 0)  # d >= n
        with pytest.raises(ValueError):
            gc.generate_random_c4_free_regular(4, 10, 0)  # below the n >= d^2-d+1 floor

    def test_impossible_small_case_raises_generation_error(self):
        with pytest.raises(gc.GenerationError):
            gc.generate_random_c4_free_regular(2, 4, 0)  # the only 2-regular n=4 graph is a 4-cycle

    def test_deterministic_per_seed(self):
        a = gc.generate_random_c4_free_regular(3, 16, 5)
        b = gc.generate_random_c4_free_regular(3, 16, 5)
        c = gc.generate_random_c4_free_regular(3, 16, 6)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("d,n", [(3, 14), (3, 20), (4, 20), (5, 32), (6, 48)])
    def test_output_is_regular_and_c4_free(self, d, n):
        from bchromatic import analysis

        g = gc.generate_random_c4_free_regular(d, n, 1)
        assert analysis.is_regular(g) == d
        assert analysis.find_four_cycle(g) is None

    def test_small_degrees_direct(self):
        g = gc.generate_random_c4_free_regular(2, 5, 0)
        assert all(g.degree(v) == 2 for v in range(5))
        g = gc.generate_random_c4_free_regular(1, 6, 0)
        assert all(g.degree(v) == 1 for v in range(6))
        g = gc.generate_random_c4_free_regular(0, 4, 0)
        assert g.edge_count == 0

    def test_vertex_ceiling_precedes_the_swap_table(self, monkeypatch):
        monkeypatch.setattr(gc, "RANDOM_VERTEX_CEILING", 30)
        g = gc.generate_random_c4_free_regular(3, 30, 0)
        assert g.vertex_count == 30
        with pytest.raises(gc.CeilingExceeded):
            gc.generate_random_c4_free_regular(3, 32, 0)

    def test_final_recount_catches_a_wrong_score(self, monkeypatch):
        real = gc._SwapState.score_change

        def lying(state, changes):
            # a worsening swap is scored as one that clears every 4-cycle
            change = real(state, changes)
            return -state.score if change > 0 else change

        monkeypatch.setattr(gc._SwapState, "score_change", lying)
        with pytest.raises(AssertionError, match="internal"):
            gc.generate_random_c4_free_regular(4, 20, 0)

    def test_peak_memory(self):
        # the counts are O(n·d²); anything O(n²) exceeds the bound at n = 2000
        tracemalloc.start()
        try:
            gc.generate_random_c4_free_regular(3, 2000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


# sha256 of serialize_edge_list(generate_random_c4_free_regular(d, n, seed)).
# A change that keeps every draw and accept decision keeps these; a change
# to the search that alters the output for a seed updates them and says so.
GENERATED_SHA256 = {
    (3, 20, 7): "d4f45b839a3e0ffeb5cc6015f3f9bffeae1d8233d2a62a1774e6b73bc933a74e",
    (4, 20, 0): "84fa646ee75b58f14da9ece8cef668877427f98751579a3215dc03f4b9598298",
    (5, 32, 1): "5d12028daec3c58d706dc2463f411caf255508924e32f6fe749eec76fe3243fc",
    (6, 64, 2): "12b9157d630a9654d7dfa0b4b4786d04503e243cc8dcd49fb528d4c424b85a90",
    (3, 2000, 0): "bef838a3906379c1fb1946e53369a20d269cc530b9e423650dcea4705d6e3305",
}


@pytest.mark.parametrize("d,n,seed", sorted(GENERATED_SHA256))
def test_generated_graphs_are_pinned(d, n, seed):
    text = gc.serialize_edge_list(gc.generate_random_c4_free_regular(d, n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[d, n, seed]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_below_draws_as_randrange_does(seed):
    # n = 1..4100 holds every power of two up to 4096 and both its neighbours
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 4101):
        for _ in range(3):
            assert gc._below(ours.getrandbits, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_generator_against_oracles(data):
    d = data.draw(st.sampled_from([3, 4, 5]))
    floor = d * d - d + 1
    n = data.draw(
        st.integers(math.ceil(1.4 * floor), 3 * floor).filter(lambda n: n * d % 2 == 0)
    )
    g = gc.generate_random_c4_free_regular(d, n, data.draw(st.integers(0, 10**6)))
    degree = Counter(v for edge in g.edges() for v in edge)
    assert g.vertex_count == n
    assert all(degree[v] == d for v in range(n))
    assert oracles.brute_four_cycle(g) is None


def _pair_counts(adj: list[set[int]]) -> dict[int, int]:
    n = len(adj)
    return {
        u * n + v: len(adj[u] & adj[v])
        for u in range(n)
        for v in range(u + 1, n)
        if adj[u] & adj[v]
    }


def _score(adj: list[set[int]]) -> int:
    return sum(math.comb(c, 2) for c in _pair_counts(adj).values())


def _snapshot(state: gc._SwapState):
    return (
        [set(ns) for ns in state.adj],
        list(state.edge_list),
        dict(state.edge_index),
        dict(state.counts),
        state.score,
        list(state.bad_pairs),
        dict(state.bad_index),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_swap_scoring_matches_a_recount(data):
    d = data.draw(st.integers(3, 5), label="d")
    n = data.draw(st.integers(d + 2, 12).filter(lambda n: n * d % 2 == 0), label="n")
    # shuffled circulants: small and dense, so triangles, 4-cycles and
    # switches whose four edges interact are all common
    state = gc._SwapState(gc._circulant_adjacency(n, d))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    gc._randomize(state, rng, swaps=data.draw(st.integers(0, 4 * n), label="shuffle"))
    assert all(len(ns) == d for ns in state.adj)
    state.count()
    assert state.counts == _pair_counts(state.adj)

    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.sampled_from(sorted(state.adj[a])), label="b")
    two_steps = sorted({w for x in state.adj[a] for w in state.adj[x]})
    c = data.draw(
        st.one_of(
            st.sampled_from(sorted(state.adj[b])),  # c ∈ N(b)
            st.sampled_from(two_steps),  # the new edge ac closes a triangle
            st.integers(0, n - 1),
        ),
        label="c",
    )
    dd = data.draw(st.sampled_from(sorted(state.adj[c])), label="d'")
    keep_equal = data.draw(st.booleans(), label="keep_equal")

    before = _snapshot(state)
    legal = state.legal(a, b, c, dd)
    if legal:
        change = state.score_change(state.pair_changes(a, b, c, dd))
        switched = [set(ns) for ns in state.adj]
        for x, y in ((a, b), (c, dd)):
            switched[x].discard(y)
            switched[y].discard(x)
        for x, y in ((a, c), (b, dd)):
            switched[x].add(y)
            switched[y].add(x)
        assert change == _score(switched) - _score(state.adj)
    accepted = state.try_swap(a, b, c, dd, keep_equal)
    assert accepted == (legal and (change < 0 or (change == 0 and keep_equal)))
    if not accepted:
        assert _snapshot(state) == before
        return
    assert state.adj == switched
    assert state.counts == _pair_counts(switched)
    assert 0 not in state.counts.values()
    assert state.score == _score(switched)
    assert sorted(state.bad_pairs) == sorted(k for k, c in state.counts.items() if c >= 2)
    assert all(state.bad_pairs[i] == k for k, i in state.bad_index.items())
    assert sorted(state.edge_list) == sorted(
        (u, v) for u in range(n) for v in switched[u] if u < v
    )
    assert all(state.edge_list[i] == e for e, i in state.edge_index.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_serialize_parse_round_trip_random(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    g = gc.Graph.from_edges(n, edges)
    assert gc.parse_edge_list(gc.serialize_edge_list(g)) == g


def _parsed(parse, text):
    """parse(text) as ("graph", graph), or ("error", line, message)."""
    try:
        return ("graph", parse(text))
    except gc.ParseError as exc:
        return ("error", exc.line, str(exc))


FAULTS = ("none", "blank line", "field count", "non-integer", "out of range", "self-loop",
          "too few lines", "after the edges", "header")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_edge_list_against_the_reference(data):
    """parse_edge_list and the reference line loop with Graph.from_edges
    agree, graph for graph or error for error (line and message), on valid
    texts with tabs, CRLF endings, repeated and reversed edges, and on texts
    with one fault injected."""
    n = data.draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    edge_lines = [f"{data.draw(st.sampled_from(['', ' ', chr(9)]))}{u}{data.draw(gap)}{v}"
                  for u, v in edges]
    fault = data.draw(st.sampled_from(FAULTS))
    at = data.draw(st.integers(min_value=0, max_value=len(edge_lines)))
    if fault == "blank line":
        edge_lines.insert(at, data.draw(st.sampled_from(["", " ", "\t"])))
    elif fault == "field count":
        edge_lines.insert(at, data.draw(st.sampled_from(["3", "0 1 2", "1  2 3 4"])))
    elif fault == "non-integer":
        edge_lines.insert(at, data.draw(st.sampled_from(["0 x", "y 1", "1.5 2", "0x1 2", "1 2,"])))
    elif fault == "out of range":
        bad = data.draw(st.sampled_from([-1, n, n + 3]))
        other = data.draw(st.sampled_from([bad, 0]))
        edge_lines.insert(at, data.draw(st.sampled_from([f"{bad} {other}", f"{other} {bad}"])))
    elif fault == "self-loop" and n:
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        edge_lines.insert(at, f"{u} {u}")
    # the injected line is one of the m declared edge lines
    header = f"{n} {len(edge_lines)}"
    if fault == "too few lines":
        header = f"{n} {len(edge_lines) + data.draw(st.integers(min_value=1, max_value=3))}"
    elif fault == "after the edges":
        edge_lines += ["", data.draw(st.sampled_from(["0 1", "junk", "\t#"]))]
    elif fault == "header":
        header = data.draw(st.sampled_from(["", f"{n}", f"{n} {len(edges)} 0", f"{n} m",
                                            f"-1 {len(edges)}", f"{n} -2", "1000001 0"]))
    ending = data.draw(st.sampled_from(["\n", "\r\n"]))
    tail = data.draw(st.sampled_from(["", ending, ending * 2 + " "]))
    text = ending.join([header, *edge_lines]) + tail
    assert _parsed(gc.parse_edge_list, text) == _parsed(oracles.reference_parse_edge_list, text)


@pytest.mark.parametrize("name", sorted(compare_outputs.EDGE_LIST_TEXTS))
def test_parse_edge_list_on_the_compared_texts(name):
    text = compare_outputs.EDGE_LIST_TEXTS[name]
    assert _parsed(gc.parse_edge_list, text) == _parsed(oracles.reference_parse_edge_list, text)
