import importlib.util
import io
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bchromatic import analysis, cli, graph_core as gc
from tests import oracles

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


CUBE_EDGES = compare_outputs.CUBE_EDGES


def random_graph(data, max_n=10):
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return gc.Graph.from_edges(n, edges)


def random_density_graph(data, max_n=16):
    """A graph whose edge density ranges over [0, 1], skewed sparse (the
    square of a uniform draw), so that graphs without a 4-cycle and graphs
    with one come up about equally often."""
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    p = data.draw(st.floats(min_value=0.0, max_value=1.0)) ** 2
    rng = data.draw(st.randoms(use_true_random=False))
    return gc.Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _regular_edges(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """A d-regular circulant on n vertices (n > d, nd even), mixed by up to
    3n random edge switches ab, ce -> ac, be that keep it simple."""
    offsets = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = {tuple(sorted((i, (i + k) % n))) for i in range(n) for k in offsets}
    for _ in range(rng.randrange(3 * n + 1)):
        (a, b), (c, e) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, c))), tuple(sorted((b, e)))}
        if len({a, b, c, e}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, e)} | new
    return sorted(edges)


def random_regular_graph(data, max_n=22) -> gc.Graph:
    """A randomly labelled d-regular graph, d = 2-6, on at most max_n
    vertices: a switched circulant (mostly kappa = d), or, for d >= 3, a
    ring of two or more switched circulants, each less one edge whose ends
    join the neighbouring blocks (kappa <= 2 < d)."""
    d = data.draw(st.integers(min_value=2, max_value=6))
    rng = data.draw(st.randoms(use_true_random=False))
    blocks = 1
    if d >= 3 and data.draw(st.booleans()):
        blocks = data.draw(st.integers(min_value=2, max_value=max_n // (d + 1)))
    m = rng.randint(d + 1, max_n // blocks)
    m -= m * d % 2  # m odd only with d odd, so m - 1 > d
    if blocks == 1:
        edges = _regular_edges(rng, m, d)
    else:
        edges, ends = [], []
        for i in range(blocks):
            block = [(u + i * m, v + i * m) for u, v in _regular_edges(rng, m, d)]
            ends.append(block.pop(rng.randrange(len(block))))
            edges += block
        edges += [(ends[i][1], ends[(i + 1) % blocks][0]) for i in range(blocks)]
    n = blocks * m
    label = list(range(n))
    rng.shuffle(label)
    return gc.Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def random_tree_graph(data, max_n=30) -> gc.Graph:
    """A random tree on 1 to max_n vertices plus up to three random edges,
    randomly labelled: connected, with long shortest paths."""
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    rng = data.draw(st.randoms(use_true_random=False))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    label = list(range(n))
    rng.shuffle(label)
    return gc.Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def random_ring(data) -> gc.Graph:
    """A ring of 2-4 switched circulants (compare_outputs.ring_of_blocks),
    each d-regular with d = 3-5: kappa <= 2 < d."""
    d = data.draw(st.integers(min_value=3, max_value=5))
    rng = data.draw(st.randoms(use_true_random=False))
    blocks = []
    for _ in range(data.draw(st.integers(min_value=2, max_value=4))):
        m = rng.randint(d + 1, 12)
        m -= m * d % 2
        blocks.append(gc.Graph.from_edges(m, _regular_edges(rng, m, d)))
    return compare_outputs.ring_of_blocks(blocks)


def c4_free_ring() -> gc.Graph:
    """A ring of three C4-free 4-regular blocks on 26 vertices each: kappa = 2."""
    return compare_outputs.ring_of_blocks(
        [gc.generate_random_c4_free_regular(4, 26, s) for s in range(3)]
    )


def petersen_lift(copies: int, seed: int) -> gc.Graph:
    """Random lift of Petersen: each edge (u, v) becomes the edges
    (u, i)-(v, pi(i)) for a random permutation pi; C4-free and cubic."""
    rng = random.Random(seed)
    edges = []
    for u, v in gc.generate_petersen().edges():
        pi = list(range(copies))
        rng.shuffle(pi)
        edges += [(u * copies + i, v * copies + pi[i]) for i in range(copies)]
    return gc.Graph.from_edges(10 * copies, edges)


def hub_graph(data) -> gc.Graph:
    """1-3 hub vertices joined to 2-5 dense clusters, plus a few random
    edges, randomly labelled: a separator of hubs often leaves three or more
    clusters apart, which a G(n, p) graph almost never does."""
    rng = data.draw(st.randoms(use_true_random=False))
    hubs = data.draw(st.integers(min_value=1, max_value=3))
    n, edges = hubs, set()
    for _ in range(data.draw(st.integers(min_value=2, max_value=5))):
        cluster = range(n, n + rng.randint(1, 5))
        n = cluster.stop
        edges |= {(u, v) for u in cluster for v in cluster if u < v and rng.random() < 0.8}
        edges |= {(h, v) for h in range(hubs) for v in cluster if rng.random() < 0.5}
    for _ in range(rng.randint(0, 3)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    label = list(range(n))
    rng.shuffle(label)
    return gc.Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count the calls of module.name from here on, in a one-item list."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRegularityAndSmallPatterns:
    def test_is_regular(self, petersen):
        assert analysis.is_regular(petersen) == 3
        assert analysis.is_regular(gc.Graph.from_edges(0, [])) is None
        assert analysis.is_regular(gc.Graph.from_edges(3, [(0, 1)])) is None
        assert analysis.is_regular(gc.Graph.from_edges(3, [])) == 0

    def test_find_triangle(self):
        g = gc.Graph.from_edges(5, [(0, 3), (3, 4), (0, 4), (1, 2)])
        assert analysis.find_triangle(g) == (0, 3, 4)
        assert analysis.find_triangle(g) is not None
        assert analysis.find_triangle(gc.generate_petersen()) is None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_find_triangle_matches_brute(self, data):
        g = random_density_graph(data)
        assert analysis.find_triangle(g) == oracles.brute_triangle(g)

    def test_find_four_cycle(self):
        g = gc.generate_complete_bipartite(2)
        cyc = analysis.find_four_cycle(g)
        assert cyc is not None
        a, b, c, d = cyc
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a)
        assert len({a, b, c, d}) == 4
        assert analysis.find_four_cycle(gc.generate_petersen()) is None
        assert analysis.find_four_cycle(gc.generate_heawood()) is None
        # a 4-cycle with a chord still counts
        g2 = gc.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert analysis.find_four_cycle(g2) is not None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_find_four_cycle_matches_brute(self, data):
        g = random_density_graph(data)
        assert analysis.find_four_cycle(g) == oracles.brute_four_cycle(g)

    def test_four_cycle_planted_far_from_vertex_zero(self):
        g = petersen_lift(100, seed=0)
        assert analysis.find_four_cycle(g) is None
        # the first path u - x - y - w on vertices >= 500; the edge uw closes
        # a 4-cycle, and every 4-cycle of the new graph passes through uw
        u, x, y, w = next(
            (u, x, y, w)
            for u in range(500, g.vertex_count) for x in g.adjacency[u] if x >= 500
            for y in g.adjacency[x] if y >= 500 and y != u
            for w in g.adjacency[y] if w >= 500 and w != x
        )
        planted = gc.Graph.from_edges(g.vertex_count, list(g.edges()) + [(u, w)])
        cyc = analysis.find_four_cycle(planted)
        assert cyc == oracles.brute_four_cycle(planted)
        assert {u, w} <= set(cyc) and min(cyc) >= 500


class TestGirth:
    def test_known(self, petersen, heawood, cube):
        assert analysis.girth(petersen) == 5
        assert analysis.girth(heawood) == 6
        assert analysis.girth(cube) == 4
        assert analysis.girth(gc.generate_cycle(7)) == 7
        assert analysis.girth(gc.generate_complete(4)) == 3
        assert analysis.girth(gc.Graph.from_edges(4, [(0, 1), (1, 2)])) == math.inf

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_brute(self, data):
        g = random_graph(data)
        assert analysis.girth(g) == oracles.brute_girth(g)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_stops_at_the_proved_floor(self, data):
        """Given the floor the gates prove (3, 4 with no triangle, 5 with no
        triangle and no 4-cycle), girth is still exact, on random graphs,
        on trees with a few extra edges and on the cycles C3-C7; so is the
        girth that check_hypotheses reports."""
        kind = data.draw(st.sampled_from(["random", "tree", "cycle"]))
        if kind == "random":
            g = random_density_graph(data, max_n=12)
        elif kind == "tree":
            g = random_tree_graph(data, max_n=14)
        else:
            g = gc.generate_cycle(data.draw(st.integers(min_value=3, max_value=7)))
        floor = (3 if oracles.brute_triangle(g) is not None
                 else 4 if oracles.brute_four_cycle(g) is not None else 5)
        assert analysis.girth(g, at_least=floor) == oracles.brute_girth(g)
        assert analysis.check_hypotheses(g).girth == oracles.brute_girth(g)


class TestDiameterAndComponents:
    def test_known(self, petersen, heawood):
        assert analysis.diameter(petersen) == (2, (0, 2))
        assert analysis.diameter(heawood)[0] == 3
        assert analysis.diameter(gc.generate_cycle(12))[0] == 6
        assert analysis.diameter(gc.Graph.from_edges(1, [])) == (0, None)
        assert analysis.diameter(gc.Graph.from_edges(0, [])) == (0, None)

    def test_disconnected(self):
        g = gc.disjoint_union(gc.generate_cycle(3), gc.generate_cycle(3))
        diam, witness = analysis.diameter(g)
        assert diam == math.inf and witness == (0, 3)

    def test_witness_distance_is_the_diameter(self):
        g = gc.generate_cubic_chain(3)
        diam, (u, v) = analysis.diameter(g)
        dist = analysis._bfs_distances(g, u)
        assert dist[v] == diam == 7

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_brute(self, data):
        g = random_graph(data)
        assert analysis.diameter(g)[0] == oracles.brute_diameter(g)

    @pytest.mark.parametrize("batch", [analysis._BFS_BATCH, 1, 3])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_bfs_reference(self, batch, data):
        """Value and witness, with one batch of sources or, batched by 1 or
        3, several: sparse connected graphs, G(n, p) graphs (sparse ones are
        mostly disconnected), and unions of two."""
        kind = data.draw(st.sampled_from(["tree", "density", "union"]))
        g = random_tree_graph(data) if kind == "tree" else random_density_graph(data)
        if kind == "union":
            g = gc.disjoint_union(g, random_tree_graph(data, max_n=6))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BFS_BATCH", batch)
            assert analysis.diameter(g) == oracles.bfs_diameter(g)

    @pytest.mark.parametrize("batch", [analysis._BFS_BATCH, 1, 3])
    def test_corpus_matches_bfs_reference(self, monkeypatch, small_corpus, batch):
        """The empty graph, one vertex, and the disconnected graphs of the
        corpus among them."""
        monkeypatch.setattr(analysis, "_BFS_BATCH", batch)
        for name, g in small_corpus:
            assert analysis.diameter(g) == oracles.bfs_diameter(g), name

    def test_masks_fit_the_byte_ceiling(self, monkeypatch):
        """The batch narrows so that the masks' bits fit _BFS_MASK_BYTES;
        each vertex adds under 100 bytes of object headers and list slots.
        With the ceiling at a quarter of what full batches need on a
        600-vertex lift (width 150), the peak stays inside that bound, which
        full batches pass, and the value and witness do not change."""
        g = petersen_lift(60, 0)
        n = g.vertex_count
        peaks, results = [], []
        for ceiling in (analysis._BFS_MASK_BYTES, n * n // 16):
            monkeypatch.setattr(analysis, "_BFS_MASK_BYTES", ceiling)
            tracemalloc.start()
            try:
                results.append(analysis.diameter(g))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = n * n // 16 + 100 * n
        assert results[0] == results[1] == oracles.bfs_diameter(g)
        assert peaks[1] < bound < peaks[0]

    def test_word_budget(self, monkeypatch, capsys, petersen):
        """Petersen takes one batch of one word and three rounds, the last
        of which spreads nothing, each charged n + 2m = 40 words: a budget of
        120 lets it run, 119 raises CeilingExceeded, and analyze then exits
        2 with the message on stderr."""
        monkeypatch.setattr(analysis, "_BFS_WORD_BUDGET", 120)
        assert analysis.diameter(petersen) == (2, (0, 2))
        monkeypatch.setattr(analysis, "_BFS_WORD_BUDGET", 119)
        monkeypatch.setattr("sys.stdin", io.StringIO(gc.serialize_edge_list(petersen)))
        assert cli.main(["analyze", "--input", "-", "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bchromatic: diameter search passed 119 mask words\n"

    def test_components(self):
        g = gc.Graph.from_edges(5, [(1, 3), (0, 4)])
        assert analysis.connected_components(g) == ((0, 4), (1, 3), (2,))
        assert analysis.connected_components(g, removed=frozenset({3})) == ((0, 4), (1,), (2,))


class TestVertexConnectivity:
    def test_known_certificates(self, petersen):
        cert = analysis.vertex_connectivity(petersen)
        assert cert.kappa == 3
        assert len(cert.separator) == 3
        assert len(cert.components) >= 2

    def test_complete_and_tiny(self):
        assert analysis.vertex_connectivity(gc.generate_complete(5)) == analysis.CutCertificate(
            4, (1, 2, 3, 4), ((0,),)
        )
        assert analysis.vertex_connectivity(gc.Graph.from_edges(0, [])) == analysis.CutCertificate(
            0, (), ()
        )
        assert analysis.vertex_connectivity(gc.Graph.from_edges(1, [])).kappa == 0

    def test_disconnected(self):
        g = gc.disjoint_union(gc.generate_cycle(3), gc.generate_cycle(5))
        cert = analysis.vertex_connectivity(g)
        assert cert.kappa == 0 and cert.separator == ()
        assert cert.components == ((0, 1, 2), (3, 4, 5, 6, 7))

    def test_separator_disconnects(self):
        g = gc.generate_cubic_chain(2)
        cert = analysis.vertex_connectivity(g)
        assert cert.kappa == 2
        comps = analysis.connected_components(g, removed=frozenset(cert.separator))
        assert len(comps) >= 2
        assert comps == cert.components

    def test_pinned_certificates(self):
        """Graphs with several minimum cuts: the certificate picked among
        them, not only kappa, stays as recorded."""
        cut = analysis.CutCertificate
        heawoods = gc.disjoint_union(gc.generate_heawood(), gc.generate_heawood())
        assert analysis.vertex_connectivity(gc.generate_cubic_chain(3)) == cut(
            2, (0, 1), (tuple(range(2, 10)), tuple(range(10, 30)))
        )
        assert analysis.vertex_connectivity(gc.generate_cubic_chain(4)) == cut(
            2, (0, 1), (tuple(range(2, 10)), tuple(range(10, 40)))
        )
        assert analysis.vertex_connectivity(gc.generate_cubic_bridge_pair()) == cut(
            1, (22,), ((*range(10), 20, 21), (*range(10, 20), 23))
        )
        assert analysis.vertex_connectivity(heawoods) == cut(
            0, (), (tuple(range(14)), tuple(range(14, 28)))
        )
        assert analysis.vertex_connectivity(gc.generate_petersen()) == cut(
            3, (0, 2, 6), ((1,), (3, 4, 5, 7, 8, 9))
        )
        assert analysis.vertex_connectivity(gc.generate_heawood()) == cut(
            3, (0, 2, 10), ((1,), (3, 4, 5, 6, 7, 8, 9, 11, 12, 13))
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_brute(self, data):
        g = random_graph(data, max_n=8)
        assert analysis.vertex_connectivity(g).kappa == oracles.brute_vertex_connectivity(g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_sweep_reference(self, data):
        g = random_density_graph(data)
        cert = analysis.vertex_connectivity(g)
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_regular_matches_sweep_reference(self, data):
        g = random_regular_graph(data)
        cert = analysis.vertex_connectivity(g)
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_start_vertex_in_every_minimum_separator(self):
        """Vertex 0 has the minimum degree 4 and is the only cut vertex
        between two copies of K5: kappa comes from a pair of its neighbours,
        not from 0 and a non-neighbour (those pairs have connectivity 2)."""
        edges = [(u + 1, v + 1) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u + 6, v + 6) for u in range(5) for v in range(u + 1, 5)]
        g = gc.Graph.from_edges(11, edges + [(0, 1), (0, 2), (0, 6), (0, 7)])
        cert = analysis.vertex_connectivity(g)
        assert cert == analysis.CutCertificate(1, (0,), ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)))
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_flow_count_on_lift(self, monkeypatch, capsys, tmp_path):
        """A cubic lift with kappa = d = 3: disjoint paths settle every
        Esfahanian-Hakimi pair, so no flow runs, in vertex_connectivity or
        in analyze."""
        g = petersen_lift(30, seed=0)
        flows = count_calls(monkeypatch, analysis, "_min_vertex_cut")
        assert analysis.vertex_connectivity(g).kappa == 3
        path = tmp_path / "lift.txt"
        path.write_text(gc.serialize_edge_list(g))
        assert cli.main(["analyze", "--input", str(path), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == 3
        assert flows[0] == 0

    def test_fallback_flow_on_cube(self, monkeypatch):
        """On the cube, labelled so that 0 and 7 are antipodal, three
        disjoint paths join 0 and 7 (through 1-6, 2-5 and 3-4), but the
        greedy search takes 0-1-4-7 and 0-2-5-7 first, which leave 3 no way
        through. So the flow capped at 3 runs for that pair, goes on from
        those two paths, reaches its cap with one augmentation, and the
        certificate stays the reference's."""
        g = gc.Graph.from_edges(8, CUBE_EDGES)
        assert analysis._disjoint_paths(g.adjacency, 0, 7, 3) == (2, {1: 0, 4: 1, 2: 0, 5: 2})
        assert analysis._disjoint_paths(g.adjacency, 0, 7, 2)[0] == 2
        flows = []
        original = analysis._min_vertex_cut

        def recorded(*args):
            entered = args[4]
            result = original(*args)
            flows.append((args[1:4], entered, result[:2]))
            return result

        monkeypatch.setattr(analysis, "_min_vertex_cut", recorded)
        cert = analysis.vertex_connectivity(g)
        assert flows == [((0, 7, 3), 2, (3, None))]
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_flows_go_on_from_the_greedy_paths(self, monkeypatch):
        """On c4_free_ring() the greedy search finds 3 of 4 paths for the
        first Esfahanian-Hakimi pair (0, 25), and its flow reaches 4 from
        there; for (0, 26) it finds 2, and the flow returns kappa = 2 with
        its cut."""
        flows = []
        original = analysis._min_vertex_cut

        def recorded(*args):
            entered = args[4]
            result = original(*args)
            flows.append((args[1:4], entered, result[:2]))
            return result

        monkeypatch.setattr(analysis, "_min_vertex_cut", recorded)
        assert analysis.vertex_connectivity(c4_free_ring()).kappa == 2
        assert flows == [((0, 25, 4), 3, (4, None)), ((0, 26, 4), 2, (2, (1, 56)))]

    def test_flow_walks_back_along_the_paths(self):
        """Between 0 and 14 the greedy search takes 0-9-10-11-14, which
        blocks every other path. The augmenting path enters 11 from 6 and
        walks back over 10 to 9, which it turns to 12, so 10 leaves the
        paths; the last search passes 10 from 8 and walks back from 11 to
        2. The cut is the reference's, closest to 0."""
        g = gc.Graph.from_edges(15, [
            (0, 1), (0, 2), (0, 9), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 11),
            (7, 8), (8, 10), (9, 10), (9, 12), (10, 11), (11, 14), (12, 13), (13, 14),
        ])
        found, prev = analysis._disjoint_paths(g.adjacency, 0, 14, 3)
        assert (found, prev) == (1, {9: 0, 10: 9, 11: 10})
        assert analysis._min_vertex_cut(g.adjacency, 0, 14, 3, found, prev) == (2, (9, 11), [12, 13, 14])
        assert prev == {2: 0, 4: 2, 6: 4, 11: 6, 9: 0, 12: 9, 13: 12}
        assert oracles._min_vertex_cut(oracles._split_graph(g), 0, 14, 3) == (2, (9, 11))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flow_from_greedy_paths_matches_reference(self, data):
        """For a random non-adjacent pair s < t and cap 1 to delta + 1, the
        flow from the paths of _disjoint_paths gives the reference's flow
        value and cut, reached from zero on the split graph; beyond holds,
        apart from s, every vertex outside the cut and the side of s."""
        g = data.draw(st.sampled_from((random_density_graph, random_ring, hub_graph)))(data)
        n = g.vertex_count
        pairs = [(s, t) for s, t in itertools.combinations(range(n), 2) if not g.has_edge(s, t)]
        assume(pairs)
        s, t = data.draw(st.sampled_from(pairs))
        cap = data.draw(st.integers(min_value=1, max_value=min(g.degrees()) + 1))
        found, prev = analysis._disjoint_paths(g.adjacency, s, t, cap)
        flow, cut, beyond = analysis._min_vertex_cut(g.adjacency, s, t, cap, found, prev)
        assert (flow, cut) == oracles._min_vertex_cut(oracles._split_graph(g), s, t, cap)
        if cut is not None:
            side = next(c for c in oracles._components(g, frozenset(cut)) if s in c)
            assert set(beyond) - {s} == set(range(n)) - set(cut) - set(side)

    def test_flow_budget(self, monkeypatch, capsys):
        """The cube of test_fallback_flow_on_cube runs one flow, charged its
        whole split graph (2n + 4m = 64 arcs): a budget of 64 lets it run,
        63 raises CeilingExceeded, and analyze then exits 2 with the
        message on stderr."""
        g = gc.Graph.from_edges(8, CUBE_EDGES)
        monkeypatch.setattr(analysis, "_FLOW_ARC_BUDGET", 64)
        assert analysis.vertex_connectivity(g).kappa == 3
        monkeypatch.setattr(analysis, "_FLOW_ARC_BUDGET", 63)
        with pytest.raises(gc.CeilingExceeded, match="passed 63 split-graph arcs"):
            analysis.vertex_connectivity(g)
        monkeypatch.setattr("sys.stdin", io.StringIO(gc.serialize_edge_list(g)))
        assert cli.main(["analyze", "--input", "-", "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bchromatic: vertex connectivity flows passed 63 split-graph arcs\n"

    def test_found_cut_settles_only_sinks_beyond_it(self):
        """From s = 1 the first cut, {3} for the sink 2, leaves 0 and 9 on
        the side of 1, so the pair (1, 9) still runs its flow and gives the
        separator {0}."""
        edges = [(0, 1), (0, 9), (1, 3), (2, 7), (2, 8), (3, 7), (4, 7), (5, 6), (6, 8), (7, 8)]
        g = gc.Graph.from_edges(10, edges)
        cert = analysis.vertex_connectivity(g)
        assert cert == analysis.CutCertificate(1, (0,), (tuple(range(1, 9)), (9,)))
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_flow_count_on_chain(self, monkeypatch):
        """On a cubic chain (kappa = 2 < d) a found cut settles every sink
        beyond it: at most 300 flows, where one per non-adjacent pair is
        1,199."""
        flows = count_calls(monkeypatch, analysis, "_min_vertex_cut")
        assert analysis.vertex_connectivity(gc.generate_cubic_chain(5)).kappa == 2
        assert flows[0] <= 300

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_listed_separators_match_sweep_reference(self, data):
        """Hub graphs (kappa is 1 or 2 below the largest degree on most) and
        rings of regular blocks (kappa <= 2 < delta): the sweep lists the
        kappa-separators first and runs flows only for the pairs they
        split."""
        g = hub_graph(data) if data.draw(st.booleans()) else random_ring(data)
        cert = analysis.vertex_connectivity(g)
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_ring_sweep_reads_cuts_off_the_listing(self, monkeypatch):
        """On a ring of three C4-free 4-regular blocks (kappa = 2) the only
        flows are Esfahanian-Hakimi flows capped at delta = 4: none is
        capped at kappa + 1 = 3, since the sweep reads each pair's cut off
        the 2-separator listing, and the certificate stays the
        reference's."""
        g = c4_free_ring()
        caps = []
        original = analysis._min_vertex_cut

        def recorded(*args):
            caps.append(args[3])
            return original(*args)

        monkeypatch.setattr(analysis, "_min_vertex_cut", recorded)
        cert = analysis.vertex_connectivity(g)
        assert cert.kappa == 2
        assert caps and set(caps) == {4}
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_sweep_above_two_flows_only_where_a_cut_is(self, monkeypatch):
        """Three circulants C12(1, 2, 3) in a chain
        (compare_outputs.chain_of_circulants): kappa = 3 < delta = 5. Every
        flow that runs, Esfahanian-Hakimi (cap 5) or sweep (cap
        kappa + 1 = 4), finds a 3-cut: the greedy paths settle every other
        pair. The certificate stays the reference's."""
        g = compare_outputs.chain_of_circulants(3)
        flows = []
        original = analysis._min_vertex_cut

        def recorded(*args):
            result = original(*args)
            flows.append((args[3], result[0], result[1] is not None))
            return result

        monkeypatch.setattr(analysis, "_min_vertex_cut", recorded)
        cert = analysis.vertex_connectivity(g)
        assert (cert.kappa, min(g.degrees())) == (3, 5)
        assert {cap for cap, _, _ in flows} == {4, 5}
        assert all(value == 3 and cut for _, value, cut in flows)
        assert (cert.kappa, cert.separator, cert.components) == oracles.sweep_vertex_connectivity(g)

    def test_flows_stop_at_kappa(self, monkeypatch):
        """The cut-vertex DFS decides kappa = 1, so the bridge pair runs no
        flow. For kappa = 2 the Esfahanian-Hakimi flows stop at the one that
        finds kappa, and the sweep runs none: every flow is capped above
        kappa, and only the last one returns kappa."""
        flows = []
        original = analysis._min_vertex_cut

        def recorded(*args):
            result = original(*args)
            flows.append((args[3], result[0]))
            return result

        monkeypatch.setattr(analysis, "_min_vertex_cut", recorded)
        for g in (c4_free_ring(), gc.generate_cubic_chain(5)):
            flows.clear()
            assert analysis.vertex_connectivity(g).kappa == 2
            assert all(cap > 2 for cap, _ in flows)
            assert [value for _, value in flows].index(2) == len(flows) - 1
        flows.clear()
        assert analysis.vertex_connectivity(gc.generate_cubic_bridge_pair()).kappa == 1
        assert flows == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_listed_pieces_are_the_components(self, data):
        """Every separator X + {y} that _cut_vertex_pieces lists, over X
        empty and each single vertex whose removal leaves g connected,
        comes with the components of g minus it, and the listing misses no
        cut vertex of g - X."""
        g = hub_graph(data) if data.draw(st.booleans()) else random_ring(data)
        n = g.vertex_count
        for removed in [()] + [(x,) for x in range(n)]:
            rest = analysis.connected_components(g, frozenset(removed))
            if len(rest) != 1:
                continue
            listed = {}
            for sep, pieces in analysis._cut_vertex_pieces(g, removed):
                assert set(removed) < set(sep) and len(sep) == len(removed) + 1
                listed[sep] = sorted(tuple(v for v in range(n) if p >> v & 1) for p in pieces)
            for sep, pieces in listed.items():
                assert tuple(pieces) == analysis.connected_components(g, frozenset(sep))
            cut_vertices = {
                tuple(sorted(removed + (y,))) for y in rest[0]
                if len(analysis.connected_components(g, frozenset(removed + (y,)))) > 1
            }
            assert set(listed) == cut_vertices

    def test_last_piece_keeps_unseparated_subtrees(self):
        """In g - 2 the DFS from 0 reaches 3 by 0-5-3 and then 7 below 3;
        3 cuts off 1, 4, 6 but not 7, so 7 belongs to the piece that holds
        3's parent."""
        edges = [(0, 2), (0, 5), (0, 7), (1, 2), (1, 4), (1, 6),
                 (2, 6), (3, 4), (3, 5), (3, 7), (4, 6), (5, 7)]
        g = gc.Graph.from_edges(8, edges)
        listed = {sep: sorted(pieces) for sep, pieces in analysis._cut_vertex_pieces(g, (2,))}
        assert listed[(2, 3)] == sorted(sum(1 << v for v in part) for part in ((0, 5, 7), (1, 4, 6)))

    def test_one_dfs_per_subset_in_analyze(self, monkeypatch, capsys):
        """analyze on a kappa = 2 ring runs the cut-vertex DFS once on the
        whole graph (no cut vertex, so kappa >= 2) and then once per vertex,
        for the sweep's separator listing, and nowhere else."""
        g = c4_free_ring()
        dfs = count_calls(monkeypatch, analysis, "_cut_vertex_pieces")
        monkeypatch.setattr("sys.stdin", io.StringIO(gc.serialize_edge_list(g)))
        assert cli.main(["analyze", "--input", "-", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == 2
        assert dfs[0] == 1 + g.vertex_count


class TestFiveCycles:
    def test_petersen_counts(self, petersen):
        stats = analysis.five_cycle_stats(petersen)
        assert len(stats.cycles) == 12
        assert all(c == 4 for c in stats.per_edge_count.values())
        assert sum(stats.per_edge_count.values()) == 60  # 12 cycles x 5 edges

    def test_c5(self):
        stats = analysis.five_cycle_stats(gc.generate_cycle(5))
        assert len(stats.cycles) == 1
        assert set(stats.per_edge_count.values()) == {1}
        assert set(stats.max_edge_disjoint.values()) == {1}

    def test_heawood_has_none(self, heawood):
        stats = analysis.five_cycle_stats(heawood)
        assert len(stats.cycles) == 0
        assert set(stats.per_edge_count.values()) == {0}

    def test_ceiling(self):
        big = gc.Graph.from_edges(analysis.FIVE_CYCLE_VERTEX_CEILING + 1, [])
        with pytest.raises(gc.CeilingExceeded):
            analysis.five_cycle_stats(big)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_count_matches_brute(self, data):
        g = random_graph(data, max_n=9)
        stats = analysis.five_cycle_stats(g)
        assert len(stats.cycles) == oracles.brute_five_cycle_count(g)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_packings_match_brute(self, data):
        """Both packing maps against the oracle that tries every family, on
        5-9 vertices with a uniformly drawn number of edges. Up to 24 edges
        the search stays far inside its budget."""
        n = data.draw(st.integers(min_value=5, max_value=9))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = data.draw(st.integers(min_value=0, max_value=min(24, len(possible))))
        edges = data.draw(st.lists(st.sampled_from(possible), min_size=m, max_size=m, unique=True))
        g = gc.Graph.from_edges(n, edges)
        stats = analysis.five_cycle_stats(g)
        by_edge, by_path = oracles.brute_five_cycle_packings(g)
        assert stats.max_edge_disjoint == by_edge
        assert stats.max_path_disjoint == by_path

    @pytest.mark.parametrize("name, total", [
        ("petersen", 105), ("heawood", 63), ("random:4,20/0", 262),
    ])
    def test_packing_budget_boundary(self, monkeypatch, name, total):
        """total is the packing search's node count: the smallest
        _PACKING_NODE_BUDGET that keeps both packing maps. One node less and
        both read None. The maps are keyed in edge order and in (vertex,
        neighbour pair) order, zero families included."""
        g = {
            "petersen": gc.generate_petersen,
            "heawood": gc.generate_heawood,
            "random:4,20/0": lambda: gc.generate_random_c4_free_regular(4, 20, 0),
        }[name]()
        monkeypatch.setattr(analysis, "_PACKING_NODE_BUDGET", total)
        kept = analysis.five_cycle_stats(g)
        paths = [(u, v, w) for v in range(g.vertex_count)
                 for u, w in itertools.combinations(g.adjacency[v], 2)]
        assert list(kept.per_edge_count) == list(kept.max_edge_disjoint) == list(g.edges())
        assert list(kept.max_path_disjoint) == paths
        monkeypatch.setattr(analysis, "_PACKING_NODE_BUDGET", total - 1)
        cut = analysis.five_cycle_stats(g)
        assert cut.max_edge_disjoint is None and cut.max_path_disjoint is None
        assert cut.cycles == kept.cycles and cut.per_edge_count == kept.per_edge_count

    def test_disjoint_families_are_valid(self, petersen):
        stats = analysis.five_cycle_stats(petersen)
        # every reported per-edge family bound is at most the total count
        assert all(v <= len(stats.cycles) for v in stats.max_edge_disjoint.values())
        assert all(v <= len(stats.cycles) for v in stats.max_path_disjoint.values())


class TestHypothesisReport:
    def test_petersen_report(self, petersen):
        rep = analysis.check_hypotheses(petersen)
        assert rep.regular_degree == 3 and rep.c4_free and not rep.has_triangle
        assert rep.girth == 5 and rep.kappa == 3
        assert rep.lower_bound_applies and rep.lower_bound_colors == 3
        assert not rep.diameter_route_applies
        assert not rep.small_cut_route_applies
        assert not rep.five_cycle_count_vertex_exists and rep.full_seed_center is None
        assert rep.phi_lower_bound == 3 and rep.phi_upper_bound == 4

    def test_c5_small_case(self):
        """d = 2: auto and the full-seed route return the small case with 3
        colours, though no full-seed center exists and the five-cycle
        predicates fail."""
        rep = analysis.check_hypotheses(gc.generate_cycle(5))
        assert rep.lower_bound_colors == 2 and not rep.five_cycle_count_vertex_exists
        assert rep.full_seed_center is None and rep.phi_lower_bound == 3

    def test_chain_report(self):
        rep = analysis.check_hypotheses(gc.generate_cubic_chain(3))
        assert rep.diameter_route_applies and rep.small_cut_route_applies
        assert rep.full_seed_center == 0
        assert rep.phi_lower_bound == 4 == rep.phi_upper_bound

    def test_component_searches_on_ring(self, monkeypatch):
        """A ring of three C4-free 4-regular blocks has kappa = 2; the report
        needs no component search beyond the two of vertex_connectivity."""
        g = compare_outputs.ring_of_blocks(
            [gc.generate_random_c4_free_regular(4, 26, s) for s in range(3)]
        )
        searches = count_calls(monkeypatch, analysis, "connected_components")
        rep = analysis.check_hypotheses(g)
        assert rep.kappa == 2 and rep.small_cut_route_applies
        assert searches[0] <= 3

    def test_packing_search_past_budget(self, monkeypatch, petersen, capsys):
        """Past the packing search's node budget both packing fields read
        null, the count fields stay, and analyze still exits 0."""
        rep = analysis.check_hypotheses(petersen)
        assert rep.five_cycle_packing_vertex_exists is False
        monkeypatch.setattr(analysis, "_PACKING_NODE_BUDGET", 10)
        stats = analysis.five_cycle_stats(petersen)
        assert stats.max_edge_disjoint is None and stats.max_path_disjoint is None
        assert len(stats.cycles) == 12
        monkeypatch.setattr("sys.stdin", io.StringIO(gc.serialize_edge_list(petersen)))
        assert cli.main(["analyze", "--input", "-", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["five_cycle_packing_vertex_exists"] is None
        assert payload["five_cycle_packing_witness"] is None
        for name in ("five_cycle_count_vertex_exists", "five_cycle_count_witness",
                     "phi_lower_bound"):
            assert payload[name] == getattr(rep, name)

    def test_irregular_graph_not_eligible(self):
        rep = analysis.check_hypotheses(gc.Graph.from_edges(3, [(0, 1)]))
        assert rep.regular_degree is None
        assert not rep.lower_bound_applies

    def test_c4_graph_not_eligible(self):
        rep = analysis.check_hypotheses(gc.generate_complete_bipartite(3))
        assert not rep.c4_free and rep.c4_witness is not None
        assert not rep.lower_bound_applies and not rep.diameter_route_applies

    def test_json_dict_is_serializable(self, petersen):
        import json

        rep = analysis.check_hypotheses(gc.disjoint_union(petersen, petersen))
        payload = rep.to_json_dict()
        assert payload["diameter"] is None  # infinity becomes null
        json.dumps(payload)
