import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import exact_oracle as eo, graph_core as gc
from bchromatic.constructive import verify_bcoloring
from tests import oracles
from tests.test_analysis import _regular_edges


class TestExistsWithK:
    def test_petersen_has_three_not_four(self, petersen):
        assert eo.exists_bcoloring_with_k(petersen, 4) is None
        w = eo.exists_bcoloring_with_k(petersen, 3)
        assert w is not None
        rep = verify_bcoloring(petersen, w)
        assert rep.is_b_coloring and len(rep.used_colors) == 3

    def test_witness_uses_exactly_k(self):
        g = gc.generate_cycle(6)
        w = eo.exists_bcoloring_with_k(g, 3)
        assert w is not None and len(set(w.assignment)) == 3

    def test_k_range_validated(self, petersen):
        with pytest.raises(ValueError):
            eo.exists_bcoloring_with_k(petersen, 0)
        with pytest.raises(ValueError):
            eo.exists_bcoloring_with_k(petersen, 5)

    def test_ceiling(self):
        g = gc.generate_cubic_chain(3)
        with pytest.raises(gc.CeilingExceeded):
            eo.exists_bcoloring_with_k(g, 4)
        w = eo.exists_bcoloring_with_k(g, 4, ceiling=30)
        assert w is not None and verify_bcoloring(g, w).is_b_coloring


class TestExactValues:
    @pytest.mark.parametrize("n,phi", [(3, 3), (4, 2), (5, 3), (6, 3), (7, 3), (8, 3)])
    def test_cycles(self, n, phi):
        assert eo.exact_b_chromatic(gc.generate_cycle(n)).phi == phi

    def test_complete_graphs(self):
        for n in (2, 3, 4, 5):
            assert eo.exact_b_chromatic(gc.generate_complete(n)).phi == n

    def test_complete_bipartite_is_two(self):
        for d in (2, 3, 4):
            assert eo.exact_b_chromatic(gc.generate_complete_bipartite(d)).phi == 2

    def test_petersen(self, petersen):
        res = eo.exact_b_chromatic(petersen)
        assert res.phi == 3
        assert verify_bcoloring(petersen, res.witness).is_b_coloring
        assert res.explored > 0

    def test_edge_cases(self):
        res = eo.exact_b_chromatic(gc.Graph.from_edges(0, []))
        assert res.phi == 0 and res.witness.assignment == ()
        assert eo.exact_b_chromatic(gc.Graph.from_edges(1, [])).phi == 1
        assert eo.exact_b_chromatic(gc.Graph.from_edges(3, [])).phi == 1
        assert eo.exact_b_chromatic(gc.Graph.from_edges(2, [(0, 1)])).phi == 2

    def test_star_is_two(self):
        g = gc.Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert eo.exact_b_chromatic(g).phi == 2

    def test_ceiling_trips(self):
        with pytest.raises(gc.CeilingExceeded):
            eo.exact_b_chromatic(gc.generate_cubic_chain(3))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_complete_bipartite_needs_no_refuting_search(self, d):
        # Two witnesses on one side leave the other side unable to take
        # either's colour, so the witness-support check refutes every
        # k >= 3 among the witness prefixes; k = 2 then colours the other
        # 2d - 2 vertices once each. The unpruned search tries 72,042
        # assignments at d = 7.
        res = eo.exact_b_chromatic(gc.generate_complete_bipartite(d))
        assert res.phi == 2 and res.explored == 2 * d - 2

    def test_budget_counts_witness_placements(self, monkeypatch):
        # The budget trips exactly past the colour assignments plus witness
        # placements of the whole downward scan over k, which pins the search
        # tree, not just phi: K_{d,d} makes 2d - 2 assignments but hundreds of
        # placements
        graphs = [(gc.generate_complete_bipartite(d), nodes, 2 * d - 2)
                  for d, nodes in zip(range(5, 10), (240, 452, 777, 1_248, 1_902))]
        graphs.append((gc.generate_petersen(), 413, 81))
        for g, nodes, explored in graphs:
            monkeypatch.setattr(eo, "_SEARCH_NODE_BUDGET", nodes)
            assert eo.exact_b_chromatic(g).explored == explored
            monkeypatch.setattr(eo, "_SEARCH_NODE_BUDGET", nodes - 1)
            with pytest.raises(gc.CeilingExceeded) as exc:
                eo.exact_b_chromatic(g)
            assert str(exc.value) == (f"the search tried more than {nodes - 1}"
                                      " color assignments and witness placements")

    def test_report_is_the_witness_verification(self, petersen):
        res = eo.exact_b_chromatic(petersen)
        assert res.report == verify_bcoloring(petersen, res.witness)
        empty = eo.exact_b_chromatic(gc.Graph.from_edges(0, []))
        assert empty.report.realized == {} and empty.report.is_b_coloring


class TestAgainstNaive:
    def test_corpus(self, small_corpus):
        for name, g in small_corpus:
            if g.vertex_count > 8:
                continue
            assert eo.exact_b_chromatic(g).phi == oracles.naive_b_chromatic(g), name

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        g = gc.Graph.from_edges(n, edges)
        res = eo.exact_b_chromatic(g)
        assert res.phi == oracles.naive_b_chromatic(g)
        rep = verify_bcoloring(g, res.witness)
        assert rep.is_b_coloring and len(rep.used_colors) == res.phi


class TestAgainstReference:
    """The pruned search finds the unpruned one's first witness
    (`oracles.reference_exact_search`) in no more colour assignments."""

    @staticmethod
    def check(g):
        res = eo.exact_b_chromatic(g)
        phi, witness, explored = oracles.reference_exact_search(g)
        assert (res.phi, res.witness.assignment) == (phi, witness)
        assert res.explored <= explored

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=0, max_value=1),
           st.randoms(use_true_random=False))
    def test_gnp_graphs(self, n, p, rng):
        self.check(gc.Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        ))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=3, max_value=5), st.integers(min_value=4, max_value=16),
           st.randoms(use_true_random=False))
    def test_regular_graphs(self, d, n, rng):
        n = max(n, d + 1)
        n -= n * d % 2
        label = list(range(n))
        rng.shuffle(label)
        self.check(gc.Graph.from_edges(
            n, [(label[u], label[v]) for u, v in _regular_edges(rng, n, d)]
        ))
