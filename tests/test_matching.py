import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic.matching import (
    BipartiteInstance,
    HallViolator,
    Matching,
    perfect_matching,
)
from tests import oracles


def int_instance(k: int, edges: set[tuple[int, int]]) -> BipartiteInstance:
    # rights offset so the two sides never share ids in the edge set
    return BipartiteInstance(
        tuple(range(k)), tuple(range(100, 100 + k)),
        frozenset((l, 100 + r) for l, r in edges),
    )


class TestInstanceValidation:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BipartiteInstance(("a", "a"), (1, 2), frozenset())
        with pytest.raises(ValueError):
            BipartiteInstance(("a", "b"), (1, 1), frozenset())

    def test_rejects_undeclared_endpoints(self):
        with pytest.raises(ValueError):
            BipartiteInstance(("a",), (1,), frozenset({("b", 1)}))
        with pytest.raises(ValueError):
            BipartiteInstance(("a",), (1,), frozenset({("a", 2)}))


class TestPerfectMatching:
    def test_unbalanced_raises(self):
        with pytest.raises(ValueError):
            perfect_matching(BipartiteInstance(("a",), (1, 2), frozenset({("a", 1)})))

    def test_complete_instance_matches(self):
        h = int_instance(4, {(l, r) for l in range(4) for r in range(4)})
        m = perfect_matching(h)
        assert isinstance(m, Matching) and len(m.pairs) == len(h.left)

    def test_returns_valid_matching(self):
        h = int_instance(3, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)})
        m = perfect_matching(h)
        assert isinstance(m, Matching)
        assert m.pairs <= h.edges
        assert {l for l, _ in m.pairs} == set(h.left)
        assert {r for _, r in m.pairs} == set(h.right)

    def test_hall_violator_is_genuine(self):
        h = int_instance(3, {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)})
        v = perfect_matching(h)
        assert isinstance(v, HallViolator)
        assert len(v.neighborhood) < len(v.left_subset)
        # the reported neighborhood really is the full neighborhood
        actual = {r for l, r in h.edges if l in v.left_subset}
        assert actual == set(v.neighborhood)

    def test_deterministic(self):
        h = int_instance(5, {(l, (l + s) % 5) for l in range(5) for s in (0, 1, 2)})
        assert perfect_matching(h) == perfect_matching(h)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        k = data.draw(st.integers(min_value=1, max_value=5))
        possible = [(l, r) for l in range(k) for r in range(k)]
        edges = set(data.draw(st.lists(st.sampled_from(possible), unique=True)))
        outcome = perfect_matching(int_instance(k, edges))
        exists = oracles.brute_matching_exists(k, k, edges)
        if isinstance(outcome, Matching):
            assert exists
            assert outcome.pairs <= int_instance(k, edges).edges
            assert len(outcome.pairs) == k
        else:
            assert not exists
            actual = {r for (l, r) in int_instance(k, edges).edges if l in outcome.left_subset}
            assert actual == set(outcome.neighborhood)
            assert len(outcome.neighborhood) < len(outcome.left_subset)


def build_half_degree_instance(rng: random.Random, k: int) -> BipartiteInstance:
    """Random instance satisfying the half-degree condition by construction."""
    need = (k + 1) // 2
    edges: set[tuple[int, int]] = set()
    for l in range(1, k):
        for r in rng.sample(range(k), need):
            edges.add((l, r))
    for r in range(1, k):
        have = sum(1 for (l, rr) in edges if rr == r)
        fresh = [l for l in range(1, k) if (l, r) not in edges]
        if have < need:
            for l in rng.sample(fresh, need - have):
                edges.add((l, r))
    edges.add((0, rng.randrange(k)))       # special left node: any one edge
    edges.add((rng.randrange(1, k) if k > 1 else 0, 0))  # special right node
    return int_instance(k, edges)


class TestHalfDegreeCondition:
    """The matching lemma's hypothesis (oracles.meets_half_degree_condition)
    and the perfect matching it promises."""

    def test_special_nodes_need_positive_degree(self):
        h = int_instance(2, {(1, 0), (1, 1)})
        assert oracles.meets_half_degree_condition(h, 0, 100) is False

    def test_low_degree_non_special_fails(self):
        h = int_instance(3, {(0, 0), (1, 1), (2, 2)})
        assert oracles.meets_half_degree_condition(h, 0, 100) is False

    def test_condition_implies_matching(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randrange(2, 9)
            h = build_half_degree_instance(rng, k)
            if not oracles.meets_half_degree_condition(h, 0, 100):
                continue
            assert isinstance(perfect_matching(h), Matching), h
