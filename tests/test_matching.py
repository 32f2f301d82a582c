import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic.matching import HallViolator, perfect_matching
from tests import oracles


def int_instance(k: int, edges: set[tuple[int, int]]) -> dict[int, list[int]]:
    """The options of left nodes 0..k-1 over right nodes 0..k-1, each list
    ascending: the form the seeding hands perfect_matching."""
    return {l: sorted(r for ll, r in edges if ll == l) for l in range(k)}


class TestPerfectMatching:
    def test_complete_instance_matches(self):
        h = int_instance(4, {(l, r) for l in range(4) for r in range(4)})
        m = perfect_matching(h)
        assert isinstance(m, dict) and len(m) == len(set(m.values())) == 4

    def test_returns_valid_matching(self):
        h = int_instance(3, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)})
        m = perfect_matching(h)
        assert isinstance(m, dict)
        assert all(m[l] in h[l] for l in m)
        assert set(m) == set(m.values()) == set(range(3))

    def test_hall_violator_is_genuine(self):
        h = int_instance(3, {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)})
        v = perfect_matching(h)
        assert isinstance(v, HallViolator)
        assert len(v.neighborhood) < len(v.left_subset)
        # the reported neighborhood really is the full neighborhood
        actual = {r for l in v.left_subset for r in h[l]}
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
        if isinstance(outcome, dict):
            assert exists
            assert set(outcome.items()) <= edges
            assert len(set(outcome.values())) == len(outcome) == k
        else:
            assert not exists
            actual = {r for (l, r) in edges if l in outcome.left_subset}
            assert actual == set(outcome.neighborhood)
            assert len(outcome.neighborhood) < len(outcome.left_subset)


def build_half_degree_instance(rng: random.Random, k: int) -> dict[int, list[int]]:
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
        assert oracles.meets_half_degree_condition(h, range(2), 0, 0) is False

    def test_low_degree_non_special_fails(self):
        h = int_instance(3, {(0, 0), (1, 1), (2, 2)})
        assert oracles.meets_half_degree_condition(h, range(3), 0, 0) is False

    def test_condition_implies_matching(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randrange(2, 9)
            h = build_half_degree_instance(rng, k)
            if not oracles.meets_half_degree_condition(h, range(k), 0, 0):
                continue
            assert isinstance(perfect_matching(h), dict), h
