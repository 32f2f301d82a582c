import pytest

from bchromatic import graph_core as gc
from tests import oracles


@pytest.fixture
def petersen() -> gc.Graph:
    return gc.generate_petersen()


@pytest.fixture
def heawood() -> gc.Graph:
    return gc.generate_heawood()


@pytest.fixture
def cube() -> gc.Graph:
    return gc.generate_generalized_petersen(4, 1)


@pytest.fixture
def small_corpus() -> list[tuple[str, gc.Graph]]:
    """Named small graphs spanning the structural cases the analyses handle."""
    return [
        ("empty", gc.Graph.from_edges(0, [])),
        ("one_vertex", gc.Graph.from_edges(1, [])),
        ("one_edge", gc.Graph.from_edges(2, [(0, 1)])),
        ("path4", gc.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
        ("star4", gc.Graph.from_edges(5, [(0, i) for i in range(1, 5)])),
        ("triangle", gc.generate_cycle(3)),
        ("c5", gc.generate_cycle(5)),
        ("c6", gc.generate_cycle(6)),
        ("c7", gc.generate_cycle(7)),
        ("k4", oracles.generate_complete(4)),
        ("k5", oracles.generate_complete(5)),
        ("k33", gc.generate_complete_bipartite(3)),
        ("cube", gc.generate_generalized_petersen(4, 1)),
        ("petersen", gc.generate_petersen()),
        ("two_triangles", gc.disjoint_union(gc.generate_cycle(3), gc.generate_cycle(3))),
        ("matched_pairs", gc.Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])),
    ]
