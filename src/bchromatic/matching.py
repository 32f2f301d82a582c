"""Bipartite perfect matching with Hall-violator certificates.

Every inductive coloring step reduces to a perfect matching between a ring of
uncolored vertices and the colors still needed there; the seeding's
half-degree condition (constructive) is what makes those matchings exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class BipartiteInstance:
    """Balanced-or-not bipartite availability graph on abstract node ids.

    Left and right ids live in separate namespaces; the same value may appear
    on both sides without ambiguity since edges are ordered (left, right)
    pairs.
    """

    left: tuple[Hashable, ...]
    right: tuple[Hashable, ...]
    edges: frozenset[tuple[Hashable, Hashable]]

    def __post_init__(self) -> None:
        if len(set(self.left)) != len(self.left):
            raise ValueError("duplicate left ids")
        if len(set(self.right)) != len(self.right):
            raise ValueError("duplicate right ids")
        ls, rs = set(self.left), set(self.right)
        for l, r in self.edges:
            if l not in ls or r not in rs:
                raise ValueError(f"edge ({l!r}, {r!r}) references undeclared nodes")


@dataclass(frozen=True)
class Matching:
    pairs: frozenset[tuple[Hashable, Hashable]]


@dataclass(frozen=True)
class HallViolator:
    """A left subset seeing fewer right nodes than its own size."""

    left_subset: frozenset[Hashable]
    neighborhood: frozenset[Hashable]


def perfect_matching(h: BipartiteInstance) -> Matching | HallViolator:
    """Perfect matching by augmenting paths, or a Hall violator if none.

    Deterministic: left nodes are processed in ascending order and neighbor
    lists are scanned ascending, so a fixed instance always yields the same
    matching. On failure the violator comes from the alternating-reachability
    set of the first left node that cannot be matched.
    """
    if len(h.left) != len(h.right):
        raise ValueError(f"unbalanced instance: {len(h.left)} left vs {len(h.right)} right")
    adj: dict[Hashable, list[Hashable]] = {l: [] for l in h.left}
    for l, r in h.edges:
        adj[l].append(r)
    for l in adj:
        adj[l].sort()  # type: ignore[arg-type]
    match_right: dict[Hashable, Hashable] = {}

    def augment(u: Hashable, visited: set[Hashable]) -> bool:
        for r in adj[u]:
            if r in visited:
                continue
            visited.add(r)
            if r not in match_right or augment(match_right[r], visited):
                match_right[r] = u
                return True
        return False

    for u in sorted(h.left):  # type: ignore[type-var]
        visited: set[Hashable] = set()
        if not augment(u, visited):
            subset = frozenset({u} | {match_right[r] for r in visited})
            return HallViolator(subset, frozenset(visited))
    return Matching(frozenset((l, r) for r, l in match_right.items()))

