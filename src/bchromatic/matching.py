"""Bipartite matching with Hall-violator certificates.

Every inductive coloring step reduces to a perfect matching of a ring of
uncolored vertices onto the colors still needed there. The seeding
(constructive) hands perfect_matching each ring vertex's available colors as
they are; its ring-size check makes the two sides equal, and its half-degree
condition is what makes the matchings of the bounded seedings exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class HallViolator:
    """A left subset seeing fewer right nodes than its own size."""

    left_subset: frozenset[Hashable]
    neighborhood: frozenset[Hashable]


def perfect_matching(
    options: dict[Hashable, list[Hashable]],
) -> dict[Hashable, Hashable] | HallViolator:
    """A matching of every left node (a key of options) to one of its
    options, no option taken twice, by augmenting paths; or a Hall violator
    if none exists. It is perfect when the options hold as many right nodes
    as there are left nodes.

    Deterministic: left nodes are processed in ascending order and each
    option list is scanned in its own order (ascending from the seeding), so
    fixed options always yield the same matching. On failure the violator
    comes from the alternating-reachability set of the first left node that
    cannot be matched.
    """
    match_right: dict[Hashable, Hashable] = {}

    def augment(u: Hashable, visited: set[Hashable]) -> bool:
        for r in options[u]:
            if r in visited:
                continue
            visited.add(r)
            if r not in match_right or augment(match_right[r], visited):
                match_right[r] = u
                return True
        return False

    for u in sorted(options):  # type: ignore[type-var]
        visited: set[Hashable] = set()
        if not augment(u, visited):
            subset = frozenset({u} | {match_right[r] for r in visited})
            return HallViolator(subset, frozenset(visited))
    return {l: r for r, l in match_right.items()}
