"""Exact b-chromatic number by witness-guided exhaustive search.

A b-coloring with k colors needs k distinct vertices, one per color, each
adjacent to all other k-1 colors. Up to a color permutation the witnesses
can be taken in ascending vertex order with ascending colors, so witness j
(color j) is chosen, one at a time, among the vertices of degree at least
k-1 after witness j-1: the order of itertools.combinations. With all k
placed, the other vertices are colored most constrained first (lowest index
on ties), each in ascending color order. Color sets are int bitmasks, bit c
for color c. Each assignment ORs its color into the mask `seen` of every
neighbor, so a vertex's mask holds the colors of its colored neighbors, and
backtracking restores the masks with the witnesses' counts. Every witness
prefix and every coloring node must pass three checks, made from those
masks and the witnesses' own neighborhoods, with no pass over every
neighborhood:

- count: the colors a witness still misses must not outnumber its uncolored
  neighbors. When they are equal the witness is tight, and each of those
  neighbors must take one of its missing colors.
- empty domain: every uncolored vertex keeps a legal color, one outside its
  mask that every tight neighboring witness misses.
- witness support: every color a witness misses is legal at one or more of
  its uncolored neighbors.

They are sound because legal sets only shrink deeper in the tree: a
neighbor's color becomes fixed, or a witness becomes tight, and a tight
witness stays tight or fails the count. A later witness's color must lie in
its current legal set too. So a vertex or a missing color with no legal
place at a node has none below it. The checks cut only subtrees without a
b-coloring and the branching order does not depend on them, so the witness
found is the one an unpruned search finds first; only `explored`, the color
assignments tried, shrinks. Inputs above a vertex ceiling are refused, and a
search whose color assignments and witness placements together pass
_SEARCH_NODE_BUDGET gives up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from bchromatic.constructive import Coloring, VerificationReport, verify_bcoloring
from bchromatic.graph_core import CeilingExceeded, Graph

DEFAULT_VERTEX_CEILING = 24

# color assignments plus witness placements one call may try before it
# raises CeilingExceeded: over 5 times the most that a test graph needs
# (1,902 on K_{9,9}: 1,886 placements, 16 assignments) and 9 times the most
# that a benchmark graph needs (1,063 on K_{7,7}: 1,051 and 12)
_SEARCH_NODE_BUDGET = 10_000


@dataclass(frozen=True)
class OracleResult:
    """Exact b-chromatic number with a witness coloring and its verification."""

    phi: int
    witness: Coloring
    explored: int
    report: VerificationReport


def _search(g: Graph, k: int, budget: int) -> tuple[OracleResult | None, int, int]:
    """Find a b-coloring with exactly k colors. Returns it (or None), the
    color assignments tried, and the nodes: those assignments plus the
    witness placements. Raises CeilingExceeded past `budget` nodes."""
    n = g.vertex_count
    adj = g.adjacency
    candidates = [v for v in range(n) if g.degree(v) >= k - 1]
    full = (1 << (k + 1)) - 2
    colors = [0] * n
    seen = [0] * n  # per vertex, the colors of its colored neighbors
    witness_of = [-1] * n
    witnesses: list[int] = []
    missing: list[int] = []  # per witness, the colors its neighborhood lacks
    uncol: list[int] = []  # per witness, its uncolored neighbors
    explored = placed = 0

    def spend() -> None:
        """Raise once the assignments and placements pass the budget."""
        if explored + placed > budget:
            raise CeilingExceeded(
                f"the search tried more than {_SEARCH_NODE_BUDGET} color assignments"
                " and witness placements"
            )

    def scan() -> tuple[int, int] | None:
        """The most constrained uncolored vertex and its legal set, (-1, 0)
        when every vertex is colored, or None when a check fails."""
        legal = [0 if c else full & ~s for c, s in zip(colors, seen)]
        for w, m, u in zip(witnesses, missing, uncol):
            if m.bit_count() == u:
                for y in adj[w]:
                    legal[y] &= m
        for w, m in zip(witnesses, missing):
            support = 0
            for y in adj[w]:
                support |= legal[y]
            if m & ~support:
                return None
        # the empty-domain check: the smallest legal set is not empty
        size, v = min(
            ((legal[v].bit_count(), v) for v in range(n) if not colors[v]),
            default=(1, -1),
        )
        return (v, legal[v]) if size else None

    def assign(v: int, c: int) -> bool:
        """Color v with c; False when a neighboring witness fails the count."""
        colors[v] = c
        ok = True
        for y in adj[v]:
            seen[y] |= 1 << c
            i = witness_of[y]
            if i >= 0:
                missing[i] &= ~(1 << c)
                uncol[i] -= 1
                ok = ok and missing[i].bit_count() <= uncol[i]
        return ok

    def color(v: int, legal: int) -> bool:
        """Try v's legal colors in ascending order; v = -1 means all colored."""
        nonlocal explored
        if v < 0:
            return True
        saved = missing[:], uncol[:], seen[:]
        while legal:
            bit = legal & -legal
            legal ^= bit
            explored += 1
            spend()
            if assign(v, bit.bit_length() - 1):
                node = scan()
                if node is not None and color(*node):
                    return True
            missing[:], uncol[:], seen[:] = saved
        colors[v] = 0
        return False

    def choose(j: int, start: int) -> bool:
        """Place witness j (color j+1) at a candidate from index start on."""
        nonlocal placed
        saved = missing[:], uncol[:], seen[:]
        for idx in range(start, len(candidates) - k + j + 1):
            w = candidates[idx]
            placed += 1
            spend()
            ok = assign(w, j + 1)
            witness_of[w] = j
            witnesses.append(w)
            missing.append(full & ~(1 << (j + 1)) & ~seen[w])
            uncol.append([colors[y] for y in adj[w]].count(0))
            if ok and missing[j].bit_count() <= uncol[j]:
                node = scan()
                if node is not None and (
                    color(*node) if j + 1 == k else choose(j + 1, idx + 1)
                ):
                    return True
            missing[:], uncol[:], seen[:] = saved
            del witnesses[j:]
            colors[w], witness_of[w] = 0, -1
        return False

    if not choose(0, 0):
        return None, explored, explored + placed
    found = Coloring(k, tuple(colors))
    report = verify_bcoloring(g, found)
    assert report.is_b_coloring and len(report.used_colors) == k, (
        "search returned a non-b-coloring"
    )
    return OracleResult(k, found, explored, report), explored, explored + placed


def exists_bcoloring_with_k(
    g: Graph, k: int, ceiling: int = DEFAULT_VERTEX_CEILING
) -> Coloring | None:
    """A verified b-coloring using exactly k colors, or None if impossible.

    Raises CeilingExceeded when the graph has more than `ceiling` vertices
    or the search passes _SEARCH_NODE_BUDGET nodes, and ValueError when k is
    outside 1..max_degree+1.
    """
    if g.vertex_count > ceiling:
        raise CeilingExceeded(
            f"{g.vertex_count} vertices exceed the search ceiling {ceiling}"
        )
    if not 1 <= k <= g.max_degree() + 1:
        raise ValueError(f"k must lie in 1..{g.max_degree() + 1}")
    found, _, _ = _search(g, k, _SEARCH_NODE_BUDGET)
    return None if found is None else found.witness


def exact_b_chromatic(g: Graph, ceiling: int = DEFAULT_VERTEX_CEILING) -> OracleResult:
    """The largest k admitting a b-coloring, found by scanning k downward
    from max_degree+1.

    Downward scanning needs no monotonicity: the first k that succeeds is
    the maximum. The scan always lands somewhere at or above the chromatic
    number, because exchanging away an unrealizable color turns any proper
    coloring into one with fewer colors. _SEARCH_NODE_BUDGET bounds the
    assignments and placements of the whole scan, and CeilingExceeded
    reports a pass; `explored` counts the assignments alone.
    """
    if g.vertex_count == 0:
        empty = Coloring(0, ())
        return OracleResult(0, empty, 0, verify_bcoloring(g, empty))
    if g.vertex_count > ceiling:
        raise CeilingExceeded(
            f"{g.vertex_count} vertices exceed the search ceiling {ceiling}"
        )
    explored = nodes = 0
    for k in range(g.max_degree() + 1, 0, -1):
        found, tried, spent = _search(g, k, _SEARCH_NODE_BUDGET - nodes)
        explored += tried
        nodes += spent
        if found is not None:
            return replace(found, explored=explored)
    raise AssertionError("no b-coloring found at any k; unreachable for n >= 1")
