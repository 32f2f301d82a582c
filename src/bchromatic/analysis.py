"""Structural analysis passes: regularity, short-cycle detection, girth,
diameter, vertex connectivity with a cut certificate, five-cycle statistics,
and the combined hypothesis report that gates the coloring strategies.
GatedGraph is a graph known to be regular and C4-free, with its degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from collections import deque

from bchromatic import constructive
from bchromatic.graph_core import CeilingExceeded, Graph

# five_cycle_stats enumerates every 5-cycle; refuse beyond this many vertices
FIVE_CYCLE_VERTEX_CEILING = 200

# search nodes of the packing search (_max_compatible) per five_cycle_stats
# call; past it the packing counts read None. Over 4.8 times the most that a
# test graph needs (10,244 on random:6,46 seed 1) and 44 times the most that
# a benchmark graph needs (1,116); Hoffman-Singleton needs 1,082,291
_PACKING_NODE_BUDGET = 50_000

# sources per bit-parallel BFS batch in diameter, at most. Each of its two
# lists of n masks takes about n * width / 8 bytes, and the width shrinks
# with n so that both fit _BFS_MASK_BYTES: the full _BFS_BATCH up to
# n = 65,536, and 268 sources at the 10**6-vertex parse ceiling, where full
# batches would take about 1 GB
_BFS_BATCH = 4096
_BFS_MASK_BYTES = 64 << 20

# mask words one diameter call may charge its bit-parallel rounds, each
# round (n + 2m) times the 64-bit words of a batch's masks, before it raises
# CeilingExceeded: over 5,000 times the most that a test graph needs
# (374,400), and 1,800 times the most that a compare_outputs.py or benchmark
# graph would (832,000 on random:3,1000; 1,108,800 on a 990-vertex
# large-lower-bound graph; 7,800 on the 78-vertex graphs that are analyzed).
# The 10**4-vertex Petersen lift charges 110,480,000
_BFS_WORD_BUDGET = 2_000_000_000

# split-graph arcs one vertex_connectivity call may charge its flows, each
# flow the arcs its searches scan, before it raises CeilingExceeded: over
# 1,200 times the most that a test graph needs (16,146 on a chain of six
# circulants), 420 times the most that a compare_outputs.py graph needs
# (46,790 on random:4,1000) and 9,300 times the most that a mid-auto graph
# needs (2,150). The 10**4-vertex lifts of Petersen, PG(2,3) and PG(2,5)
# charge 620,532, 652,200 and 1,181,229
_FLOW_ARC_BUDGET = 20_000_000


def is_regular(g: Graph) -> int | None:
    """The common degree d when every vertex has it, else None.

    The empty graph has no well-defined degree and yields None.
    """
    degs = g.degrees()
    if not degs:
        return None
    d = degs[0]
    return d if all(x == d for x in degs) else None


@dataclass(frozen=True)
class GatedGraph(Graph):
    """A graph that is d-regular and has no 4-cycle, with its degree d.

    constructive.gate builds one after is_regular and find_four_cycle pass,
    and check_hypotheses after its own calls of the two; every route and
    every seeding function trusts it and checks neither fact again. Building
    one by hand skips both checks.
    """

    d: int


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically first triangle (a, b, c) with a < b < c, or None.

    Each edge ab with a < b, in lexicographic order, costs one isdisjoint
    test of N(a) against N(b). The first edge that shares a neighbour is
    (a, b), and c is its smallest shared neighbour, which exceeds b: a
    shared c < a would have made (c, a) an earlier hit, and a < c < b the
    edge (a, c).
    """
    adj = g.adjacency
    sets = g.neighbor_sets
    for a in range(g.vertex_count):
        na = sets[a]
        for b in adj[a]:
            if b > a and not na.isdisjoint(adj[b]):
                return (a, b, next(c for c in adj[b] if c in na))
    return None


def find_four_cycle(g: Graph) -> tuple[int, int, int, int] | None:
    """A 4-cycle in traversal order (u, x, v, y), or None.

    Two vertices with two common neighbors are exactly the witness: u < v
    the lexicographically first such pair, x < y their two smallest shared
    neighbors. Walks the 2-paths u - x - v with v > u for each u in turn and
    stops at the first u that reaches some v twice: O(sum of deg(x)^2) work,
    O(n d^2) on a d-regular graph.
    """
    adj = g.adjacency
    for u in range(g.vertex_count):
        ends = [v for x in adj[u] for v in adj[x] if v > u]
        if len(ends) != len(set(ends)):
            ends.sort()
            v = next(a for a, b in zip(ends, ends[1:]) if a == b)
            shared = sorted(g.neighbor_sets[u] & g.neighbor_sets[v])
            return (u, shared[0], v, shared[1])
    return None


def girth(g: Graph, at_least: int = 3) -> int | float:
    """Length of a shortest cycle; math.inf for forests.

    One BFS per root: every shortest cycle is witnessed from some root by a
    non-tree edge closing at dist[x] + dist[y] + 1, and no such closing is
    shorter than the girth. at_least must be a floor on the girth (3 holds
    for every simple graph): the search stops at the first closing of that
    length, which is then the girth.
    """
    best: int | float = math.inf
    n = g.vertex_count
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            if 2 * dist[x] >= best:
                continue
            for y in g.adjacency[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif y != parent[x]:
                    cycle = dist[x] + dist[y] + 1
                    if cycle < best:
                        if cycle <= at_least:
                            return cycle
                        best = cycle
    return best


def connected_components(g: Graph, removed: frozenset[int] = frozenset()) -> tuple[tuple[int, ...], ...]:
    """Components of g with `removed` vertices deleted, each sorted, ordered
    by smallest member."""
    seen = set(removed)
    comps: list[tuple[int, ...]] = []
    for s in range(g.vertex_count):
        if s in seen:
            continue
        q = deque([s])
        seen.add(s)
        comp = [s]
        while q:
            x = q.popleft()
            for y in g.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    q.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _bfs_distances(g: Graph, s: int) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[s] = 0
    q = deque([s])
    while q:
        x = q.popleft()
        for y in g.adjacency[x]:
            if dist[y] == -1:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def diameter(g: Graph) -> tuple[int | float, tuple[int, int] | None]:
    """(diameter, witness pair) with the lexicographically smallest witness.

    Disconnected graphs give (inf, cross-component pair); graphs with fewer
    than two vertices give (0, None).

    A bit-parallel BFS from a batch of sources at a time (Then et al., "The
    More the Merrier", VLDB 2014): reach[v] holds one bit per source of the
    batch, set once the source is within the current radius of v, and each
    round ORs into it the masks of v's neighbours. A source's eccentricity is
    the last round in which its bit spread. The smallest s of largest
    eccentricity D begins the smallest witness: a vertex t at distance D
    from s has eccentricity D too, so t > s. One BFS from s then gives the
    smallest such t. A batch holds _BFS_BATCH sources, or fewer where n is
    so large that its masks would pass _BFS_MASK_BYTES. Each round is
    charged (n + 2m) times the 64-bit words of its masks; past
    _BFS_WORD_BUDGET it raises CeilingExceeded.
    """
    n = g.vertex_count
    if n <= 1:
        return (0, None)
    dist0 = _bfs_distances(g, 0)
    if -1 in dist0:
        other = dist0.index(-1)
        return (math.inf, (0, other))
    adj = g.adjacency
    batch = max(1, min(_BFS_BATCH, 4 * _BFS_MASK_BYTES // n))
    arcs = n + 2 * g.edge_count
    best, source, words = 0, 0, 0
    for lo in range(0, n, batch):
        width = min(batch, n - lo)
        full = (1 << width) - 1
        reach = [0] * n
        for i in range(width):
            reach[lo + i] = 1 << i
        rounds = last = 0
        charge = arcs * -(-width // 64)
        while True:
            words += charge
            if words > _BFS_WORD_BUDGET:
                raise CeilingExceeded(f"diameter search passed {_BFS_WORD_BUDGET} mask words")
            grown = 0
            spread = reach[:]
            for v, near in enumerate(adj):
                r = reach[v]
                if r != full:
                    for u in near:
                        r |= reach[u]
                    grown |= r ^ reach[v]
                    spread[v] = r
            if not grown:
                break
            rounds, last, reach = rounds + 1, grown, spread
        if rounds > best:
            best, source = rounds, lo + (last & -last).bit_length() - 1
    return (best, (source, _bfs_distances(g, source).index(best)))


@dataclass(frozen=True)
class CutCertificate:
    """Exact vertex connectivity with a witnessing separator.

    components lists the connected components of the graph minus the
    separator, each sorted, ordered by smallest member. Complete graphs use
    the convention kappa = n - 1, separator = all but vertex 0.
    """

    kappa: int
    separator: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _min_vertex_cut(
    adj: list[list[int]], s: int, ends: set[int] | frozenset[int], cap: int, flow: int,
    prev: dict[int, int], arcs: list[int],
) -> tuple[int, tuple[int, ...] | None, list[int]]:
    """Most paths from s to distinct vertices of ends, disjoint but for s,
    and a minimum vertex cut of them, by unit-capacity flow on the
    vertex-split graph, from the flow of the paths that prev records and up
    to cap. s must not be in ends, and each path must end at its first
    vertex in ends. Node 2v is v_in and 2v + 1 is v_out; the flow runs from
    s_out to a sink T. Each edge uv gives the arcs u_out -> v_in and
    v_out -> u_in of capacity n + 1, each v other than s the arc
    v_in -> v_out of capacity 1, and each v in ends the arc v_out -> T.
    With ends = N(t), t not adjacent to s, that is the s-t flow with t_in as
    T, and t is never entered. The residual arcs are read off adj and prev,
    which maps each vertex on the flow's paths to the one before it:
    v_out -> u_in for every neighbour u, v_out -> v_in and
    v_in -> prev[v]_out when v is on a path, and v_in -> v_out when it is
    not. An in-node has that one arc out, so a search follows it as soon as
    it labels the in-node and queues only out-nodes. It reaches T, and
    stops, once it labels v_in of a v in ends on no path. It enters an end
    on a path only at v_in, and turns back there along the path, so after
    each augmentation, which updates prev in place, every path still ends
    at its first end. arcs[0] counts, across calls, the arcs the searches
    scan: the neighbour list of each out-node they expand and the arc that
    reached it. Past _FLOW_ARC_BUDGET a search raises CeilingExceeded.

    Returns (flow, cut, beyond) when the flow is exhausted below cap, else
    (flow, None, []) once flow >= cap (search aborted). The cut is read off
    the nodes the last, failed search labels from the source: the v with
    v_in labelled and v_out not. That set is the same for every maximum
    flow, whichever flow it started from, so neither the paths nor the arc
    order change it. beyond lists the vertices whose v_in it leaves
    unlabelled; for ends = N(t), apart from s, those are the vertices
    neither in the cut nor in the component of s in g minus the cut.
    """
    # s_in -> s_out leads only to the labelled source, so s is never cut
    source = 2 * s + 1
    while flow < cap:
        via = {source: source}  # the node that labelled each node
        queue = [source]
        for x in queue:
            v = x >> 1
            arcs[0] += len(adj[v]) + 1
            for y in (*adj[v], v) if v in prev else adj[v]:
                if 2 * y not in via:
                    via[2 * y] = x
                    if y in ends and y not in prev:
                        break
                    z = 2 * prev[y] + 1 if y in prev else 2 * y + 1
                    if z not in via:
                        via[z] = 2 * y
                        queue.append(z)
            else:
                continue
            x = 2 * y
            break
        else:
            x = source  # no augmenting path
        if arcs[0] > _FLOW_ARC_BUDGET:
            raise CeilingExceeded(f"vertex connectivity flows passed {_FLOW_ARC_BUDGET} split-graph arcs")
        if x == source:
            cut = tuple(sorted(u >> 1 for u in via if not u & 1 and u + 1 not in via))
            if len(cut) != flow:
                raise AssertionError("min-cut extraction disagrees with flow value")
            return flow, cut, [v for v in range(len(adj)) if 2 * v not in via]
        # augment: each v_in on the path takes as prev[v] the vertex whose
        # out-node labelled it, or leaves the paths when v_out labelled it
        while x != source:
            y, x = x, via[x]
            if not y & 1:
                if x == y + 1:
                    del prev[y >> 1]
                else:
                    prev[y >> 1] = x >> 1
        flow += 1
    return flow, None, []


def _disjoint_paths(adj: list[list[int]], s: int, t: int, cap: int) -> tuple[int, dict[int, int]]:
    """(found, prev): up to cap internally disjoint paths joining the
    non-adjacent s and t, found greedily one at a time, each by a
    bidirectional BFS (Pohl 1971) that grows the smaller frontier and
    avoids the inner vertices of the paths found before it. prev maps each
    inner vertex of the found paths to the vertex before it on its path
    from s. found = cap is exact: by Menger's theorem a flow from s to t
    capped at cap would reach cap. Fewer may miss paths that exist."""
    prev: dict[int, int] = {}
    for found in range(cap):
        trees = [{s: -1}, {t: -1}]  # the BFS from each end: vertex -> its parent
        fronts = [[s], [t]]
        link = None
        while link is None:
            k = len(fronts[1]) < len(fronts[0])
            own, other = trees[k], trees[not k]
            grown = []
            for x in fronts[k]:
                for y in adj[x]:
                    if y in own or y in prev:
                        continue
                    if y in other:
                        link = (x, y)
                        break
                    own[y] = x
                    grown.append(y)
                if link is not None:
                    break
            if link is None and not grown:
                return found, prev
            fronts[k] = grown
        a, b = link[::-1] if k else link  # a on the side of s, b on that of t
        x = a
        while b != t:
            prev[b] = x
            x, b = b, trees[1][b]
        while a != s:
            prev[a] = trees[0][a]
            a = prev[a]
    return cap, prev


def vertex_connectivity(g: Graph) -> CutCertificate:
    """Exact kappa with a witnessing separator and the split components.

    kappa by Even's check (SIAM J. Comput. 4, 1975) on any order v_1..v_n
    of the vertices: kappa >= k if and only if every two non-adjacent
    vertices of v_1..v_k are joined by k internally disjoint paths, and for
    each j > k some k paths from v_j end in distinct vertices of
    v_1..v_(j-1), disjoint but for v_j (a fan). Proof: take a separator S
    with |S| < k, v_a the first vertex outside S and v_b the first one
    outside S and the component of v_a in g - S. If b <= k, S splits the
    non-adjacent pair (v_a, v_b). Otherwise every path from v_b to an
    earlier vertex meets S, so v_b has no fan of k. Conversely, a test that
    finds c < k paths has a cut of c vertices, a separator of g: a fan's
    cut leaves v_j apart from some earlier vertex, as c < j - 1. Adjacent
    pairs need no test, since no separator splits them.

    The order here is by distance from vertex 0, the farthest first, so
    that most neighbours of v_j, those farther out, come before it. The
    check runs at k = delta, and again at k = c after a test finds c < k
    paths, until it passes at k = kappa. A pair test is _disjoint_paths,
    and when the greedy paths fall short, which they always do on a pair
    split by fewer than k vertices, the flow goes on from them (Even and
    Tarjan, SIAM J. Comput. 1975: unit flows on the vertex-split graph).
    A fan takes first the one-edge paths to earlier neighbours and the
    two-edge paths through a later neighbour to one of its earlier
    neighbours; when those fall short, the flow to the earlier vertices
    goes on from them. A fan's paths are short, so its flow labels few
    nodes. Each flow is charged the split-graph arcs its searches scan,
    and a call whose flows pass _FLOW_ARC_BUDGET arcs raises
    CeilingExceeded.

    The separator is the lexicographically smallest of the cuts read off
    the pairs s < t, s not adjacent to t, whose flow is kappa. A pair's cut
    is the residual reach of its maximum flow: the minimum s-t separator
    closest to s, whose side A (the component of s in g minus it) lies
    inside the side of s of every other minimum s-t separator. On a
    d-regular graph with kappa = d that is N(s) for every such pair: the
    arcs s_out -> x_in, x in N(s), carry capacity n + 1, so every finite
    cut's source side holds s_out and all x_in, and that set is already a
    cut of capacity d. The separator is then the smallest sorted N(s) over
    the s with a non-neighbour t > s, and no further flow runs.

    Otherwise the pairs are swept in order. For kappa >= 3 each flow is
    capped at kappa + 1, which keeps exactly the pairs whose local
    connectivity is kappa, and is skipped when kappa + 1 disjoint paths
    join the pair. A flow of kappa from s to t, with cut C and side A,
    settles every later sink t' > s outside A and C: its cut is C too, so
    no flow runs for it. Proof: C separates s from t', so the local
    connectivity of (s, t') is kappa and C is a minimum s-t' separator. The
    closest such separator C' therefore has its side A' inside A, so C' lies
    in A and C, and it does not contain t. If A' were not A, C' would be a
    minimum s-t separator whose side is smaller than A, against C being
    the closest one. So C' = C.

    One DFS of the whole graph for its cut vertices (_cut_vertex_pieces)
    decides kappa = 1, and then Even's check does not run. Otherwise
    kappa >= 2, and it stops once a test finds 2 paths.

    For kappa <= 2 the sweep runs no flow: it reads every cut off a listing
    of the kappa-separators with their pieces (the components they leave).
    A set S of kappa >= 1 vertices is a separator exactly when S = X + {y}
    with |X| = kappa - 1 and y a cut vertex of g - X: g - X is connected
    because |X| < kappa, and g - S = (g - X) - y. So one DFS per X lists
    them all; for kappa = 1 that is the DFS above. The minimum s-t
    separators are the listed S with s and t in different pieces, and the
    closest one is among them the S whose piece holding s is smallest: its
    side is inside every other one's, so it is the smallest, and another
    side of that size is the same set, whose neighbours are the same S
    (each vertex of a minimum separator has a neighbour on the side of s).
    So one pass over the pieces of the distinct separators, the smallest
    first, reads every cut: for each s in a piece, its separator is the cut
    of each sink t > s in the other pieces that no earlier piece holding s
    has split off. The listing has each 2-separator twice, once from each
    of its vertices, and the pass takes it once.
    """
    n = g.vertex_count
    if n == 0:
        return CutCertificate(0, (), ())
    comps = connected_components(g)
    if len(comps) > 1:
        return CutCertificate(0, (), comps)
    if g.edge_count == n * (n - 1) // 2:
        return CutCertificate(n - 1, tuple(range(1, n)), ((0,),))
    adj = g.adjacency
    sets = g.neighbor_sets
    arcs = [0]

    def capped_flow(s: int, t: int, cap: int) -> tuple[int, tuple[int, ...] | None, list[int]]:
        """_min_vertex_cut from the paths of _disjoint_paths, or
        (cap, None, []) with no flow when cap disjoint paths join s and t."""
        found, prev = _disjoint_paths(adj, s, t, cap)
        return _min_vertex_cut(adj, s, sets[t], cap, found, prev, arcs) if found < cap else (cap, None, [])

    def even(k: int) -> int:
        """k when kappa >= k by Even's check, else the paths c < k that the
        first failed test finds."""
        for s, t in combinations(order[:k], 2):
            if t not in sets[s] and (c := capped_flow(s, t, k)[0]) < k:
                return c
        earlier = set(order[:k])
        for v in order[k:]:
            prev = {u: v for u in adj[v] if u in earlier}
            for w in adj[v]:
                if w not in earlier:
                    for u in adj[w]:
                        if u in earlier and u not in prev:
                            prev[w], prev[u] = v, w
                            break
            found = len(earlier.intersection(prev))
            if found < k and (c := _min_vertex_cut(adj, v, earlier, k, found, prev, arcs)[0]) < k:
                return c
            earlier.add(v)
        return k

    degs = g.degrees()
    listing = _cut_vertex_pieces(g, ())
    best = 1 if listing else min(degs)
    if not listing:
        order = sorted(range(n), key=_bfs_distances(g, 0).__getitem__, reverse=True)
        while best > 2 and (c := even(best)) < best:
            best = c
        if best == 2 < max(degs):
            listing = [cut for x in range(n) for cut in _cut_vertex_pieces(g, (x,))]
    cuts = set()
    if best == max(degs):
        cuts.add(min(adj[s] for s in range(n) if any(t not in sets[s] for t in range(s + 1, n))))
    elif best <= 2:
        todo = [-1 << (s + 1) for s in range(n)]  # todo[s]: the sinks t > s not yet read
        # every piece, the smallest first; dict() keeps each separator once,
        # where the kappa = 2 listing has it from each of its two vertices
        for _, piece, rest, sep in sorted(
            (piece.bit_count(), piece, sum(pieces) ^ piece, sep)
            for sep, pieces in dict(listing).items() for piece in pieces
        ):
            while piece:
                low = piece & -piece
                s = low.bit_length() - 1
                if rest & todo[s]:
                    cuts.add(sep)
                    todo[s] &= ~rest
                piece ^= low
    else:
        for s in range(n):
            settled = set(sets[s])
            for t in range(s + 1, n):
                if t not in settled:
                    _, cut, beyond = capped_flow(s, t, best + 1)
                    if cut is not None:
                        cuts.add(cut)
                        settled.update(beyond)
    separator = min(cuts)
    return CutCertificate(best, separator, connected_components(g, frozenset(separator)))


@dataclass(frozen=True)
class FiveCycleStats:
    """Exact 5-cycle census.

    cycles holds each 5-cycle once, canonically (smallest vertex first, then
    the smaller of its two cycle neighbors). per_edge_count covers every edge
    of the graph, zero included. max_edge_disjoint[e] is the largest family of
    5-cycles through e whose pairwise intersection is exactly e;
    max_path_disjoint does the same for 2-paths keyed (endpoint, midpoint,
    endpoint) with sorted endpoints. Both packing maps are None when their
    search passes _PACKING_NODE_BUDGET nodes.
    """

    cycles: tuple[tuple[int, int, int, int, int], ...]
    per_edge_count: dict[tuple[int, int], int]
    max_edge_disjoint: dict[tuple[int, int], int] | None
    max_path_disjoint: dict[tuple[int, int, int], int] | None


def _enumerate_five_cycles(g: Graph) -> list[tuple[int, int, int, int, int]]:
    cycles = []
    ns = g.neighbor_sets
    for s in range(g.vertex_count):
        for a in g.adjacency[s]:
            if a <= s:
                continue
            for b in g.adjacency[a]:
                if b <= s:
                    continue
                for c in g.adjacency[b]:
                    if c <= s or c == a:
                        continue
                    for e in g.adjacency[c]:
                        # close the cycle with e adjacent to s; e > a fixes
                        # the traversal direction so each cycle appears once
                        if e > a and e != b and s in ns[e]:
                            cycles.append((s, a, b, c, e))
    return cycles


def _max_compatible(items: list[frozenset[int]], core_size: int, nodes: list[int]) -> int:
    """Largest subfamily whose pairwise intersections have exactly core_size
    vertices (the shared edge or path all of them contain). nodes[0] counts
    the search nodes across calls; past _PACKING_NODE_BUDGET the search
    raises CeilingExceeded. A family of at most one cycle takes one node, so
    five_cycle_stats charges that node instead of calling it."""
    m = len(items)
    conflict: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if len(items[i] & items[j]) > core_size:
                conflict[i].add(j)
                conflict[j].add(i)

    def rec(avail: frozenset[int]) -> int:
        nodes[0] += 1
        if nodes[0] > _PACKING_NODE_BUDGET:
            raise CeilingExceeded(f"packing search passed {_PACKING_NODE_BUDGET} nodes")
        if not avail:
            return 0
        v = max(avail, key=lambda x: len(conflict[x] & avail))
        if not (conflict[v] & avail):
            # conflict-free remainder is mutually compatible
            return len(avail)
        with_v = 1 + rec(avail - {v} - conflict[v])
        without_v = rec(avail - {v})
        return max(with_v, without_v)

    return rec(frozenset(range(m)))


def five_cycle_stats(g: Graph) -> FiveCycleStats:
    """Exhaustive 5-cycle statistics; refuses graphs larger than
    FIVE_CYCLE_VERTEX_CEILING vertices.

    Only the families of two or more cycles through an edge or a 2-path run
    the packing search. Each other family is its own packing and is charged
    the one search node that the search would count for it, so the node
    total, and with it where the maps turn None, does not depend on the
    shortcut."""
    if g.vertex_count > FIVE_CYCLE_VERTEX_CEILING:
        raise CeilingExceeded(
            f"five-cycle enumeration capped at {FIVE_CYCLE_VERTEX_CEILING} vertices, "
            f"got {g.vertex_count}"
        )
    cycles = _enumerate_five_cycles(g)
    edges = list(g.edges())
    paths = [(u, v, w) for v, near in enumerate(g.adjacency) for u, w in combinations(near, 2)]
    # the vertex sets of the cycles through each edge and 2-path on a cycle
    by_edge: dict[tuple[int, int], list[frozenset[int]]] = {}
    by_path: dict[tuple[int, int, int], list[frozenset[int]]] = {}
    for cyc in cycles:
        vertex_set = frozenset(cyc)
        for i in range(5):
            a, mid, b = cyc[i - 1], cyc[i], cyc[(i + 1) % 5]
            by_edge.setdefault((a, mid) if a < mid else (mid, a), []).append(vertex_set)
            by_path.setdefault((a, mid, b) if a < b else (b, mid, a), []).append(vertex_set)
    per_edge = dict.fromkeys(edges, 0)
    per_edge.update((e, len(family)) for e, family in by_edge.items())
    max_edge = per_edge.copy()
    max_path = dict.fromkeys(paths, 0)
    max_path.update((p, len(family)) for p, family in by_path.items())
    wide = [(max_edge, e, family, 2) for e, family in by_edge.items() if len(family) > 1]
    wide += [(max_path, p, family, 3) for p, family in by_path.items() if len(family) > 1]
    nodes = [len(edges) + len(paths) - len(wide)]
    try:
        if nodes[0] > _PACKING_NODE_BUDGET:
            raise CeilingExceeded(f"packing search passed {_PACKING_NODE_BUDGET} nodes")
        for table, key, family, core_size in wide:
            table[key] = _max_compatible(family, core_size, nodes)
    except CeilingExceeded:
        return FiveCycleStats(tuple(cycles), per_edge, None, None)
    return FiveCycleStats(tuple(cycles), per_edge, max_edge, max_path)


@dataclass(frozen=True)
class HypothesisReport:
    """Which coloring routes apply to a graph, with the structural facts
    behind each gate and the bounds on the b-chromatic number.

    phi_lower_bound is what auto color (construct_auto_bcoloring)
    guarantees on the graph, and full_seed_center the center it colors from
    when it takes the full seed; None when it takes another route, for
    d <= 2 and on ineligible graphs. The five-cycle predicates are reported
    facts and raise no bound. An ineligible graph (not regular, or with a
    4-cycle) gets 1, or 0 when empty. phi_upper_bound is the maximum
    degree + 1.
    """

    vertices: int
    edges: int
    regular_degree: int | None
    c4_free: bool
    c4_witness: tuple[int, int, int, int] | None
    has_triangle: bool
    triangle_witness: tuple[int, int, int] | None
    girth: int | float
    diameter: int | float
    diameter_witness: tuple[int, int] | None
    kappa: int
    separator: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    lower_bound_applies: bool
    lower_bound_colors: int | None
    five_cycle_count_vertex_exists: bool | None
    five_cycle_count_witness: int | None
    five_cycle_packing_vertex_exists: bool | None
    five_cycle_packing_witness: int | None
    full_seed_center: int | None
    diameter_route_applies: bool
    small_cut_route_applies: bool
    phi_lower_bound: int
    phi_upper_bound: int

    def to_json_dict(self) -> dict:
        """The fields in declaration order; infinity becomes None and tuples
        become lists, recursively."""

        def plain(x):
            if isinstance(x, tuple):
                return [plain(y) for y in x]
            return None if x == math.inf else x

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


def _cut_vertex_pieces(
    g: Graph, removed: tuple[int, ...]
) -> list[tuple[tuple[int, ...], list[int]]]:
    """For each cut vertex y of g - removed, which must be connected and not
    empty, the separator removed + {y}, sorted, with the components of
    g - removed - y as vertex bitmasks: one iterative DFS with discovery
    times and low points (Hopcroft and Tarjan, CACM 1973). Each DFS child c
    of y with low[c] >= disc[y] is a piece that y cuts off, the subtree
    below c; a y that is not the root keeps one more piece, the rest, which
    holds its parent and the subtrees of its other children."""
    adj = g.adjacency
    n = g.vertex_count
    disc = [-1] * n
    for x in removed:
        disc[x] = n  # never entered, and never lowers a low point
    root = disc.index(-1)
    low = disc[:]
    below = [0] * n  # the DFS subtree of each vertex, once it is finished
    below[root] = 1 << root
    pieces: dict[int, list[int]] = {}
    disc[root] = low[root] = 0
    clock = 1
    stack = [(root, iter(adj[root]))]
    while stack:
        x, todo = stack[-1]
        for y in todo:
            if disc[y] == -1:
                disc[y] = low[y] = clock
                below[y] = 1 << y
                clock += 1
                stack.append((y, iter(adj[y])))
                break
            if disc[y] < low[x]:
                low[x] = disc[y]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[x] < low[p]:
                    low[p] = low[x]
                below[p] |= below[x]
                if low[x] >= disc[p]:
                    pieces.setdefault(p, []).append(below[x])
    for y, cut_off in pieces.items():
        if y != root:
            cut_off.append(below[root] ^ (1 << y) ^ sum(cut_off))
    return [
        (tuple(sorted(removed + (y,))), cut_off)
        for y, cut_off in pieces.items() if len(cut_off) >= 2
    ]


def check_hypotheses(g: Graph) -> HypothesisReport:
    """Evaluate every coloring-route hypothesis on g.

    The five-cycle vertex predicates ask for a vertex v all of whose incident
    edges lie on at most (d-2)/2 five-cycles (count route), or all of whose
    incident edges and 2-paths through v pack at most (d-2)/2 mutually
    edge/path-anchored five-cycles (packing route); the threshold relaxes to
    (d-1)/2 when the girth is exactly 5. They are None when the graph is not
    regular and C4-free, or beyond the enumeration ceiling; the packing
    predicate also when its search passes _PACKING_NODE_BUDGET nodes.
    An eligible graph is gated here, once: its own is_regular and
    find_four_cycle make it a GatedGraph, on which every later fact is
    computed and auto color runs once, without gating it again.
    phi_lower_bound and full_seed_center are read off auto's outcome (see
    HypothesisReport); where no full-seed center exists, that runs auto's
    later routes too.
    """
    d = is_regular(g)
    c4 = find_four_cycle(g)
    eligible = d is not None and c4 is None
    if eligible:
        # every later fact, and auto's route walk, on the gated graph
        g = GatedGraph(g.vertex_count, g.adjacency, d)
    tri = find_triangle(g)
    # with no triangle and no 4-cycle the girth is at least 5
    gr = 3 if tri is not None else 4 if c4 is not None else girth(g, at_least=5)
    diam, diam_witness = diameter(g)
    cert = vertex_connectivity(g)
    n = g.vertex_count

    lower_colors = full_seed_center = None
    count_exists = packing_exists = None
    count_witness = packing_witness = None
    diameter_route = small_cut_route = False
    phi_upper = 0 if n == 0 else g.max_degree() + 1
    phi_lower = 0 if n == 0 else 1
    if eligible:
        assert d is not None
        lower_colors = (d + 4) // 2 if tri is not None else (d + 3) // 2
        if n <= FIVE_CYCLE_VERTEX_CEILING:
            stats = five_cycle_stats(g)
            packed = stats.max_edge_disjoint is not None
            # integer threshold: count <= (d-2)/2, or (d-1)/2 at girth 5
            slack = (d - 1) if gr == 5 else (d - 2)
            count_exists = False
            packing_exists = False if packed else None
            paths_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
            for key in stats.max_path_disjoint or ():
                for x in key:
                    paths_at[x].append(key)
            for v in range(n):
                edges_v = [(min(v, u), max(v, u)) for u in g.adjacency[v]]
                if all(2 * stats.per_edge_count[e] <= slack for e in edges_v):
                    count_exists = True
                    if count_witness is None:
                        count_witness = v
                if packed and all(
                    2 * stats.max_edge_disjoint[e] <= slack for e in edges_v
                ) and all(2 * stats.max_path_disjoint[p] <= slack for p in paths_at[v]):
                    packing_exists = True
                    if packing_witness is None:
                        packing_witness = v
        diameter_route = diam >= 6
        small_cut_route = 2 * cert.kappa <= d + 1
        outcome = constructive.construct_auto_bcoloring(g)
        phi_lower = outcome.guaranteed_colors
        if outcome.strategy == "full-seed":
            full_seed_center = outcome.plans[0].center

    return HypothesisReport(
        vertices=n,
        edges=g.edge_count,
        regular_degree=d,
        c4_free=c4 is None,
        c4_witness=c4,
        has_triangle=tri is not None,
        triangle_witness=tri,
        girth=gr,
        diameter=diam,
        diameter_witness=diam_witness,
        kappa=cert.kappa,
        separator=cert.separator,
        components=cert.components,
        lower_bound_applies=eligible,
        lower_bound_colors=lower_colors,
        five_cycle_count_vertex_exists=count_exists,
        five_cycle_count_witness=count_witness,
        five_cycle_packing_vertex_exists=packing_exists,
        five_cycle_packing_witness=packing_witness,
        full_seed_center=full_seed_center,
        diameter_route_applies=diameter_route,
        small_cut_route_applies=small_cut_route,
        phi_lower_bound=phi_lower,
        phi_upper_bound=phi_upper,
    )
