"""Benchmark inputs, built without importing bchromatic.

Every input is a d-regular graph with no 4-cycle, given as (n, edges) with
0-based vertices and each edge (u, v) once with u < v. Large inputs are
random N-lifts of small C4-free bases: each base edge (u, v) becomes N edges
(u, i) -- (v, pi(i)) for a random permutation pi. A cycle of the lift maps
to a closed non-backtracking walk of the base of the same length, so a lift
of a C4-free base is C4-free, and a lift of a d-regular base is d-regular.
Keeping the generator here means a change to the program's own generator
cannot change the inputs of any workload that does not time it.
"""

from __future__ import annotations

import random
from collections import deque

Edges = list[tuple[int, int]]


def _norm(edges) -> Edges:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def adjacency(n: int, edges: Edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def serialize(n: int, edges: Edges) -> str:
    """The edge-list text format: a header "n m", then one "u v" per line."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def parse(text: str) -> tuple[int, Edges]:
    """Parse edge-list text, keeping duplicates so a checker can see them."""
    lines = text.split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = []
    for line in lines[1:1 + m]:
        u, v = (int(x) for x in line.split())
        edges.append((u, v) if u < v else (v, u))
    if len(edges) != m or any(s.strip() for s in lines[1 + m:]):
        raise ValueError(f"edge list declares {m} edges and holds {len(edges)}")
    return n, edges


# ----------------------------------------------------------------------------
# small C4-free bases
# ----------------------------------------------------------------------------

def petersen() -> tuple[int, Edges]:
    """Cubic, girth 5, 10 vertices."""
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return 10, _norm(edges)


def complete_bipartite(d: int) -> tuple[int, Edges]:
    return 2 * d, [(i, d + j) for i in range(d) for j in range(d)]


def levi_pg2(q: int) -> tuple[int, Edges]:
    """Point-line incidence graph of the projective plane over GF(q), q prime:
    (q+1)-regular, girth 6, 2(q^2+q+1) vertices."""
    points = []
    for a in range(q):
        for b in range(q):
            points.append((1, a, b))
    for b in range(q):
        points.append((0, 1, b))
    points.append((0, 0, 1))
    m = len(points)
    edges = [
        (i, m + j)
        for i, p in enumerate(points)
        for j, line in enumerate(points)
        if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0
    ]
    return 2 * m, edges


def generalized_petersen(n: int, k: int) -> tuple[int, Edges]:
    """Outer n-cycle, inner vertices stepping by k, and spokes: cubic."""
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (n + i, n + (i + k) % n), (i, n + i)]
    return 2 * n, _norm(edges)


def line_graph(n: int, edges: Edges) -> tuple[int, Edges]:
    """Of a cubic graph of girth >= 5: 4-regular, C4-free, every vertex on a
    triangle."""
    at: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        at[u].append(idx)
        at[v].append(idx)
    out = [(a, b) for ids in at for i, a in enumerate(ids) for b in ids[i + 1:]]
    return len(edges), _norm(out)


def truncate(n: int, edges: Edges) -> tuple[int, Edges]:
    """Replace each vertex of a cubic graph by a triangle. Of girth >= 5 the
    result is cubic, C4-free, and every vertex lies on a triangle."""
    slot = [0] * n
    out = []
    for u, v in edges:
        out.append((3 * u + slot[u], 3 * v + slot[v]))
        slot[u] += 1
        slot[v] += 1
    for v in range(n):
        out += [(3 * v, 3 * v + 1), (3 * v, 3 * v + 2), (3 * v + 1, 3 * v + 2)]
    return 3 * n, _norm(out)


# ----------------------------------------------------------------------------
# random operations
# ----------------------------------------------------------------------------

def relabel(n: int, edges: Edges, rng: random.Random) -> tuple[int, Edges]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, _norm((perm[u], perm[v]) for u, v in edges)


def is_connected(n: int, edges: Edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    q = deque([0])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                q.append(y)
    return len(seen) == n


def has_triangle(n: int, edges: Edges) -> bool:
    adj = adjacency(n, edges)
    return any(adj[u] & adj[v] for u, v in edges)


def random_lift(base: tuple[int, Edges], N: int, rng: random.Random) -> tuple[int, Edges]:
    """A connected random N-lift, relabelled at random. A base with triangles
    gives a lift with at least one triangle (resampled until it has one)."""
    bn, bedges = base
    want_triangle = has_triangle(bn, bedges)
    while True:
        edges = []
        for u, v in bedges:
            perm = list(range(N))
            rng.shuffle(perm)
            edges += [(u * N + i, v * N + perm[i]) for i in range(N)]
        edges = _norm(edges)
        n = bn * N
        if is_connected(n, edges) and (not want_triangle or has_triangle(n, edges)):
            return relabel(n, edges, rng)


def has_four_cycle(n: int, edges: Edges) -> bool:
    """Two vertices with two common neighbours, found by counting 2-paths."""
    adj = adjacency(n, edges)
    ends = set()
    for w in range(n):
        ns = sorted(adj[w])
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if (a, b) in ends:
                    return True
                ends.add((a, b))
    return False


def plant_triangle(n: int, edges: Edges, rng: random.Random) -> tuple[int, Edges]:
    """Put a triangle a-b-c into a regular C4-free graph, keeping both
    properties: drop two edges at each of a, b and c, join a, b, c, and
    join the six loose ends in pairs. Resampled until no 4-cycle appears
    (abelian Cayley graphs, the obvious regular graphs with triangles, all
    have 4-cycles)."""
    adj = adjacency(n, edges)
    while True:
        a, b, c = rng.sample(range(n), 3)
        ends = [x for v in (a, b, c) for x in rng.sample(sorted(adj[v]), 2)]
        touched = {a, b, c, *ends}
        if len(touched) != 9 or any(touched & adj[v] - set(ends) for v in (a, b, c)):
            continue
        drop = {tuple(sorted((v, x))) for v, x in zip((a, a, b, b, c, c), ends)}
        add = [(a, b), (b, c), (a, c), (ends[1], ends[2]), (ends[3], ends[4]), (ends[5], ends[0])]
        if any(y in adj[x] for x, y in add):
            continue
        out = _norm([e for e in edges if e not in drop] + add)
        if not has_four_cycle(n, out):
            return n, out


def ring_of_blocks(blocks: list[tuple[int, Edges]], rng: random.Random) -> tuple[int, Edges]:
    """Blocks joined in a cycle: each block loses one random edge (a, b), and
    b of each block is joined to a of the next. Regularity is kept, two
    vertices cut the ring, so the vertex connectivity is at most 2; with
    three or more blocks no new edge closes a 4-cycle."""
    if len(blocks) < 3:
        raise ValueError("a ring needs at least three blocks")
    edges: Edges = []
    ends = []
    shift = 0
    for bn, bedges in blocks:
        a, b = bedges[rng.randrange(len(bedges))]
        if rng.random() < 0.5:
            a, b = b, a
        edges += [(u + shift, v + shift) for u, v in bedges if {u, v} != {a, b}]
        ends.append((a + shift, b + shift))
        shift += bn
    for i, (_, b) in enumerate(ends):
        edges.append((b, ends[(i + 1) % len(ends)][0]))
    return relabel(shift, _norm(edges), rng)
