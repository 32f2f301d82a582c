"""Independent brute-force reference implementations.

Everything here trades efficiency for obviousness so the fast library code
can be checked against it on small inputs. Nothing in this module imports
from the library's algorithm internals beyond the Graph container and the
ParseError it reports.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Hashable, Iterable

from bchromatic.graph_core import PARSE_VERTEX_CEILING, Graph, ParseError


def reference_parse_edge_list(text: str) -> Graph:
    """The edge-list parser as a line loop that collects the edges, then
    Graph.from_edges: the same checks, messages and line numbers as
    graph_core.parse_edge_list."""
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header line 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(1, f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(1, f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError(1, "n and m must be nonnegative")
    if n > PARSE_VERTEX_CEILING:
        raise ParseError(1, f"{n} vertices exceed the parser ceiling of {PARSE_VERTEX_CEILING}")
    edges: list[tuple[int, int]] = []
    idx = 1
    while len(edges) < m:
        if idx >= len(lines):
            raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {len(edges)}")
        parts = lines[idx].split()
        if not parts:
            raise ParseError(idx + 1, "blank line where an edge was expected")
        if len(parts) != 2:
            raise ParseError(idx + 1, f"edge line must be 'u v', got {lines[idx]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(idx + 1, f"edge endpoints must be integers, got {lines[idx]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(idx + 1, f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ParseError(idx + 1, f"self-loop at vertex {u}")
        edges.append((u, v))
        idx += 1
    for rest in range(idx, len(lines)):
        if lines[rest].strip():
            raise ParseError(rest + 1, "unexpected content after the declared edges")
    return Graph.from_edges(n, edges)


def brute_triangle(g: Graph) -> tuple[int, int, int] | None:
    """The lexicographically first triangle a < b < c, over all triples."""
    for a, b, c in itertools.combinations(range(g.vertex_count), 3):
        if b in g.adjacency[a] and c in g.adjacency[a] and c in g.adjacency[b]:
            return (a, b, c)
    return None


def brute_girth(g: Graph) -> float:
    """Shortest cycle by per-edge removal: girth = 1 + dist(u, v) in G - uv."""
    best = math.inf
    for u, v in g.edges():
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            for y in g.adjacency[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def brute_four_cycle(g: Graph) -> tuple[int, int, int, int] | None:
    """The first pair u < v (lexicographically) with two common neighbours,
    as (u, x, v, y) with x < y their two smallest common neighbours."""
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            shared = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
            if len(shared) >= 2:
                return (u, shared[0], v, shared[1])
    return None


def reference_greedy_extend(
    g: Graph, assignment: tuple[int | None, ...], palette: int, sources: tuple[int, ...]
) -> tuple[int, ...]:
    """greedy_extend's colors as a BFS from the sorted distinct sources, the
    unreached vertices after it in ascending order, then each uncolored
    vertex in that order given the smallest color absent around it."""
    n = g.vertex_count
    colors = list(assignment)
    order: list[int] = []
    seen = [False] * n
    q: deque[int] = deque()
    for s in sorted(set(sources)):
        if not seen[s]:
            seen[s] = True
            q.append(s)
    while q:
        x = q.popleft()
        order.append(x)
        for y in g.adjacency[x]:
            if not seen[y]:
                seen[y] = True
                q.append(y)
    order += [v for v in range(n) if not seen[v]]
    for v in order:
        if colors[v] is None:
            taken = {colors[u] for u in g.adjacency[v]}
            colors[v] = next(c for c in range(1, palette + 1) if c not in taken)
    return tuple(colors)


def brute_diameter(g: Graph) -> float:
    n = g.vertex_count
    if n <= 1:
        return 0
    best = 0
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if len(dist) < n:
            return math.inf
        best = max(best, max(dist.values()))
    return best


def bfs_diameter(g: Graph) -> tuple[float, tuple[int, int] | None]:
    """(diameter, witness) by one BFS per vertex: the witness is the
    lexicographically first pair s < t at the largest distance, which is
    infinite between components. Fewer than two vertices give (0, None)."""
    n = g.vertex_count
    if n <= 1:
        return (0, None)
    best, witness = -1, None
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for t in range(s + 1, n):
            if dist.get(t, math.inf) > best:
                best, witness = dist.get(t, math.inf), (s, t)
    return (best, witness)


def _connected_after_removal(g: Graph, removed: set[int]) -> bool:
    rest = [v for v in range(g.vertex_count) if v not in removed]
    if not rest:
        return True
    seen = {rest[0]}
    q = deque([rest[0]])
    while q:
        x = q.popleft()
        for y in g.adjacency[x]:
            if y not in removed and y not in seen:
                seen.add(y)
                q.append(y)
    return len(seen) == len(rest)


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete graphs."""
    n = g.vertex_count
    if n == 0:
        return 0
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    for size in range(n - 1):
        for combo in itertools.combinations(range(n), size):
            if not _connected_after_removal(g, set(combo)):
                return size
    return n - 1


def _components(g: Graph, removed: frozenset[int] = frozenset()) -> tuple[tuple[int, ...], ...]:
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


def _split_graph(g: Graph) -> list[dict[int, int]]:
    n = g.vertex_count
    cap: list[dict[int, int]] = [{} for _ in range(2 * n)]
    for v in range(n):
        cap[2 * v][2 * v + 1], cap[2 * v + 1][2 * v] = 1, 0
    for u, v in g.edges():
        cap[2 * u + 1][2 * v] = cap[2 * v + 1][2 * u] = n + 1
        cap[2 * v][2 * u + 1] = cap[2 * u][2 * v + 1] = 0
    return cap


def _min_vertex_cut(
    split: list[dict[int, int]], s: int, t: int, cap_limit: int
) -> tuple[int, tuple[int, ...] | None]:
    n = len(split) // 2
    cap = [dict(row) for row in split]
    cap[2 * s][2 * s + 1] = cap[2 * t][2 * t + 1] = 0
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap_limit:
        parent: dict[int, int] = {source: source}
        q = deque([source])
        while q and sink not in parent:
            x = q.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    q.append(y)
        if sink not in parent:
            reach = set(parent)
            cut = tuple(
                v for v in range(n)
                if v != s and v != t and 2 * v in reach and 2 * v + 1 not in reach
            )
            if len(cut) != flow:
                raise AssertionError("min-cut extraction disagrees with flow value")
            return flow, cut
        y = sink
        while y != source:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
    return flow, None


def sweep_vertex_connectivity(g: Graph) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(kappa, separator, components) by one unit flow on the vertex-split
    graph for every non-adjacent pair s < t, each capped at the best value
    so far plus one; the separator is the smallest of the cuts (the residual
    reach of s) of the pairs whose flow is kappa. Complete graphs give
    kappa = n - 1 with every vertex but 0 as separator."""
    n = g.vertex_count
    if n == 0:
        return (0, (), ())
    comps = _components(g)
    if len(comps) > 1:
        return (0, (), comps)
    if g.edge_count == n * (n - 1) // 2:
        return (n - 1, tuple(range(1, n)), ((0,),))
    best = n - 1
    cuts: list[tuple[int, ...]] = []
    split = _split_graph(g)
    for s in range(n):
        for t in range(s + 1, n):
            if g.has_edge(s, t):
                continue
            flow, cut = _min_vertex_cut(split, s, t, best + 1)
            if cut is not None:
                if flow < best:
                    best = flow
                    cuts = [cut]
                elif flow == best:
                    cuts.append(cut)
    separator = min(c for c in cuts if len(c) == best)
    return (best, separator, _components(g, frozenset(separator)))


def brute_five_cycles(g: Graph) -> list[tuple[int, int, int, int, int]]:
    """Every 5-cycle once, as a closed 5-walk on distinct vertices that
    starts at its smallest vertex and turns toward the smaller of its two
    cycle neighbours."""
    cycles = []
    for subset in itertools.combinations(range(g.vertex_count), 5):
        s = subset[0]
        rest = subset[1:]
        for perm in itertools.permutations(rest):
            if perm[0] > perm[-1]:
                continue
            walk = (s,) + perm
            if all(g.has_edge(walk[i], walk[(i + 1) % 5]) for i in range(5)):
                cycles.append(walk)
    return cycles


def brute_five_cycle_count(g: Graph) -> int:
    return len(brute_five_cycles(g))


def brute_five_cycle_packings(
    g: Graph,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int, int], int]]:
    """For each edge (u, v), u < v, and each 2-path (a, m, b), a < b, the
    largest family of 5-cycles through it whose pairwise common vertices
    are exactly its own.

    Tries every subfamily of the cycles through it, growing each family one
    cycle at a time in list order; a family stops growing at its first
    incompatible pair, since no larger family holding that pair qualifies.
    """
    through: dict[tuple[int, ...], list[set[int]]] = {}
    for walk in brute_five_cycles(g):
        for w in (walk, walk[::-1]):
            for i in range(5):
                a, m, b = w[i], w[(i + 1) % 5], w[(i + 2) % 5]
                if a < m:
                    through.setdefault((a, m), []).append(set(walk))
                if a < b:
                    through.setdefault((a, m, b), []).append(set(walk))

    def largest(core: tuple[int, ...]) -> int:
        candidates = through.get(core, [])
        best = 0

        def grow(start: int, family: list[set[int]]) -> None:
            nonlocal best
            best = max(best, len(family))
            for i in range(start, len(candidates)):
                if all(candidates[i] & other == set(core) for other in family):
                    grow(i + 1, family + [candidates[i]])

        grow(0, [])
        return best

    by_edge = {(u, v): largest((u, v)) for u, v in g.edges()}
    by_path = {
        (a, m, b): largest((a, m, b))
        for m in range(g.vertex_count)
        for a in g.adjacency[m]
        for b in g.adjacency[m]
        if a < b
    }
    return by_edge, by_path


def brute_matching_exists(left_count: int, right_count: int,
                          edges: set[tuple[int, int]]) -> bool:
    """Perfect matching existence by trying every assignment (small only)."""
    if left_count != right_count:
        return False
    for perm in itertools.permutations(range(right_count)):
        if all((l, perm[l]) in edges for l in range(left_count)):
            return True
    return False


def meets_half_degree_condition(
    options: dict[Hashable, list[Hashable]], right: Iterable[Hashable],
    u_star: Hashable, v_star: Hashable,
) -> bool:
    """Whether, in the balanced instance whose left nodes are the keys of
    options and whose right side is `right`, every node other than the left
    u_star and the right v_star has degree at least half the side size, and
    both special nodes have positive degree: the matching lemma's
    hypothesis, under which the instance always has a perfect matching."""
    left_deg = {l: len(rs) for l, rs in options.items()}
    right_deg = dict.fromkeys(right, 0)
    half = len(right_deg)
    for rs in options.values():
        for r in rs:
            right_deg[r] += 1
    if left_deg[u_star] == 0 or right_deg[v_star] == 0:
        return False
    return all(
        2 * deg >= half
        for degs, star in ((left_deg, u_star), (right_deg, v_star))
        for node, deg in degs.items() if node != star
    )


def _is_b_coloring(g: Graph, assign: list[int], k: int) -> bool:
    present = set(assign)
    if len(present) != k:
        return False
    for c in present:
        ok = False
        for v in range(g.vertex_count):
            if assign[v] != c:
                continue
            if {assign[u] for u in g.adjacency[v]} >= present - {c}:
                ok = True
                break
        if not ok:
            return False
    return True


def naive_b_chromatic(g: Graph) -> int:
    """Maximum k over every proper partition, enumerated once each via
    restricted-growth color strings."""
    n = g.vertex_count
    if n == 0:
        return 0
    best = 0
    assign = [0] * n

    def rec(i: int, used: int) -> None:
        nonlocal best
        if i == n:
            if used > best and _is_b_coloring(g, assign, used):
                best = used
            return
        for c in range(1, used + 2):
            if all(assign[j] != c for j in g.adjacency[i] if j < i):
                assign[i] = c
                rec(i + 1, max(used, c))
        assign[i] = 0

    rec(0, 0)
    return best


def _reference_search(g: Graph, k: int) -> tuple[tuple[int, ...] | None, int]:
    """A b-coloring with exactly k colors, and the colour assignments tried:
    every witness k-set in lexicographic order, each refuted or completed by
    a most-constrained-first colouring search that keeps, per witness, the
    set of colors its neighbourhood still misses."""
    n = g.vertex_count
    explored = 0
    candidates = [v for v in range(n) if g.degree(v) >= k - 1]
    if len(candidates) < k:
        return None, explored
    full = frozenset(range(1, k + 1))

    for combo in itertools.combinations(candidates, k):
        colors = [0] * n
        wit_at: dict[int, int] = {}
        for i, w in enumerate(combo):
            colors[w] = i + 1
            wit_at[w] = i
        missing: list[set[int]] = []
        uncol = [0] * k
        feasible = True
        for i, w in enumerate(combo):
            m = set(full) - {i + 1}
            u = 0
            for y in g.adjacency[w]:
                cy = colors[y]
                if cy:
                    m.discard(cy)
                else:
                    u += 1
            if len(m) > u:
                feasible = False
                break
            missing.append(m)
            uncol[i] = u
        if not feasible:
            continue

        uncolored_count = n - k

        def legal(v: int) -> set[int]:
            s = set(full)
            for y in g.adjacency[v]:
                cy = colors[y]
                if cy:
                    s.discard(cy)
            for y in g.adjacency[v]:
                i = wit_at.get(y)
                if i is not None and len(missing[i]) == uncol[i]:
                    s &= missing[i]
                    if not s:
                        break
            return s

        def dfs() -> bool:
            nonlocal explored, uncolored_count
            if uncolored_count == 0:
                return all(not m for m in missing)
            best_v = -1
            best_legal: set[int] | None = None
            for v in range(n):
                if colors[v]:
                    continue
                s = legal(v)
                if best_legal is None or len(s) < len(best_legal):
                    best_v, best_legal = v, s
                    if not s:
                        return False
            assert best_legal is not None
            for c in sorted(best_legal):
                explored += 1
                colors[best_v] = c
                uncolored_count -= 1
                log: list[tuple[int, int | None]] = []
                ok = True
                for y in g.adjacency[best_v]:
                    i = wit_at.get(y)
                    if i is None:
                        continue
                    uncol[i] -= 1
                    if c in missing[i]:
                        missing[i].discard(c)
                        log.append((i, c))
                    else:
                        log.append((i, None))
                    if len(missing[i]) > uncol[i]:
                        ok = False
                if ok and dfs():
                    return True
                for i, removed in reversed(log):
                    uncol[i] += 1
                    if removed is not None:
                        missing[i].add(removed)
                colors[best_v] = 0
                uncolored_count += 1
            return False

        if dfs():
            return tuple(colors), explored
    return None, explored


def reference_exact_search(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """(phi, witness assignment, colour assignments tried) by scanning k
    down from max_degree+1 with `_reference_search`: the exact oracle's
    search before it chose witnesses one at a time and checked, at every
    node, that each witness's missing colours still have a neighbour that
    can take them. The fast oracle must find the same witness in no more
    assignments."""
    if g.vertex_count == 0:
        return 0, (), 0
    explored = 0
    for k in range(g.max_degree() + 1, 0, -1):
        found, tried = _reference_search(g, k)
        explored += tried
        if found is not None:
            return k, found, explored
    raise AssertionError("no b-coloring found at any k")
