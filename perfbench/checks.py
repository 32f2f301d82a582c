"""Output checks computed apart from the program: no bchromatic imports.

Every fact a check compares against comes from the benchmark's own
breadth-first searches and flows on the input, or from a theorem about the
input family, never from a stored copy of the program's output.
"""

from __future__ import annotations

import json
import math
from collections import deque
from functools import cached_property

from graphs import Edges, adjacency, has_four_cycle, parse


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------------
# reference facts about an input
# ----------------------------------------------------------------------------

def _bfs(adj: list[set[int]], s: int, removed: frozenset[int] = frozenset()) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if dist[y] == -1 and y not in removed:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def local_connectivity(adj: list[set[int]], s: int, t: int) -> int:
    """Internally disjoint s-t paths (s, t nonadjacent): unit-capacity flow on
    the vertex-split graph, one augmenting BFS per path."""
    n = len(adj)
    # node 2v is v_in, 2v+1 is v_out; residual capacities in a dict
    cap: dict[tuple[int, int], int] = {}
    for v in range(n):
        cap[(2 * v, 2 * v + 1)] = 1
        cap[(2 * v + 1, 2 * v)] = 0
        for u in adj[v]:
            cap[(2 * v + 1, 2 * u)] = 1
            cap.setdefault((2 * u, 2 * v + 1), 0)
    out: list[list[int]] = [[] for _ in range(2 * n)]
    for a, b in cap:
        out[a].append(b)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {source: source}
        q = deque([source])
        while q and sink not in parent:
            x = q.popleft()
            for y in out[x]:
                if cap[(x, y)] > 0 and y not in parent:
                    parent[y] = x
                    q.append(y)
        if sink not in parent:
            return flow
        y = sink
        while y != source:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1


def vertex_connectivity(adj: list[set[int]]) -> int:
    """Even's algorithm: a minimum separator misses one of the first kappa+1
    vertices, and a vertex with a larger index lies beyond it."""
    n = len(adj)
    best = n - 1
    i = 0
    while i <= best and i < n:
        for j in range(i + 1, n):
            if j not in adj[i]:
                best = min(best, local_connectivity(adj, i, j))
        i += 1
    return best


class Info:
    """Facts about one input, each computed when a check first needs it."""

    def __init__(self, n: int, edges: Edges) -> None:
        self.n = n
        self.edges = edges
        self.adj = adjacency(n, edges)
        self.d = len(self.adj[0])

    @cached_property
    def triangle(self) -> bool:
        return any(self.adj[u] & self.adj[v] for u, v in self.edges)

    @cached_property
    def c4(self) -> bool:
        return has_four_cycle(self.n, self.edges)

    @cached_property
    def girth(self) -> float:
        best = math.inf
        for s in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[s] = 0
            q = deque([s])
            while q:
                x = q.popleft()
                for y in self.adj[x]:
                    if dist[y] == -1:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        q.append(y)
                    elif y != parent[x]:
                        best = min(best, dist[x] + dist[y] + 1)
        return best

    @cached_property
    def diameter(self) -> float:
        far = 0
        for s in range(self.n):
            dist = _bfs(self.adj, s)
            if -1 in dist:
                return math.inf
            far = max(far, max(dist))
        return far

    @cached_property
    def kappa(self) -> int:
        return vertex_connectivity(self.adj)

    def paper_bound(self) -> int:
        """floor((d+3)/2), or floor((d+4)/2) with a triangle."""
        return (self.d + 4) // 2 if self.triangle else (self.d + 3) // 2

    def disconnects(self, separator: set[int]) -> bool:
        rest = [v for v in range(self.n) if v not in separator]
        dist = _bfs(self.adj, rest[0], frozenset(separator))
        return any(dist[v] == -1 for v in rest)


def _json_num(x: float) -> float | None:
    return None if x == math.inf else x


def check_b_coloring(g: Info, assignment: list) -> int:
    """The number of colours of a proper colouring in which every colour has
    a vertex seeing all the others."""
    _require(len(assignment) == g.n, f"assignment has {len(assignment)} entries for {g.n} vertices")
    _require(all(isinstance(c, int) for c in assignment), "assignment holds a non-integer")
    for u, v in g.edges:
        _require(assignment[u] != assignment[v], f"edge ({u}, {v}) is monochromatic")
    used = set(assignment)
    for c in used:
        _require(
            any(
                assignment[v] == c and used - {c} <= {assignment[u] for u in g.adj[v]}
                for v in range(g.n)
            ),
            f"colour {c} has no vertex that sees every other colour",
        )
    return len(used)


# ----------------------------------------------------------------------------
# one check per subcommand
# ----------------------------------------------------------------------------

def check_color(g: Info, out: str) -> None:
    cert = json.loads(out)
    k = check_b_coloring(g, cert["assignment"])
    _require(g.paper_bound() <= k <= g.d + 1,
             f"{k} colours outside {g.paper_bound()}..{g.d + 1}")
    strategy = cert["strategy"]
    if strategy in ("diameter", "connectivity", "small-case"):
        _require(k == g.d + 1, f"{strategy} route gave {k} colours, not d+1 = {g.d + 1}")
    if strategy == "diameter":
        _require(g.diameter >= 6, f"diameter route taken at diameter {g.diameter}")
    if strategy == "connectivity":
        _require(2 * g.kappa <= g.d + 1, f"connectivity route taken at kappa {g.kappa}")


def check_analyze(g: Info, out: str) -> None:
    rep = json.loads(out)
    _require(rep["regular_degree"] == g.d, f"degree {rep['regular_degree']}, expected {g.d}")
    _require(rep["c4_free"] == (not g.c4), "c4_free disagrees with the reference")
    _require(rep["has_triangle"] == g.triangle, "has_triangle disagrees with the reference")
    _require(rep["girth"] == _json_num(g.girth), f"girth {rep['girth']}, expected {g.girth}")
    _require(rep["diameter"] == _json_num(g.diameter),
             f"diameter {rep['diameter']}, expected {g.diameter}")
    _require(rep["kappa"] == g.kappa, f"kappa {rep['kappa']}, expected {g.kappa}")
    sep = set(rep["separator"])
    _require(len(sep) == len(rep["separator"]) == rep["kappa"], "separator size is not kappa")
    _require(g.disconnects(sep), f"separator {sorted(sep)} does not disconnect the graph")
    lo, hi = rep["phi_lower_bound"], rep["phi_upper_bound"]
    _require(g.paper_bound() <= lo <= hi == g.d + 1,
             f"bounds {lo}..{hi} break {g.paper_bound()} <= lower <= upper = {g.d + 1}")


def check_exact(g: Info, out: str, expected_phi: int | None) -> None:
    """expected_phi comes from a theorem about the input family; None means
    the answer must be d+1, which a valid witness certifies by itself."""
    res = json.loads(out)
    phi = res["phi"]
    want = g.d + 1 if expected_phi is None else expected_phi
    _require(phi == want, f"phi {phi}, expected {want}")
    k = check_b_coloring(g, res["witness"]["assignment"])
    _require(k == phi, f"witness uses {k} colours, phi is {phi}")


def check_generate(out: str, d: int, n: int) -> None:
    gn, edges = parse(out)
    _require(gn == n, f"{gn} vertices, asked for {n}")
    _require(len(edges) == n * d // 2, f"{len(edges)} edges, expected {n * d // 2}")
    _require(len(set(edges)) == len(edges), "repeated edge")
    _require(all(0 <= u < v < n for u, v in edges), "self-loop or vertex out of range")
    _require(all(len(s) == d for s in adjacency(n, edges)), f"not {d}-regular")
    _require(not has_four_cycle(n, edges), "two vertices have two common neighbours")
