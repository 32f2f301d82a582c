"""Immutable simple graphs, file formats, and the graph families the suite uses.

Vertices are 0-based integers. Adjacency lists are kept sorted and strictly
increasing, so two graphs compare equal exactly when they have the same vertex
count and the same edge set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


# the parsers refuse a declared vertex count above this before allocating
# anything per vertex
PARSE_VERTEX_CEILING = 1_000_000


class ParseError(ValueError):
    """Malformed graph text. `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class GenerationError(RuntimeError):
    """Random generation could not produce a valid graph within its budget."""


class CeilingExceeded(RuntimeError):
    """The instance is larger than an exhaustive routine is willing to take.

    Raised instead of ever returning an approximate or partial answer.
    """


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical sorted adjacency lists."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable, collapsing duplicates.

        Self-loops and out-of-range endpoints raise ValueError.
        """
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        lists: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in seen:
            lists[u].append(v)
            lists[v].append(u)
        return Graph(vertex_count, tuple(tuple(sorted(ns)) for ns in lists))

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(ns) for ns in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ns) for ns in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u in range(self.vertex_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def max_degree(self) -> int:
        return max((len(ns) for ns in self.adjacency), default=0)


def validate_graph(g: Graph) -> None:
    """Raise ValueError unless g satisfies every representation invariant."""
    if g.vertex_count < 0:
        raise ValueError("negative vertex count")
    if len(g.adjacency) != g.vertex_count:
        raise ValueError("adjacency length disagrees with vertex_count")
    for u, ns in enumerate(g.adjacency):
        if list(ns) != sorted(set(ns)):
            raise ValueError(f"adjacency of {u} is not strictly increasing")
        for v in ns:
            if not 0 <= v < g.vertex_count:
                raise ValueError(f"neighbor {v} of {u} out of range")
            if v == u:
                raise ValueError(f"self-loop at {u}")
            if u not in g.adjacency[v]:
                raise ValueError(f"edge ({u}, {v}) not symmetric")


# ----------------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: a header line "n m" followed by
    m lines "u v" with 0-based endpoints. Duplicate edges collapse.
    """
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    # trailing blank lines are tolerated, anything else must be well formed
    def fields(idx: int) -> list[str]:
        return lines[idx].split()

    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header line 'n m'")
    header = fields(0)
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
        parts = fields(idx)
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


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list. Edges come out sorted, one per line."""
    out = [f"{g.vertex_count} {g.edge_count}\n"]
    for u, v in g.edges():
        out.append(f"{u} {v}\n")
    return "".join(out)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col text: 'c' comments, one 'p edge n m' line, 'e u v'
    lines with 1-based endpoints. An edge line before the problem line is an
    error. The declared edge count is not enforced since duplicates collapse.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for idx, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(idx, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(idx, f"problem line must be 'p edge n m', got {raw!r}")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError(idx, "problem line counts must be integers") from None
            if n < 0:
                raise ParseError(idx, "vertex count must be nonnegative")
            if n > PARSE_VERTEX_CEILING:
                raise ParseError(idx, f"{n} vertices exceed the parser ceiling of {PARSE_VERTEX_CEILING}")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(idx, "edge line before the problem line")
            if len(parts) != 3:
                raise ParseError(idx, f"edge line must be 'e u v', got {raw!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(idx, "edge endpoints must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(idx, f"edge ({u}, {v}) out of range, vertices are 1..{n}")
            if u == v:
                raise ParseError(idx, f"self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(idx, f"unrecognized line type {parts[0]!r}")
    if n is None:
        raise ParseError(1, "missing problem line")
    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------------
# named families
# ----------------------------------------------------------------------------

def generate_petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i + 5, ((i + 2) % 5) + 5))
        edges.append((i, i + 5))
    return Graph.from_edges(10, edges)


def generate_complete_bipartite(d: int) -> Graph:
    """K_{d,d} with parts 0..d-1 and d..2d-1."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return Graph.from_edges(2 * d, [(i, d + j) for i in range(d) for j in range(d)])


def generate_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def generate_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be at least 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def generate_generalized_petersen(n: int, k: int) -> Graph:
    """Outer n-cycle 0..n-1, inner vertices n..2n-1 stepping by k, plus spokes."""
    if n < 3 or not 1 <= k < n / 2:
        raise ValueError("need n >= 3 and 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + ((i + k) % n)))
        edges.append((i, n + i))
    return Graph.from_edges(2 * n, edges)


def generate_heawood() -> Graph:
    """14-vertex cubic graph of girth 6: a 14-cycle plus chords i to i+5 for even i."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Place b after a, shifting b's vertex labels by a.vertex_count."""
    shift = a.vertex_count
    edges = list(a.edges()) + [(u + shift, v + shift) for u, v in b.edges()]
    return Graph.from_edges(shift + b.vertex_count, edges)


def remove_edges(g: Graph, drop: Iterable[tuple[int, int]]) -> Graph:
    """Return g without the listed edges. Missing edges raise ValueError."""
    gone = {(min(u, v), max(u, v)) for u, v in drop}
    present = set(g.edges())
    missing = gone - present
    if missing:
        raise ValueError(f"edges not in graph: {sorted(missing)}")
    return Graph.from_edges(g.vertex_count, present - gone)


def generate_cubic_bridge_pair() -> Graph:
    """24-vertex cubic C4-free graph of diameter 8.

    Two Petersen-minus-an-edge blocks (vertices 0..9 and 10..19) joined
    through a 4-vertex bridge: a triangle 20-21-22 with a tail vertex 23.
    Small enough for the exact oracle, far enough apart for the
    diameter-based construction.
    """
    base = list(generate_petersen().edges())
    edges: list[tuple[int, int]] = []
    for shift in (0, 10):
        for u, v in base:
            if (u, v) != (0, 1):
                edges.append((u + shift, v + shift))
    edges += [(20, 21), (20, 22), (21, 22), (22, 23)]
    edges += [(0, 20), (1, 21), (10, 23), (11, 23)]
    return Graph.from_edges(24, edges)


def generate_cubic_chain(beads: int) -> Graph:
    """Chain of Petersen-based beads joined by pairs of bridge edges.

    End beads drop one outer edge, interior beads drop two disjoint outer
    edges; the resulting degree-2 stubs are wired to the next bead. The
    output is cubic, C4-free, and has vertex connectivity 2.
    """
    if beads < 2:
        raise ValueError("need at least 2 beads")
    base = list(generate_petersen().edges())
    edges: list[tuple[int, int]] = []
    for b in range(beads):
        shift = 10 * b
        dropped = {(0, 1)} if b in (0, beads - 1) else {(0, 1), (2, 3)}
        for u, v in base:
            if (u, v) not in dropped:
                edges.append((u + shift, v + shift))
    # bridge stub pairs between consecutive beads; interior beads expose
    # (0, 1) toward the previous bead and (2, 3) toward the next one
    for b in range(beads - 1):
        left = 10 * b
        right = 10 * (b + 1)
        left_stubs = (0, 1) if b == 0 else (2, 3)
        edges.append((left + left_stubs[0], right + 0))
        edges.append((left + left_stubs[1], right + 1))
    return Graph.from_edges(10 * beads, edges)


# ----------------------------------------------------------------------------
# random C4-free regular graphs
# ----------------------------------------------------------------------------

# restarts of the swap search before it raises GenerationError
GENERATION_RESTARTS = 12

# random:d,n refuses n above this before building its n x n common-neighbor
# table (8 bytes a cell, so about 800 MB at the ceiling)
RANDOM_VERTEX_CEILING = 10_000


def _circulant_adjacency(n: int, d: int) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    offsets = list(range(1, d // 2 + 1))
    for i in range(n):
        for k in offsets:
            adj[i].add((i + k) % n)
            adj[i].add((i - k) % n)
        if d % 2:
            adj[i].add((i + n // 2) % n)
    return adj


class _SwapState:
    """Mutable degree-preserving edge-swap machinery with an incremental
    count of common-neighbor pairs (zero iff the graph is C4-free)."""

    def __init__(self, adj: list[set[int]]) -> None:
        self.n = len(adj)
        self.adj = adj
        self.edge_list: list[tuple[int, int]] = []
        self.edge_index: dict[tuple[int, int], int] = {}
        for u in range(self.n):
            for v in adj[u]:
                if u < v:
                    self.edge_index[(u, v)] = len(self.edge_list)
                    self.edge_list.append((u, v))
        self.common = [[0] * self.n for _ in range(self.n)]
        self.score = 0
        self.bad_pairs: list[tuple[int, int]] = []
        self.bad_index: dict[tuple[int, int], int] = {}
        for w in range(self.n):
            ns = sorted(adj[w])
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    self._bump(ns[i], ns[j], +1)

    def _bump(self, u: int, v: int, delta: int) -> None:
        if u > v:
            u, v = v, u
        c = self.common[u][v]
        # moving from c to c+delta pairs changes the 4-cycle score by the
        # difference of binomial(c, 2) terms
        if delta > 0:
            self.score += c
        else:
            self.score -= c - 1
        c += delta
        self.common[u][v] = c
        key = (u, v)
        if c >= 2 and key not in self.bad_index:
            self.bad_index[key] = len(self.bad_pairs)
            self.bad_pairs.append(key)
        elif c < 2 and key in self.bad_index:
            pos = self.bad_index.pop(key)
            last = self.bad_pairs.pop()
            if last != key:
                self.bad_pairs[pos] = last
                self.bad_index[last] = pos

    def add_edge(self, u: int, v: int) -> None:
        for w in self.adj[u]:
            if w != v:
                self._bump(w, v, +1)
        for w in self.adj[v]:
            if w != u:
                self._bump(w, u, +1)
        self.adj[u].add(v)
        self.adj[v].add(u)
        key = (min(u, v), max(u, v))
        self.edge_index[key] = len(self.edge_list)
        self.edge_list.append(key)

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        for w in self.adj[u]:
            if w != v:
                self._bump(w, v, -1)
        for w in self.adj[v]:
            if w != u:
                self._bump(w, u, -1)
        key = (min(u, v), max(u, v))
        pos = self.edge_index.pop(key)
        last = self.edge_list.pop()
        if last != key:
            self.edge_list[pos] = last
            self.edge_index[last] = pos

    def switch(self, a: int, b: int, c: int, d: int) -> bool:
        """Replace edges (a,b),(c,d) by (a,c),(b,d) unless the four vertices
        repeat or a new edge already exists; returns whether it switched."""
        if len({a, b, c, d}) < 4 or c in self.adj[a] or d in self.adj[b]:
            return False
        self.remove_edge(a, b)
        self.remove_edge(c, d)
        self.add_edge(a, c)
        self.add_edge(b, d)
        return True

    def try_swap(self, a: int, b: int, c: int, d: int, keep_equal: bool) -> bool:
        """Switch (a,b),(c,d) to (a,c),(b,d) if legal and the score does not
        get worse (strictly better unless keep_equal)."""
        before = self.score
        if not self.switch(a, b, c, d):
            return False
        if self.score < before or (keep_equal and self.score == before):
            return True
        self.switch(a, c, b, d)
        return False


def _randomize(state: _SwapState, rng: random.Random, swaps: int) -> None:
    # plain degree-preserving shuffle, ignores the C4 score
    m = len(state.edge_list)
    for _ in range(swaps):
        e1 = state.edge_list[rng.randrange(m)]
        e2 = state.edge_list[rng.randrange(m)]
        a, b = e1
        c, d = e2 if rng.random() < 0.5 else (e2[1], e2[0])
        state.switch(a, b, c, d)


def _descend(state: _SwapState, rng: random.Random, attempts: int) -> bool:
    for _ in range(attempts):
        if state.score == 0:
            return True
        u, v = state.bad_pairs[rng.randrange(len(state.bad_pairs))]
        shared = sorted(state.adj[u] & state.adj[v])
        x = shared[rng.randrange(len(shared))]
        # one edge of a 4-cycle through (u, x, v)
        a, b = (u, x) if rng.random() < 0.5 else (x, v)
        if rng.random() < 0.5:
            a, b = b, a
        c, d = state.edge_list[rng.randrange(len(state.edge_list))]
        if rng.random() < 0.5:
            c, d = d, c
        state.try_swap(a, b, c, d, keep_equal=rng.random() < 0.25)
    return state.score == 0


def generate_random_c4_free_regular(d: int, n: int, seed: int) -> Graph:
    """Deterministic seeded search for a C4-free d-regular graph on n vertices.

    Starts from a circulant, randomizes it with degree-preserving edge swaps,
    then walks the swap neighborhood downhill on the count of common-neighbor
    pairs until no 4-cycle remains. Restarts a bounded number of times and
    raises GenerationError when the budget runs out. Infeasible parameters
    (odd n*d, or n below the counting floor d*d - d + 1 for d >= 2) are
    rejected up front, and for d >= 3 so is n above RANDOM_VERTEX_CEILING
    (CeilingExceeded).
    """
    if d < 0 or n < 0:
        raise ValueError("d and n must be nonnegative")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    if d >= n and not (d == 0):
        raise ValueError("a simple d-regular graph needs more than d vertices")
    if d >= 2 and n < d * d - d + 1:
        # a C4-free graph has at most one common neighbor per vertex pair,
        # so counting 2-paths forces n >= d^2 - d + 1
        raise ValueError(
            f"no C4-free {d}-regular graph exists on {n} vertices (need n >= {d * d - d + 1})"
        )
    if d == 0:
        return Graph.from_edges(n, [])
    if d == 1:
        return Graph.from_edges(n, [(i, i + 1) for i in range(0, n, 2)])
    if d == 2:
        if n == 4:
            raise GenerationError("the only 2-regular graph on 4 vertices is a 4-cycle")
        return generate_cycle(n)

    if n > RANDOM_VERTEX_CEILING:
        raise CeilingExceeded(
            f"{n} vertices exceed the random generator's ceiling of {RANDOM_VERTEX_CEILING}"
        )

    rng = random.Random(seed)
    attempts = 5000 + 250 * n * d
    for _ in range(GENERATION_RESTARTS):
        state = _SwapState(_circulant_adjacency(n, d))
        _randomize(state, rng, swaps=6 * n * d)
        if _descend(state, rng, attempts):
            g = Graph(state.n, tuple(tuple(sorted(ns)) for ns in state.adj))
            validate_graph(g)
            if any(len(ns) != d for ns in state.adj):
                raise GenerationError("internal: swap search broke regularity")
            return g
    raise GenerationError(
        f"could not reach a C4-free {d}-regular graph on {n} vertices "
        f"within {GENERATION_RESTARTS} restarts of {attempts} swaps"
    )
