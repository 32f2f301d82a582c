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
    # trailing blank lines are tolerated, anything else must be well formed
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

    # each edge goes into the adjacency sets in the loop that checks its line
    adj: list[set[int]] = [set() for _ in range(n)]
    found = min(m, len(lines) - 1)
    for idx in range(1, found + 1):
        parts = lines[idx].split()
        if len(parts) != 2:
            if not parts:
                raise ParseError(idx + 1, "blank line where an edge was expected")
            raise ParseError(idx + 1, f"edge line must be 'u v', got {lines[idx]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(idx + 1, f"edge endpoints must be integers, got {lines[idx]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(idx + 1, f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ParseError(idx + 1, f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    if found < m:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {found}")
    for rest in range(m + 1, len(lines)):
        if lines[rest].strip():
            raise ParseError(rest + 1, "unexpected content after the declared edges")
    return Graph(n, tuple(tuple(sorted(ns)) for ns in adj))


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
    return generate_generalized_petersen(5, 2)


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

# random:d,n refuses n above this: a restart makes 6·n·d shuffle switches and
# up to 5000 + 250·n·d descent attempts, so run time grows past use beyond it
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


def _common_counts(adj: list[set[int]]) -> dict[int, int]:
    """Common-neighbour count of each pair that has one, keyed u * n + v (u < v); O(n·d²)."""
    n = len(adj)
    counts: dict[int, int] = {}
    for ns in adj:
        ns = sorted(ns)
        for i, u in enumerate(ns):
            for v in ns[i + 1:]:
                key = u * n + v
                counts[key] = counts.get(key, 0) + 1
    return counts


def _below(bits, n: int) -> int:
    """`rng.randrange(n)` for n ≥ 1, given `bits = rng.getrandbits`: the same
    value and generator state, drawn as `Random._randbelow_with_getrandbits`
    draws it (n.bit_length() bits, redrawn while ≥ n), with no argument checks."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


class _SwapState:
    """Mutable graph under degree-preserving edge switches. `switch` touches
    only the adjacency sets and the two edge-list slots it is given, so the
    score-blind shuffle pays for nothing else. `count` then builds, once, the
    edge index (slot of each edge), the sparse counts of `_common_counts`, the
    score Σ C(c, 2) over them (zero iff C4-free) and the pairs with c ≥ 2;
    `try_swap` scores each proposal from the counts and updates them and the
    index only when it accepts."""

    def __init__(self, adj: list[set[int]]) -> None:
        self.n = len(adj)
        self.adj = adj
        self.edge_list = [(u, v) for u in range(self.n) for v in adj[u] if u < v]
        self.edge_index: dict[tuple[int, int], int] = {}
        self.counts: dict[int, int] = {}
        self.score = 0
        self.bad_pairs: list[int] = []
        self.bad_index: dict[int, int] = {}

    def count(self) -> None:
        self.edge_index = {e: i for i, e in enumerate(self.edge_list)}
        self.counts = _common_counts(self.adj)
        self.score = sum(c * (c - 1) // 2 for c in self.counts.values())
        self.bad_pairs = [key for key, c in self.counts.items() if c >= 2]
        self.bad_index = {key: i for i, key in enumerate(self.bad_pairs)}

    def legal(self, a: int, b: int, c: int, d: int) -> bool:
        """Whether (a,b),(c,d) may become (a,c),(b,d): no repeated vertex, no new edge present."""
        return (a != c and a != d and b != c and b != d
                and c not in self.adj[a] and d not in self.adj[b])

    def switch(self, a: int, b: int, c: int, d: int, i: int, j: int) -> None:
        """Replace the edges (a,b), in edge-list slot i, and (c,d), in slot j,
        by (a,c) in slot i and (b,d) in slot j; the move must be legal. The
        edge index is left to the caller."""
        adj = self.adj
        na, nb, nc, nd = adj[a], adj[b], adj[c], adj[d]
        na.remove(b)
        nb.remove(a)
        nc.remove(d)
        nd.remove(c)
        na.add(c)
        nc.add(a)
        nb.add(d)
        nd.add(b)
        edges = self.edge_list
        edges[i] = (a, c) if a < c else (c, a)
        edges[j] = (b, d) if b < d else (d, b)

    def pair_changes(self, a: int, b: int, c: int, d: int) -> dict[int, int]:
        """Net change of each pair's count under the legal switch (a,b),(c,d)
        -> (a,c),(b,d). No 2-path uses two removed or two added edges (each two
        are disjoint). For (x, old, new) in (a,b,c), (b,a,d), (c,d,a), (d,c,b),
        x-old becomes x-new, and each other neighbour w of x moves one 2-path
        from the pair {w, old} to {w, new}; legality keeps new out of N(x)."""
        n, adj = self.n, self.adj
        changes: dict[int, int] = {}
        get = changes.get
        for x, old, new in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
            for w in adj[x]:
                if w != old:
                    key = w * n + old if w < old else old * n + w
                    changes[key] = get(key, 0) - 1
                    key = w * n + new if w < new else new * n + w
                    changes[key] = get(key, 0) + 1
        return changes

    def score_change(self, changes: dict[int, int]) -> int:
        # C(c + δ, 2) - C(c, 2) = δ·c + C(δ, 2) for each changed pair
        get = self.counts.get
        total = 0
        for key, dv in changes.items():
            total += dv * get(key, 0) + dv * (dv - 1) // 2
        return total

    def try_swap(self, a: int, b: int, c: int, d: int, keep_equal: bool) -> bool:
        """Switch (a,b),(c,d) to (a,c),(b,d) if legal and the score does not get
        worse (strictly better unless keep_equal); a rejection changes nothing."""
        if not self.legal(a, b, c, d):
            return False
        changes = self.pair_changes(a, b, c, d)
        change = self.score_change(changes)
        if change > 0 or (change == 0 and not keep_equal):
            return False
        index, edges = self.edge_index, self.edge_list
        i = index.pop((a, b) if a < b else (b, a))
        j = index.pop((c, d) if c < d else (d, c))
        self.switch(a, b, c, d, i, j)
        index[edges[i]] = i
        index[edges[j]] = j
        counts, bad_index, bad_pairs = self.counts, self.bad_index, self.bad_pairs
        for key, dv in changes.items():
            now = counts.get(key, 0) + dv
            if now:
                counts[key] = now
            else:
                counts.pop(key, None)
            if now >= 2:
                if key not in bad_index:
                    bad_index[key] = len(bad_pairs)
                    bad_pairs.append(key)
            elif key in bad_index:
                pos = bad_index.pop(key)
                last = bad_pairs.pop()
                if last != key:
                    bad_pairs[pos] = last
                    bad_index[last] = pos
        self.score += change
        return True


def _randomize(state: _SwapState, rng: random.Random, swaps: int) -> None:
    """Score-blind degree-preserving shuffle: `swaps` times, draw two edge-list
    slots and a coin that reverses the second edge, and switch when legal. The
    draws are the ones `rng.randrange(m)` twice and `rng.random()` made, with
    `_below` written out for the fixed m. Keeps no edge index; `count` builds it."""
    edges, adj = state.edge_list, state.adj
    switch = state.switch
    bits, coin = rng.getrandbits, rng.random
    m = len(edges)
    k = m.bit_length()
    for _ in range(swaps):
        i = bits(k)
        while i >= m:
            i = bits(k)
        j = bits(k)
        while j >= m:
            j = bits(k)
        a, b = edges[i]
        c, d = edges[j]
        if coin() >= 0.5:
            c, d = d, c
        # state.legal, written out: calling it costs a third of the shuffle
        if (a != c and a != d and b != c and b != d
                and c not in adj[a] and d not in adj[b]):
            switch(a, b, c, d, i, j)


def _descend(state: _SwapState, rng: random.Random, attempts: int) -> bool:
    """Downhill walk on the 4-cycle score: pick a bad pair, a shared neighbour
    and one edge of that 4-cycle, and propose switching it with a uniform edge.
    Each draw is the one `rng.randrange` or `rng.random()` made, through
    `_below` over `rng.getrandbits`."""
    bits, coin = rng.getrandbits, rng.random
    adj, edges, bad_pairs, n = state.adj, state.edge_list, state.bad_pairs, state.n
    m = len(edges)
    try_swap = state.try_swap
    for _ in range(attempts):
        if state.score == 0:
            return True
        u, v = divmod(bad_pairs[_below(bits, len(bad_pairs))], n)
        shared = sorted(adj[u] & adj[v])
        x = shared[_below(bits, len(shared))]
        # one edge of a 4-cycle through (u, x, v)
        a, b = (u, x) if coin() < 0.5 else (x, v)
        if coin() < 0.5:
            a, b = b, a
        c, d = edges[_below(bits, m)]
        if coin() < 0.5:
            c, d = d, c
        try_swap(a, b, c, d, keep_equal=coin() < 0.25)
    return state.score == 0


def generate_random_c4_free_regular(d: int, n: int, seed: int) -> Graph:
    """Deterministic seeded search for a C4-free d-regular graph on n vertices.

    Shuffles a circulant with 6·n·d score-blind degree-preserving edge
    switches, counts common neighbours once in O(n·d²) memory and time, then
    walks the switch neighbourhood downhill on the 4-cycle score, scoring
    each proposal before applying it, until no 4-cycle remains; a recount
    from scratch checks the result (AssertionError, a broken invariant, when
    it fails). Restarts a bounded number of times and raises GenerationError
    when the budget runs out. Infeasible parameters (odd n*d, or n below the
    counting floor d*d - d + 1 for d >= 2) are rejected up front, and for
    d >= 3 so is n above RANDOM_VERTEX_CEILING (CeilingExceeded).
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
        state.count()
        if _descend(state, rng, attempts):
            g = Graph(state.n, tuple(tuple(sorted(ns)) for ns in state.adj))
            try:
                validate_graph(g)
            except ValueError as exc:
                raise AssertionError(f"internal: {exc}") from exc
            if any(len(ns) != d for ns in state.adj):
                raise AssertionError("internal: swap search broke regularity")
            if any(c >= 2 for c in _common_counts(state.adj).values()):
                raise AssertionError("internal: swap search left a 4-cycle")
            return g
    raise GenerationError(
        f"could not reach a C4-free {d}-regular graph on {n} vertices "
        f"within {GENERATION_RESTARTS} restarts of {attempts} swaps"
    )
