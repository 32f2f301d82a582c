"""Immutable simple graphs, file formats, and the graph families the suite uses.

Vertices are 0-based integers. Adjacency lists are kept sorted and strictly
increasing, so two graphs compare equal exactly when they have the same vertex
count and the same edge set.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence


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

    # each edge goes into the adjacency sets in the loop that checks its line;
    # a vertex's set is made at its first edge and a vertex with no edge keeps
    # None, so a large header over a short text allocates no set per vertex
    adj: list[set[int] | None] = [None] * n
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
        nu = adj[u]
        if nu is None:
            adj[u] = {v}
        else:
            nu.add(v)
        nv = adj[v]
        if nv is None:
            adj[v] = {u}
        else:
            nv.add(u)
    if found < m:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {found}")
    for rest in range(m + 1, len(lines)):
        if lines[rest].strip():
            raise ParseError(rest + 1, "unexpected content after the declared edges")
    return Graph(n, tuple(tuple(sorted(ns)) if ns else () for ns in adj))


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list. Edges come out sorted, one per line."""
    out = [f"{g.vertex_count} {g.edge_count}\n"]
    for u, ns in enumerate(g.adjacency):
        for v in ns:
            if u < v:
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
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(idx, "problem line counts must be integers") from None
            if n < 0:
                raise ParseError(idx, "vertex count must be nonnegative")
            if m < 0:
                raise ParseError(idx, "edge count must be nonnegative")
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

# random:d,n refuses n above this: a restart pairs n·d stubs and spends up to
# 5000 + 250·n·d switch proposals, so run time grows past use beyond it
RANDOM_VERTEX_CEILING = 10_000


def _pair_keys(adjacency: Sequence[Sequence[int]]) -> Iterator[int]:
    """The key u * n + v (u < v) of the end pair of each 2-path u-w-v, centre w
    by centre w, from `combinations(adjacency[w], 2)`; each neighbour list must
    be sorted. A pair's key comes once per common neighbour, so the keys are
    distinct iff the graph has no 4-cycle. O(n·d²)."""
    n = len(adjacency)
    for ns in adjacency:
        for u, v in combinations(ns, 2):
            yield u * n + v


def _common_counts(adj: list[set[int]]) -> dict[int, int]:
    """Common-neighbour count of each pair that has one, keyed u * n + v (u < v),
    counted over `_pair_keys` and in the order of its first keys. A plain
    dict, not the Counter: the interpreter's fast paths for `counts[key] =`
    take only an exact dict, and `try_swap` stores into it on every accept."""
    return dict(Counter(_pair_keys([sorted(ns) for ns in adj])))


def _below(bits, n: int) -> int:
    """`rng.randrange(n)` for n ≥ 1, given `bits = rng.getrandbits`: the same
    value and generator state, drawn as `Random._randbelow_with_getrandbits`
    draws it (n.bit_length() bits, redrawn while ≥ n), with no argument checks."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _shuffle(bits, x: list) -> None:
    """`rng.shuffle(x)`, given `bits = rng.getrandbits`: the same order and
    generator state, swapping each slot from the last down with one drawn by
    `_below`, as `Random.shuffle` does through `_randbelow_with_getrandbits`."""
    for i in range(len(x) - 1, 0, -1):
        j = _below(bits, i + 1)
        x[i], x[j] = x[j], x[i]


def _legal(adj: list[set[int]], a: int, b: int, c: int, d: int) -> bool:
    """Whether (a,b),(c,d) may become (a,c),(b,d): no repeated vertex, no new edge present."""
    return (a != c and a != d and b != c and b != d
            and c not in adj[a] and d not in adj[b])


class _SwapState:
    """Mutable graph under degree-preserving edge switches: the adjacency
    sets, the sparse counts of `_common_counts`, the pairs with c ≥ 2 (a
    list and each one's slot in it) and the score Σ C(c, 2) over them (a
    pair with c = 1 adds 0; zero iff C4-free), all built here. `try_swap`
    prices each proposal from the counts with `price`, which most proposals
    leave after a few of their gained 2-paths, and applies the net changes
    that `price` returns only when it accepts."""

    def __init__(self, adj: list[set[int]]) -> None:
        self.n = len(adj)
        self.adj = adj
        counts = self.counts = _common_counts(adj)
        self.bad_pairs = [key for key, c in counts.items() if c >= 2]
        self.score = sum(counts[key] * (counts[key] - 1) // 2 for key in self.bad_pairs)
        self.bad_index = {key: i for i, key in enumerate(self.bad_pairs)}

    def price(self, a: int, b: int, c: int, d: int,
              limit: int) -> tuple[int, dict[int, int]] | None:
        """Change of the score under the legal switch (a,b),(c,d) -> (a,c),(b,d)
        and the net change of each pair's count it meets, or None once the
        score is sure to rise past limit. No 2-path uses two removed or two
        added edges (each two are disjoint). For (x, old, new) in (a,b,c),
        (b,a,d), (c,d,a), (d,c,b), x-old becomes x-new, and each other
        neighbour w of x moves one 2-path from the pair {w, old} to {w, new};
        legality keeps new out of N(x). These 2-paths are priced one at a time
        against the counts so far, which `seen` holds for the keys already
        met: a loss lowers the score by the pair's count after it, a gain
        raises it by the count before it. The losses come first; from then on
        the total only grows, so the first gain that takes it past limit
        settles it. At minimum degree 2 each of the four ends keeps a
        neighbour, so some 2-path is gained, and a total already past limit
        after the losses is caught at the first gain. A switch that stays
        within limit has met all its 2-paths, so `seen` is then its net
        change per pair (some entries 0)."""
        n, adj, counts = self.n, self.adj, self.counts
        get = counts.get
        seen: dict[int, int] = {}
        moved = seen.get
        total = 0
        ends = ((a, b, c), (b, a, d), (c, d, a), (d, c, b))
        for x, old, _ in ends:
            for w in adj[x]:
                if w != old:
                    key = w * n + old if w < old else old * n + w
                    seen[key] = dv = moved(key, 0) - 1
                    total -= counts[key] + dv
        for x, old, new in ends:
            for w in adj[x]:
                if w != old:
                    key = w * n + new if w < new else new * n + w
                    dv = moved(key, 0)
                    total += get(key, 0) + dv
                    seen[key] = dv + 1
                    if total > limit:
                        return None
        return total, seen

    def try_swap(self, a: int, b: int, c: int, d: int, keep_equal: bool) -> bool:
        """Switch (a,b),(c,d) to (a,c),(b,d) if `_legal` allows it and `price`
        finds that the score does not get worse (strictly better unless
        keep_equal): make the eight set updates and apply the net changes
        `price` returned to the counts and the bad pairs. A rejection changes
        nothing."""
        adj = self.adj
        if not _legal(adj, a, b, c, d):
            return False
        priced = self.price(a, b, c, d, 0 if keep_equal else -1)
        if priced is None:
            return False
        change, changes = priced
        na, nb, nc, nd = adj[a], adj[b], adj[c], adj[d]
        na.remove(b)
        nb.remove(a)
        nc.remove(d)
        nd.remove(c)
        na.add(c)
        nc.add(a)
        nb.add(d)
        nd.add(b)
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


def _paired_start(n: int, d: int, rng: random.Random,
                  attempts: int) -> tuple[list[set[int]], int] | None:
    """Random simple d-regular start from the pairing model: shuffle the n·d
    stubs (each vertex d times) with `_shuffle` and pair them in order. Each
    loop or repeated pair (a, b) is left out, then replaced with a uniform
    edge (c, e) of a local edge list, oriented by a coin, by (a, c) and
    (b, e) once `_legal` allows it (for a loop, c, e ∉ N(a)). Each proposal
    spends one of `attempts`. Returns the adjacency sets and the attempts
    left, or None when they run out or no edge is simple."""
    stubs = sorted(list(range(n)) * d)
    bits, coin = rng.getrandbits, rng.random
    _shuffle(bits, stubs)
    adj: list[set[int]] = [set() for _ in range(n)]
    defects = []
    for a, b in zip(stubs[::2], stubs[1::2]):
        if a == b or b in adj[a]:
            defects.append((a, b))
        else:
            adj[a].add(b)
            adj[b].add(a)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    for a, b in defects:
        while True:
            if not attempts or not edges:
                return None
            attempts -= 1
            j = _below(bits, len(edges))
            c, e = edges[j]
            if coin() < 0.5:
                c, e = e, c
            if _legal(adj, a, b, c, e):
                break
        adj[c].remove(e)
        adj[e].remove(c)
        for x, y in ((a, c), (b, e)):
            adj[x].add(y)
            adj[y].add(x)
        edges[j] = (a, c) if a < c else (c, a)
        edges.append((b, e) if b < e else (e, b))
    return adj, attempts


def _descend(state: _SwapState, rng: random.Random, attempts: int) -> bool:
    """Downhill walk on the 4-cycle score: pick a bad pair, a shared neighbour
    and one edge of that 4-cycle, and propose switching it with a partner
    edge (c, d), d a uniform neighbour of a uniform vertex c. The graph is
    regular, so (c, d) is uniform over the directed edges, as a uniform edge
    with a coin for its orientation would be. Each draw is the one
    `rng.randrange` or `rng.random()` made, through `_below` over
    `rng.getrandbits`."""
    bits, coin = rng.getrandbits, rng.random
    adj, bad_pairs, n = state.adj, state.bad_pairs, state.n
    degree = len(adj[0])
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
        c, i = divmod(_below(bits, n * degree), degree)
        d = tuple(adj[c])[i]
        try_swap(a, b, c, d, keep_equal=coin() < 0.25)
    return state.score == 0


def generate_random_c4_free_regular(d: int, n: int, seed: int) -> Graph:
    """Deterministic seeded search for a C4-free d-regular graph on n vertices.

    Starts from a random stub pairing whose loops and repeated edges are
    switched away (`_paired_start`), counts common neighbours once in
    O(n·d²) memory and time over the 2-path keys of `_pair_keys`, then walks
    the switch neighbourhood downhill on the 4-cycle score (`_descend`; the
    partner edge of each proposal is a uniform neighbour of a uniform
    vertex), pricing each proposal's lost 2-paths and then its gained ones
    in one walk before applying it and rejecting it at the first gain that
    makes it worse than allowed; an accepted switch updates the counts by
    the net changes that walk collected. This goes on until no 4-cycle
    remains; a recount from scratch checks the result: the
    returned graph's n·C(d, 2) 2-path keys must all be distinct
    (AssertionError, a broken invariant, when they are not). The repair
    and the descent share one budget of switch proposals per restart.
    Restarts a bounded number of times and raises GenerationError when the
    budget runs out. Infeasible parameters (odd
    n*d, or n below the counting floor d*d - d + 1 for d >= 2, or at it for
    d >= 3) are rejected up front, and for d >= 3 so is n above
    RANDOM_VERTEX_CEILING (CeilingExceeded).
    """
    if d < 0 or n < 0:
        raise ValueError("d and n must be nonnegative")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    if d >= n and not (d == 0):
        raise ValueError("a simple d-regular graph needs more than d vertices")
    # a C4-free graph has at most one common neighbor per vertex pair, so
    # counting 2-paths forces n >= d^2 - d + 1. At equality every pair has
    # exactly one, and by the friendship theorem (Erdos, Renyi and Sos 1966)
    # the graph is a windmill, which is regular only for d = 2
    floor = d * d - d + 1 + (d >= 3)
    if d >= 2 and n < floor:
        raise ValueError(f"no C4-free {d}-regular graph exists on {n} vertices (need n >= {floor})")
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
        start = _paired_start(n, d, rng, attempts)
        if start is None:
            continue
        state = _SwapState(start[0])
        if _descend(state, rng, start[1]):
            g = Graph(state.n, tuple(tuple(sorted(ns)) for ns in state.adj))
            try:
                validate_graph(g)
            except ValueError as exc:
                raise AssertionError(f"internal: {exc}") from exc
            if any(len(ns) != d for ns in state.adj):
                raise AssertionError("internal: swap search broke regularity")
            # validated, g's neighbour lists are sorted; regular, g has
            # n·C(d, 2) 2-paths, whose keys are distinct iff no pair has two
            # common neighbours
            if len(set(_pair_keys(g.adjacency))) != n * (d * (d - 1) // 2):
                raise AssertionError("internal: swap search left a 4-cycle")
            return g
    raise GenerationError(
        f"could not reach a C4-free {d}-regular graph on {n} vertices "
        f"within {GENERATION_RESTARTS} restarts of {attempts} swaps"
    )
