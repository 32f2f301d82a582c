"""Constructive b-colorings for d-regular C4-free graphs.

Four strategies share one seeding engine, seed_dominating_neighborhood. It
colors a center vertex and its neighborhood so that the center and a prefix
of its neighbors become color-dominating, walking the second neighborhood
ring by ring and placing each ring's missing colors through a perfect
matching of each ring vertex onto the colors it may take. The full-seed
strategy makes every neighbor dominating at one center, which reaches all d+1
colors wherever some center's rings all have matchings; a ring with none
hands back its Hall violator, which rejects only that center. A plan names
the colors its seeding realizes, so two far-apart seedings can realize
complementary color sets, which is how the diameter and small-cut strategies
reach all d+1 colors. The lower-bound strategy instead extends greedily and
squeezes out unrealized colors by color exchange.

Each strategy gates the graph (regular, no 4-cycle) once;
construct_auto_bcoloring gates once and passes the gated graph, which carries
its degree, to the four routes in turn. Every route ends in _certify, the one
verification of its final coloring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from bchromatic import analysis
from bchromatic.graph_core import Graph
from bchromatic.matching import HallViolator, perfect_matching


class HypothesisRejection(Exception):
    """The input graph fails the hypothesis a strategy requires."""


class ConstructionInvariantError(RuntimeError):
    """A guarantee the construction relies on failed at runtime.

    Signals an implementation bug or a precondition violation that slipped
    past the gates.
    """


# ----------------------------------------------------------------------------
# colorings
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialColoring:
    """Colors 1..palette_size on a subset of vertices; None is uncolored."""

    palette_size: int
    assignment: tuple[int | None, ...]


@dataclass(frozen=True)
class Coloring:
    """Total assignment of colors 1..palette_size."""

    palette_size: int
    assignment: tuple[int, ...]


def validate_partial_coloring(g: Graph, pc: PartialColoring) -> None:
    """Raise ValueError unless pc is in range and proper on its domain."""
    if len(pc.assignment) != g.vertex_count:
        raise ValueError("assignment length disagrees with the graph")
    for v, c in enumerate(pc.assignment):
        if c is None:
            continue
        if not 1 <= c <= pc.palette_size:
            raise ValueError(f"vertex {v} has color {c} outside 1..{pc.palette_size}")
        for u in g.adjacency[v]:
            if u > v and pc.assignment[u] == c:
                raise ValueError(f"edge ({v}, {u}) is monochromatic in color {c}")


@dataclass(frozen=True)
class VerificationReport:
    """Properness and per-color realization status of a total coloring."""

    proper: bool
    conflict_edge: tuple[int, int] | None
    used_colors: tuple[int, ...]
    realized: dict[int, int | None]
    is_b_coloring: bool


def verify_bcoloring(g: Graph, c: Coloring) -> VerificationReport:
    """Exact check: proper, and every used color has a dominating vertex.

    realized maps each used color to its smallest dominating vertex, or None.
    """
    if len(c.assignment) != g.vertex_count:
        raise ValueError("coloring is not total on the graph's vertices")
    conflict = None
    for u in range(g.vertex_count):
        for v in g.adjacency[u]:
            if u < v and c.assignment[u] == c.assignment[v]:
                conflict = (u, v)
                break
        if conflict:
            break
    used = set(c.assignment)
    realized: dict[int, int | None] = {col: None for col in sorted(used)}
    for v in range(g.vertex_count):
        col = c.assignment[v]
        if realized[col] is not None:
            continue
        seen = {c.assignment[u] for u in g.adjacency[v]}
        if used - {col} <= seen:
            realized[col] = v
    proper = conflict is None
    return VerificationReport(
        proper=proper,
        conflict_edge=conflict,
        used_colors=tuple(sorted(used)),
        realized=realized,
        is_b_coloring=proper and all(w is not None for w in realized.values()),
    )


# ----------------------------------------------------------------------------
# seeding
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedPlan:
    """Recipe for one dominating-neighborhood seeding.

    targets are the colors the seeding realizes: the center and the first
    len(targets) - 1 ordered neighbors (the steps; none: the center alone)
    become dominating, and their colors are exactly targets.
    """

    center: int
    ordered_neighbors: tuple[int, ...]
    targets: tuple[int, ...]
    triangle_mode: bool = False


def color_map_realizing(target: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Bijection on 1..d+1 sending the canonically realized set of a
    (len(target)-1)-step seeding to exactly `target`; the identity for the
    targets 1..steps and d+1.

    Canonically the center takes d+1 and the j-th ordered neighbor j. So
    canonical color d+1 goes to max(target), canonical 1..steps to the rest
    of target ascending, and the unrealized canonical colors to the
    complement ascending.
    """
    t_sorted = sorted(target)
    if not 1 <= len(t_sorted) <= d + 1:
        raise ValueError("target must hold between 1 and d+1 colors")
    members = set(t_sorted)
    if t_sorted[0] < 1 or t_sorted[-1] > d + 1 or len(members) != len(t_sorted):
        raise ValueError("target colors must be distinct members of 1..d+1")
    spare = [c for c in range(1, d + 2) if c not in members]
    return (*t_sorted[:-1], *spare, t_sorted[-1])


def validate_seed_plan(g: Graph, plan: SeedPlan) -> int:
    """Check every plan invariant against g; returns the degree d.

    The caller must pass a gated graph (regular, no 4-cycle). Of the graph
    this checks only the seeding site, in O(d^2), as a cheap sanity check and
    not the seeding's full precondition: every neighbor of the center has the
    center's degree d >= 3, and no two neighbors share a vertex other than
    the center, so no 4-cycle passes through it. The ring counting of
    seed_dominating_neighborhood also needs the graph regular and C4-free
    away from the center, which only the gate checks.
    """
    center = plan.center
    d = g.degree(center)
    if d < 3:
        raise ValueError("seeding requires degree at least 3")
    seen: set[int] = set()
    for u in g.adjacency[center]:
        if g.degree(u) != d:
            raise ValueError(f"neighbor {u} of center {center} has degree {g.degree(u)}, not {d}")
        for x in g.adjacency[u]:
            if x in seen:
                raise ValueError(f"a 4-cycle passes through center {center}")
            if x != center:
                seen.add(x)
    if tuple(sorted(plan.ordered_neighbors)) != g.adjacency[center]:
        raise ValueError("ordered_neighbors is not a permutation of the center's neighborhood")
    color_map_realizing(plan.targets, d)  # raises ValueError on bad targets
    steps = len(plan.targets) - 1
    limit = d // 2 + 1 if plan.triangle_mode else (d + 1) // 2
    if steps > limit:
        raise ValueError(f"steps must lie in 0..{limit}")
    if plan.triangle_mode:
        if d % 2:
            raise ValueError("triangle mode requires even degree")
        a = plan.ordered_neighbors[0]
        b = plan.ordered_neighbors[d // 2]
        if not g.has_edge(a, b):
            raise ValueError(
                "triangle mode requires the first neighbor adjacent to the middle one"
            )
    elif d % 2 and steps == (d + 1) // 2:
        pivot = plan.ordered_neighbors[steps - 1]
        if g.neighbor_sets[pivot] & g.neighbor_sets[center]:
            raise ValueError(
                "with a full odd-degree seeding the last step neighbor must have "
                "no neighbors inside the center's neighborhood"
            )
    return d


def plan_seed(
    g: Graph,
    center: int,
    targets: tuple[int, ...],
    triangle: tuple[int, int] | None = None,
) -> SeedPlan:
    """Order the center's neighborhood so a seeding that realizes the colors
    `targets`, in len(targets) - 1 steps, is legal.

    The caller must pass a gated graph (regular, no 4-cycle). The returned
    plan goes through validate_seed_plan, whose site check (the center's
    neighbors have the center's degree d >= 3 and no 4-cycle passes through
    the center) is a cheap sanity check, not the full precondition; on an
    ungated graph the planning itself may fail first.

    A `triangle` pair (even d only) puts the seeding in triangle mode: the
    two neighbors, which must be adjacent, are placed first and middle. For
    a full odd-d seeding a neighbor with no neighbors inside N(center) is
    placed last among the step positions; one exists because the induced
    neighborhood has maximum degree one.
    """
    d = g.degree(center)
    t = len(targets) - 1
    neighbors = list(g.adjacency[center])
    nv = g.neighbor_sets[center]
    order: list[int]
    if triangle is not None:
        rest = [x for x in neighbors if x not in triangle]
        order = [triangle[0]] + rest[: d // 2 - 1] + [triangle[1]] + rest[d // 2 - 1:]
    elif d % 2 and t == (d + 1) // 2:
        unmatched = [x for x in neighbors if not (g.neighbor_sets[x] & nv)]
        if not unmatched:
            raise ConstructionInvariantError(
                "no neighbor free of the center's neighborhood despite odd degree"
            )
        pivot = unmatched[0]
        rest = [x for x in neighbors if x != pivot]
        order = rest[: t - 1] + [pivot] + rest[t - 1:]
    else:
        order = neighbors
    plan = SeedPlan(
        center=center,
        ordered_neighbors=tuple(order),
        targets=targets,
        triangle_mode=triangle is not None,
    )
    validate_seed_plan(g, plan)
    return plan


@dataclass
class SeedStepRecord:
    """What one inductive step did, for tests and diagnostics."""

    center: int
    index: int
    step_vertex: int
    ring: tuple[int, ...]
    needed_colors: tuple[int, ...]
    placed: tuple[tuple[int, int], ...]


@dataclass
class ReductionPassRecord:
    removed_color: int
    recolored: tuple[tuple[int, int], ...]


@dataclass
class ConstructionTrace:
    """Mutable log of a construction run."""

    seed_steps: list[SeedStepRecord] = field(default_factory=list)
    reduction_passes: list[ReductionPassRecord] = field(default_factory=list)


def seed_dominating_neighborhood(
    g: Graph, plan: SeedPlan, trace: ConstructionTrace | None = None
) -> PartialColoring | HallViolator:
    """Color the center, its neighborhood, and the step rings so the center
    and the first `steps` = len(plan.targets) - 1 ordered neighbors all see
    every color of 1..d+1 on their closed neighborhoods; the one seeding of
    every route.

    Works canonically: the center takes d+1, the j-th ordered neighbor j, and
    for i = 1..steps the ring of the i-th neighbor v_i (its neighbors outside
    the center's closed neighborhood) is matched onto the colors v_i does not
    yet see. Then color_map_realizing relabels the result so that the
    dominating vertices take the plan's targets. Returns the Hall violator
    of the first ring that has no matching instead. Once every ring has
    matched, one record per ring goes to the trace; without a trace no
    record is built.

    The counting guarantees are asserted at runtime. A seeding of at most
    d // 2 + 1 steps, the most validate_seed_plan accepts, also asserts the
    half-degree condition, which is what makes its matchings exist; the full
    seeding (steps = d) does not, so a violator can reject its center. The
    plan of a bounded seeding must have passed validate_seed_plan, as every
    plan from plan_seed has. The result is not validated here:
    greedy_extend, which every route calls next, validates its input.
    """
    d = len(plan.ordered_neighbors)
    steps = len(plan.targets) - 1
    center = plan.center
    nv = g.neighbor_sets[center]
    colors = {center: d + 1}
    for idx, u in enumerate(plan.ordered_neighbors):
        colors[u] = idx + 1
    records = []
    for i in range(1, steps + 1):
        vi = plan.ordered_neighbors[i - 1]
        inside = sorted(g.neighbor_sets[vi] & nv)
        if len(inside) > 1:
            raise ConstructionInvariantError(
                f"neighbor {vi} has {len(inside)} neighbors inside N({center}); "
                "a 4-cycle slipped past the gate"
            )
        ring = sorted(g.neighbor_sets[vi] - nv - {center})
        blocked = {colors[w] for w in inside}
        needed = sorted(set(range(1, d + 1)) - {i} - blocked)
        if len(ring) != len(needed) or len(ring) != d - 1 - len(inside):
            raise ConstructionInvariantError(
                f"step {i}: ring size {len(ring)} and needed colors {len(needed)} "
                f"disagree with degree counting"
            )
        if any(x in colors for x in ring):
            raise ConstructionInvariantError(
                f"step {i}: ring overlaps an earlier ring; rings must be disjoint"
            )
        options: dict[int, list[int]] = {}
        for x in ring:
            present = {colors.get(y) for y in g.adjacency[x]}
            options[x] = [c for c in needed if c not in present]
        if ring and steps <= d // 2 + 1:
            takers = Counter(c for available in options.values() for c in available)
            worst = min(min(map(len, options.values())), min(takers[c] for c in needed))
            if 2 * worst < len(ring):
                raise ConstructionInvariantError(
                    f"step {i}: availability degree {worst} below half of {len(ring)}; "
                    "the counting guarantee failed"
                )
        matched = perfect_matching(options)
        if isinstance(matched, HallViolator):
            return matched
        colors.update(matched)
        if trace is not None:
            placed = tuple(sorted(matched.items()))
            records.append(SeedStepRecord(center, i, vi, tuple(ring), tuple(needed), placed))
    if trace is not None:
        trace.seed_steps.extend(records)

    full = set(range(1, d + 2))
    for w in (center, *plan.ordered_neighbors[:steps]):
        closed = {colors[w]} | {colors.get(y) for y in g.adjacency[w]}
        if closed != full:
            raise ConstructionInvariantError(
                f"vertex {w} sees {sorted(c for c in closed if c is not None)} "
                f"instead of all of 1..{d + 1} on its closed neighborhood"
            )

    sigma = color_map_realizing(plan.targets, d)
    mapped: list[int | None] = [None] * g.vertex_count
    for v, c in colors.items():
        mapped[v] = sigma[c - 1]
    return PartialColoring(d + 1, tuple(mapped))


def _bounded_seed(g: Graph, plan: SeedPlan, trace: ConstructionTrace | None) -> PartialColoring:
    # a seeding whose half-degree condition promises every ring a matching
    partial = seed_dominating_neighborhood(g, plan, trace)
    if isinstance(partial, HallViolator):
        raise ConstructionInvariantError(
            f"a ring has no perfect color matching: its Hall violator of size "
            f"{len(partial.left_subset)} can take {len(partial.neighborhood)} colors"
        )
    return partial


# ----------------------------------------------------------------------------
# extension and reduction
# ----------------------------------------------------------------------------

def greedy_extend(g: Graph, partial: PartialColoring, sources: tuple[int, ...]) -> Coloring:
    """Complete a partial coloring with the smallest color missing from each
    neighborhood, visiting uncolored vertices in BFS order from `sources`.
    Needs palette >= max degree + 1.
    """
    if partial.palette_size < g.max_degree() + 1:
        raise ValueError("greedy extension needs palette at least max degree + 1")
    validate_partial_coloring(g, partial)
    n = g.vertex_count
    adj = g.adjacency
    # the BFS queue is the visiting order: it grows while it is walked
    order = sorted(set(sources))
    seen = [False] * n
    for s in order:
        seen[s] = True
    for x in order:
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                order.append(y)
    order += [v for v in range(n) if not seen[v]]
    # color c as the bit 1 << c, 0 while uncolored; bit 0 stands for no
    # color, so the lowest zero bit of a neighborhood's mask is its smallest
    # missing color
    bits = [0 if c is None else 1 << c for c in partial.assignment]
    for v in order:
        if not bits[v]:
            mask = 1
            for u in adj[v]:
                mask |= bits[u]
            bits[v] = ~mask & (mask + 1)
    return Coloring(partial.palette_size, tuple(b.bit_length() - 1 for b in bits))


def reduce_unrealized(
    g: Graph, c: Coloring, trace: ConstructionTrace | None = None
) -> tuple[Coloring, VerificationReport]:
    """Exchange away unrealized colors until the coloring is a b-coloring;
    returns it with the verification of the last pass.

    While some used color has no dominating vertex, take the smallest such
    color and recolor each of its vertices (ascending) to the smallest used
    color absent from that vertex's neighborhood. Such a color exists exactly
    because the vertex is not dominating; the class being independent keeps
    the scan order irrelevant. Each pass removes one color and never harms an
    existing dominating vertex, so at most |used| passes run.
    """
    colors = list(c.assignment)
    while True:
        report = verify_bcoloring(g, Coloring(c.palette_size, tuple(colors)))
        if not report.proper:
            raise ValueError(f"input coloring is improper on edge {report.conflict_edge}")
        if report.is_b_coloring:
            return Coloring(c.palette_size, tuple(colors)), report
        target = next(col for col in report.used_colors if report.realized[col] is None)
        holders = [v for v in range(g.vertex_count) if colors[v] == target]
        used = set(report.used_colors)
        recolored = []
        for v in holders:
            neighbor_colors = {colors[u] for u in g.adjacency[v]}
            candidates = sorted(used - {target} - neighbor_colors)
            if not candidates:
                raise ConstructionInvariantError(
                    f"vertex {v} of unrealized color {target} sees every other color"
                )
            colors[v] = candidates[0]
            recolored.append((v, candidates[0]))
        if trace is not None:
            trace.reduction_passes.append(ReductionPassRecord(target, tuple(recolored)))


# ----------------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionOutcome:
    """A verified b-coloring plus how it was obtained; only _certify builds
    one.

    guaranteed_colors is what the strategy promises for its hypothesis class;
    the coloring may use more. Strategy is one of "full-seed", "lower-bound",
    "diameter", "connectivity", "small-case".
    """

    coloring: Coloring
    strategy: str
    guaranteed_colors: int
    plans: tuple[SeedPlan, ...]
    report: VerificationReport


@dataclass(frozen=True)
class _GatedGraph(Graph):
    """A graph that passed _gate_regular_c4_free, with its degree d, so that a
    route handed one by construct_auto_bcoloring does not scan it again."""

    d: int


def _gate_regular_c4_free(g: Graph) -> int:
    if isinstance(g, _GatedGraph):
        return g.d
    d = analysis.is_regular(g)
    if d is None:
        raise HypothesisRejection("graph is not regular")
    c4 = analysis.find_four_cycle(g)
    if c4 is not None:
        raise HypothesisRejection(f"graph contains the 4-cycle {c4}")
    return d


def _cycle_order(g: Graph, component: tuple[int, ...]) -> list[int]:
    # walk a 2-regular component starting at its smallest vertex, toward the
    # smaller neighbor first
    start = component[0]
    order = [start]
    prev, cur = start, g.adjacency[start][0]
    while cur != start:
        order.append(cur)
        a, b = g.adjacency[cur]
        prev, cur = cur, b if a == prev else a
    return order


def _certify(
    g: Graph,
    strategy: str,
    promised: int,
    coloring: Coloring,
    plans: tuple[SeedPlan, ...] = (),
    report: VerificationReport | None = None,
) -> ConstructionOutcome:
    """The one final check of every route: coloring must be a b-coloring
    with at least `promised` colors. A route that promises d+1 colors works
    in the palette 1..d+1, so for it at least means exactly.

    `report` is the route's own verification of `coloring` when it already
    made one (the last pass of the reduction); otherwise this verifies.
    """
    if report is None:
        report = verify_bcoloring(g, coloring)
    if not report.is_b_coloring or len(report.used_colors) < promised:
        raise ConstructionInvariantError(
            f"{strategy} construction did not reach a b-coloring with {promised} "
            f"colors: used {list(report.used_colors)}, dominating {report.realized}"
        )
    return ConstructionOutcome(coloring, strategy, promised, plans, report)


def _small_case(g: Graph, d: int) -> ConstructionOutcome:
    """Direct b-colorings with d+1 colors for degrees 0..2.

    d = 2 components are cycles other than C4 (the 4-cycle gate ran); the
    repeating 1,2,3 pattern with a fixed seam yields dominating vertices for
    all three colors.
    """
    colors = [1] * g.vertex_count
    if d == 1:
        for _, v in g.edges():
            colors[v] = 2
    elif d == 2:
        for component in analysis.connected_components(g):
            order = _cycle_order(g, component)
            for pos, v in enumerate(order):
                colors[v] = pos % 3 + 1
            if len(order) % 3 == 1:
                colors[order[-1]] = 2
    return _certify(g, "small-case", d + 1, Coloring(d + 1, tuple(colors)))


def construct_lower_bound_bcoloring(
    g: Graph, trace: ConstructionTrace | None = None
) -> ConstructionOutcome:
    """B-coloring with at least floor((d+3)/2) colors, or floor((d+4)/2)
    when a triangle exists, on any d-regular C4-free graph.

    Seeds one dominating neighborhood, extends greedily over d+1 colors, and
    exchanges away unrealized colors. The seeded dominating vertices survive
    reduction, which is what pins the final count to the bound.
    """
    d = _gate_regular_c4_free(g)
    tri = analysis.find_triangle(g)
    if d <= 2:
        # d+1 colors, never fewer than the bound below
        return _small_case(g, d)
    triangle: tuple[int, int] | None = None
    if d % 2 == 0 and tri is not None:
        # tri[1:] is the first adjacent pair of N(tri[0]), the pair the plan
        # puts first and middle
        center, triangle, t = tri[0], tri[1:], d // 2 + 1
    else:
        def inside_edges(v: int) -> int:
            ns = g.neighbor_sets[v]
            return sum(1 for u in ns for w in g.adjacency[u] if w > u and w in ns)

        # without a triangle no neighborhood spans an edge, so vertex 0 wins
        center = 0 if tri is None else min(
            range(g.vertex_count), key=lambda v: (inside_edges(v), v)
        )
        t = (d + 1) // 2
    plan = plan_seed(g, center, (*range(1, t + 1), d + 1), triangle)
    partial = _bounded_seed(g, plan, trace)
    total = greedy_extend(g, partial, sources=(center,))
    reduced, report = reduce_unrealized(g, total, trace=trace)
    if any(report.realized.get(c) is None for c in plan.targets):
        raise ConstructionInvariantError(
            f"reduction lost a seeded color: kept {plan.targets}, report {report.realized}"
        )
    promised = (d + 4) // 2 if tri else (d + 3) // 2
    return _certify(g, "lower-bound", promised, reduced, (plan,), report)


def _two_center_finish(
    g: Graph,
    d: int,
    strategy: str,
    plans: tuple[SeedPlan, SeedPlan],
    trace: ConstructionTrace | None,
) -> ConstructionOutcome:
    # the two seedings must be apart: no vertex of the second lies in the
    # first or next to it, so the merged coloring is proper and neither
    # seeding's dominating vertices lose a color
    first = _bounded_seed(g, plans[0], trace)
    second = _bounded_seed(g, plans[1], trace)
    merged = list(first.assignment)
    for v, c in enumerate(second.assignment):
        if c is None:
            continue
        if first.assignment[v] is not None or any(
            first.assignment[u] is not None for u in g.adjacency[v]
        ):
            raise ConstructionInvariantError(
                f"vertex {v} of the second seeding lies in the first or next to it"
            )
        merged[v] = c
    total = greedy_extend(
        g, PartialColoring(d + 1, tuple(merged)), sources=(plans[0].center, plans[1].center)
    )
    return _certify(g, strategy, d + 1, total, plans)


def construct_diameter_bcoloring(
    g: Graph, trace: ConstructionTrace | None = None
) -> ConstructionOutcome:
    """B-coloring with exactly d+1 colors when the diameter is at least 6.

    Seeds two dominating neighborhoods at a farthest vertex pair; distance
    at least 6 keeps the two colored balls edge-free of each other, so their
    color sets, chosen complementary, realize everything with no reduction.
    """
    d = _gate_regular_c4_free(g)
    diam, witness = analysis.diameter(g)
    if diam < 6:
        raise HypothesisRejection(f"diameter {diam} is below 6")
    if d <= 2:
        return _small_case(g, d)
    assert witness is not None
    v, w = witness
    low = tuple(range(1, (d + 3) // 2 + 1))
    high = tuple(range(len(low) + 1, d + 2))
    plans = (plan_seed(g, v, low), plan_seed(g, w, high))
    return _two_center_finish(g, d, "diameter", plans, trace)


def construct_connectivity_bcoloring(
    g: Graph, trace: ConstructionTrace | None = None
) -> ConstructionOutcome:
    """B-coloring with exactly d+1 colors when the vertex connectivity is at
    most (d+1)/2.

    Finds, in each of two components of the graph minus a minimum separator,
    a vertex with no neighbor in the separator, and seeds complementary
    dominating neighborhoods there; the separator keeps the regions apart.

    For degree 3 the anchor (a separator-free vertex with a separator-free
    neighbor) always exists. Let S be the separator, |S| = kappa <= 2, and C
    a component of G - S. S is minimal, so each s in S has a neighbor in
    every component, hence at most 2 kappa <= 4 edges join S to C. Were C
    anchor-free, the vertices I of C with no S-neighbor would be independent,
    each with all 3 neighbors among the at most 4 vertices of C adjacent to
    S; two of them would share two neighbors, a 4-cycle, so |I| <= 1 and
    |C| <= 5. The degree count 3|C| = 2e(C) + e(S, C) with e(S, C) <= 4 then
    leaves only configurations holding a 4-cycle.
    """
    d = _gate_regular_c4_free(g)
    cert = analysis.vertex_connectivity(g)
    if 2 * cert.kappa > d + 1:
        raise HypothesisRejection(
            f"vertex connectivity {cert.kappa} exceeds ({d} + 1)/2"
        )
    if d <= 2:
        return _small_case(g, d)
    if len(cert.components) < 2:
        raise ConstructionInvariantError(
            "minimum separator failed to disconnect a non-complete graph"
        )
    separator = set(cert.separator)
    sides = (cert.components[0], cert.components[1])
    low = tuple(range(1, d // 2 + 2))
    high = tuple(range(len(low) + 1, d + 2))

    plans = []
    for side, colors in zip(sides, (low, high)):
        steps = len(colors) - 1
        for anchor in side:
            if g.neighbor_sets[anchor] & separator:
                continue
            usable = [
                x for x in g.adjacency[anchor] if not (g.neighbor_sets[x] & separator)
            ]
            if len(usable) >= steps:
                break
        else:
            raise ConstructionInvariantError(
                "no separator-free anchor vertex in a component (degree "
                f"{d}, separator {sorted(separator)})"
            )
        xs = usable[:steps]
        rest = [x for x in g.adjacency[anchor] if x not in set(xs)]
        plan = SeedPlan(
            center=anchor,
            ordered_neighbors=tuple(xs + rest),
            targets=colors,
        )
        if not set(g.adjacency[anchor]) <= set(side):
            raise ConstructionInvariantError(
                f"anchor {anchor} has neighbors outside its component"
            )
        validate_seed_plan(g, plan)  # built here, not by plan_seed
        plans.append(plan)
    return _two_center_finish(g, d, "connectivity", (plans[0], plans[1]), trace)


def _full_seed_at(
    g: Graph, d: int, center: int, trace: ConstructionTrace | None
) -> ConstructionOutcome | HallViolator:
    # the full seeding at one center, extended and verified, or the Hall
    # violator of the ring that rejects this center
    plan = SeedPlan(center, g.adjacency[center], tuple(range(1, d + 2)))
    partial = seed_dominating_neighborhood(g, plan, trace)
    if isinstance(partial, HallViolator):
        return partial
    return _certify(g, "full-seed", d + 1, greedy_extend(g, partial, sources=(center,)), (plan,))


def _first_full_seed(
    g: Graph, d: int, trace: ConstructionTrace | None
) -> ConstructionOutcome | HallViolator:
    # the outcome of the first center whose full seeding verifies, or the
    # Hall violator that rejects the last center; g is gated and d >= 3
    for center in range(g.vertex_count):
        found = _full_seed_at(g, d, center, trace)
        if isinstance(found, ConstructionOutcome):
            return found
    return found


def construct_full_seed_bcoloring(
    g: Graph, trace: ConstructionTrace | None = None
) -> ConstructionOutcome:
    """B-coloring with exactly d+1 colors from one fully seeded center.

    Tries the centers in ascending order. At each it colors the center d+1
    and its neighbors 1..d, gives the ring of every neighbor a matching onto
    the colors that neighbor still misses (no half-degree bound: past the
    paper's steps a ring may have no matching, and its Hall violator rejects
    only that center), and extends greedily over d+1 colors. The center and
    its d neighbors then see all d+1 colors on fully colored closed
    neighborhoods; greedy extension never recolors them and never needs a
    color above d+1, so the result is a b-coloring with d+1 colors, the most
    any d-regular graph has. Raises HypothesisRejection when no center works.

    Every vertex v through which no 5-cycle passes is a center. An edge
    between the rings of two neighbors x_i and x_j would close the 5-cycle
    v x_i a b x_j, and a ring vertex of x_i adjacent to another neighbor
    x_j would close the 4-cycle v x_i a x_j. So the only colored neighbors
    of a ring vertex of x_i are x_i and that same ring, and any bijection of
    each ring onto its needed colors is proper. In particular every vertex
    of a graph of girth at least 6 is a center.
    """
    d = _gate_regular_c4_free(g)
    if d <= 2:
        return _small_case(g, d)
    found = _first_full_seed(g, d, trace)
    if isinstance(found, ConstructionOutcome):
        return found
    raise HypothesisRejection(
        f"no center's rings all have color matchings: {g.vertex_count} centers tried, "
        f"the last ring's Hall violator of size {len(found.left_subset)} can take "
        f"{len(found.neighborhood)} colors"
    )


def construct_auto_bcoloring(
    g: Graph, trace: ConstructionTrace | None = None
) -> ConstructionOutcome:
    """The first route that applies: full seeding, connectivity, diameter,
    then the lower bound, which applies to every graph that passes the gate.

    Gates regularity and C4-freeness once and hands the routes the gated
    graph, whose degree their own gates read back. A route whose hypothesis
    fails falls through to the next. The full seeding goes first because it
    costs O(d^2) plus a matching per center and needs neither the vertex
    connectivity nor the diameter.
    """
    gated = _GatedGraph(g.vertex_count, g.adjacency, _gate_regular_c4_free(g))
    for route in (
        construct_full_seed_bcoloring,
        construct_connectivity_bcoloring,
        construct_diameter_bcoloring,
    ):
        try:
            return route(gated, trace)
        except HypothesisRejection:
            pass
    return construct_lower_bound_bcoloring(gated, trace)
