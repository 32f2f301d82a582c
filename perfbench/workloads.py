"""The benchmark's workloads: each is one round of CLI calls, built from a seed.

A run repeats the round whole, so every run attempts the same operations in
the same proportions. Inputs reach the program as edge-list text on stdin;
each call carries a check of its output computed apart from the program.
Why each workload exists, and what it is made of, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import graphs as G


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    stdin: str
    check: Callable[[str], None]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


_GRAPH_CHECKS = {"color": checks.check_color, "analyze": checks.check_analyze}


def _graph_calls(infos: list[checks.Info], commands: list[tuple[str, ...]]) -> list[Call]:
    return [
        Call(argv, G.serialize(info.n, info.edges), partial(_GRAPH_CHECKS[argv[0]], info))
        for info in infos
        for argv in commands
    ]


def large_lower_bound(seed: int) -> list[Call]:
    """color --strategy lower-bound on six C4-free graphs of about 1000
    vertices: d = 3, 4, 6, each without and with triangles."""
    rng = _rng("large-lower-bound", seed)
    pet, pg3, pg5 = G.petersen(), G.levi_pg2(3), G.levi_pg2(5)
    inputs = [
        G.random_lift(pet, 100, rng),
        G.relabel(*G.truncate(*G.random_lift(pet, 33, rng)), rng),
        G.random_lift(pg3, 38, rng),
        G.relabel(*G.line_graph(*G.random_lift(pet, 66, rng)), rng),
        G.random_lift(pg5, 16, rng),
        G.plant_triangle(*G.random_lift(pg5, 16, rng), rng),
    ]
    return _graph_calls([checks.Info(*g) for g in inputs],
                        [("color", "--input", "-", "--strategy", "lower-bound")])


def mid_auto(seed: int) -> list[Call]:
    """color (auto) and analyze --output json on six graphs of 60-78
    vertices: four with kappa = d (auto falls to the diameter or the
    lower-bound route) and two rings of blocks with kappa = 2. Twelve kinds
    of call whose times overlap, so the median does not sit in a gap
    between two kinds."""
    rng = _rng("mid-auto", seed)
    pet, pg3 = G.petersen(), G.levi_pg2(3)
    inputs = [
        G.random_lift(pet, 6, rng),
        G.random_lift(pet, 7, rng),
        G.random_lift(pg3, 3, rng),
        G.relabel(*G.levi_pg2(5), rng),
        G.ring_of_blocks([G.random_lift(pet, 2, rng) for _ in range(3)], rng),
        G.ring_of_blocks([G.relabel(*pg3, rng) for _ in range(3)], rng),
    ]
    infos = [checks.Info(*g) for g in inputs]
    for info in infos:  # reference facts at set-up, not after a timed call
        info.kappa, info.girth, info.diameter, info.triangle, info.c4
    return _graph_calls(infos, [("color", "--input", "-"),
                                ("analyze", "--input", "-", "--output", "json")])


# phi of the refutation-heavy inputs: 2 on K_{d,d}, 3 on Petersen; every
# cubic graph on more than 10 vertices has phi = 4 (Jakovac and Klavzar,
# Graphs Combin. 2010), and the quartic input must reach d+1 = 5.
def small_exact(seed: int) -> list[Call]:
    """exact on graphs of at most 24 vertices: refutations on K_{d,d}
    (d = 5, 6, 7) and Petersen, where every k above the answer is refuted,
    beside quick searches that succeed at the first k tried. Most calls are
    K_{6,6} refutations, so the median call is one; K_{6,6} and K_{7,7} set
    the throughput."""
    rng = _rng("small-exact", seed)
    # The search's cost on K_{d,d} depends on the labelling (K_{6,6} took
    # 10k and 20k nodes on two), and too few refutations fit in a run to
    # average that out; so K_{d,d} gets one labelling, drawn from a fixed
    # seed, and the seed relabels the other inputs.
    fixed = _rng("small-exact", 0)
    kdd = {d: G.relabel(*G.complete_bipartite(d), fixed) for d in (5, 6, 7)}
    cases = [(kdd[5], 2)] * 2 + [(kdd[6], 2)] * 24 + [(kdd[7], 2)] * 2
    relabelled = [(G.petersen(), 3)] * 2 + [
        (G.levi_pg2(2), 4), (G.generalized_petersen(10, 3), 4),
        (G.generalized_petersen(12, 5), 4), (G.line_graph(*G.petersen()), None),
    ]
    cases += [(G.relabel(*g, rng), phi) for g, phi in relabelled]
    return [
        Call(("exact", "--input", "-"), G.serialize(n, edges),
             partial(checks.check_exact, checks.Info(n, edges), expected_phi=phi))
        for (n, edges), phi in cases
    ]


def _generate_calls(workload: str, seed: int, specs: list[tuple[int, int]]) -> list[Call]:
    rng = _rng(workload, seed)
    return [
        Call(("generate", "--input", f"random:{d},{n}", "--seed", str(rng.randrange(10**6))),
             "", partial(checks.check_generate, d=d, n=n))
        for d, n in specs
    ]


def generate_sparse(seed: int) -> list[Call]:
    """generate far above the counting floor: the n x n common-neighbour
    table sets memory and most of the time; the swap descent is short."""
    return _generate_calls("generate-sparse", seed, 2 * [(3, 2000), (4, 2000), (3, 3000)])


def generate_dense(seed: int) -> list[Call]:
    """generate at 1.5 and 2.1 times the counting floor d*d - d + 1, where
    the swap descent dominates. Each call's time depends on its seed, so a
    round holds 60 seeds; the two specs take about as long per call, so the
    median falls inside one cluster of times, not between two."""
    return _generate_calls("generate-dense", seed, 30 * [(5, 32)] + 30 * [(6, 64)])


WORKLOADS = {
    "large-lower-bound": large_lower_bound,
    "mid-auto": mid_auto,
    "small-exact": small_exact,
    "generate-sparse": generate_sparse,
    "generate-dense": generate_dense,
}
