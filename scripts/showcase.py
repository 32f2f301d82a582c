"""Run every coloring route over a spread of instances and tabulate results.

Usage: python3 scripts/showcase.py [--seed N]

For each instance the script reports degree, girth, diameter, connectivity,
which routes apply, the colors each applicable construction achieved, and,
when the graph is small enough for the exhaustive search, the true maximum.
"""

from __future__ import annotations

import argparse

from bchromatic import analysis, constructive as con, exact_oracle as eo, graph_core as gc


def build_instances(seed: int) -> list[tuple[str, gc.Graph]]:
    return [
        ("petersen", gc.generate_petersen()),
        ("heawood", gc.generate_heawood()),
        ("two-heawood", gc.disjoint_union(gc.generate_heawood(), gc.generate_heawood())),
        ("cubic-chain-2", gc.generate_cubic_chain(2)),
        ("cubic-chain-3", gc.generate_cubic_chain(3)),
        ("bridge-pair", gc.generate_cubic_bridge_pair()),
        ("random-3reg-20", gc.generate_random_c4_free_regular(3, 20, seed)),
        ("random-4reg-24", gc.generate_random_c4_free_regular(4, 24, seed)),
        ("random-5reg-32", gc.generate_random_c4_free_regular(5, 32, seed)),
        ("random-6reg-48", gc.generate_random_c4_free_regular(6, 48, seed)),
    ]


def try_route(fn, g: gc.Graph) -> str:
    try:
        out = fn(g)
    except con.HypothesisRejection:
        return "-"
    except gc.CeilingExceeded:
        return "over-cap"
    used = len(set(out.coloring.assignment))
    return f"{used}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = (
        f"{'instance':<16} {'n':>3} {'d':>2} {'girth':>5} {'diam':>4} "
        f"{'kappa':>5} {'bound':>5} {'full':>5} {'lower':>5} {'diam.':>5} {'conn.':>5} "
        f"{'exact':>5}"
    )
    print(header)
    print("-" * len(header))
    for name, g in build_instances(args.seed):
        rep = analysis.check_hypotheses(g)
        exact = "-"
        if g.vertex_count <= eo.DEFAULT_VERTEX_CEILING:
            exact = str(eo.exact_b_chromatic(g).phi)
        print(
            f"{name:<16} {g.vertex_count:>3} {rep.regular_degree:>2} "
            f"{rep.girth:>5} {rep.diameter:>4} {rep.kappa:>5} {rep.lower_bound_colors:>5} "
            f"{try_route(con.construct_full_seed_bcoloring, g):>5} "
            f"{try_route(con.construct_lower_bound_bcoloring, g):>5} "
            f"{try_route(con.construct_diameter_bcoloring, g):>5} "
            f"{try_route(con.construct_connectivity_bcoloring, g):>5} "
            f"{exact:>5}"
        )


if __name__ == "__main__":
    main()
