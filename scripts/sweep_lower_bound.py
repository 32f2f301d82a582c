"""Stress the lower-bound construction over many random regular instances.

Usage: python3 scripts/sweep_lower_bound.py [--degree D] [--count K] [--base-seed S]

Generates K random C4-free D-regular graphs at a size comfortably above the
feasibility floor, runs the seeded construction on each, and reports how the
achieved color counts distribute against the promised floor. A single failed
verification aborts with a nonzero exit.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from bchromatic import constructive as con, graph_core as gc

SIZE_FOR_DEGREE = {3: 20, 4: 24, 5: 32, 6: 48, 7: 64}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=4, choices=sorted(SIZE_FOR_DEGREE))
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args()

    d = args.degree
    n = SIZE_FOR_DEGREE[d]
    achieved = Counter()
    slack = Counter()
    t0 = time.time()
    for i in range(args.count):
        g = gc.generate_random_c4_free_regular(d, n, args.base_seed + i)
        out = con.construct_lower_bound_bcoloring(g)
        rep = con.verify_bcoloring(g, out.coloring)
        if not rep.is_b_coloring:
            print(f"seed {args.base_seed + i}: verification failed", file=sys.stderr)
            return 1
        used = len(rep.used_colors)
        if used < out.guaranteed_colors:
            print(f"seed {args.base_seed + i}: {used} < promised "
                  f"{out.guaranteed_colors}", file=sys.stderr)
            return 1
        achieved[used] += 1
        slack[used - out.guaranteed_colors] += 1
    elapsed = time.time() - t0
    print(f"degree {d}, n={n}, {args.count} graphs, {elapsed:.1f}s")
    print(f"promise: {(d + 3) // 2} colors, {(d + 4) // 2} with a triangle, "
          f"ceiling {d + 1}")
    for used in sorted(achieved):
        print(f"  {used} colors: {achieved[used]} graphs")
    for extra in sorted(slack):
        print(f"  +{extra} over promise: {slack[extra]} graphs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
