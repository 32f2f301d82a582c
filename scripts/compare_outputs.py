"""Compare the command-line output of this tree with another tree's.

Usage: python3 scripts/compare_outputs.py OTHER_SRC [--count N]

OTHER_SRC is the `src` directory of another checkout, for example the
parent commit's. Builds a fixed corpus in-process from graph_core: the
cycles C5 and C7 (d = 2, the small case), Petersen, two and three disjoint
copies of Petersen (kappa = 0, the second with three components), Heawood,
Petersen beside Heawood (the only graph here whose full seed certifies
after it rejects centers: a Hall violator rejects each of the ten of
Petersen, and center 10 certifies), cubic chains of 2-5 beads, the bridge
pair, the cube labelled so that the greedy path search falls short
(CUBE_EDGES), chains of 3 and 6 circulants (kappa = 3 < delta = 5, the only
graphs here whose analyze runs the kappa + 1 sweep), generalized Petersen
graphs, N graphs random:d,n for each d = 3-5, N rings of three random
C4-free 4-regular blocks, and random:3,1000 and random:4,1000 (seed 0).
Each graph's edge-list text is the stdin of `color` with every strategy
(auto included), of `analyze` with text and JSON output, and of `exact`
(graphs above its 24-vertex ceiling exit 2 at once), and its DIMACS text is
the stdin of `analyze --format dimacs --output json`. Each text of
EDGE_LIST_TEXTS, one per fault the edge-list parser reports and three odd
but valid layouts, is the stdin of `analyze --output json` and of auto
`color`, so that the exit code and the message on stderr are compared too.
`generate --input random:d,n --seed s` runs
for the same N seeds at each size of RANDOM_SIZES and at random:3,2000.

Each tree runs all the cases in one child interpreter, started with the
tree's `src` first on the path. The child calls `bchromatic.cli.main(argv)`
once per case, with stdin, stdout and stderr of its own, and turns a
`SystemExit` into its exit code. Then it runs the corpus a second time, in
reverse order, in the same interpreter, so that state one call leaves
behind (a cache, a module global) shows up as a case whose second run
differs from its first. A case differs when the exit code, stdout or stderr
differ between the trees, and is not repeatable when they differ between
the two runs in one tree. Prints each such case and their numbers, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bchromatic import graph_core as gc
from bchromatic.cli import STRATEGIES

OWN_SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [["color", "--strategy", s] for s in STRATEGIES] + [
    ["analyze", "--output", "text"],
    ["analyze", "--output", "json"],
    ["exact"],
]

RANDOM_SIZES = {3: 30, 4: 40, 5: 50}

# the cube, labelled so that 0 and 7 are antipodal: the greedy path search
# finds two of the three disjoint paths between them, and the flow the third
CUBE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 6), (2, 5),
              (2, 6), (3, 4), (3, 5), (4, 7), (5, 7), (6, 7)]

# edge-list texts that parse_edge_list rejects, one per check it makes, and
# three that it accepts: tabs with CRLF endings, a repeated edge and a
# reversed one
EDGE_LIST_TEXTS = {
    "empty": "",
    "no-header": "\n0 1\n",
    "header-fields": "3\n0 1\n",
    "header-integers": "3 two\n0 1\n1 2\n",
    "header-negative": "-3 2\n0 1\n1 2\n",
    "header-ceiling": "1000001 0\n",
    "blank-line": "3 2\n0 1\n\n1 2\n",
    "one-field": "3 2\n0 1\n2\n",
    "three-fields": "3 2\n0 1\n1 2 0\n",
    "non-integer": "3 2\n0 1\n1 x\n",
    "out-of-range": "3 2\n0 1\n1 3\n",
    "out-of-range-loop": "3 2\n0 1\n-1 -1\n",
    "self-loop": "3 2\n0 1\n2 2\n",
    "too-few-lines": "3 3\n0 1\n1 2\n",
    "after-edges": "3 2\n0 1\n1 2\n\nextra\n",
    "tabs-crlf": "5 5\r\n0\t1\r\n1\t2\r\n 2 3\r\n3\t\t4 \r\n4 0\r\n\r\n",
    "repeated-edge": "5 6\n0 1\n1 2\n2 3\n3 4\n4 0\n1 2\n",
    "reversed-edge": "5 6\n0 1\n1 2\n2 3\n3 4\n4 0\n1 0\n",
}


def ring_of_blocks(blocks: list[gc.Graph]) -> gc.Graph:
    """Each block less its first edge (a, b), with b joined to the next
    block's a: regular when the blocks are, cut by two vertices, and with
    three or more blocks no new 4-cycle."""
    edges, ends, shift = [], [], 0
    for block in blocks:
        (a, b), *rest = block.edges()
        ends.append((a + shift, b + shift))
        edges += [(u + shift, v + shift) for u, v in rest]
        shift += block.vertex_count
    edges += [(ends[i][1], ends[(i + 1) % len(ends)][0]) for i in range(len(ends))]
    return gc.Graph.from_edges(shift, edges)


def chain_of_circulants(blocks: int) -> gc.Graph:
    """blocks copies of the circulant C12(1, 2, 3) in a chain, consecutive
    ones joined by the 3 edges 7-0, 9-2 and 11-4 that replace the matching
    6-7, 8-9, 10-11 of the first and 0-1, 2-3, 4-5 of the second: kappa = 3
    < delta = 5 for two or more blocks."""
    edges = []
    for b in range(0, 12 * blocks, 12):
        drop = {(0, 1), (2, 3), (4, 5)} if b else set()
        drop |= {(6, 7), (8, 9), (10, 11)} if b < 12 * (blocks - 1) else set()
        edges += [(b + i, b + (i + o) % 12) for i in range(12) for o in (1, 2, 3)
                  if tuple(sorted((i, (i + o) % 12))) not in drop]
        edges += [(b - 12 + x, b + y) for x, y in ((7, 0), (9, 2), (11, 4)) if b]
    return gc.Graph.from_edges(12 * blocks, edges)


def dimacs_text(g: gc.Graph) -> str:
    """g as DIMACS .col text, whose vertices are 1-based."""
    lines = [f"p edge {g.vertex_count} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def corpus(count: int) -> dict[str, gc.Graph]:
    petersen = gc.generate_petersen()
    graphs = {f"cycle:{n}": gc.generate_cycle(n) for n in (5, 7)}
    graphs |= {"petersen": petersen, "heawood": gc.generate_heawood()}
    graphs["petersen*2"] = gc.disjoint_union(petersen, petersen)
    graphs["petersen*3"] = gc.disjoint_union(graphs["petersen*2"], petersen)
    graphs["petersen+heawood"] = gc.disjoint_union(petersen, graphs["heawood"])
    graphs |= {f"chain:{b}": gc.generate_cubic_chain(b) for b in range(2, 6)}
    graphs["bridge-pair"] = gc.generate_cubic_bridge_pair()
    graphs["cube"] = gc.Graph.from_edges(8, CUBE_EDGES)
    graphs |= {f"circulant-chain:{b}": chain_of_circulants(b) for b in (3, 6)}
    graphs |= {f"gp:{n},{k}": gc.generate_generalized_petersen(n, k)
               for n, k in ((7, 2), (8, 3))}
    for seed in range(count):
        for d, n in RANDOM_SIZES.items():
            graphs[f"random:{d},{n}/{seed}"] = gc.generate_random_c4_free_regular(d, n, seed)
        graphs[f"ring:4,26/{seed}"] = ring_of_blocks(
            [gc.generate_random_c4_free_regular(4, 26, 3 * seed + i) for i in range(3)]
        )
    graphs |= {f"random:{d},1000/0": gc.generate_random_c4_free_regular(d, 1000, 0)
               for d in (3, 4)}
    return graphs


# run in the child: read [argv, stdin] pairs, run them in order and then in
# reverse order, and print the [exit code, stdout, stderr] triples of each run
# in case order
CHILD = """
import io, json, sys
from bchromatic.cli import main

def run(argv, text):
    out, err = sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    result = [code, sys.stdout.getvalue(), sys.stderr.getvalue()]
    sys.stdout, sys.stderr = out, err
    return result

cases = json.load(sys.stdin)
first = [run(*case) for case in cases]
again = [run(*case) for case in reversed(cases)][::-1]
json.dump([first, again], sys.stdout)
"""


def run_all(src: Path, cases: list[tuple[list[str], str]]) -> tuple[list[list], list[list]]:
    """[exit code, stdout, stderr] of each (argv, stdin text) case, run in one
    child interpreter on the tree whose `src` directory is given: the first
    run's, and the second's, made in reverse order."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cases),
        capture_output=True, text=True, cwd=src,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=1800, check=True,
    )
    first, again = json.loads(done.stdout)
    return first, again


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other tree")
    parser.add_argument("--count", type=int, default=5,
                        help="seeds per random kind of graph")
    args = parser.parse_args()

    graphs = corpus(args.count)
    cases = [
        (name, [*argv, "--input", "-"], gc.serialize_edge_list(g))
        for name, g in graphs.items()
        for argv in COMMANDS
    ]
    cases += [
        (name, ["analyze", "--format", "dimacs", "--output", "json", "--input", "-"],
         dimacs_text(g))
        for name, g in graphs.items()
    ]
    cases += [
        (f"edge-list:{name}", [*argv, "--input", "-"], text)
        for name, text in EDGE_LIST_TEXTS.items()
        for argv in (["analyze", "--output", "json"], ["color", "--strategy", "auto"])
    ]
    cases += [
        (f"random:{d},{n}/{seed}",
         ["generate", "--input", f"random:{d},{n}", "--seed", str(seed)], "")
        for d, n in [*RANDOM_SIZES.items(), (3, 2000)]
        for seed in range(args.count)
    ]

    runs = [(argv, text) for _, argv, text in cases]
    (ours, ours_again), (theirs, theirs_again) = (
        run_all(OWN_SRC, runs), run_all(args.other_src.resolve(), runs)
    )
    unrepeatable = 0
    for tree, first, again in (("this tree", ours, ours_again),
                               ("other tree", theirs, theirs_again)):
        for (name, argv, _), a, b in zip(cases, first, again):
            if a != b:
                unrepeatable += 1
                print(f"not repeatable in {tree}: {name}: {' '.join(argv)}")
    flags = [a != b for a, b in zip(ours, theirs)]
    for (name, argv, _), bad in zip(cases, flags):
        if bad:
            print(f"differs: {name}: {' '.join(argv)}")
    print(f"{unrepeatable} not repeatable")
    print(f"{len(cases)} cases, {sum(flags)} differ")
    return 1 if any(flags) or unrepeatable else 0


if __name__ == "__main__":
    raise SystemExit(main())
