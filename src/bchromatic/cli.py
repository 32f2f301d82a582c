"""Command-line front end.

Subcommands: generate writes a graph, analyze reports structure and which
coloring routes apply, color emits a verified b-coloring certificate, exact
runs the exhaustive search, verify checks a certificate read from stdin.

Exit codes: 0 success, 1 bad usage or unreadable input, 2 the input fails a
hypothesis or exceeds a search budget, 3 a broken internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from bchromatic import analysis
from bchromatic.constructive import (
    Coloring,
    ConstructionOutcome,
    HypothesisRejection,
    VerificationReport,
    construct_auto_bcoloring,
    construct_connectivity_bcoloring,
    construct_diameter_bcoloring,
    construct_full_seed_bcoloring,
    construct_lower_bound_bcoloring,
    verify_bcoloring,
)
from bchromatic.exact_oracle import DEFAULT_VERTEX_CEILING, exact_b_chromatic
from bchromatic.graph_core import (
    PARSE_VERTEX_CEILING,
    CeilingExceeded,
    GenerationError,
    Graph,
    generate_complete_bipartite,
    generate_cycle,
    generate_petersen,
    generate_random_c4_free_regular,
    parse_dimacs,
    parse_edge_list,
    serialize_edge_list,
)

STRATEGIES = ("auto", "full-seed", "lower-bound", "diameter", "connectivity")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by hypothesis rejection
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built at the first call and shared by every
    later one in the process: building it costs more than most calls it
    parses. Each parse_args returns a new namespace, so no call sees another's
    flags."""
    parser = _Parser(prog="bchromatic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io(p: _Parser) -> None:
        p.add_argument("--input", required=True,
                       help="graph file to read; '-' reads stdin")
        p.add_argument("--format", choices=("edge-list", "dimacs"),
                       default="edge-list", help="input graph format")

    g = sub.add_parser("generate", help="write a generated graph as an edge list")
    g.add_argument("--input", required=True, metavar="SPEC",
                   help="petersen | kdd:<d> | cycle:<n> | random:<d>,<n>")
    g.add_argument("--seed", type=int, default=0, help="seed for random:<d>,<n>")

    a = sub.add_parser("analyze", help="report structure and applicable routes")
    add_io(a)
    a.add_argument("--output", choices=("text", "json"), default="text")

    c = sub.add_parser("color", help="emit a verified b-coloring certificate")
    add_io(c)
    c.add_argument("--strategy", choices=STRATEGIES, default="auto")

    e = sub.add_parser("exact", help="exhaustive maximum b-coloring search")
    add_io(e)
    e.add_argument("--oracle-ceiling", type=int, default=DEFAULT_VERTEX_CEILING)

    v = sub.add_parser("verify", help="check a certificate read from stdin")
    add_io(v)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args: argparse.Namespace) -> Graph:
    text = _read_text(args.input)
    if args.format == "dimacs":
        return parse_dimacs(text)
    return parse_edge_list(text)


def _run_generate(args: argparse.Namespace) -> int:
    spec = args.input
    kind, _, rest = spec.partition(":")
    if kind == "petersen" and not rest:
        g = generate_petersen()
    elif kind == "kdd":
        d = _positive_int(rest, "kdd degree")
        _refuse_above_ceiling(spec, 2 * d, d * d)
        g = generate_complete_bipartite(d)
    elif kind == "cycle":
        n = _positive_int(rest, "cycle length")
        _refuse_above_ceiling(spec, n, n)
        g = generate_cycle(n)
    elif kind == "random":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"random spec needs d,n; got {rest!r}")
        d = _positive_int(parts[0], "degree")
        n = _positive_int(parts[1], "vertex count")
        _refuse_above_ceiling(spec, n, n * d // 2)
        g = generate_random_c4_free_regular(d, n, args.seed)
    else:
        raise ValueError(f"unknown generator spec {spec!r}")
    sys.stdout.write(serialize_edge_list(g))
    return 0


def _refuse_above_ceiling(spec: str, vertices: int, edges: int) -> None:
    # before anything is allocated: time and memory grow with the edges, and
    # the parsers could not read back more vertices than their ceiling
    if max(vertices, edges) > PARSE_VERTEX_CEILING:
        raise CeilingExceeded(
            f"{spec} has {vertices} vertices and {edges} edges, above the generate "
            f"ceiling of {PARSE_VERTEX_CEILING} for each"
        )


def _positive_int(text: str, label: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{label} must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"{label} must be nonnegative, got {value}")
    return value


def _run_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = analysis.check_hypotheses(g)
    payload = report.to_json_dict()
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _color_with_strategy(g: Graph, args: argparse.Namespace) -> ConstructionOutcome:
    if args.strategy == "full-seed":
        return construct_full_seed_bcoloring(g)
    if args.strategy == "lower-bound":
        return construct_lower_bound_bcoloring(g)
    if args.strategy == "diameter":
        return construct_diameter_bcoloring(g)
    if args.strategy == "connectivity":
        return construct_connectivity_bcoloring(g)
    return construct_auto_bcoloring(g)


def certificate_dict(coloring: Coloring, report: VerificationReport) -> dict:
    """The JSON body of a coloring: its palette, its assignment and, per
    color, the smallest dominating vertex that `report` found."""
    return {
        "palette": coloring.palette_size,
        "assignment": list(coloring.assignment),
        "dominating": {str(c): v for c, v in sorted(report.realized.items())},
    }


def _run_color(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    # outcome.report is the construction's own verification of outcome.coloring
    outcome = _color_with_strategy(g, args)
    payload = {**certificate_dict(outcome.coloring, outcome.report), "strategy": outcome.strategy}
    print(json.dumps(payload, indent=2))
    return 0


def _run_exact(args: argparse.Namespace) -> int:
    if args.oracle_ceiling < 0:
        raise ValueError(f"oracle ceiling must be nonnegative, got {args.oracle_ceiling}")
    g = _load_graph(args)
    # result.report is the oracle's own verification of result.witness
    result = exact_b_chromatic(g, ceiling=args.oracle_ceiling)
    payload = {
        "phi": result.phi,
        "witness": certificate_dict(result.witness, result.report),
        "explored": result.explored,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        payload = json.loads(sys.stdin.read())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "palette" not in payload or "assignment" not in payload:
        raise ValueError("certificate must be an object with palette and assignment")
    palette = payload["palette"]
    assignment = payload["assignment"]
    # type(x) is int: JSON true and false load as bool, a subclass of int
    if type(palette) is not int or not isinstance(assignment, list) or not all(
        type(c) is int for c in assignment
    ):
        raise ValueError("palette must be an integer and assignment a list of integers")
    if palette < 0 or not all(1 <= c <= palette for c in assignment):
        raise ValueError(f"certificate colors must lie in 1..palette, palette {palette}")
    coloring = Coloring(palette, tuple(assignment))
    report = verify_bcoloring(g, coloring)
    print(f"proper: {report.proper}")
    if report.conflict_edge:
        print(f"conflict_edge: {report.conflict_edge}")
    print(f"used_colors: {list(report.used_colors)}")
    unrealized = [c for c, w in report.realized.items() if w is None]
    print(f"unrealized: {unrealized}")
    print(f"b_coloring: {report.is_b_coloring}")
    return 0 if report.is_b_coloring else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _run_generate,
        "analyze": _run_analyze,
        "color": _run_color,
        "exact": _run_exact,
        "verify": _run_verify,
    }
    try:
        return handlers[args.command](args)
    except (HypothesisRejection, GenerationError, CeilingExceeded) as exc:
        print(f"bchromatic: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"bchromatic: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
