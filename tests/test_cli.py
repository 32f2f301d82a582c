import contextlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchromatic import analysis, cli, constructive, exact_oracle, graph_core as gc


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(gc.serialize_edge_list(gc.generate_petersen()))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain3.txt"
    path.write_text(gc.serialize_edge_list(gc.generate_cubic_chain(3)))
    return str(path)


class TestGenerate:
    def test_petersen(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["generate", "--input", "petersen"])
        assert code == 0
        assert gc.parse_edge_list(out).vertex_count == 10

    def test_cycle_and_kdd(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["generate", "--input", "cycle:6"])
        assert code == 0 and gc.parse_edge_list(out).edge_count == 6
        code, out, _ = run_cli(monkeypatch, capsys, ["generate", "--input", "kdd:3"])
        assert code == 0 and gc.parse_edge_list(out).edge_count == 9

    def test_random_respects_seed(self, monkeypatch, capsys):
        argv = ["generate", "--input", "random:3,14", "--seed", "2"]
        code, out1, _ = run_cli(monkeypatch, capsys, argv)
        assert code == 0
        _, out2, _ = run_cli(monkeypatch, capsys, argv)
        assert out1 == out2
        _, out3, _ = run_cli(monkeypatch, capsys, argv[:-1] + ["3"])
        assert out1 != out3

    def test_bad_specs_exit_one(self, monkeypatch, capsys):
        for spec in ["bogus", "cycle:x", "random:3", "kdd:", "petersen:extra"]:
            code, _, err = run_cli(monkeypatch, capsys, ["generate", "--input", spec])
            assert code == 1, (spec, err)

    def test_infeasible_random_exits_one(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["generate", "--input", "random:3,9"])
        assert code == 1

    @pytest.mark.parametrize("d,n", [(4, 13), (6, 31)])
    def test_friendship_size_exits_one(self, monkeypatch, capsys, d, n):
        """n = d^2 - d + 1 would give every pair one common neighbour, a
        windmill by the friendship theorem, so no d-regular graph for
        d >= 3: refused before any search."""
        code, out, err = run_cli(monkeypatch, capsys, ["generate", "--input", f"random:{d},{n}"])
        assert (code, out) == (1, "")
        assert err == f"bchromatic: no C4-free {d}-regular graph exists on {n} vertices (need n >= {n + 1})\n"

    def test_exhausted_search_exits_two(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["generate", "--input", "random:2,4"])
        assert code == 2

    def test_failed_self_check_exits_three(self, monkeypatch, capsys):
        """A generated graph that fails the generator's own check of it is a
        bug (exit 3), not bad input (exit 1) nor a search out of budget (exit 2)."""
        def reject(g):
            raise ValueError("edge (0, 1) not symmetric")

        monkeypatch.setattr(gc, "validate_graph", reject)
        code, out, err = run_cli(monkeypatch, capsys, ["generate", "--input", "random:3,10"])
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and "AssertionError: internal: edge (0, 1)" in err

    def test_random_above_vertex_ceiling_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys, ["generate", "--input", "random:3,100000000"]
        )
        assert code == 2 and "ceiling" in err

    @pytest.mark.parametrize("spec", ["cycle:1000001", "kdd:1001"])
    def test_spec_above_size_ceiling_exits_two_before_building(self, monkeypatch, capsys, spec):
        # one edge over the ceiling; building either graph takes seconds
        start = time.perf_counter()
        code, out, err = run_cli(monkeypatch, capsys, ["generate", "--input", spec])
        assert code == 2 and out == "" and "ceiling" in err
        assert time.perf_counter() - start < 1.0

    def test_dimacs_output_refused(self, monkeypatch, capsys):
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["generate", "--input", "petersen", "--format", "dimacs"],
        )
        assert code == 1


class TestAnalyze:
    def test_text_output(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "--input", petersen_file])
        assert code == 0
        assert "regular_degree: 3" in out and "girth: 5" in out

    def test_json_output(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["analyze", "--input", petersen_file, "--output", "json"],
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["kappa"] == 3 and rep["phi_upper_bound"] == 4

    def test_json_keys_follow_report_fields(self, monkeypatch, capsys, petersen_file):
        _, out, _ = run_cli(
            monkeypatch, capsys,
            ["analyze", "--input", petersen_file, "--output", "json"],
        )
        keys = list(json.loads(out))
        assert keys == [f.name for f in fields(analysis.HypothesisReport)]

    def test_stdin_input(self, monkeypatch, capsys):
        text = gc.serialize_edge_list(gc.generate_cycle(5))
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "--input", "-"], text)
        assert code == 0 and "girth: 5" in out

    def test_dimacs_input(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "c5.col"
        path.write_text("p edge 5 5\n" + "".join(
            f"e {i + 1} {(i + 1) % 5 + 1}\n" for i in range(5)
        ))
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["analyze", "--input", str(path), "--format", "dimacs"],
        )
        assert code == 0 and "vertices: 5" in out

    def test_parse_error_exits_one(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        code, _, err = run_cli(monkeypatch, capsys, ["analyze", "--input", str(path)])
        assert code == 1 and "line 3" in err

    @pytest.mark.parametrize("fmt, text", [
        ("edge-list", "1000000000 0\n"), ("dimacs", "p edge 1000000000 0\n"),
    ])
    def test_vertex_count_above_ceiling_exits_one(self, monkeypatch, capsys, tmp_path, fmt, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        code, _, err = run_cli(
            monkeypatch, capsys, ["analyze", "--input", str(path), "--format", fmt],
        )
        assert code == 1 and "ceiling" in err

    def test_negative_dimacs_edge_count_exits_one(self, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, ["analyze", "--input", "-", "--format", "dimacs"],
            "p edge 3 -5\ne 1 2\n",
        )
        assert code == 1 and out == "" and "edge count must be nonnegative" in err

    def test_missing_file_exits_one(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["analyze", "--input", "/no/such/file"])
        assert code == 1


class TestColor:
    def test_certificate_shape(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["color", "--input", petersen_file])
        assert code == 0
        cert = json.loads(out)
        assert list(cert.keys()) == ["palette", "assignment", "dominating", "strategy"]
        assert cert["palette"] == 4 and len(cert["assignment"]) == 10
        assert cert["strategy"] == "lower-bound"
        for color, vertex in cert["dominating"].items():
            assert cert["assignment"][vertex] == int(color)

    def test_auto_prefers_full_seed(self, monkeypatch, capsys, chain_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["color", "--input", chain_file])
        cert = json.loads(out)
        assert code == 0 and cert["strategy"] == "full-seed"
        assert cert["palette"] == 4 and sorted(cert["dominating"]) == ["1", "2", "3", "4"]

    def test_explicit_strategies(self, monkeypatch, capsys, chain_file):
        for strategy in ("full-seed", "lower-bound", "diameter", "connectivity"):
            code, out, _ = run_cli(
                monkeypatch, capsys,
                ["color", "--input", chain_file, "--strategy", strategy],
            )
            assert code == 0, strategy
            cert = json.loads(out)
            assert cert["strategy"] == strategy
            if strategy == "full-seed":
                assert len(set(cert["assignment"])) == 4

    def test_hypothesis_rejection_exits_two(self, monkeypatch, capsys, petersen_file):
        for strategy in ("full-seed", "diameter", "connectivity"):
            code, _, err = run_cli(
                monkeypatch, capsys,
                ["color", "--input", petersen_file, "--strategy", strategy],
            )
            assert code == 2, (strategy, err)
            if strategy == "full-seed":
                assert "10 centers tried" in err and "Hall violator of size 1" in err

    def test_heawood_reaches_the_exact_value(self, monkeypatch, capsys, tmp_path):
        g = gc.generate_heawood()
        path = tmp_path / "heawood.txt"
        path.write_text(gc.serialize_edge_list(g))
        code, out, _ = run_cli(monkeypatch, capsys, ["color", "--input", str(path)])
        assert code == 0
        assert len(set(json.loads(out)["assignment"])) == 4 == exact_oracle.exact_b_chromatic(g).phi

    def test_c4_graph_exits_two(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "k33.txt"
        path.write_text(gc.serialize_edge_list(gc.generate_complete_bipartite(3)))
        code, _, _ = run_cli(monkeypatch, capsys, ["color", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("strategy", cli.STRATEGIES)
    @pytest.mark.parametrize("graph_file", ["petersen_file", "chain_file"])
    def test_gates_each_graph_once(self, monkeypatch, capsys, request, strategy, graph_file):
        calls = {"find_four_cycle": 0, "is_regular": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counted(g, _name=name, _original=original):
                calls[_name] += 1
                return _original(g)

            monkeypatch.setattr(analysis, name, counted)
        path = request.getfixturevalue(graph_file)
        run_cli(monkeypatch, capsys, ["color", "--input", path, "--strategy", strategy])
        assert calls == {"find_four_cycle": 1, "is_regular": 1}

    def test_unknown_strategy_exits_one(self, monkeypatch, capsys, petersen_file):
        code, _, _ = run_cli(
            monkeypatch, capsys,
            ["color", "--input", petersen_file, "--strategy", "bogus"],
        )
        assert code == 1


class TestExact:
    def test_petersen(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--input", petersen_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == 3
        assert len(payload["witness"]["assignment"]) == 10
        assert payload["explored"] > 0

    def test_ceiling_exits_two(self, monkeypatch, capsys, chain_file):
        code, _, err = run_cli(monkeypatch, capsys, ["exact", "--input", chain_file])
        assert code == 2 and "ceiling" in err

    def test_negative_ceiling_exits_one(self, monkeypatch, capsys, petersen_file):
        searched = []
        monkeypatch.setattr(cli, "exact_b_chromatic", lambda *args, **kw: searched.append(args))
        argv = ["exact", "--input", petersen_file, "--oracle-ceiling", "-1"]
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == 1 and out == "" and searched == []
        assert "oracle ceiling must be nonnegative, got -1" in err

    def test_ceiling_can_be_raised(self, monkeypatch, capsys, chain_file):
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["exact", "--input", chain_file, "--oracle-ceiling", "30"],
        )
        assert code == 0 and json.loads(out)["phi"] == 4

    def test_node_budget_exits_two(self, monkeypatch, capsys):
        # the eleventh G(24, 1/2) drawn from one random.Random(3): φ = 10, and
        # an unbudgeted search tries 187,048 assignments in about 12 s
        rng = random.Random(3)
        pairs = list(itertools.combinations(range(24), 2))
        for _ in range(11):
            edges = [p for p in pairs if rng.random() < 0.5]
        text = gc.serialize_edge_list(gc.Graph.from_edges(24, edges))
        code, out, err = run_cli(monkeypatch, capsys, ["exact", "--input", "-"], text)
        assert code == 2 and out == ""
        assert f"more than {exact_oracle._SEARCH_NODE_BUDGET} color assignments" in err

    def test_complete_bipartite_refuted_by_witness_support(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "k77.txt"
        path.write_text(gc.serialize_edge_list(gc.generate_complete_bipartite(7)))
        code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--input", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == 2 and payload["explored"] == 12

    def test_verifies_the_witness_once(self, monkeypatch, capsys, petersen_file):
        checked = []

        def counted(g, coloring):
            checked.append(coloring)
            return constructive.verify_bcoloring(g, coloring)

        monkeypatch.setattr(exact_oracle, "verify_bcoloring", counted)
        monkeypatch.setattr(cli, "verify_bcoloring", counted)
        code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--input", petersen_file])
        assert code == 0 and len(checked) == 1
        witness = json.loads(out)["witness"]
        assert tuple(witness["assignment"]) == checked[0].assignment
        for color, vertex in witness["dominating"].items():
            assert witness["assignment"][vertex] == int(color)

    def test_empty_graph(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--input", "-"], "0 0\n")
        assert code == 0 and out == json.dumps({
            "phi": 0,
            "witness": {"palette": 0, "assignment": [], "dominating": {}},
            "explored": 0,
        }, indent=2) + "\n"


class TestVerify:
    def test_round_trip(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["color", "--input", petersen_file])
        cert = out
        code, out, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], cert
        )
        assert code == 0 and "b_coloring: True" in out

    def test_exact_witness_round_trip(self, monkeypatch, capsys, petersen_file):
        code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--input", petersen_file])
        witness = json.dumps(json.loads(out)["witness"])
        code, out, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], witness
        )
        assert code == 0 and "b_coloring: True" in out

    def test_palette_it_cannot_honour_exits_one(self, monkeypatch, capsys, petersen_file):
        """A b-coloring of Petersen under a negative palette, a palette of 0,
        or with its colors moved outside 1..palette is not a certificate."""
        witness = [1, 2, 3, 1, 2, 3, 1, 1, 2, 3]
        for palette, assignment in (
            (-1, witness),
            (0, witness),
            (3, [c + 10 for c in witness]),
            (3, [-c for c in witness]),
        ):
            payload = json.dumps({"palette": palette, "assignment": assignment})
            code, out, err = run_cli(
                monkeypatch, capsys, ["verify", "--input", petersen_file], payload
            )
            assert code == 1 and out == "" and "1..palette" in err
        payload = json.dumps({"palette": 3, "assignment": witness})
        code, out, _ = run_cli(monkeypatch, capsys, ["verify", "--input", petersen_file], payload)
        assert code == 0 and "b_coloring: True" in out

    def test_empty_graph_palette_zero(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        payload = json.dumps({"palette": 0, "assignment": []})
        code, out, _ = run_cli(monkeypatch, capsys, ["verify", "--input", str(path)], payload)
        assert code == 0 and "b_coloring: True" in out

    def test_empty_graph_negative_palette_exits_one(self, monkeypatch, capsys, tmp_path):
        """With no vertex to colour, only the sign check rejects the palette."""
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        payload = json.dumps({"palette": -1, "assignment": []})
        code, out, err = run_cli(monkeypatch, capsys, ["verify", "--input", str(path)], payload)
        assert code == 1 and out == "" and "1..palette" in err

    def test_bad_coloring_exits_two(self, monkeypatch, capsys, petersen_file):
        payload = json.dumps({"palette": 4, "assignment": [1] * 10})
        code, out, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], payload
        )
        assert code == 2 and "proper: False" in out

    def test_unrealized_color_exits_two(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        payload = json.dumps({"palette": 3, "assignment": [1, 2, 1, 3]})
        code, out, _ = run_cli(monkeypatch, capsys, ["verify", "--input", str(path)], payload)
        assert code == 2 and "unrealized" in out

    def test_malformed_json_exits_one(self, monkeypatch, capsys, petersen_file):
        code, _, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], "{not json"
        )
        assert code == 1
        code, _, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], '{"palette": 4}'
        )
        assert code == 1
        code, _, _ = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file],
            '{"palette": 4, "assignment": ["x"]}',
        )
        assert code == 1

    def test_boolean_palette_or_color_exits_one(self, monkeypatch, capsys, tmp_path):
        """JSON true loads as a Python bool, which is an int; it is not a
        color, nor is it a palette."""
        path = tmp_path / "k2.txt"
        path.write_text("2 1\n0 1\n")
        for payload in (
            {"palette": 2, "assignment": [True, 2]},
            {"palette": True, "assignment": [1, 1]},
            {"palette": 2, "assignment": [False, 2]},
        ):
            code, out, err = run_cli(
                monkeypatch, capsys, ["verify", "--input", str(path)], json.dumps(payload)
            )
            assert code == 1 and out == "", out
            assert "palette must be an integer and assignment a list of integers" in err
        payload = json.dumps({"palette": 2, "assignment": [1, 2]})
        code, out, _ = run_cli(monkeypatch, capsys, ["verify", "--input", str(path)], payload)
        assert code == 0 and "used_colors: [1, 2]" in out

    def test_deeply_nested_json_exits_one(self, monkeypatch, capsys, petersen_file):
        code, _, err = run_cli(
            monkeypatch, capsys, ["verify", "--input", petersen_file], "[" * 200_000
        )
        assert code == 1 and "not valid JSON" in err


class TestInternalErrors:
    """Any exception that is not a rejection, a budget or bad input is a
    broken invariant: exit 3, with the traceback on stderr."""

    @pytest.mark.parametrize("error", [
        constructive.ConstructionInvariantError("reduction lost a seeded color"),
        KeyError(7),
    ], ids=["invariant", "key-error"])
    def test_exits_three_with_a_traceback(self, monkeypatch, capsys, petersen_file, error):
        def broken(g, trace=None):
            raise error

        monkeypatch.setattr(cli, "construct_auto_bcoloring", broken)
        code, out, err = run_cli(monkeypatch, capsys, ["color", "--input", petersen_file])
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and f"{type(error).__name__}: {error}" in err


class TestUsageErrors:
    def test_no_subcommand(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, [])[0] == 1

    def test_unknown_subcommand(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, ["frobnicate"])[0] == 1

    def test_missing_required_flag(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, ["analyze"])[0] == 1

    def test_help_exits_zero(self, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, ["--help"])[0] == 0

    def test_removed_flags_exit_one(self, monkeypatch, capsys, petersen_file):
        argv = ["color", "--input", petersen_file, "--oracle-ceiling", "5"]
        assert run_cli(monkeypatch, capsys, argv)[0] == 1
        argv = ["generate", "--input", "petersen", "--format", "edge-list"]
        assert run_cli(monkeypatch, capsys, argv)[0] == 1


class TestCachedParser:
    """main builds its parser once per process; a flag given to one call must
    not reach the next, which gets the default each time."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_strategy_reverts_to_auto(self, monkeypatch, capsys, chain_file):
        for _ in range(2):
            for flags, strategy in ((["--strategy", "lower-bound"], "lower-bound"),
                                    ([], "full-seed")):
                code, out, _ = run_cli(monkeypatch, capsys, ["color", "--input", chain_file, *flags])
                assert code == 0 and json.loads(out)["strategy"] == strategy

    def test_output_reverts_to_text(self, monkeypatch, capsys, petersen_file):
        for _ in range(2):
            argv = ["analyze", "--input", petersen_file]
            code, out, _ = run_cli(monkeypatch, capsys, [*argv, "--output", "json"])
            assert code == 0 and json.loads(out)["vertices"] == 10
            code, out, _ = run_cli(monkeypatch, capsys, argv)
            assert code == 0 and out.startswith("vertices: 10\n")

    def test_oracle_ceiling_reverts_to_default(self, monkeypatch, capsys, chain_file):
        assert gc.generate_cubic_chain(3).vertex_count > exact_oracle.DEFAULT_VERTEX_CEILING
        for _ in range(2):
            argv = ["exact", "--input", chain_file]
            assert run_cli(monkeypatch, capsys, [*argv, "--oracle-ceiling", "30"])[0] == 0
            assert run_cli(monkeypatch, capsys, argv)[0] == 2

    def test_usage_error_then_valid_call(self, monkeypatch, capsys, petersen_file):
        for _ in range(2):
            argv = ["color", "--input", petersen_file]
            assert run_cli(monkeypatch, capsys, [*argv, "--strategy", "bogus"])[0] == 1
            assert run_cli(monkeypatch, capsys, argv)[0] == 0


def run_cli_plain(argv, stdin_text=""):
    """cli.main with stdin fed and output captured. Hypothesis runs many
    examples in one test call, so this does not use the function-scoped
    monkeypatch and capsys fixtures that run_cli needs."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


# Declared vertex counts above the parser's ceiling.
_huge = st.sampled_from([gc.PARSE_VERTEX_CEILING + 1, 10**9, 10**40])
_noise = st.text(alphabet="0123456789 -+_xep.\t\r", max_size=8) | st.text(max_size=8)


def _edges(n, first):
    """Up to 40 distinct-ended edge lines 'u v' on vertices first..first+n-1."""
    if n < 2:
        return st.just([])
    end = st.integers(min_value=first, max_value=first + n - 1)
    pairs = st.tuples(end, end).filter(lambda e: e[0] != e[1])
    return st.lists(pairs.map("{0[0]} {0[1]}".format), max_size=40)


def _noisy_edges(n, first):
    """Up to 40 lines: 'u v' with endpoints up to one out of range, or noise."""
    end = st.integers(min_value=first - 1, max_value=first + n)
    return st.lists(st.tuples(end, end).map("{0[0]} {0[1]}".format) | _noise, max_size=40)


@st.composite
def edge_list_text(draw):
    """Edge-list text for up to 64 vertices: well formed half the time;
    otherwise noisy lines under a header with a wrong edge count, a vertex
    count over the ceiling, or noise."""
    n = draw(st.integers(min_value=0, max_value=64))
    if draw(st.booleans()):
        lines = draw(_edges(n, 0))
        return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"
    lines = draw(_noisy_edges(n, 0))
    header = draw(
        st.integers(min_value=-1, max_value=45).map(f"{n} {{}}".format)
        | _huge.map(f"{{}} {len(lines)}".format) | _noise
    )
    return "\n".join([header, *lines]) + draw(st.sampled_from(["", "\n", "\n\n "]))


@st.composite
def dimacs_text(draw):
    """DIMACS text for up to 64 vertices: well formed half the time;
    otherwise noisy 'e' lines among one or more problem lines (some over
    the ceiling), comments and noise, in any order."""
    n = draw(st.integers(min_value=0, max_value=64))
    if draw(st.booleans()):
        lines = ["e " + line for line in draw(_edges(n, 1))]
        return "\n".join([f"p edge {n} {len(lines)}", "c comment", *lines])
    lines = ["e " + line for line in draw(_noisy_edges(n, 1))]
    problem = st.just(n) | _huge
    extra = problem.map("p edge {} 1".format) | st.just("c comment") | _noise
    for line in draw(st.lists(extra, min_size=1, max_size=3)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    return "\n".join(lines)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


# A b-coloring of gc.generate_petersen() with 3 colors.
_PETERSEN_WITNESS = (1, 2, 3, 1, 2, 3, 1, 1, 2, 3)


@st.composite
def _near_witness(draw):
    """A b-coloring of Petersen with up to two entries changed."""
    assignment = list(_PETERSEN_WITNESS)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=9))
        assignment[at] = draw(st.integers(min_value=-1, max_value=5))
    return assignment


_assignments = _near_witness() | st.lists(st.integers(min_value=-1, max_value=6), max_size=12)
_certificates = (
    st.fixed_dictionaries(
        {"palette": st.integers(min_value=-1, max_value=6), "assignment": _assignments}
    ).map(json.dumps)
    | st.fixed_dictionaries(
        {"palette": st.integers() | _json_values, "assignment": _assignments | _json_values},
        optional={"strategy": _json_values},
    ).map(json.dumps)
    | _json_values.map(json.dumps)
    | st.text(max_size=40)
)


class TestFuzzedInput:
    """No input makes the command line fail with an internal error (exit 3).
    Malformed text, malformed certificates and vertex counts over the
    parser's ceiling exit 1; graphs over the oracle's ceiling and
    certificates that are not b-colorings exit 2; the rest exit 0."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["analyze", "exact"]), text=edge_list_text())
    def test_edge_list(self, command, text):
        code, err = run_cli_plain([command, "--input", "-"], text)
        assert code in (0, 1, 2), err

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["analyze", "exact"]), text=dimacs_text())
    def test_dimacs(self, command, text):
        code, err = run_cli_plain([command, "--input", "-", "--format", "dimacs"], text)
        assert code in (0, 1, 2), err

    @pytest.fixture(scope="class")
    def petersen_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "petersen.txt"
        path.write_text(gc.serialize_edge_list(gc.generate_petersen()))
        return str(path)

    @settings(max_examples=150, deadline=None)
    @given(certificate=_certificates)
    def test_verify_certificate(self, petersen_path, certificate):
        code, err = run_cli_plain(["verify", "--input", petersen_path], certificate)
        assert code in (0, 1, 2), err
