import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from bchromatic import constructive as con, graph_core as gc
from tests.test_analysis import compare_outputs

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_lower_bound_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_lower_bound.py"), "--count", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "2 graphs" in done.stdout


def test_compare_outputs_finds_no_difference_with_itself():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(ROOT / "src"),
         "--count", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-2] == "0 not repeatable"
    assert done.stdout.splitlines()[-1].endswith(" cases, 0 differ")


def test_compare_outputs_flags_a_tree_that_keeps_state(tmp_path):
    """A tree whose main prints a call counter answers each case otherwise
    the second time through the corpus: every case is flagged in it."""
    package = tmp_path / "bchromatic"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "calls = 0\n\ndef main(argv):\n    global calls\n    calls += 1\n"
        "    print(calls)\n    return 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(tmp_path),
         "--count", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    cases = int(lines[-1].split()[0])
    assert lines[-2] == f"{cases} not repeatable"
    assert sum(line.startswith("not repeatable in other tree: ") for line in lines) == cases


def test_compare_outputs_checks_generated_graphs():
    """A `generate` output is valid when it exits 0 with a C4-free d-regular
    graph on the n vertices of its spec."""
    petersen = gc.serialize_edge_list(gc.generate_petersen())
    cube = gc.serialize_edge_list(gc.Graph.from_edges(8, compare_outputs.CUBE_EDGES))
    argv = ["generate", "--input", "random:3,10", "--seed", "0"]
    assert compare_outputs.valid_generated(argv, [0, petersen, ""])
    assert not compare_outputs.valid_generated(argv, [2, petersen, ""])
    assert not compare_outputs.valid_generated(argv, [0, "not a graph", ""])
    assert not compare_outputs.valid_generated(["generate", "--input", "random:3,8"], [0, cube, ""])
    assert not compare_outputs.valid_generated(["generate", "--input", "random:4,10"], [0, petersen, ""])
    assert not compare_outputs.valid_generated(["generate", "--input", "random:3,12"], [0, petersen, ""])


def test_count_lines_skips_docstrings_comments_and_blanks(tmp_path):
    spec = importlib.util.spec_from_file_location("count_lines", ROOT / "scripts" / "count_lines.py")
    count_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(count_lines)
    small = '"""A module\ndocstring."""\n\n# a comment\nx = 1\ny = "a string"  # trailing\n'
    assert count_lines.code_lines(small) == 2
    (tmp_path / "small.py").write_text(small)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["total", "6", "2"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    physical = sum(p.read_text().count("\n") for p in (ROOT / "src" / "bchromatic").glob("*.py"))
    assert int(done.stdout.splitlines()[-1].split()[1]) == physical


def test_showcase_try_route_takes_every_route():
    spec = importlib.util.spec_from_file_location("showcase", ROOT / "scripts" / "showcase.py")
    showcase = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(showcase)
    g = gc.generate_cubic_chain(2)
    results = {
        fn.__name__: showcase.try_route(fn, g)
        for fn in (
            con.construct_full_seed_bcoloring,
            con.construct_lower_bound_bcoloring,
            con.construct_diameter_bcoloring,
            con.construct_connectivity_bcoloring,
            con.construct_auto_bcoloring,
        )
    }
    assert results == {
        "construct_full_seed_bcoloring": "4",
        "construct_lower_bound_bcoloring": "3",
        "construct_diameter_bcoloring": "-",
        "construct_connectivity_bcoloring": "4",
        "construct_auto_bcoloring": "4",
    }


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(calls_per_s: float, p50: float) -> dict:
    """A perfbench/run.py result with two of its end-to-end metrics."""
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        "calls_per_s": {"value": calls_per_s, "unit": "1/s"},
        "call_p50_ms": {"value": p50, "unit": "ms"},
    }}


def test_bench_pairs_collates_medians_quartiles_and_wins():
    bench_pairs = _load_script("bench_pairs")
    pairs = [
        {"base": _result(b, 5.0), "change": _result(c, p50)}
        for b, c, p50 in ((10, 12, 4.0), (11, 10, 5.0), (12, 15, 6.0), (13, 16, 4.5), (14, 18, 4.0))
    ]
    got = bench_pairs.collate(pairs, {"calls_per_s": "higher", "call_p50_ms": "lower"})
    assert got["calls_per_s"] == {
        "unit": "1/s", "better": "higher", "pairs": 5, "change_won": 4,
        "base": {"median": 12, "q1": 11, "q3": 13},
        "change": {"median": 15, "q1": 12, "q3": 16},
    }
    # lower is better: 4.0 and 4.5 beat 5.0 three times; a tie is no win
    assert got["call_p50_ms"]["change_won"] == 3
    assert got["call_p50_ms"]["change"] == {"median": 4.5, "q1": 4.0, "q3": 5.0}


def test_bench_pairs_alternates_and_names_the_commits(monkeypatch, tmp_path):
    bench_pairs = _load_script("bench_pairs")
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append((checkout.name, seed, seconds))
        return _result(20.0 if checkout.name == "new" else 10.0, 5.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "commit", lambda checkout: f"{checkout.name}123")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = tmp_path / "bench.json"
    out.write_text('{"workloads": {"small-exact": {}}}')
    assert bench_pairs.main([str(tmp_path / "old"), str(tmp_path / "new"), "--runs", "mid-auto=3",
                             "--seed", "5", "--out", str(out)]) == 0
    assert order == [("old", 5, seconds), ("new", 5, seconds), ("new", 6, seconds),
                     ("old", 6, seconds), ("old", 7, seconds), ("new", 7, seconds)]
    record = json.loads(out.read_text())
    assert (record["base"], record["change"], record["seconds"]) == ("old123", "new123", seconds)
    assert list(record["workloads"]) == ["mid-auto"]  # written anew
    mid = record["workloads"]["mid-auto"]
    assert [run["first"] for run in mid["runs"]] == ["base", "change", "base"]
    assert mid["metrics"]["calls_per_s"]["change_won"] == 3
    assert mid["metrics"]["call_p50_ms"]["change_won"] == 0
