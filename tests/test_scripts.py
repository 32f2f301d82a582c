import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from bchromatic import constructive as con, graph_core as gc

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
    assert done.stdout.splitlines()[-1].endswith(" cases, 0 differ")


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
