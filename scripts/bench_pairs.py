"""Run the benchmark on two checkouts in alternating pairs and collate it.

Usage:
    python3 scripts/bench_pairs.py BASE CHANGE --runs mid-auto=10 --runs small-exact=3
        [--seed 711] [--out BENCH.json]

BASE and CHANGE are the roots of two git checkouts, for example the parent
commit's and this one's; the record names each by its commit. For each
workload, pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0` once in
each checkout, with S the `run_seconds` of `BENCHMARK.json`, one after the
other, the base first in even pairs and the change first in odd ones, so
that a slow spell of the processor does not always fall on the same side.
Each run's end-to-end metrics are read from the last line of its stdout.

The output file holds, per workload and metric, the median and quartiles
of each side, and in how many pairs the change was better (in the
direction `BENCHMARK.json` gives for the metric), beside every run's raw
result. The output file is written anew, after each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit(checkout: Path) -> str:
    """The short hash of the commit checked out in checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout: its final JSON result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so that three runs work)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def collate(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of the first pair: each side's median and quartiles, and
    the pairs in which the change was strictly better. pairs holds
    {"base": result, "change": result} per pair, each result as
    perfbench/run.py prints it; better maps a metric to "lower" or
    "higher"."""
    out = {}
    for name, first in pairs[0]["base"]["metrics"].items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("base", "change")}
        sign = 1 if better[name] == "higher" else -1
        won = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
        out[name] = {
            "unit": first["unit"],
            "better": better[name],
            "base": summary(sides["base"]),
            "change": summary(sides["change"]),
            "change_won": won,
            "pairs": len(pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", action="append", required=True, metavar="WORKLOAD=PAIRS")
    parser.add_argument("--seed", type=int, default=711)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"base": commit(args.base), "change": commit(args.change), "seconds": seconds,
              "workloads": {}}
    for item in args.runs:
        workload, count = item.split("=")
        pairs = []
        for i in range(int(count)):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['calls_per_s']['value']:.1f}"
                for side in ("base", "change")) + " calls/s", file=sys.stderr, flush=True)
        record["workloads"][workload] = {"metrics": collate(pairs, better), "runs": pairs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
