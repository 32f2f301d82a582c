"""Benchmark of the bchromatic command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the workload's inputs from the seed,
then repeats whole rounds of calls to bchromatic.cli.main(argv), in this
process with stdout captured, for about --seconds seconds. Every call's
output is checked by perfbench/checks.py. The last line of stdout is one
JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with nothing wrapped; with
--trace 1 they are the per-layer ones from tracer.py. A copy of the result,
and in a traced run the spans, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
from calibrate import REFERENCE_S, probe_seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PER_ROUND = 3  # set-ups timed per round, each in a fresh interpreter
PROBE_EVERY_S = 0.25  # longest stretch of calls between two speed probes

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bchromatic.cli; print(time.perf_counter() - t)"
)


def setup_seconds() -> float:
    """Wall time to import the program in a fresh interpreter, which every
    real CLI invocation pays once before it does any work."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class SpeedProbe:
    """Times calibrate.py's fixed job at least every PROBE_EVERY_S of calls.
    REFERENCE_S over the run's mean probe scales the run's wall times to
    one processor speed (README.md, "Steadiness")."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.probe()

    def probe(self) -> None:
        self.probes.append(probe_seconds(time.perf_counter))
        self._probed_at = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.probes)


def call_once(cli, call, tracer) -> tuple[float, int, str, str]:
    """Time one cli.main call with stdin fed and stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(call.stdin)
    if tracer is not None:
        tracer.auto = call.argv[0] == "color" and "--strategy" not in call.argv
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(call.argv))
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = sys.__stdin__
    return elapsed, code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bchromatic" / "cli.py").is_file():
        print(f"perfbench: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    setup_seconds()  # untimed: writes the bytecode cache of a fresh checkout
    sys.path.insert(0, str(SRC))
    from bchromatic import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported bchromatic from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    calls = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    speed = SpeedProbe()
    setups: list[float] = []
    wall: list[float] = []
    failures: list[str] = []
    wrong: list[str] = []
    explored = 0
    rounds = 0
    begin = time.perf_counter()
    while True:
        setups += [setup_seconds() for _ in range(SETUP_PER_ROUND)]
        for call in calls:
            if tracer is not None:
                tracer.cli_call = len(wall) + 1
            elapsed, code, out, err = call_once(cli, call, tracer)
            wall.append(elapsed)
            speed.tick()
            if code != 0:
                failures.append(f"{' '.join(call.argv)}: exit {code}: {err.strip()[-300:]}")
                continue
            try:
                call.check(out)
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{' '.join(call.argv)}: wrong output: {exc!r}")
                wrong.append(failures[-1])
                continue
            if call.argv[0] == "exact":
                explored += json.loads(out)["explored"]
        speed.probe()
        rounds += 1
        spent = time.perf_counter() - begin
        # whole rounds only; stop where the next one would end furthest past
        # the requested length
        if spent + 0.5 * spent / rounds > args.seconds:
            break

    scale = speed.scale()
    times = [t * scale for t in wall]
    if tracer is None:
        metrics = {
            "setup_s": (scale * statistics.median(setups), "s"),
            "call_p50_ms": (1000 * statistics.median(times), "ms"),
            "calls_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.metrics(len(wall), explored)
        # peak allocation of the generator, from one extra call on the largest
        # graph, made apart from the timed calls since tracemalloc slows what
        # it watches several times over
        generated = [c for c in calls if c.argv[0] == "generate"]
        if generated:
            tracer.probe_memory = True
            tracemalloc.start()
            call_once(cli, max(generated, key=lambda c: int(c.argv[2].split(",")[1])), tracer)
            tracemalloc.stop()
            layer["graph_core.generate_random_c4_free_regular.peak_mb"] = tracer.peak_bytes / 2**20
        tracer.uninstall()
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}

    result = {
        "correct": not wrong,
        "attempted": len(wall),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    for line in failures[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds of {len(calls)} "
          f"calls in {time.perf_counter() - begin:.1f} s; wall median "
          f"{1000 * statistics.median(wall):.2f} ms, mean {1000 * statistics.mean(wall):.2f} ms; "
          f"at reference speed (x{scale:.3f}) median {1000 * statistics.median(times):.2f} ms, "
          f"mean {1000 * statistics.mean(times):.2f} ms", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith(("self_s", ".s")) else "count"


if __name__ == "__main__":
    raise SystemExit(main())
