"""Per-layer tracing from outside the program.

Wraps the public functions of each bchromatic module in every module
namespace that refers to them (the modules import each other's functions by
name), records one span per call with its parent, and reduces the spans to
self time (span minus child spans) and call counts. Used only in the traced
run: end-to-end numbers come from runs with nothing wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = {
    "cli": ("main",),
    "graph_core": ("parse_edge_list", "serialize_edge_list",
                   "generate_random_c4_free_regular", "validate_graph"),
    "analysis": ("is_regular", "find_four_cycle", "find_triangle", "girth", "diameter",
                 "vertex_connectivity", "connected_components", "five_cycle_stats",
                 "check_hypotheses"),
    "matching": ("perfect_matching",),
    "constructive": ("plan_seed", "seed_dominating_neighborhood", "greedy_extend",
                     "reduce_unrealized", "verify_bcoloring",
                     "construct_lower_bound_bcoloring", "construct_diameter_bcoloring",
                     "construct_connectivity_bcoloring"),
    "exact_oracle": ("exact_b_chromatic", "exists_bcoloring_with_k"),
}
SPANNED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
ROUTES = {"construct_lower_bound_bcoloring", "construct_diameter_bcoloring",
          "construct_connectivity_bcoloring"}
GENERATOR = "graph_core.generate_random_c4_free_regular"

PER_LAYER = (
    [f"{name}.{kind}" for name in SPANNED for kind in ("self_s", "calls")]
    + ["constructive.route_rejected.calls", "constructive.route_rejected.s",
       "exact_oracle.explored", f"{GENERATOR}.peak_mb"]
)


class Tracer:
    """Spans of the wrapped functions, kept in memory until the run ends."""

    def __init__(self) -> None:
        # (CLI call, span id, parent id, name, start, end, rejected route, self time)
        self.spans: list[tuple[int, int, int, str, float, float, bool, float]] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.cli_call = 0
        self.auto = False  # the current CLI call is `color` with the auto strategy
        self.probe_memory = False
        self.peak_bytes = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "bchromatic" or name.startswith("bchromatic.")]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"bchromatic.{mod_name}")
            for fn in fns:
                original = getattr(mod, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        is_route = fn.__name__ in ROUTES
        is_generator = name == GENERATOR

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack) + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_generator and self.probe_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if is_generator and self.probe_memory:
                    self.peak_bytes = max(self.peak_bytes,
                                          tracemalloc.get_traced_memory()[1] - base)
                spans.append((self.cli_call, span_id, parent, name, start, end,
                               raised and is_route and self.auto,
                               end - start - frame[1]))

        return wrapper

    def metrics(self, cli_calls: int, explored: int) -> dict[str, float]:
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        rejected_calls, rejected_s = 0, 0.0
        for _, _, _, name, start, end, rejected, own in self.spans:
            self_s[name] += own
            calls[name] += 1
            if rejected:
                rejected_calls += 1
                rejected_s += end - start
        out: dict[str, float] = {}
        for name in SPANNED:
            out[f"{name}.self_s"] = self_s[name] / cli_calls
            out[f"{name}.calls"] = calls[name] / cli_calls
        out["constructive.route_rejected.calls"] = rejected_calls / cli_calls
        out["constructive.route_rejected.s"] = rejected_s / cli_calls
        out["exact_oracle.explored"] = explored / cli_calls
        out[f"{GENERATOR}.peak_mb"] = self.peak_bytes / 2**20
        return out

    def write(self, path) -> None:
        """One JSON object per span: the CLI call it belongs to, its id, its
        parent's id (0 for a top-level span), name, start, end, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for cli_call, span_id, parent, name, start, end, _, own in self.spans:
                fh.write(json.dumps({"call": cli_call, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "self": own}) + "\n")
