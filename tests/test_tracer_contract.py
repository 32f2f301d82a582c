"""The names perfbench/tracer.py wraps exist in the program, and a traced
run records the spans a reader of the per-layer metrics expects."""

import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

from bchromatic import cli, constructive as con, graph_core as gc

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_wrapped_name_is_a_function_of_its_module():
    tracer = load_tracer()
    for mod_name, fns in tracer.LAYERS.items():
        mod = importlib.import_module(f"bchromatic.{mod_name}")
        for fn in fns:
            assert inspect.isfunction(getattr(mod, fn, None)), f"{mod_name}.{fn}"
    # a route is a wrapped function of constructive that returns an outcome
    for name in tracer.ROUTES:
        assert name in tracer.LAYERS["constructive"], name
        hints = typing.get_type_hints(getattr(con, name))
        assert hints["return"] is con.ConstructionOutcome, name


def test_lower_bound_color_records_one_reduction_span(tmp_path, capsys):
    path = tmp_path / "petersen.txt"
    path.write_text(gc.serialize_edge_list(gc.generate_petersen()))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["color", "--input", str(path), "--strategy", "lower-bound"]) == 0
    finally:
        tracer.uninstall()
    ids = {name: [] for name in ("constructive.reduce_unrealized",
                                 "constructive.construct_lower_bound_bcoloring")}
    parents = {}
    for _, span_id, parent, name, *_ in tracer.spans:
        if name in ids:
            ids[name].append(span_id)
            parents[span_id] = parent
    [reduction] = ids["constructive.reduce_unrealized"]
    [route] = ids["constructive.construct_lower_bound_bcoloring"]
    assert parents[reduction] == route
    assert '"strategy": "lower-bound"' in capsys.readouterr().out
