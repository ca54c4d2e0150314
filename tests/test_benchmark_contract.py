"""The names perfbench's tracer wraps still exist, and it leaves none wrapped.

``perfbench/run.py --trace 1`` installs ``perfbench/tracer.py``'s ``Tracer``
around the library's layer boundaries by attribute name.  A rename in the
library breaks that run; this test finds it in milliseconds.
"""

import importlib.util
from pathlib import Path

import booleancomplex as bc
from booleancomplex import cycle_graph, graph, ideal

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls():
    tracer_module = load_tracer()
    owners = (*tracer_module.CONSUMERS, graph.Graph, ideal.BooleanIdeal)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer._undo
        for owner, name, original in tracer._undo:
            assert vars(owner)[name] is not original, (owner, name)
        tracer.run_op(0, bc.cross_check, cycle_graph(5))
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
    _, calls = tracer.span_totals()
    for name in ("beta.cross_check", "beta.recursion", "beta.euler", "beta.subset",
                 "homology.top_betti", "morse.build_h_matching"):
        assert calls[name] == 1, name
    for name in ("graph.canonical_key", "graph.surgery", "morse.build.nodes"):
        assert tracer.counts[name] > 0, name
