"""The benchmark tracer's module bindings still name callables in lqhv.

`perfbench/tracer.py` wraps each binding by name; a renamed or removed
function would otherwise go unnoticed until the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_tracer_binding_resolves(monkeypatch):
    # load the tracer read-only: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    for module_name, attr, _ in tracer.BINDINGS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is not a callable"
