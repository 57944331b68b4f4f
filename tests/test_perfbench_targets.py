"""The benchmark harness still finds every name it imports and traces.

``perfbench/`` imports package names directly and patches the functions its
tracer lists by module and attribute; a rename that breaks either would
otherwise show only when the benchmark runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_workloads_import_and_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    for layer, module, attr in tracer.TARGETS:
        owner, name, original = tracer.resolve(module, attr)
        assert callable(original), layer
