"""The benchmark harness still finds every name it imports, reads and traces.

``perfbench/`` imports package names directly, reads ``graphoid.<name>``
attributes and patches the functions its tracer lists by module and
attribute; a rename or removal that breaks any of them would otherwise show
only when the benchmark or its own tests run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_workloads_import_and_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    for layer, module, attr in tracer.TARGETS:
        owner, name, original = tracer.resolve(module, attr)
        assert callable(original), layer


def _graphoid_references(path):
    """(module, name) for each ``from graphoid... import name`` and each
    ``graphoid.name`` read in ``path``; ``import graphoid.x`` gives (x, None)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphoid":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "graphoid":
                    yield alias.name, None
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "graphoid"
        ):
            yield "graphoid", node.attr


REFERENCES = sorted(
    {
        (str(path.relative_to(PERFBENCH)), module, name)
        for path in PERFBENCH.rglob("*.py")
        for module, name in _graphoid_references(path)
    },
    key=str,
)


def test_perfbench_reads_the_package():
    # Guards the scan itself: an empty list would pass every case below.
    assert ("tests/test_tracer.py", "graphoid", "ci_holds_discrete") in REFERENCES
    assert ("workloads.py", "graphoid.bayesnet", "SeparationQuery") in REFERENCES


@pytest.mark.parametrize("where, module, name", REFERENCES)
def test_every_package_name_perfbench_uses_resolves(where, module, name):
    owner = importlib.import_module(module)
    if name is not None and not hasattr(owner, name):
        # ``graphoid.cli`` and the like are submodules, bound once imported.
        importlib.import_module(f"{module}.{name}")
