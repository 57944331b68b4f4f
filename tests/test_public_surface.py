"""Every public name in the package is used by the package or the benchmark.

A public name is a module-level function or class, or a method, whose name
has no leading underscore.  It counts as used when it appears in
``src/graphoid`` outside ``__init__.py`` or in ``perfbench/`` as a name, an
attribute or an imported alias, or as a function the benchmark's tracer
lists in ``TARGETS``.  Tests alone do not keep a name alive, and neither does
an entry in ``graphoid.__all__``: a name only tests use belongs in the tests,
unless ``ALLOWED`` gives the reason it stays.

Every variable set in the package is a mask of ``model_core.VariableSets``;
no other module may build its own name -> bit map, bit decoder or set
encoder.
"""

import ast
from pathlib import Path

import pytest

import graphoid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphoid"

# Kept without a caller: the planted-structure cases of ROADMAP items 2-3
# (CPT tables, linear-SEM Gaussians) are to be built over random_dag, and the
# block products of items 2b and 7 over product_table.
ALLOWED = {"bayesnet.random_dag", "dist_oracle.product_table"}


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def traced_names(tracer):
    """The function names listed in the tracer's ``TARGETS`` table."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            return {attr.rsplit(".", 1)[-1] for _, _, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def used_names():
    used = traced_names(ROOT / "perfbench" / "tracer.py")
    sources = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    for path in [*sources, *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add((node.asname or node.name).rsplit(".", 1)[-1])
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_name_is_used_or_exported():
    used = used_names()
    unused = [
        f"{module}.{qualified}"
        for module, qualified, name in public_definitions()
        if name not in used and f"{module}.{qualified}" not in ALLOWED
    ]
    assert unused == []


def test_the_scan_sees_definitions_and_uses():
    found = {f"{module}.{qualified}" for module, qualified, _ in public_definitions()}
    assert {"bayesnet.random_dag", "dist_oracle.CiOracle", "dist_oracle.CiOracle.ci"} <= found
    assert {"CiOracle", "ci", "run_suite", "ci_residual_gaussian"} <= used_names()
    assert len(graphoid.__all__) == 45


def _is_one(node):
    return isinstance(node, ast.Constant) and node.value == 1


def _is_op(node, op):
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def _is_bit_table(node):
    """Whether ``node`` is a name -> bit table: ``bit`` or ``<any>.bit``."""
    return (isinstance(node, ast.Name) and node.id == "bit") or (
        isinstance(node, ast.Attribute) and node.attr == "bit"
    )


def _sums_bit_lookups(node):
    """Whether ``node`` is a ``sum`` over bit lookups of names, as in
    ``sum(bit[v] for v in s)`` or ``sum(map(bit.get, s))``; a ``sum`` that
    only passes a lookup on, as ``sum(f(bit[v]))``, is not one."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "sum" and node.args):
        return False
    arg = node.args[0]
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return isinstance(arg.elt, ast.Subscript) and _is_bit_table(arg.elt.value)
    if isinstance(arg, ast.Call) and ast.unparse(arg.func) == "map" and arg.args:
        lookup = arg.args[0]
        return isinstance(lookup, ast.Attribute) and _is_bit_table(lookup.value)
    return False


def name_bit_codecs(tree):
    """Where ``tree`` builds a name -> bit dict (``{v: 1 << i ...}``), reads
    a bit of a mask with ``mask >> i & 1`` or sums bit lookups into a mask,
    as ``(line, what)`` pairs."""
    for node in ast.walk(tree):
        if _sums_bit_lookups(node):
            yield node.lineno, "sum of bit lookups"
        if isinstance(node, ast.DictComp) and _is_op(node.value, ast.LShift):
            if _is_one(node.value.left):
                yield node.lineno, "name -> bit dict"
        if _is_op(node, ast.BitAnd):
            sides = (node.left, node.right)
            if any(map(_is_one, sides)) and any(_is_op(side, ast.RShift) for side in sides):
                yield node.lineno, "mask >> i & 1"


def test_only_model_core_maps_names_to_bits():
    # Every variable set is a mask of a universe's ``sets`` (a VariableSets);
    # a second encoder or decoder could disagree with it on bit order.
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "model_core.py"
        for line, what in name_bit_codecs(ast.parse(path.read_text()))
    ]
    assert found == []
    core = ast.parse((PACKAGE / "model_core.py").read_text())
    assert {what for _, what in name_bit_codecs(core)} == {
        "name -> bit dict", "mask >> i & 1", "sum of bit lookups"
    }


@pytest.mark.parametrize("source, flagged", [
    ("sum(bit[v] for v in s)", True),
    ("sum(sets.bit[v] for v in s)", True),
    ("sum([bit[v] for v in s])", True),
    ("sum(map(bit.get, s))", True),
    ("sum(map(self.bit.__getitem__, s))", True),
    ("sum(_reach(dag, sets.bit[h]))", False),
    ("sum(map(len, s))", False),
    ("sum(1 << j for j in s)", False),
])
def test_the_encoder_check_tells_a_bit_sum_from_a_bit_argument(source, flagged):
    assert any(what == "sum of bit lookups" for _, what in name_bit_codecs(ast.parse(source))) == flagged
