"""Every public name in the package is used by the package or the benchmark, or exported.

A public name is a module-level function or class, or a method, whose name
has no leading underscore.  It counts as used when it appears anywhere in
``src/graphoid`` or ``perfbench/`` as a name, an attribute or an imported
alias; tests alone do not keep a name alive.
"""

import ast
from pathlib import Path

import graphoid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphoid"

# Kept without a caller: the planted-structure cases of ROADMAP items 2-3
# (CPT tables, linear-SEM Gaussians) are to be built over it.
ALLOWED = {"bayesnet.random_dag"}


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


def used_names():
    used = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
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
        if name not in used
        and qualified not in graphoid.__all__
        and f"{module}.{qualified}" not in ALLOWED
    ]
    assert unused == []


def test_the_scan_sees_definitions_and_uses():
    found = {f"{module}.{qualified}" for module, qualified, _ in public_definitions()}
    assert {"bayesnet.random_dag", "dist_oracle.CiOracle", "dist_oracle.CiOracle.ci"} <= found
    assert {"CiOracle", "ci", "run_suite"} <= used_names()
    assert len(graphoid.__all__) == 48
