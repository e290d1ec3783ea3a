"""The package's modules import one another without a cycle.

Every ``amld3`` module is parsed, and each import of another package module
counts, whether at module level or inside a function: a function-local
import only postpones a cycle to the first call.
"""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from importlib.util import resolve_name
from pathlib import Path

import amld3

PACKAGE = Path(amld3.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _module(name: str) -> str | None:
    """The package module an absolute dotted name lies in, ``__init__`` for
    a name of the package itself, None outside the package."""
    head, _, rest = name.partition(".")
    if head != "amld3":
        return None
    module = rest.partition(".")[0]
    return module if module in MODULES else "__init__"


def _imported(tree: ast.AST) -> set[str]:
    """Package modules that a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(_module(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), "amld3")
            found.update(_module(f"{base}.{a.name}") for a in node.names)
    return found - {None}


def import_graph() -> dict[str, set[str]]:
    return {p.stem: _imported(ast.parse(p.read_text())) - {p.stem}
            for p in PACKAGE.glob("*.py")}


def test_graph_sees_module_level_and_local_imports():
    graph = import_graph()
    assert {"ordering", "rate_region", "gaussian_md"} <= graph["__init__"]
    assert "codec" in graph["cli"]  # imported inside the codec commands
    assert "catalog" in graph["codec"]
    assert graph["__main__"] == {"cli"}


def test_package_import_graph_is_acyclic():
    try:
        order = list(TopologicalSorter(import_graph()).static_order())
    except CycleError as e:
        cycle = " -> ".join(e.args[1])
        raise AssertionError(f"import cycle: {cycle}") from None
    assert set(order) == MODULES
