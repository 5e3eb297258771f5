"""The package's import graph, read from each module's relative imports."""

from __future__ import annotations

import ast
from pathlib import Path

import commprob

# module -> the package modules it imports, anywhere in its source
GRAPH = {
    "__init__": {"catalog", "egyptian", "errors", "families", "groups", "probability",
                 "rationals"},
    "catalog": {"errors", "families", "groups", "probability", "rationals"},
    "cli": {"catalog", "egyptian", "errors", "families", "groups", "probability",
            "rationals"},
    "egyptian": {"errors", "rationals"},
    "errors": set(),
    "families": {"errors", "groups"},
    "groups": {"errors"},
    "probability": {"errors", "groups", "rationals"},
    "rationals": set(),
}


def _relative_imports(path: Path) -> set[str]:
    deps = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                deps.add(node.module.split(".")[0])
            else:  # from . import x
                deps.update(alias.name for alias in node.names)
    return deps


def test_import_graph_is_pinned():
    """The table engine imports only the errors; the families build on
    the engine alone, not on the probability layer; the gap search needs
    no group code. A new edge or module must be added here on purpose."""
    package = Path(commprob.__file__).parent
    graph = {path.stem: _relative_imports(path) for path in sorted(package.glob("*.py"))}
    assert graph == GRAPH

