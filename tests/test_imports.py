"""Every name a module in src/ or tests/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never loads and
    does not list in ``__all__``; ``from __future__`` imports are exempt.
    An ``__all__`` that is no literal, such as one built from ``dir()``,
    lists every public name."""
    tree = ast.parse(source)
    imported, used, every_public = {}, set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:
                every_public = True
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and not (every_public and name[0] != "_"))


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from math import pi, tau\n"
              "__all__ = ['tau']\n"
              "def f():\n    import sys\n    return np.zeros(1), os\n")
    assert unused_imports(source) == [(4, "pi"), (7, "sys")]
    source = "import os\nfrom math import _x, pi\n__all__ = [n for n in dir()]\n"
    assert unused_imports(source) == [(2, "_x")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
