"""Every name a module in src/ or tests/ imports is used in that module,
and every name the package exports has a caller."""

import ast
import types
from pathlib import Path

import pytest

import qpendulum

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
# Where an export's caller may live: the library itself, the benchmark's
# calls and the acceptance criteria.
CALLERS = ([path for path in sorted((ROOT / "src").rglob("*.py"))
            if path.name != "__init__.py"]
           + [ROOT / "bench" / "workloads.py", ROOT / "tests" / "test_acceptance.py"])


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


def loaded_names(source: str) -> set[str]:
    """Every name the module reads, bare or as an attribute: ``f(x)`` and
    ``qp.f(x)`` both read ``f``. A definition, an import or a mention in a
    string reads nothing."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_scanner_finds_loaded_names():
    source = ("import qp\nfrom m import g\n"
              "def f(a: T) -> 'U':\n"
              "    \"\"\"Calls h.\"\"\"\n"
              "    x = qp.k(a)\n"
              "    return x\n")
    assert loaded_names(source) == {"T", "qp", "k", "a", "x"}


def test_every_export_has_a_caller():
    exports = {name for name in qpendulum.__all__
               if not isinstance(getattr(qpendulum, name), types.ModuleType)}
    called = set().union(*(loaded_names(path.read_text()) for path in CALLERS))
    assert sorted(exports - called) == []
