"""Every name a package module imports is used in that module, and every
private module-level name a package module defines is referenced by one.

__init__.py is skipped by the import check: its imports are the
package's exports.
"""
import ast
from pathlib import Path

import mfoesim

PACKAGE_DIR = Path(mfoesim.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_guard_flags_an_unused_import():
    source = "import os\nfrom typing import Optional, Iterator\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Iterator")]


def test_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imported but never used: " + ", ".join(found)


def unreferenced_privates(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private (one leading underscore)
    module-level function, class or constant that no module reads, by
    name or as an attribute."""
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [
                (module, node.lineno, name) for name in targets
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [entry for entry in defined if entry[2] not in used]


def test_guard_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 4\n_a, b = 1, 2\ndef _used():\n    return _LIMIT\n"
                "class _Dead:\n    pass\n",
        "b.py": "from . import a\ndef _gone():\n    _x = 1\nc = a._used()\n",
    }
    assert unreferenced_privates(sources) == [
        ("a.py", 2, "_a"), ("a.py", 5, "_Dead"), ("b.py", 2, "_gone"),
    ]


def test_no_unreferenced_private_names():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = [f"{module}:{line}: {name}" for module, line, name in unreferenced_privates(sources)]
    assert not found, "defined but never referenced: " + ", ".join(found)
