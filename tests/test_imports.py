"""Every name a package module imports is used in that module.

__init__.py is skipped: its imports are the package's exports.
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
