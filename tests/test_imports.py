"""Every name a package module imports is used in that module, every
private module-level name a package module defines is referenced by one,
and the private attributes that inlined copies of a layer read are
accessed only where PRIVATE_ATTRIBUTE_HOMES allows.

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


# Where each private attribute that an inlined copy of a layer reads may
# be accessed, as "module:qualname" prefixes: the TLB's LRU map only in
# Tlb and the simulator's touch loop, a table's words only in
# prealloc.py and the two single-threaded paths that take them inline,
# and the frame allocator's free list and allocated set only in
# FrameAllocator and the one path that takes a frame inline. A new
# inlined copy has to extend this list in plain sight.
PRIVATE_ATTRIBUTE_HOMES = {
    "_map": ("engine.py:Tlb", "sim.py:Simulation"),
    "_w0": ("prealloc.py", "engine.py:MfoeEngine.serve_fault",
            "kernel.py:KernelModel.serial_pass_step"),
    "_w1": ("prealloc.py", "engine.py:MfoeEngine.serve_fault",
            "kernel.py:KernelModel.serial_pass_step"),
    "free_list": ("vm.py:FrameAllocator", "kernel.py:KernelModel.serial_pass_step"),
    "allocated": ("vm.py:FrameAllocator", "kernel.py:KernelModel.serial_pass_step"),
}


def stray_attribute_accesses(sources: dict[str, str],
                             homes: dict[str, tuple[str, ...]]) -> list[tuple[str, int, str]]:
    """(module:qualname, line, attribute) of each access to an attribute
    named in homes from outside every one of its homes. A home is a
    module ("engine.py") or a class or function in one ("engine.py:Tlb"),
    and holds everything nested in it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if ":" in where else f"{where}:{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.Attribute) and child.attr in homes:
                if not any(where == home or where.startswith((home + ".", home + ":"))
                           for home in homes[child.attr]):
                    found.append((where, child.lineno, child.attr))
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_guard_flags_a_stray_private_attribute_access():
    sources = {
        "a.py": "class Tlb:\n    def get(self):\n        return self._map\n"
                "class Engine:\n    def hit(self):\n        return self.tlb._map\n"
                "    def serve(self, t):\n        t._w1[0] = 1\n",
        "b.py": "x = t._w0\ndef f():\n    return y._w1\n",
    }
    homes = {"_map": ("a.py:Tlb",), "_w0": ("b.py",), "_w1": ("b.py:f", "a.py:Engine.serve")}
    assert stray_attribute_accesses(sources, homes) == [("a.py:Engine.hit", 6, "_map")]
    assert stray_attribute_accesses(sources, {"_w1": ("b.py:f",)}) == [
        ("a.py:Engine.serve", 8, "_w1"),
    ]


def test_private_attributes_are_accessed_only_at_home():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = [f"{where} line {line}: {attr}"
             for where, line, attr in stray_attribute_accesses(sources, PRIVATE_ATTRIBUTE_HOMES)]
    assert not found, "accessed outside its homes: " + ", ".join(found)


# The background thread's timing (the refresh interval in cycles or ns,
# the per-page costs and the per-tick budget) is derived once, in
# params.background_timing; no other module converts the refresh
# interval or divides by a throughput.
THROUGHPUTS = ("init_throughput_pages_per_s", "background_throughput_pages_per_s")


def timing_derivations(source: str) -> list[int]:
    """Lines of each checked_int("refresh interval", ...) call and each
    division by a throughput setting."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (func == "checked_int" and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "refresh interval"):
                found.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, (ast.Div, ast.FloorDiv)):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            if getattr(divisor, "id", getattr(divisor, "attr", None)) in THROUGHPUTS:
                found.append(node.lineno)
    return sorted(found)


def test_guard_flags_a_second_timing_derivation():
    source = (
        "a = checked_int('refresh interval', ms * 1e6, 'ns')\n"
        "b = params.checked_int('duration', s * 1e9, 'ns')\n"
        "c = clock / params.init_throughput_pages_per_s\n"
        "d = ns * p.background_throughput_pages_per_s // 10**9\n"
        "e //= background_throughput_pages_per_s\n"
        "f = p.background_throughput_pages_per_s / clock\n"
    )
    assert timing_derivations(source) == [1, 3, 5]


def test_background_timing_is_derived_only_in_params():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert timing_derivations(sources.pop("params.py")), "the guard no longer sees params.py's"
    found = [f"{module}:{line}" for module, source in sources.items()
             for line in timing_derivations(source)]
    assert not found, "timing derived outside params.background_timing: " + ", ".join(found)
