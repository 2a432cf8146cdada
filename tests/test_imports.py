"""Every name a package module imports is used in that module, every
private module-level name a package module defines is referenced by one,
and the private attributes that inlined copies of a layer read are
accessed only where PRIVATE_ATTRIBUTE_HOMES allows.

__init__.py is skipped by the import check: its imports are the
package's exports.
"""
import ast
from pathlib import Path
from typing import Iterator

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


def scoped_nodes(sources: dict[str, str]) -> Iterator[tuple[str, ast.AST]]:
    """(module:qualname, node) for every node of every module, in source
    order: the innermost class or function around the node, or the
    module alone ("engine.py") at top level. A class or function's own
    node is in the scope around it."""

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            yield where, child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if ":" in where else f"{where}:{child.name}"
                yield from visit(child, inner)
            else:
                yield from visit(child, where)

    for module, source in sources.items():
        yield from visit(ast.parse(source), module)


def stray_attribute_accesses(sources: dict[str, str],
                             homes: dict[str, tuple[str, ...]]) -> list[tuple[str, int, str]]:
    """(module:qualname, line, attribute) of each access to an attribute
    named in homes from outside every one of its homes. A home is a
    module ("engine.py") or a class or function in one ("engine.py:Tlb"),
    and holds everything nested in it."""
    return [
        (where, node.lineno, node.attr) for where, node in scoped_nodes(sources)
        if isinstance(node, ast.Attribute) and node.attr in homes
        and not any(where == home or where.startswith((home + ".", home + ":"))
                    for home in homes[node.attr])
    ]


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


# faults.csv and timeline.csv are written by one coded-log class, and
# every JSON report by one method: the only CodeLabels(...) call is in
# trace.CodedLog.csv_blocks, and the only def to_json is on
# trace.JsonReport. A second copy has to change this map in plain sight.
SINGLE_HOMES = {"CodeLabels(": "trace.py:CodedLog.csv_blocks", "def to_json": "trace.py:JsonReport"}


def single_home_sites(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module:qualname, line, site) of each site SINGLE_HOMES names: a
    call of CodeLabels, by name or as an attribute, is "CodeLabels(", and
    a definition of a function named to_json is "def to_json"."""
    found = []
    for where, node in scoped_nodes(sources):
        if isinstance(node, ast.Call):
            site = f"{getattr(node.func, 'id', getattr(node.func, 'attr', None))}("
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            site = f"def {node.name}"
        else:
            continue
        if site in SINGLE_HOMES:
            found.append((where, node.lineno, site))
    return found


def test_guard_flags_a_second_coded_log_or_json_rule():
    sources = {
        "trace.py": "class CodedLog:\n    def csv_blocks(self):\n        return CodeLabels(N)\n"
                    "class JsonReport:\n    def to_json(self):\n        return dumps(self)\n",
        "sim.py": "class Log:\n    def csv_blocks(self):\n        return trace.CodeLabels(N)\n"
                  "class Report:\n    def to_json(self):\n        return self.doc.to_json()\n",
    }
    assert single_home_sites(sources) == [
        ("trace.py:CodedLog.csv_blocks", 3, "CodeLabels("), ("trace.py:JsonReport", 5, "def to_json"),
        ("sim.py:Log.csv_blocks", 3, "CodeLabels("), ("sim.py:Report", 5, "def to_json"),
    ]


def test_coded_logs_and_json_reports_have_one_home_each():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = sorted((site, where) for where, _, site in single_home_sites(sources))
    assert found == sorted(SINGLE_HOMES.items()), f"expected one site each, at home: {found}"


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


# The background thread's timing, the replay's constants and synthesize's
# spacing are each setting as configured, rounded: a setting that rounds
# below one unit is refused, never clamped up to a bound. A clamp is a
# max or min call with a number among its arguments; synthesize's
# max(latency mean, default p95), a default that follows the mean, is not
# one.
UNCLAMPED = {"params.py": ("background_timing",), "trace.py": ("model_constants", "synthesize")}


def clamps(source: str, functions: tuple[str, ...]) -> list[tuple[str, int]]:
    """(function, line) of each max or min call with a number argument
    inside the named module-level functions."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found += [
                (node.name, call.lineno) for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("max", "min")
                and any(isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float))
                        for arg in call.args)
            ]
    return found


def test_guard_flags_a_clamp():
    source = (
        "def timing(ms):\n"
        "    a = max(1, round(ms * 1e6))\n"
        "    b = min(round(ms), 2.5), max(ms, default)\n"
        "    return [max(0, x) for x in (a, b)]\n"
        "def other(x):\n"
        "    return max(1, x)\n"
    )
    assert clamps(source, ("timing",)) == [("timing", 2), ("timing", 3), ("timing", 4)]


def test_timing_settings_are_never_clamped():
    found = [f"{module}:{function} line {line}" for module, functions in UNCLAMPED.items()
             for function, line in clamps((PACKAGE_DIR / module).read_text(encoding="utf-8"),
                                          functions)]
    assert not found, "a setting clamped to a bound: " + ", ".join(found)
