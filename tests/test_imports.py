"""Every name a library module imports is used in it, and every private
function, method or class of the package is read somewhere in it.

No linter runs on this code, so these stdlib checks stand in for the
unused-import and dead-code rules.  The package's __init__ is exempt from
the first: it imports names to re-export them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import qtoric

PACKAGE = sorted(Path(qtoric.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source):
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = "import itertools\nimport os.path\nfrom math import gcd, lcm as l\nprint(gcd)\n"
    assert unused_imports(source) == [(1, "itertools"), (2, "os"), (3, "l")]


def unread_private_definitions(sources):
    """(module, line, name) of each function, method or class whose name
    starts with one underscore and that no expression in any of the sources
    {module: source} reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read)


def test_no_unread_private_definitions():
    assert unread_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_unread_private_definitions_are_found():
    source = ("def _called():\n    pass\n"
              "def _unread():\n    pass\n"
              "class _Kept:\n"
              "    def _method(self):\n        _called()\n"
              "    def _unread_method(self):\n        return self._method\n"
              "    def __init__(self):\n        self._unread = 1\n"
              "x = _Kept\n")
    assert unread_private_definitions({"m.py": source}) == [
        ("m.py", 3, "_unread"), ("m.py", 8, "_unread_method")]


def test_import_loads_no_dataclasses_or_inspect():
    """The package's records are plain classes: a fresh interpreter without
    site imports qtoric and its CLI without dataclasses and, through it,
    inspect, dis, ast and tokenize."""
    source = ("import sys; sys.path.insert(0, %r); import qtoric, qtoric.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
              % str(Path(qtoric.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", source], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
