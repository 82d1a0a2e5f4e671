"""Every name a library module imports is used in it.

No linter runs on this code, so this stdlib check stands in for the
unused-import rule.  The package's __init__ is exempt: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import qtoric

MODULES = sorted(p for p in Path(qtoric.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
