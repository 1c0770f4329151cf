"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gtrscodes"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.
    String annotations count as reads; `from __future__` imports do not
    bind names."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value))
                        if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_detected():
    src = ("from __future__ import annotations\n"
           "import os, numpy as np\n"
           "from .field import FieldError, GaloisField\n"
           "def f(x: 'GaloisField'):\n"
           "    return os.sep, 'FieldError'\n")
    assert unused_imports(src) == ["FieldError (line 3)", "np (line 2)"]


def test_no_unused_imports_in_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
