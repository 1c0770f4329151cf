"""Source hygiene checks.  They read the package source with the standard
library; only the option check also builds the real parser."""

import argparse
import ast
import re
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


def assert_statements(source: str) -> list[int]:
    """Lines of `assert` statements, which vanish under `python -O`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_statement_is_detected():
    src = ("def f(x):\n"
           "    assert x, 'message'\n"
           "    if not x:\n"
           "        raise ValueError('assert in a string is fine')\n"
           "    assert (x\n"
           "            > 0)\n")
    assert assert_statements(src) == [2, 5]


def test_no_assert_statements_in_package():
    found = {p.name: assert_statements(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert found
    assert {name: lines for name, lines in found.items() if lines} == {}


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions with a single leading underscore that no
    module among `sources` (name -> source) refers to by name or as an
    attribute."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(node.name, module, node.lineno) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{name} ({module} line {line})"
                  for name, module, line in defined if name not in used)


def test_unused_private_function_is_detected():
    sources = {
        "a.py": ("def _called():\n    return 1\n"
                 "def _dead():\n    return 2\n"
                 "def __dunder__():\n    return 3\n"
                 "class C:\n    def _method(self):\n        return 4\n"
                 "def f():\n    return _called()\n"),
        "b.py": "import a\ndef _via_attribute():\n    return a._rank\n"
                "def _rank(v):\n    return len(v)\n"
                "x = a._via_attribute\n",
    }
    assert unused_private_functions(sources) == ["_dead (a.py line 3)"]


def test_no_unused_private_functions_in_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sources
    assert unused_private_functions(sources) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that a module imports from the package, by a
    relative or an absolute `from ... import`."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "gtrscodes")
        for alias in node.names if alias.name.startswith("_"))


def test_private_import_is_detected():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .field import GaloisField, _poly_mul\n"
           "from gtrscodes.selfdual import _build as build\n"
           "def f():\n"
           "    from . import _private\n"
           "    return GaloisField.__init__\n")
    assert private_imports(src) == ["_build (line 4)", "_poly_mul (line 3)",
                                    "_private (line 6)"]


def test_no_private_imports_between_package_modules():
    found = {p.name: private_imports(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert found
    assert {name: names for name, names in found.items() if names} == {}


def declared_options(source: str) -> list[tuple[str, str, int]]:
    """(name, dest, line) of each `add_argument` call in `build_parser`,
    nested definitions included."""
    tree = ast.parse(source)
    parser = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "build_parser")
    declared = []
    for node in ast.walk(parser):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            name = node.args[0].value
            dest = next((kw.value.value for kw in node.keywords
                         if kw.arg == "dest"),
                        name.lstrip("-").replace("-", "_"))
            declared.append((name, dest, node.lineno))
    return declared


def unread_options(source: str) -> list[str]:
    """Arguments that `build_parser` declares with `add_argument` but whose
    dest the module never reads as `args.<dest>`."""
    read = {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return sorted(f"{name} (line {line})"
                  for name, dest, line in declared_options(source)
                  if dest not in read)


def test_unread_option_is_detected():
    src = ("def build_parser():\n"
           "    p.add_argument('file')\n"
           "    p.add_argument('--class', dest='cls')\n"
           "    p.add_argument('--eta-index', type=int)\n"
           "    p.add_argument('--auto', action='store_true')\n"
           "    p.add_argument('--out')\n"
           "def cmd(args, opts):\n"
           "    return args.file, args.cls, args.eta_index, opts.auto, 'args.out'\n")
    assert unread_options(src) == ["--auto (line 5)", "--out (line 6)"]


def test_every_cli_option_is_read():
    source = (SRC / "cli.py").read_text()
    assert unread_options(source) == []
    # the scan must see every option the parser declares at run time, or a
    # declaration moved out of build_parser would pass unread
    from gtrscodes.cli import build_parser
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    runtime = sorted(action.dest for sub in commands.values()
                     for action in sub._actions
                     if not isinstance(action, argparse._HelpAction))
    assert (len(commands), len(runtime)) == (6, 21)
    assert sorted(dest for _, dest, _ in declared_options(source)) == runtime


def unread_public_names(defining: dict[str, str],
                        readers: dict[str, str]) -> list[str]:
    """Public functions, classes and methods defined in `defining` (name ->
    source) whose name appears in no source of `readers` except on a def or
    class line of that name.  Matching is by word, so a string or a comment
    counts as a reader.  An `__init__.py` does not: its imports and
    `__all__` name every export, read or not."""
    defined = []
    for module, source in defining.items():
        defined += [(node.name, module, node.lineno)
                    for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and not node.name.startswith("_")]
    def_lines = {(module, line) for _, module, line in defined}
    read = set()
    for module, source in readers.items():
        if module.endswith("__init__.py"):
            continue
        for line, text in enumerate(source.splitlines(), 1):
            words = set(re.findall(r"\w+", text))
            if (module, line) in def_lines:
                words -= {name for name, m, n in defined
                          if (m, n) == (module, line)}
            read |= words
    return sorted(f"{name} ({module} line {line})"
                  for name, module, line in defined if name not in read)


def test_unread_public_name_is_detected():
    lib = ("class Matrix:\n"
           "    def rank(self):\n        return 0\n"
           "    def orphan(self, c):\n        return self\n"
           "    def _private(self):\n        return 1\n"
           "def exported():\n    return Matrix().rank()\n"
           "def twin():\n    return 2\n")
    other = "def twin():\n    return 3\n"
    init = ("from .lib import Matrix, exported, twin\n"
            "__all__ = ['Matrix', 'exported', 'twin']\n")
    readers = {"lib.py": lib, "other.py": other, "pkg/__init__.py": init,
               "test_lib.py": "from pkg import exported\nexported()\n"}
    found = unread_public_names({"lib.py": lib, "other.py": other}, readers)
    assert found == ["orphan (lib.py line 4)", "twin (lib.py line 10)",
                     "twin (other.py line 1)"]
    # a name that only the export list names has no reader
    del readers["test_lib.py"]
    found = unread_public_names({"lib.py": lib, "other.py": other}, readers)
    assert found == ["exported (lib.py line 8)", "orphan (lib.py line 4)",
                     "twin (lib.py line 10)", "twin (other.py line 1)"]


def test_every_public_name_has_a_reader():
    root = SRC.parent.parent
    readers = {str(p.relative_to(root)): p.read_text()
               for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))}
    defining = {name: source for name, source in readers.items()
                if name.startswith("src/gtrscodes/")}
    assert defining
    assert unread_public_names(defining, readers) == []


CACHE_NAMES = {"cache", "lru_cache", "cached_property"}
MUTATING_METHODS = {"append", "add", "update", "setdefault", "extend",
                    "insert", "pop", "popitem", "clear", "remove", "discard"}


def module_state_writes(source: str) -> list[str]:
    """State kept across calls: a function that stores into or deletes from
    a subscript of a module-level name, calls a mutating method on one or
    declares a name `global`, and any functools cache, as a decorator, an
    import or an attribute."""
    tree = ast.parse(source)
    module_names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        module_names |= {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in func.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(dec, "id", getattr(dec, "attr", None))
            if name in CACHE_NAMES:
                found.add(f"@{name} (line {dec.lineno})")
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found |= {f"global {name} (line {node.lineno})"
                          for name in node.names}
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))):
                target = node.value
                if (isinstance(target, ast.Name) and target.id in module_names
                        and target.id not in local):
                    found.add(f"{target.id}[...] (line {node.lineno})")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATING_METHODS):
                target = node.func.value
                if (isinstance(target, ast.Name) and target.id in module_names
                        and target.id not in local):
                    found.add(f"{target.id}.{node.func.attr} "
                              f"(line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "functools"):
            found |= {f"functools.{a.name} (line {node.lineno})"
                      for a in node.names if a.name in CACHE_NAMES}
        elif (isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.add(f"functools.{node.attr} (line {node.lineno})")
    return sorted(found)


def test_module_state_write_is_detected():
    src = ("import functools\n"
           "from functools import cache, reduce\n"
           "MEMO = {}\n"
           "SEEN: set = set()\n"
           "ROWS = LOG = []\n"
           "def f(key, ROWS):\n"
           "    MEMO[key] = 1\n"
           "    SEEN.add(key)\n"
           "    ROWS.append(key)\n"
           "    LOG.extend([key])\n"
           "    del MEMO[key]\n"
           "    return MEMO.get(key), reduce\n"
           "def g():\n"
           "    global COUNT\n"
           "    SEEN = set()\n"
           "    SEEN.add(1)\n"
           "    return [LOG[0]]\n"
           "@functools.lru_cache(maxsize=None)\n"
           "def h(x):\n"
           "    return functools.cache\n")
    assert module_state_writes(src) == [
        "@lru_cache (line 18)", "LOG.extend (line 10)", "MEMO[...] (line 11)",
        "MEMO[...] (line 7)", "SEEN.add (line 8)",
        "functools.cache (line 2)", "functools.cache (line 20)",
        "functools.lru_cache (line 18)", "global COUNT (line 14)"]
    # a mutated copy of the sweep that keeps its x-subset data and zeta
    # roots across calls fails the check; the x-subset step is found by
    # AST, wherever its line sits in `sweep_constructions`
    source = (SRC / "selfdual.py").read_text()
    sweep = next(node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "sweep_constructions")
    [step] = [node for node in ast.walk(sweep)
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["x_data"]
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_x_data"]
    key = ", ".join(ast.get_source_segment(source, arg)
                    for arg in step.value.args)
    lines = source.splitlines(keepends=True)
    lines[step.lineno - 1:step.end_lineno] = [
        f"{' ' * step.col_offset}x_data = _X_DATA.setdefault(({key}), "
        f"{ast.get_source_segment(source, step.value)})\n"]
    source = "".join(lines)
    for old, new in (
            ("class ConstructionError",
             "_X_DATA = {}\n\n\nclass ConstructionError"),
            ("def zeta_roots(", "@functools.cache\ndef zeta_roots(")):
        assert old in source
        source = source.replace(old, new)
    assert [f.split(" (")[0] for f in module_state_writes(source)] == [
        "@cache", "_X_DATA.setdefault", "functools.cache"]


def test_no_module_state_writes_in_package():
    found = {p.name: module_state_writes(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert found
    assert {name: writes for name, writes in found.items() if writes} == {}


def test_every_export_is_named_in_the_readme():
    tree = ast.parse((SRC / "__init__.py").read_text())
    [exports] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["__all__"]]
    readme = (SRC.parent.parent / "README.md").read_text()
    assert exports
    assert sorted(set(exports) - set(re.findall(r"\w+", readme))) == []
