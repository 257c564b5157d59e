"""Every exported name resolves, so ``import *`` cannot break on a pruned
name, each library module's ``__all__`` is its public API and the package
re-publishes exactly those, every imported name is used, no function imports
a module, and no line of the package or its tests is longer than 100
characters."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(importlib.import_module("thermoacoustic").__file__).parent
MODULES = ("thermoacoustic",) + tuple(
    f"thermoacoustic.{path.stem}" for path in sorted(SRC.glob("*.py"))
    if path.stem not in ("__init__", "__main__"))
# the application layers; the package re-publishes the __all__ of every other module
APPLICATIONS = ("thermoacoustic.cli", "thermoacoustic.verification")
LIBRARY = [name for name in MODULES[1:] if name not in APPLICATIONS]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert [name for name in exported if name not in namespace] == []


def _public_definitions(module) -> set:
    """Names of the module's top-level functions, classes and assignments
    that do not start with an underscore."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_package_republishes_each_library_all():
    # Each library module's __all__ is the one list of its public names: it
    # holds exactly what the module defines in public, no name is in two
    # lists, and the package exports their union and nothing else.
    lists = {name: importlib.import_module(name).__all__ for name in LIBRARY}
    for name, exported in lists.items():
        assert set(exported) == _public_definitions(importlib.import_module(name)), name
    union = [n for exported in lists.values() for n in exported]
    assert sorted(n for n in set(union) if union.count(n) > 1) == []
    package = importlib.import_module("thermoacoustic")
    public = {n for n, v in vars(package).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(union)


_PROBED = "perfbench/probes.py wraps it"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_import_is_used_or_exported(module_name):
    # A name imported but never read is dead code left by a refactor.  The
    # exceptions are the package's own imports, which exist to be exported,
    # and a name imported only so that the benchmark's tracer can wrap it,
    # marked on its import line.  An __all__ entry is not a read elsewhere.
    module = importlib.import_module(module_name)
    source = Path(module.__file__).read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = lines[alias.lineno - 1]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if module_name == "thermoacoustic":  # it has no __all__: every public name is exported
        used.update(n for n in imported if not n.startswith("_"))
    dead = [name for name, line in imported.items() if name not in used and _PROBED not in line]
    assert dead == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    # An import inside a function hides a dependency, an import cycle included.
    source = path.read_text(encoding="utf-8")
    inner = {
        node.lineno
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert sorted(inner) == []


MAX_LINE = 100
TESTS = Path(__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_line_longer_than_100_characters(path):
    # No linter is a dependency, so this is the one line-length check.
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == []
