"""Every exported name resolves, so ``import *`` cannot break on a pruned
name, each library module's ``__all__`` is its public API and the package
re-publishes exactly those, every imported and every private name is used,
no function imports a module, and no line of the package or its tests is
longer than 100 characters."""

import ast
import importlib
from collections import Counter
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


def _definitions(tree):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _public_definitions(module) -> set:
    """Names of the module's top-level functions, classes and assignments
    that do not start with an underscore."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {name for name, _ in _definitions(tree) if not name.startswith("_")}


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


def _references(node) -> Counter:
    """How often each name is read in node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
                   or isinstance(n, ast.Attribute))


def test_every_private_name_is_used():
    # A module-level private function, class or constant that nothing in the
    # package reads, besides its own definition, is dead code left by a
    # refactor.  Names are matched by spelling, attributes included.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name, node in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and reads[name] == _references(node)[name]]
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


def test_array_addresses_are_taken_in_one_helper():
    # Reading numpy's ndarray.ctypes costs about 1 us, as much as the rest of
    # a one-shot solve's set-up, so the package takes an array's address in
    # grid._address alone, which does without it: no other code reads an
    # attribute named ctypes or calls ctypes.addressof.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef) and function.name == "_address"
                  for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("ctypes", "addressof")
                  and id(node) not in helper]
    assert found == []


def test_lapack_is_called_in_one_class():
    # grid._Tridiagonal states once the buffer layout, the pointers and the
    # checks that make LAPACK's result the loop's, so a new solver reuses it:
    # no code outside its methods calls _GTSV, _GTTRF or _GTTRS.
    routines = {"_GTSV", "_GTTRF", "_GTTRS"}
    inside, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "_Tridiagonal"
                   for method in cls.body if isinstance(method, ast.FunctionDef)
                   for node in ast.walk(method)}
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            if name in routines and id(node) in methods:
                inside.add(name)
            elif name in routines:
                outside.append(f"{path.name}:{node.lineno}")
    assert inside == routines
    assert outside == []


MAX_LINE = 100
TESTS = Path(__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_line_longer_than_100_characters(path):
    # No linter is a dependency, so this is the one line-length check.
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == []
