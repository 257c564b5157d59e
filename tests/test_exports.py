"""Every exported name resolves, so ``import *`` cannot break on a pruned
name, every imported name is used, and no function imports a module."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = (
    "thermoacoustic",
    "thermoacoustic.acoustics",
    "thermoacoustic.cli",
    "thermoacoustic.config",
    "thermoacoustic.coupling",
    "thermoacoustic.energy",
    "thermoacoustic.grid",
    "thermoacoustic.heat",
    "thermoacoustic.model",
    "thermoacoustic.verification",
)
SRC = Path(importlib.import_module("thermoacoustic").__file__).parent


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert [name for name in exported if name not in namespace] == []


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


_DEFERRED = "deferred for perfbench/probes.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    # An import inside a function hides a dependency, an import cycle
    # included.  The exception is an import deferred so that the benchmark's
    # wrappers on the imported module apply, marked on its line.
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    inner = {
        node.lineno
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _DEFERRED not in lines[node.lineno - 1]
    }
    assert sorted(inner) == []
