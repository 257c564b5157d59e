"""Every exported name resolves, so ``import *`` cannot break on a pruned name."""

import importlib

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


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert [name for name in exported if name not in namespace] == []
