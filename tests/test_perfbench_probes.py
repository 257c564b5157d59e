"""The benchmark's probes must find every name they wrap.

perfbench/probes.py replaces module globals and class attributes of the
package by name; a rename or removal inside the package would break
``--trace 1`` runs only.  This loads the benchmark's modules as they are
and installs, then removes, the tracer.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_probed_name_resolves_and_is_restored():
    probes, workloads = _load("probes"), _load("workloads")
    pkg = workloads.import_package(ROOT / "src")
    patches = probes.Patches()
    probes.install_tracer(probes.Tracer(), patches, pkg)
    originals = list(patches._saved)
    assert len(originals) == 24
    patches.restore()
    for owner, attr, value in originals:
        assert getattr(owner, attr) is value, f"{owner.__name__}.{attr} not restored"
    for workload in workloads.WORKLOADS:
        module, name = workloads.step_function(pkg, workloads.make_inputs(workload, 0))
        assert callable(getattr(module, name))
