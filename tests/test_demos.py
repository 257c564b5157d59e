"""Smoke test of the demo scripts: each runs to completion in-process.

Demos 05 and 06 call the cached studies of the acceptance suite with the
same arguments, so in one pytest run they reuse its runs.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = (
    "01_operator_exactness",
    "02_single_mode_relaxation",
    "03_energy_decay",
    "04_coupled_small_data",
    "05_relaxation_limit",
    "06_manufactured_orders",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
