"""The benchmark workloads: inputs made from a seed, one pass each, and the
checks every pass's outputs must meet.

Each workload is a closed loop: the runner starts the next pass only after
the previous one has returned.  A pass is one user-level run: a CLI command
through ``cli.main`` or the manufactured-solution order study.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# Shaped like configs/canonical.json; kept here so that edits to the repo's
# configs do not change the benchmark's inputs.
CANONICAL = {
    "grid": {"L": 1.0, "N": 128},
    "params": {
        "rho_a": 1.0, "C_a": 1.0, "rho_b": 1.0, "C_b": 1.0, "W": 1.0,
        "kappa_a": 1.0, "b": 1.0, "rho": 1.0, "beta_acous": 1.0,
        "theta_a": 0.0, "tau": 0.05,
    },
    "speed_model": {"coeffs": [1.0], "h_floor": 1.0},
    "initial_data": {
        "preset": "sine", "amplitude_p": 0.05, "amplitude_theta": 0.5, "mode_k": 1,
    },
    "time": {"T": 1.0, "dt": 0.001, "output_stride": 10, "snapshot_times": []},
    "picard": {"tol": 1e-10, "max_iter": 25, "gamma_bar": 0.5},
    "sweep": {"tau_list": [0.1, 0.05, 0.025, 0.0125]},
    "seed": 0,
}

# Shaped like configs/lensing.json: h = 1 + 0.2 theta.
LENSING = copy.deepcopy(CANONICAL)
LENSING["speed_model"] = {"coeffs": [1.0, 0.2], "h_floor": 0.5}
del LENSING["time"]["snapshot_times"]
del LENSING["seed"]

# The b = 2 spatial study (dt = 1e-5, T = 0.1) and the b = 1 temporal study
# (N = 256, T = 1) of the manufactured solution, as (N, dt, T, b).  The
# b = 1 spatial study is red by construction and stays out.
WAVE_SPATIAL = tuple((n, 1e-5, 0.1, 2.0) for n in (32, 64, 128))
WAVE_TEMPORAL = tuple((256, dt, 1.0, 1.0) for dt in (4e-3, 2e-3, 1e-3))

WORKLOADS = ("canonical", "lensing_sweep", "wave_manufactured", "dense_diagnostics")
LAYERS = ("config", "grid", "model", "acoustics", "heat", "coupling", "energy", "cli", "verification")

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))


class CheckFailed(Exception):
    """A pass's outputs are not what the program must produce."""


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    config: dict | None  # None for wave_manufactured
    cases: tuple = ()  # wave_manufactured only: (N, dt, T, b) in run order

    @property
    def command(self) -> str:
        return "limit-sweep" if self.workload == "lensing_sweep" else "simulate"


def import_package(src: Path) -> SimpleNamespace:
    """Import the package modules from ``src``, and from nowhere else."""
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"thermoacoustic.{name}") for name in LAYERS}
    home = Path(modules["cli"].__file__).resolve().parent
    if home != (src / "thermoacoustic").resolve():
        raise ImportError(f"thermoacoustic was imported from {home}, not from {src}")
    return SimpleNamespace(**modules)


def step_function(pkg, inputs: "Inputs") -> tuple[object, str]:
    """(module, name) of the function one step of this workload calls."""
    if inputs.config is None:
        return pkg.verification, "westervelt_linear_step"
    return pkg.coupling, "coupled_step"


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of one workload; seed 0 is the shaped-after config exactly.

    Other seeds draw the initial amplitudes within +-10 % of it.  The
    manufactured study has fixed inputs; its seed only orders the cases.
    """
    rng = random.Random(seed)
    if workload == "wave_manufactured":
        cases = list(WAVE_SPATIAL + WAVE_TEMPORAL)
        if seed:
            rng.shuffle(cases)
        return Inputs(workload, seed, None, tuple(cases))
    if workload == "canonical":
        config = copy.deepcopy(CANONICAL)
    elif workload in ("lensing_sweep", "dense_diagnostics"):
        config = copy.deepcopy(LENSING)
        if workload == "dense_diagnostics":
            config["time"]["output_stride"] = 1
            config["time"]["snapshot_times"] = [k / 20 for k in range(21)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        init = config["initial_data"]
        init["amplitude_p"] *= rng.uniform(0.9, 1.1)
        init["amplitude_theta"] *= rng.uniform(0.9, 1.1)
    return Inputs(workload, seed, config)


def shortened(inputs: Inputs) -> Inputs:
    """A few-step version of the same workload, for the untimed warm-up."""
    if inputs.config is None:
        return Inputs(inputs.workload, inputs.seed, None, ((32, 1e-3, 0.01, 2.0),))
    config = copy.deepcopy(inputs.config)
    config["time"].update(T=0.02, output_stride=1)
    config["time"].pop("snapshot_times", None)
    return Inputs(inputs.workload, inputs.seed, config)


def write_config(inputs: Inputs, path: Path) -> None:
    path.write_text(json.dumps(inputs.config, indent=2) + "\n", encoding="utf-8")


def run_pass(pkg, inputs: Inputs, config_path: Path, out_dir: Path):
    """One pass; returns the CLI exit code or the manufactured errors."""
    if inputs.config is None:
        study = pkg.verification.manufactured_error.__wrapped__  # bypass lru_cache
        return tuple(study(*case) for case in inputs.cases)
    return pkg.cli.main(
        [inputs.command, "--config", str(config_path), "--out", str(out_dir), "--quiet"]
    )


def _digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(sorted(files.items())).encode()).hexdigest()


def _read_csv(path: Path) -> list[dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _orders(errors) -> list[float]:
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def check_pass(inputs: Inputs, out_dir: Path, result) -> str:
    """Raise CheckFailed unless the outputs are right; return their fingerprint.

    The fingerprint must match across the passes of one run; at seed 0 it
    must also match the one recorded from the plain CLI in expected.json.
    """
    if inputs.config is None:
        return _check_wave(inputs, result)
    if result != 0:
        raise CheckFailed(f"exit code {result}")
    files = {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*.csv"))
    }
    expected = EXPECTED[inputs.workload]
    if len(files) != expected["files"]:
        raise CheckFailed(f"{len(files)} CSV files, expected {expected['files']}")
    if inputs.workload == "lensing_sweep":
        _check_ladder(_read_csv(out_dir / "sweep.csv"))
    else:
        _check_timeseries(inputs, _read_csv(out_dir / "timeseries.csv"), expected["rows"])
    digest = _digest(files)
    if inputs.seed == 0 and digest != expected["seed0_digest"]:
        raise CheckFailed("outputs differ from those recorded from the plain CLI")
    return digest


def _check_timeseries(inputs: Inputs, rows, expected_rows: int) -> None:
    """Output times on the stride grid, finite values, and the small-data
    regime every seed stays in: alpha_min >= 1 - gamma_bar, <= 5 Picard
    iterations per step."""
    if len(rows) != expected_rows:
        raise CheckFailed(f"{len(rows)} timeseries rows, expected {expected_rows}")
    time_cfg = inputs.config["time"]
    every = time_cfg["dt"] * time_cfg["output_stride"]
    for k, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row.values()):
            raise CheckFailed(f"non-finite value in timeseries row {k}")
        if not math.isclose(row["t"], k * every, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"timeseries row {k} at t={row['t']!r}, expected {k * every!r}")
    floor = 1.0 - inputs.config["picard"]["gamma_bar"]
    if min(row["alpha_min"] for row in rows) < floor:
        raise CheckFailed(f"alpha_min fell below {floor}")
    if max(row["picard_iters"] for row in rows) > 5:
        raise CheckFailed("a step needed more than 5 Picard iterations")


def _check_ladder(rows) -> None:
    """e_theta and e_p fall strictly with tau, by a ratio of at least 1.5."""
    for column in ("e_theta", "e_p"):
        errors = [row[column] for row in rows]
        if not all(e > 0.0 for e in errors):
            raise CheckFailed(f"{column} ladder {errors} has a zero entry")
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        if not all(r >= 1.5 for r in ratios):
            raise CheckFailed(f"{column} ladder ratios {ratios} not all >= 1.5")


def _check_wave(inputs: Inputs, errors) -> str:
    by_case = dict(zip(inputs.cases, errors))
    spatial = _orders([by_case[c] for c in WAVE_SPATIAL])
    temporal = _orders([by_case[c] for c in WAVE_TEMPORAL])
    if not all(o >= 1.9 for o in spatial):
        raise CheckFailed(f"b = 2 spatial orders {spatial} not all >= 1.9")
    if not all(abs(o - 1.0) <= 0.1 for o in temporal):
        raise CheckFailed(f"temporal orders {temporal} not within 0.1 of 1")
    recorded = EXPECTED["wave_manufactured"]["errors"]
    for case, value in zip(WAVE_SPATIAL + WAVE_TEMPORAL, recorded):
        if not math.isclose(by_case[case], value, rel_tol=1e-9, abs_tol=0.0):
            raise CheckFailed(f"manufactured error {by_case[case]!r} at {case}, recorded {value!r}")
    return repr(sorted(by_case.items()))
