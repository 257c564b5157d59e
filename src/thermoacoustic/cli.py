"""Command-line front end: configuration in, deterministic CSV artifacts out.

Subcommands:
    simulate     full coupled run -> timeseries.csv + snapshot_<k>.csv
    limit-sweep  relaxation ladder -> sweep.csv + per-tau timeseries
    verify       named verification checks -> verify.csv (exit 5 on failure)
    modes        single-mode thermal run vs the telegraph oracle -> modes.csv

Exit codes: 0 success, 2 configuration error, 3 degeneracy abort,
4 fixed-point divergence, 5 verification failure, 6 sound-speed floor
violated, 7 cannot write outputs, 8 non-finite values (step and time on
stderr).  Floats are printed with 17 significant digits so equal runs
produce byte-identical files; negative zero is normalized on output.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .acoustics import Degenerate
from .config import ConfigError, load_config_file
from .coupling import PicardDiverged, SimulationResult, simulate, tau_sweep
from .energy import TIMESERIES_COLUMNS
from .grid import FaceField, NodeField, NonFinite, l2_inner, l2_norm
from .heat import ThermalState, cattaneo_step, fourier_thermal_step, telegraph_mode_oracle
from .model import FloorViolated
from .verification import run_all_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_PICARD = 4
EXIT_VERIFY = 5
EXIT_FLOOR = 6
EXIT_OUTPUT = 7
EXIT_NONFINITE = 8


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value) + 0.0, ".17g")  # +0.0 normalizes -0.0


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def timeseries_csv(result: SimulationResult) -> str:
    return _csv_text(TIMESERIES_COLUMNS, (r.row() for r in result.reports))


def snapshot_csv(snapshot) -> str:
    _, x, p, v, theta, q_left = snapshot
    rows = zip(x, p, v, theta, q_left)
    return _csv_text(("x", "p", "p_t", "theta", "q_at_left_face"), rows)


def _write(path: Path, text: str, quiet: bool) -> None:
    path.write_text(text, encoding="utf-8")
    if not quiet:
        print(f"wrote {path}")


def _cmd_simulate(config, out_dir: Path, quiet: bool) -> int:
    result = simulate(config)
    _write(out_dir / "timeseries.csv", timeseries_csv(result), quiet)
    for k, snap in enumerate(result.snapshots):
        _write(out_dir / f"snapshot_{k}.csv", snapshot_csv(snap), quiet)
    if not quiet:
        print(
            f"simulate: {len(result.reports)} report rows, "
            f"final t={result.final_state.t:.6g}"
        )
    return EXIT_OK


def _tau_dirname(tau: float) -> str:
    return "tau_" + format(tau, "g")


def _cmd_limit_sweep(config, out_dir: Path, quiet: bool, tau_override) -> int:
    taus = tau_override if tau_override is not None else config.sweep_tau_list
    if not taus:
        print("limit-sweep needs sweep.tau_list in the config or --tau", file=sys.stderr)
        return EXIT_CONFIG
    sweep = tau_sweep(config, taus)
    rows = zip(sweep.taus, sweep.e_theta, sweep.e_p, sweep.e_pt)
    _write(out_dir / "sweep.csv", _csv_text(("tau", "e_theta", "e_p", "e_pt"), rows), quiet)
    members = dict(zip(sweep.taus, sweep.members))
    members[0.0] = sweep.reference
    for tau, member in sorted(members.items(), reverse=True):
        member_dir = out_dir / _tau_dirname(tau)
        member_dir.mkdir(parents=True, exist_ok=True)
        _write(member_dir / "timeseries.csv", timeseries_csv(member), quiet)
    return EXIT_OK


def _cmd_verify(config, out_dir: Path, quiet: bool) -> int:
    checks = run_all_checks(seed=config.seed)
    rows = [
        (c.name, int(c.passed), c.measured, c.threshold, c.detail)
        for c in checks
    ]
    lines = [",".join(("check", "passed", "measured", "threshold", "detail"))]
    for name, passed, measured, threshold, detail in rows:
        lines.append(
            f"{name},{passed},{_fmt(measured)},{_fmt(threshold)},{detail}"
        )
    _write(out_dir / "verify.csv", "\n".join(lines) + "\n", quiet)
    failed = [c for c in checks if not c.passed]
    for c in checks if not quiet else failed:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name}: measured={c.measured:.3e} threshold={c.threshold:.3e}")
    if failed:
        print(f"{len(failed)} verification check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_modes(config, out_dir: Path, quiet: bool) -> int:
    from .config import make_grid

    grid = make_grid(config)
    params = config.params
    amplitude = config.initial_data.amplitude_theta or 1.0
    mode_k = config.initial_data.mode_k
    x = grid.nodes()
    shape = NodeField(grid, np.sin(mode_k * np.pi * x / grid.L))
    theta0 = NodeField(grid, amplitude * shape.values)
    q0 = FaceField(grid, np.zeros(grid.N + 1))
    state = ThermalState.initial(theta0, q0)
    zero_f = NodeField(grid, np.zeros(grid.N))

    lam = grid.laplacian_eigenvalue(mode_k)
    shape_sq = l2_norm(shape) ** 2
    T0 = l2_inner(theta0, shape) / shape_sq
    T0dot = -params.ell * T0 / params.m  # first equation at t=0 with q0 = 0, f = 0

    dt = config.time.dt
    n_steps = int(round(config.time.T / dt))
    stride = config.time.output_stride
    rows = [(0.0, T0, T0, 0.0)]
    for n in range(1, n_steps + 1):
        if params.tau == 0.0:
            state = fourier_thermal_step(state, zero_f, dt, params)
        else:
            state = cattaneo_step(state, zero_f, dt, params)
        if n % stride == 0 or n == n_steps:
            numeric = l2_inner(state.theta, shape) / shape_sq
            oracle = telegraph_mode_oracle(params, lam, T0, T0dot, state.t)
            rows.append((state.t, numeric, oracle, abs(numeric - oracle)))
    _write(out_dir / "modes.csv", _csv_text(("t", "numeric", "oracle", "abs_err"), rows), quiet)
    if not quiet:
        worst = max(r[3] for r in rows)
        print(f"modes: max |numeric - oracle| = {worst:.3e}")
    return EXIT_OK


def _parse_tau_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty tau list")
    bad = [v for v in values if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise argparse.ArgumentTypeError(f"tau values must be finite and positive, got {bad}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoacoustic",
        description="1D coupled thermo-acoustic simulator with energy diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run the coupled system and emit timeseries/snapshots"),
        ("limit-sweep", "run the relaxation ladder against the Fourier reference"),
        ("verify", "run the verification suites and emit verify.csv"),
        ("modes", "single-mode thermal run against the telegraph oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "limit-sweep":
            p.add_argument(
                "--tau", type=_parse_tau_list, default=None,
                help="comma-separated override of sweep.tau_list",
            )
    args = parser.parse_args(argv)

    try:
        config = load_config_file(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(config, out_dir, args.quiet)
        if args.command == "limit-sweep":
            return _cmd_limit_sweep(config, out_dir, args.quiet, args.tau)
        if args.command == "verify":
            return _cmd_verify(config, out_dir, args.quiet)
        return _cmd_modes(config, out_dir, args.quiet)
    except Degenerate as exc:
        print(f"degeneracy abort: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PicardDiverged as exc:
        print(f"fixed-point divergence: {exc}", file=sys.stderr)
        return EXIT_PICARD
    except FloorViolated as exc:
        print(f"sound-speed floor violated: {exc}", file=sys.stderr)
        return EXIT_FLOOR
    except NonFinite as exc:
        print(f"non-finite values: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except OSError as exc:  # creating the output directory or writing a file
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
