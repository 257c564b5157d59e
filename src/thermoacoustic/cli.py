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
from .config import ConfigError, ValidationError, _ladder_problem, load_config_file, make_grid
from .coupling import PicardDiverged, SimulationResult, simulate, tau_sweep
from .energy import TIMESERIES_COLUMNS
from .grid import NodeField, NonFinite, l2_inner, l2_norm
from .model import FloorViolated
from .verification import mode_run, run_all_checks

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
    if isinstance(value, str):
        return value
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


def _cmd_simulate(config, args) -> int:
    result = simulate(config)
    _write(args.out / "timeseries.csv", timeseries_csv(result), args.quiet)
    for k, snap in enumerate(result.snapshots):
        _write(args.out / f"snapshot_{k}.csv", snapshot_csv(snap), args.quiet)
    if not args.quiet:
        print(
            f"simulate: {len(result.reports)} report rows, "
            f"final t={result.final_state.t:.6g}"
        )
    return EXIT_OK


def _tau_dirname(tau: float) -> str:
    """tau_<%g>, or tau_<repr> where %g does not read back as tau."""
    name = format(tau, "g")
    return "tau_" + (name if float(name) == tau else repr(tau))


def _cmd_limit_sweep(config, args) -> int:
    taus = config.sweep_tau_list  # load_config checked it
    if args.tau is not None:
        try:
            taus = tuple(float(part) for part in args.tau.split(",") if part.strip())
        except ValueError:
            raise ValidationError("--tau", f"not a comma-separated float list: {args.tau!r}")
        i, reason = _ladder_problem(taus, config.params, config.speed_model)
        if reason:
            raise ValidationError("--tau" if i is None else f"--tau {taus[i]!r}", reason)
    if not taus:
        raise ValidationError("sweep.tau_list", "required by limit-sweep unless --tau is given")
    sweep = tau_sweep(config, taus)
    rows = zip(sweep.taus, sweep.e_theta, sweep.e_p, sweep.e_pt)
    header = ("tau", "e_theta", "e_p", "e_pt")
    _write(args.out / "sweep.csv", _csv_text(header, rows), args.quiet)
    members = dict(zip(sweep.taus, sweep.members))
    members[0.0] = sweep.reference
    for tau, member in sorted(members.items(), reverse=True):
        member_dir = args.out / _tau_dirname(tau)
        member_dir.mkdir(parents=True, exist_ok=True)
        _write(member_dir / "timeseries.csv", timeseries_csv(member), args.quiet)
    return EXIT_OK


def _cmd_verify(config, args) -> int:
    checks = run_all_checks(seed=config.seed)
    rows = ((c.name, int(c.passed), c.measured, c.threshold, c.detail) for c in checks)
    header = ("check", "passed", "measured", "threshold", "detail")
    _write(args.out / "verify.csv", _csv_text(header, rows), args.quiet)
    failed = [c for c in checks if not c.passed]
    for c in checks if not args.quiet else failed:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name}: measured={c.measured:.3e} threshold={c.threshold:.3e}")
    if failed:
        print(f"{len(failed)} verification check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_modes(config, args) -> int:
    grid = make_grid(config)
    amplitude = config.initial_data.amplitude_theta or 1.0
    mode_k = config.initial_data.mode_k
    shape = NodeField(grid, np.sin(mode_k * np.pi * grid.nodes() / grid.L))
    theta0 = NodeField(grid, amplitude * shape.values)
    with np.errstate(all="ignore"):
        T0 = l2_inner(theta0, shape) / l2_norm(shape) ** 2
    if not math.isfinite(T0):  # the t = 0 row's numeric and oracle
        raise NonFinite("modes column numeric", step=0, time=0.0)

    dt = config.time.dt
    n_steps = int(round(config.time.T / dt))
    stride = config.time.output_stride
    rows = [(0.0, T0, T0, 0.0)]
    run = mode_run(config.params, theta0, T0, mode_k, dt, n_steps)
    for n, (state, numeric, oracle) in enumerate(run, start=1):
        if n % stride == 0 or n == n_steps:
            rows.append((state.t, numeric, oracle, abs(numeric - oracle)))
    header = ("t", "numeric", "oracle", "abs_err")
    _write(args.out / "modes.csv", _csv_text(header, rows), args.quiet)
    if not args.quiet:
        worst = max(r[3] for r in rows)
        print(f"modes: max |numeric - oracle| = {worst:.3e}")
    return EXIT_OK


# The one map from a failure to its exit code and stderr prefix; a run that
# leaves the validated regime ends in the first row its exception matches.
_FAILURES = (
    (ConfigError, EXIT_CONFIG, "configuration error"),
    (Degenerate, EXIT_DEGENERATE, "degeneracy abort"),
    (PicardDiverged, EXIT_PICARD, "fixed-point divergence"),
    (FloorViolated, EXIT_FLOOR, "sound-speed floor violated"),
    (NonFinite, EXIT_NONFINITE, "non-finite values"),
    (OSError, EXIT_OUTPUT, "cannot write outputs"),  # --out or a file in it
)
# What str.splitlines() breaks at, printed as escapes so a failure stays one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoacoustic",
        description="1D coupled thermo-acoustic simulator with energy diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("simulate", _cmd_simulate, "run the coupled system and emit timeseries/snapshots"),
        ("limit-sweep", _cmd_limit_sweep,
         "run the relaxation ladder against the Fourier reference"),
        ("verify", _cmd_verify, "run the verification suites and emit verify.csv"),
        ("modes", _cmd_modes, "single-mode thermal run against the telegraph oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", type=Path, default=".",
                       help="output directory (created if missing)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "limit-sweep":
            p.add_argument("--tau", help="comma-separated override of sweep.tau_list")
    args = parser.parse_args(argv)

    try:
        config = load_config_file(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        return args.run(config, args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}".translate(_LINE_BREAKS), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
