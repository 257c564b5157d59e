"""Benchmark of the thermoacoustic solver.

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop: one caller runs
passes back to back in this one process until ``--seconds`` have passed,
after an untimed few-step warm-up.  Every pass's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Only a step timer is
installed; set-up time comes from fresh interpreters (setup_probe.py).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (probes.py); the spans of every
traced pass are written to ``.perfbench_work/spans-<workload>-seed<n>.csv``.

Times are speed-corrected: a fixed reference probe runs between steps
about every PROBE_EVERY_S seconds, and each stretch of wall time is scaled
by how much slower than nominal the probes around it ran (probes.py).  The
raw wall times are printed next to them.

It imports the package from ``src/`` next to this directory, and writes
only under ``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from probes import Patches, StepTimer, Tracer, install_tracer, pin_to_fastest_cpu

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PROBE_EVERY_S = 0.025  # reference probes between steps, for the speed correction
MIN_STEPS = 1000  # per pass, so that p99 has at least ten samples beyond it
CPUS = sorted(os.sched_getaffinity(0))


def setup_times(inputs, config_path: Path, run_dir: Path) -> list[float]:
    """Speed-corrected set-up seconds from SETUP_PROBES fresh interpreters,
    after one that warms the byte-code cache."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for k in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), inputs.workload, str(inputs.seed),
             str(config_path), str(run_dir / f"setup_{k}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if k:
            times.append(float(done.stdout.split()[-1]))
    return times


class Book:
    """What the passes of one run produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        self.problems: list[str] = []  # run-level checks that failed


def one_pass(pkg, inputs, config_path: Path, out_dir: Path, book: Book):
    """Run and check one pass; (start, end) clock readings, or None if it failed."""
    gc.collect()
    out_dir.mkdir(parents=True)
    book.attempted += 1
    try:
        start = time.perf_counter()
        result = workloads.run_pass(pkg, inputs, config_path, out_dir)
        end = time.perf_counter()
        fingerprint = workloads.check_pass(inputs, out_dir, result)
        if book.fingerprint is not None and fingerprint != book.fingerprint:
            raise workloads.CheckFailed("outputs differ from those of the first pass")
        book.fingerprint = fingerprint
    except Exception:  # a failed pass is counted and reported; the run goes on
        book.failed += 1
        traceback.print_exc()
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return start, end


def warm_up(pkg, inputs, run_dir: Path) -> None:
    short = workloads.shortened(inputs)
    config_path = run_dir / "warmup.json"
    if short.config is not None:
        workloads.write_config(short, config_path)
    out_dir = run_dir / "warmup"
    out_dir.mkdir()
    workloads.run_pass(pkg, short, config_path, out_dir)
    shutil.rmtree(out_dir)


def end_to_end(pkg, inputs, config_path, run_dir, seconds, book):
    pin_to_fastest_cpu(CPUS)
    setup = setup_times(inputs, config_path, run_dir)
    timer = StepTimer(PROBE_EVERY_S)
    run_s, wall_s, steps_ms = [], [], []
    patches = Patches()
    owner, attr = workloads.step_function(pkg, inputs)
    patches.set(owner, attr, timer.wrap(getattr(owner, attr)))
    try:
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            pin_to_fastest_cpu(CPUS)
            timer.reset()
            timer.probe()
            span = one_pass(pkg, inputs, config_path, run_dir / f"pass_{k}", book)
            timer.probe()
            k += 1
            if span is None:
                continue
            corrected, steps = timer.corrected(*span)
            run_s.append(corrected)
            wall_s.append(span[1] - span[0])
            steps_ms.append(np.asarray(steps) * 1e3)
    finally:
        patches.restore()
    if not run_s:
        return {}
    if min(map(len, steps_ms)) < MIN_STEPS:
        book.problems.append(f"a pass made fewer than {MIN_STEPS} steps")
    steps_ms = np.concatenate(steps_ms)
    p50, p99 = np.percentile(steps_ms, [50, 99])
    print(f"{len(run_s)} passes, {len(steps_ms)} steps; {len(setup)} set-up probes")
    print("pass wall seconds:      " + " ".join(f"{t:.3f}" for t in wall_s))
    print("pass corrected seconds: " + " ".join(f"{t:.3f}" for t in run_s))
    print("set-up corrected seconds: " + " ".join(f"{t:.4f}" for t in setup))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "step_ms_p50": (float(p50), "ms"),
        "step_ms_p99": (float(p99), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((book.attempted - book.failed) / book.attempted, "ratio"),
    }


def layer_metrics(tracer: Tracer, speed: float) -> dict[str, tuple[float, str]]:
    """The per-layer numbers of one traced pass, as (value, unit); times are
    scaled by the pass's speed factor (see probes.StepTimer)."""
    calls, total, self_s, children = tracer.summary()
    counts = tracer.counts
    iters = children[("coupling.step", "acoustics.step")]
    steps = calls["coupling.step"]
    cli_pass = "coupling.loop" in calls
    probes_in_pass = sum(
        tracer.ends[i] - tracer.starts[i]
        for i, name in enumerate(tracer.names)
        if name == "bench.probe" and tracer.parents[i] >= 0
    )
    in_pass = total["pass"] - probes_in_pass
    below_pass = sum(v for name, v in self_s.items() if name not in ("pass", "bench.probe"))
    metrics = {
        "config.load_s": (self_s["config.load"], "s"),
        "coupling.steps": (steps, "count"),
        "coupling.picard_iters": (iters, "count"),
        "coupling.iters_per_step": (iters / steps if steps else 0.0, "iter/step"),
        "coupling.glue_self_s": (self_s["coupling.step"], "s"),
        "coupling.loop_self_s": (self_s["coupling.loop"], "s"),
        "coupling.assemble_per_iter": (
            calls["acoustics.assemble"] / iters if iters else 0.0, "call/iter"),
        "acoustics.assemble_s": (self_s["acoustics.assemble"], "s"),
        "acoustics.assemble_calls": (calls["acoustics.assemble"], "count"),
        "acoustics.check_s": (self_s["acoustics.check"], "s"),
        "acoustics.step_self_s": (self_s["acoustics.step"], "s"),
        "acoustics.step_calls": (calls["acoustics.step"], "count"),
        "heat.step_self_s": (self_s["heat.cattaneo"] + self_s["heat.fourier"], "s"),
        "heat.cattaneo_calls": (calls["heat.cattaneo"], "count"),
        "heat.fourier_calls": (calls["heat.fourier"], "count"),
        "model.q_source_s": (self_s["model.q_source"], "s"),
        "grid.thomas_s": (self_s["grid.thomas"], "s"),
        "grid.thomas_calls": (calls["grid.thomas"], "count"),
        "grid.l2_norm_s": (self_s["grid.l2_norm"], "s"),
        "grid.fields_built": (counts["grid.fields_built"], "count"),
        "energy.report_s": (self_s["energy.report"], "s"),
        "energy.report_rows": (calls["energy.report"], "count"),
        "energy.xnorm_accumulate_s": (self_s["energy.xnorm_accumulate"], "s"),
        "energy.xnorm_sample_s": (self_s["energy.xnorm_sample"], "s"),
        "cli.csv_s": (self_s["cli.csv"], "s"),
        "cli.csv_bytes": (counts["cli.csv_bytes"], "count"),
        "cli.files_written": (counts["cli.files_written"], "count"),
        "cli.main_self_s": (self_s["pass"] if cli_pass else 0.0, "s"),
        "verification.study_self_s": (0.0 if cli_pass else self_s["pass"], "s"),
        "trace.coverage": (below_pass / in_pass, "ratio"),
        "trace.spans": (len(tracer.names) - calls["bench.probe"], "count"),
    }
    return {
        name: (value * speed if unit == "s" else value, unit)
        for name, (value, unit) in metrics.items()
    }


# Units of the numbers that must repeat exactly from pass to pass and run to run.
EXACT_UNITS = ("count", "iter/step", "call/iter")


def per_layer(pkg, inputs, config_path, run_dir, seconds, book, spans_path: Path):
    """Alternate untraced and traced passes; per-layer medians of the traced ones.

    Both kinds carry the step timer's reference probes, so both can be
    speed-corrected; in traced passes each probe is a span of its own and
    is left out of every layer's time.
    """
    tracer = Tracer()
    timer = StepTimer(PROBE_EVERY_S)
    timer.probe = tracer.span("bench.probe", timer.probe)
    owner, attr = workloads.step_function(pkg, inputs)
    layers = []
    pass_s = {False: [], True: []}
    ref_s = []
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        traced = k % 2 == 1
        patches = Patches()
        if traced:
            install_tracer(tracer, patches, pkg)
            patches.set(workloads, "run_pass", tracer.span("pass", workloads.run_pass))
        patches.set(owner, attr, timer.wrap(getattr(owner, attr)))
        pin_to_fastest_cpu(CPUS)
        timer.reset()
        tracer.clear()
        timer.probe()
        try:
            span = one_pass(pkg, inputs, config_path, run_dir / f"pass_{k}", book)
        finally:
            patches.restore()
        timer.probe()
        k += 1
        ref_s.extend(end - begin for begin, end in timer.probes)
        if span is None:
            continue
        pass_s[traced].append(timer.corrected(*span)[0])
        if traced:
            layers.append(layer_metrics(tracer, timer.speed()))
            tracer.write(spans_path, k - 1)
    if not layers or not pass_s[False]:
        return {}
    metrics = {}
    for name, (_, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                book.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["bench.ref_kernel_s"] = (statistics.median(ref_s), "s")
    overhead = statistics.median(pass_s[True]) / statistics.median(pass_s[False])
    metrics["trace.overhead"] = (overhead, "ratio")
    print(f"{len(layers)} traced and {len(pass_s[False])} untraced passes; spans in {spans_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thermoacoustic" / "__init__.py").is_file():
        print(f"no package to benchmark: {SRC / 'thermoacoustic'} is missing", file=sys.stderr)
        return 2
    pkg = workloads.import_package(SRC)
    inputs = workloads.make_inputs(args.workload, args.seed)
    print(
        f"thermoacoustic benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} python={platform.python_version()} "
        f"numpy={np.__version__}"
    )

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    book = Book()
    try:
        config_path = run_dir / "config.json"
        if inputs.config is not None:
            workloads.write_config(inputs, config_path)
        warm_up(pkg, inputs, run_dir)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            spans_path.unlink(missing_ok=True)
            metrics = per_layer(pkg, inputs, config_path, run_dir, args.seconds, book, spans_path)
        else:
            metrics = end_to_end(pkg, inputs, config_path, run_dir, args.seconds, book)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in book.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    report = {
        "correct": book.failed == 0 and not book.problems and bool(metrics),
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
