"""Time the program's set-up in a fresh interpreter.

Set-up is everything from the package import to the first step: package
import, config load and validation, grid and initial fields, the initial
diagnostics.  numpy is imported before the clock starts; it belongs to the
environment, not to the program.  The probe stops the pass at its first
step call and prints the set-up seconds, corrected for the machine's speed
by reference probes run just before and after (see probes.StepTimer), as
its only output.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed> <config> <out dir>
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (untimed on purpose)

import workloads
from probes import REF_PROBE_NOMINAL_S, ref_probe

REF_PROBES = 5  # on each side of the timed set-up


class _FirstStep(Exception):
    pass


def main(argv) -> int:
    src, workload, seed, config_path, out_dir = argv
    inputs = workloads.make_inputs(workload, int(seed))
    refs = [ref_probe() for _ in range(REF_PROBES)]
    t0 = time.perf_counter()
    pkg = workloads.import_package(Path(src))
    reached = []

    def first_step(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _FirstStep

    owner, attr = workloads.step_function(pkg, inputs)
    setattr(owner, attr, first_step)
    try:
        workloads.run_pass(pkg, inputs, Path(config_path), Path(out_dir))
    except _FirstStep:
        pass
    if not reached:
        print("the pass ended before its first step", file=sys.stderr)
        return 1
    refs += [ref_probe() for _ in range(REF_PROBES)]
    refs.sort()
    speed = REF_PROBE_NOMINAL_S / refs[len(refs) // 2]
    print(f"{(reached[0] - t0) * speed:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
