"""Outside-in probes on the thermoacoustic package.

Nothing here edits the package.  Every probe replaces a name that the
package looks up at call time (a module global or a class attribute), and
``Patches.restore`` puts the original back.  Two probes exist:

* ``StepTimer`` wraps the one stepping function of a workload and keeps the
  latency of every call, with a fixed reference probe run between steps to
  correct for the machine's changing speed.  It is the only probe of the
  untraced passes, which give the end-to-end metrics.
* ``Tracer`` records a span (name, start, end, parent) around every call
  that crosses a layer boundary, plus counts, for the traced passes that
  give the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def ref_probe() -> float:
    """Seconds for a fixed piece of work that does not touch the package.

    It mixes the two kinds of work a step does: small numpy operations and
    a pure-Python recurrence over a 128-element list, like a Thomas sweep.
    """
    t0 = _clock()
    diag = np.full(128, 2.0)
    upper = [-0.5] * 127
    rhs = [1.0] * 128
    x = [0.0] * 128
    for _ in range(100):
        pivots = (diag * 1.0001 + 1e-9).tolist()
        for i in range(1, 128):
            x[i] = rhs[i] - upper[i - 1] / pivots[i - 1] * x[i - 1]
    if not math.isfinite(x[-1]):
        raise RuntimeError("the reference probe produced a non-finite value")
    return _clock() - t0


# Duration of ref_probe on a quiet machine of the kind the benchmark was
# defined on (2-core x86-64 VM, Python 3.11, numpy 2.4).  It only scales the
# speed-corrected times so that they read as seconds on such a machine.
REF_PROBE_NOMINAL_S = 1.5e-3


def pin_to_fastest_cpu(cpus: list[int], probes_per_cpu: int = 5) -> int:
    """Pin this process to the CPU of ``cpus`` on which ref_probe runs fastest.

    The CPUs of a shared machine slow down independently of each other as
    other tenants come and go; a process the scheduler moves between them
    changes speed at moments no probe sees.  Pinning keeps one CPU's speed
    in force, which the probes then follow.
    """
    best, best_s = cpus[0], math.inf
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        durations = sorted(ref_probe() for _ in range(probes_per_cpu))
        if durations[len(durations) // 2] < best_s:
            best, best_s = cpu, durations[len(durations) // 2]
    os.sched_setaffinity(0, {best})
    return best


class StepTimer:
    """Latency of every call of one function, with ``ref_probe`` run between
    calls at least every ``probe_every_s`` seconds.

    On a shared 2-vCPU VM a CPU's speed was seen to change by up to 1.7x
    within seconds as other tenants came and went, and the probes follow
    it.  ``corrected`` scales each stretch of wall time between two probes
    by the nominal over the mean measured duration of those two probes.
    """

    def __init__(self, probe_every_s: float) -> None:
        self.probe_every_s = probe_every_s
        self.samples: list[float] = []
        self.segments: list[int] = []  # index of the probe before each sample
        self.probes: list[tuple[float, float]] = []  # (start, end)

    def reset(self) -> None:
        self.samples.clear()
        self.segments.clear()
        self.probes.clear()

    def probe(self) -> None:
        t0 = _clock()
        ref_probe()
        self.probes.append((t0, _clock()))

    def wrap(self, fn):
        samples, segments, probes = self.samples, self.segments, self.probes
        every = self.probe_every_s

        def timed(*args, **kwargs):
            if _clock() - probes[-1][1] >= every:
                self.probe()
            t0 = _clock()
            out = fn(*args, **kwargs)
            samples.append(_clock() - t0)
            segments.append(len(probes) - 1)
            return out

        return timed

    def speed(self) -> float:
        """Nominal over the median measured probe duration of the pass."""
        durations = sorted(end - start for start, end in self.probes)
        return REF_PROBE_NOMINAL_S / durations[len(durations) // 2]

    def corrected(self, start: float, end: float) -> tuple[float, list[float]]:
        """Speed-corrected seconds of the pass [start, end] and of each step.

        Expects one probe before ``start`` and one after ``end``; the time
        the probes themselves took is left out.
        """
        speed = [REF_PROBE_NOMINAL_S / (b - a) for a, b in self.probes]
        factor = [0.5 * (speed[j] + speed[j + 1]) for j in range(len(speed) - 1)]
        total = 0.0
        for j, f in enumerate(factor):
            seg_start = max(self.probes[j][1], start)
            seg_end = min(self.probes[j + 1][0], end)
            total += (seg_end - seg_start) * f
        steps = [s * factor[j] for s, j in zip(self.samples, self.segments)]
        return total, steps


class Tracer:
    """Spans kept in memory as parallel lists; ``-1`` is the parent of a root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def clear(self) -> None:
        for seq in (self.names, self.starts, self.ends, self.parents):
            seq.clear()
        self.counts.clear()
        self._stack[:] = [-1]

    def summary(self):
        """Per span name: (calls, total seconds, self seconds), and the
        number of ``child`` spans directly under each ``parent`` name."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        children = Counter()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
                children[(self.names[parent], self.names[i])] += 1
        calls = Counter(self.names)
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, name in enumerate(self.names):
            total[name] += durations[i]
            self_time[name] += durations[i] - child_time[i]
        return calls, total, self_time, children

    def write(self, path, pass_id: int) -> None:
        """Append the spans of one pass as CSV rows (pass, id, name, start, end, parent)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("pass,span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{pass_id},{i},{name},{self.starts[i] - origin:.9f},"
                    f"{self.ends[i] - origin:.9f},{self.parents[i]}\n"
                )


def install_tracer(tracer: Tracer, patches: Patches, pkg) -> None:
    """Wrap the names that ``cli``, ``config``, ``coupling`` and
    ``verification`` call through, so each layer shows as its own spans.

    ``pkg`` holds the imported package modules as attributes.
    """
    span = tracer.span
    cli, config, coupling = pkg.cli, pkg.config, pkg.coupling

    patches.set(cli, "load_config_file", span("config.load", cli.load_config_file))
    # simulate imports these two from config at call time.
    patches.set(config, "make_grid", span("config.load", config.make_grid))
    patches.set(config, "initial_fields", span("config.load", config.initial_fields))

    patches.set(cli, "simulate", span("coupling.loop", cli.simulate))
    patches.set(cli, "tau_sweep", span("coupling.loop", cli.tau_sweep))
    patches.set(coupling, "simulate", span("coupling.loop", coupling.simulate))
    patches.set(coupling, "coupled_step", span("coupling.step", coupling.coupled_step))

    for attr, name in (
        ("assemble_coefficients", "acoustics.assemble"),
        ("check_nondegeneracy", "acoustics.check"),
        ("westervelt_linear_step", "acoustics.step"),
        ("cattaneo_step", "heat.cattaneo"),
        ("fourier_thermal_step", "heat.fourier"),
        ("q_source", "model.q_source"),
        ("l2_norm", "grid.l2_norm"),
        ("_make_report", "energy.report"),
    ):
        patches.set(coupling, attr, span(name, getattr(coupling, attr)))
    patches.set(
        pkg.verification, "westervelt_linear_step",
        span("acoustics.step", pkg.verification.westervelt_linear_step),
    )

    xacc = pkg.energy.XNormAccumulator
    patches.set(xacc, "accumulate_step", span("energy.xnorm_accumulate", xacc.accumulate_step))
    patches.set(xacc, "sample_output", span("energy.xnorm_sample", xacc.sample_output))

    patches.set(pkg.acoustics, "_thomas", span("grid.thomas", pkg.acoustics._thomas))
    patches.set(pkg.heat, "_thomas", span("grid.thomas", pkg.heat._thomas))

    patches.set(cli, "timeseries_csv", span("cli.csv", cli.timeseries_csv))
    patches.set(cli, "snapshot_csv", span("cli.csv", cli.snapshot_csv))
    counts = tracer.counts
    write = cli._write

    def counted_write(path, text, quiet):
        counts["cli.files_written"] += 1
        counts["cli.csv_bytes"] += len(text.encode("utf-8"))
        return write(path, text, quiet)

    patches.set(cli, "_write", span("cli.csv", counted_write))

    field = pkg.grid._Field
    patches.set(field, "__init__", tracer.counted("grid.fields_built", field.__init__))
