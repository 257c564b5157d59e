"""Strict JSON run configuration.

The section dataclasses are the schema: a section holds the fields of its
dataclass under their names, each read by its annotation (float, int, str or an
array of numbers), and a field is optional exactly when it has a default.  A
section built in Python or by load_config reads its numbers and number arrays
with those readers and checks its values, and SimConfig checks initial_data
against grid and the seed; load_config runs those rules as it reads each value
and adds the medium and the sweep ladder.  Unknown keys are rejected outright
because physics configs die silently otherwise (a typoed parameter name must not
fall back to a default).  JSON is used for its unambiguous typing of numeric arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .acoustics import _margin_problem
from .grid import (FaceField, Grid1D, NodeField, _count_problem, _length_problem, _step_problem,
                   _tolerance_problem, gradient_to_faces)
from .model import PhysicalParams, SpeedOfSoundModel, _invalid_taus, validate_params

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "UnknownKey",
    "GridConfig",
    "InitialData",
    "TimeConfig",
    "PicardConfig",
    "SimConfig",
    "load_config",
    "load_config_file",
    "make_grid",
    "initial_fields",
]


class ConfigError(ValueError):
    """Base class of configuration failures."""


class ParseError(ConfigError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"config is not well-formed JSON{where}: {message}")


class ValidationError(ConfigError):
    def __init__(self, key, reason):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")


class UnknownKey(ConfigError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"unknown configuration key: {path}")


def _reject(key: str, reason) -> None:
    """Raise ValidationError(key, reason) unless reason is falsy; the rules
    pass `violated and reason`."""
    if reason:
        raise ValidationError(key, reason)


def _step_count(value: float, dt: float, key: str) -> int:
    """value / dt, which must be an integer to within 1e-9 relative."""
    steps = value / dt
    if not math.isfinite(steps) or abs(value - round(steps) * dt) > 1e-9 * abs(value):
        raise ValidationError(key, "must be an integer multiple of time.dt")
    return round(steps)


# A run holds about 800 bytes per node (some 100 arrays of N floats in a step
# and its diagnostics pass, measured at N = 2e4 .. 1e5), plus 24 bytes per
# node for each output row; 1e6 nodes is about 0.8 GB before the first row.
_MAX_GRID_N = 10**6


@dataclass(frozen=True)
class GridConfig:
    L: float
    N: int

    def __post_init__(self) -> None:
        _read_numbers(self, "grid")
        _reject("grid.N", self.N > _MAX_GRID_N and f"must be at most {_MAX_GRID_N}")
        _reject("grid.N", _count_problem(self.N, 2))
        _reject("grid.L", _length_problem(self.L, self.N))


_PRESETS = ("zero", "sine", "gaussian", "raw")


def _known_preset(name: str):
    return name not in _PRESETS and f"must be one of {', '.join(_PRESETS)}"


def _length(n: int):
    return lambda values: len(values) != n and f"must have length {n}"


def _raw_lengths(n: int) -> dict:
    """The length rule of each raw array on a grid of n interior nodes."""
    return {"p0": _length(n), "p1": _length(n), "theta0": _length(n), "q0": _length(n + 1)}


def _mode_fits(mode_k: int, n: int):
    # sin(k pi x / L) with k > N is zero to rounding at every node
    return mode_k > n and "must be at most grid.N"


@dataclass(frozen=True)
class InitialData:
    preset: str
    amplitude_p: float = 0.0
    amplitude_theta: float = 0.0
    mode_k: int = 1
    center: float | None = None
    width: float | None = None
    p0: tuple[float, ...] | None = None
    p1: tuple[float, ...] | None = None
    theta0: tuple[float, ...] | None = None
    q0: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _reject("initial_data.preset", _known_preset(self.preset))
        _read_numbers(self, "initial_data")
        for key in ("p0", "p1", "theta0", "q0"):
            _reject(f"initial_data.{key}", self.preset == "raw" and getattr(self, key) is None
                    and "required for the raw preset")
        _reject("initial_data.width", self.preset == "gaussian" and self.width is not None
                and not self.width > 0 and "must be positive")
        _reject("initial_data.mode_k", self.mode_k < 1 and "must be at least 1")


@dataclass(frozen=True)
class TimeConfig:
    T: float
    dt: float
    output_stride: int = 1
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _read_numbers(self, "time")
        dt = self.dt
        _reject("time.T", not self.T >= 0 and "must be nonnegative")
        _reject("time.dt", _step_problem(dt, "time.dt"))
        _reject("time.output_stride", self.output_stride < 1 and "must be at least 1")
        n_steps = _step_count(self.T, dt, "time.T")
        snap_steps = set()
        for i, s in enumerate(self.snapshot_times):
            key = f"time.snapshot_times[{i}]"
            step = _step_count(s, dt, key)
            _reject(key, not 0 <= step <= n_steps and "must lie in [0, time.T]")
            _reject(key, step in snap_steps and f"falls on step {step} like an earlier entry")
            snap_steps.add(step)


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iter: int = 25
    gamma_bar: float = 0.5

    def __post_init__(self) -> None:
        _read_numbers(self, "picard")
        _reject("picard.tol", _tolerance_problem(self.tol))
        _reject("picard.max_iter", _count_problem(self.max_iter, 1))
        _reject("picard.gamma_bar", _margin_problem(self.gamma_bar))


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig
    params: PhysicalParams
    speed_model: SpeedOfSoundModel
    initial_data: InitialData
    time: TimeConfig
    picard: PicardConfig
    sweep_tau_list: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # the rules that relate initial_data to grid, then the seed's, in
        # load_config's order; the medium is checked by simulate and tau_sweep
        n = self.grid.N
        for key, rule in _raw_lengths(n).items():
            values = getattr(self.initial_data, key)
            _reject(f"initial_data.{key}", values is not None and rule(values))
        _reject("initial_data.mode_k", _mode_fits(self.initial_data.mode_k, n))
        _reject("seed", _integer(self.seed, "seed") < 0 and "must be nonnegative")


def _of_type(kind, what: str):
    """Reader of a JSON value of one type; true and false are not numbers."""
    def read(value, key: str):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(key, f"must be {what}")
        return value
    return read


_real = _of_type((int, float), "a number")
_integer = _of_type(int, "an integer")
_object = _of_type(dict, "an object")
_array = _of_type(list, "an array")


def _number(value, key: str) -> float:
    """A finite JSON number; json.loads accepts NaN and Infinity."""
    try:
        number = float(_real(value, key))
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    _reject(key, not math.isfinite(number) and "must be finite")
    return number


def _numbers(value, key: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(_array(value, key)))


# the reader of a field, by its annotation stripped of "| None" and "[...]"
_READERS = {"float": _number, "int": _integer, "str": _of_type(str, "a string"),
            "tuple": _numbers}


def _read_numbers(section, name: str) -> None:
    """Read the number fields of a section built in Python as load_config reads them,
    in declaration order, an array into a tuple; an optional field may hold None."""
    for f in fields(section):
        kind, value = f.type.removesuffix(" | None"), getattr(section, f.name)
        key = f"{name}.{f.name}"
        if value is None and kind != f.type:
            continue
        if kind.startswith("tuple"):  # a tuple or numpy array reads as a JSON array
            value = list(value) if isinstance(value, (tuple, np.ndarray)) else value
            object.__setattr__(section, f.name, _numbers(value, key))
        elif kind in ("int", "float"):
            _READERS[kind](value, key)


def _take(section: dict, key: str, read, default=MISSING):
    """read() the entry of section that the dotted key ends in, else default."""
    name = key.rpartition(".")[2]
    if name in section:
        return read(section.pop(name), key)
    if default is MISSING:
        raise ValidationError(key, "required")
    return default


def _section(doc: dict, name: str, cls, **checks):
    """cls from the object doc[name], read field by field in declaration order.

    The key of a field is its name and its annotation picks the reader; a
    field with a default is optional and gets that default when absent, and
    a section whose fields all have defaults may be absent.  checks[field]
    runs on a value as soon as it is read and returns a falsy value or why
    the value is wrong, so the first fault of a document is the one reported.
    """
    specs = fields(cls)
    optional = all(f.default is not MISSING for f in specs)
    section = _take(doc, name, _object, {} if optional else MISSING)
    values = {}
    for f in specs:
        if f.name in section or f.default is MISSING:
            key = f"{name}.{f.name}"
            read = _READERS[f.type.removesuffix(" | None").split("[")[0]]
            value = values[f.name] = _take(section, key, read)
            if f.name in checks:
                _reject(key, checks[f.name](value))
    _reject_unknown(section, name)
    return cls(**values)


def _ladder_problem(taus, params: PhysicalParams, model: SpeedOfSoundModel):
    """(i, reason) why taus cannot be a user's sweep ladder (sweep.tau_list
    or limit-sweep --tau); reason is '' for a ladder that can run.  i is None
    when the list itself breaks the rule: a ladder is non-empty, finite,
    positive and strictly decreasing, so each member has its own tau and
    output folder.  Otherwise i is the first member whose medium, params with
    tau = taus[i], fails validate_params."""
    if not taus:
        return None, "must not be empty"
    bad = _invalid_taus(taus)
    if bad:
        return None, f"must hold finite and positive values, got {bad}"
    if any(b >= a for a, b in zip(taus, taus[1:])):
        return None, f"must be strictly decreasing, got {list(taus)}"
    for i, tau in enumerate(taus):
        problems = validate_params(replace(params, tau=tau), model)
        if problems:
            return i, "; ".join(problems)
    return None, ""


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        key = sorted(section)[0]
        raise UnknownKey(f"{path}.{key}" if path else key)


def load_config(text: str) -> SimConfig:
    """Parse and fully validate a configuration document; the sections check
    their own values, and this adds the rules that relate sections."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except (RecursionError, ValueError) as exc:  # nesting too deep, integer too long
        raise ParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")

    grid = _section(doc, "grid", GridConfig)
    params = _section(doc, "params", PhysicalParams)
    model = _section(
        doc, "speed_model", SpeedOfSoundModel,
        coeffs=lambda coeffs: not coeffs and "must not be empty",
        growth_exponents=lambda growth: len(growth) != 2 and "must have exactly 2 entries",
    )
    _reject("params", "; ".join(validate_params(params, model)))

    init = _section(doc, "initial_data", InitialData,
                    preset=_known_preset, **_raw_lengths(grid.N))
    _reject("initial_data.mode_k", _mode_fits(init.mode_k, grid.N))

    time_cfg = _section(doc, "time", TimeConfig)
    picard = _section(doc, "picard", PicardConfig)

    sweep = _take(doc, "sweep", _object, None)
    sweep_taus = None
    if sweep is not None:
        sweep_taus = _take(sweep, "sweep.tau_list", _numbers)
        _reject_unknown(sweep, "sweep")
        i, reason = _ladder_problem(sweep_taus, params, model)
        _reject("sweep.tau_list" if i is None else f"sweep.tau_list[{i}]", reason)

    seed = _take(doc, "seed", _integer, SimConfig.seed)
    _reject_unknown(doc, "")

    return SimConfig(
        grid=grid, params=params, speed_model=model, initial_data=init,
        time=time_cfg, picard=picard, sweep_tau_list=sweep_taus, seed=seed,
    )


def load_config_file(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return load_config(text)


def make_grid(config: SimConfig) -> Grid1D:
    return Grid1D(L=config.grid.L, N=config.grid.N)


def initial_fields(
    config: SimConfig, grid: Grid1D
) -> tuple[NodeField, NodeField, NodeField, FaceField]:
    """Build (p0, p1, theta0, q0) from the configured preset.

    The smooth presets (sine, gaussian) prepare the initial flux
    consistently with the Fourier law, q0 = -kappa_a grad theta0: the
    relaxation-limit study compares against the Fourier reference, and an
    inconsistent flux would plant an O(1) initial layer in every member
    run.  An inconsistent flux can always be supplied through the raw
    preset.
    """
    init = config.initial_data
    x = grid.nodes()
    zero_n = np.zeros(grid.N)
    zero_f = np.zeros(grid.N + 1)
    if init.preset == "zero":
        p0 = p1 = theta0 = zero_n
        q0 = zero_f
    elif init.preset == "sine":
        mode = np.sin(init.mode_k * math.pi * x / grid.L)
        p0 = init.amplitude_p * mode
        theta0 = init.amplitude_theta * mode
        p1 = zero_n
        q0 = None
    elif init.preset == "gaussian":
        center = init.center if init.center is not None else 0.5 * grid.L
        width = init.width if init.width is not None else 0.1 * grid.L
        bump = np.exp(-0.5 * ((x - center) / width) ** 2)
        p0 = init.amplitude_p * bump
        theta0 = init.amplitude_theta * bump
        p1 = zero_n
        q0 = None
    else:  # raw
        p0 = np.asarray(init.p0, dtype=float)
        p1 = np.asarray(init.p1, dtype=float)
        theta0 = np.asarray(init.theta0, dtype=float)
        q0 = np.asarray(init.q0, dtype=float)
    theta0_field = NodeField(grid, theta0)
    if q0 is None:
        q0 = -config.params.kappa_a * gradient_to_faces(theta0_field).values
    return (
        NodeField(grid, p0),
        NodeField(grid, p1),
        theta0_field,
        FaceField(grid, q0),
    )
