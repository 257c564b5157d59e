"""Strict JSON run configuration.

The schema is flat and normative; unknown keys are rejected outright
because physics configs die silently otherwise (a typoed parameter name
must not fall back to a default).  JSON is used for its unambiguous typing
of numeric arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import FaceField, Grid1D, NodeField, gradient_to_faces
from .model import PhysicalParams, SpeedOfSoundModel, validate_params

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


@dataclass(frozen=True)
class GridConfig:
    L: float
    N: int


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


@dataclass(frozen=True)
class TimeConfig:
    T: float
    dt: float
    output_stride: int = 1
    snapshot_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iter: int = 25
    gamma_bar: float = 0.5


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


def _require(section: dict, path: str, key: str, kind, *, optional=False, default=None):
    if key not in section:
        if optional:
            return default
        raise ValidationError(f"{path}.{key}" if path else key, "required")
    value = section.pop(key)
    full = f"{path}.{key}" if path else key
    if kind is float:
        return _number(value, full)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(full, "must be an integer")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ValidationError(full, "must be a string")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ValidationError(full, "must be an array")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ValidationError(full, "must be an object")
        return value
    raise AssertionError(kind)


def _number(value, key: str) -> float:
    """A finite JSON number; json.loads accepts NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(key, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(key, "must be finite")
    return number


def _number_list(values, path: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(values))


def _step_count(value: float, dt: float, key: str) -> int:
    """value / dt, which must be an integer to within 1e-9 relative."""
    steps = value / dt
    if not math.isfinite(steps) or abs(value - round(steps) * dt) > 1e-9 * abs(value):
        raise ValidationError(key, "must be an integer multiple of time.dt")
    return round(steps)


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        key = sorted(section)[0]
        raise UnknownKey(f"{path}.{key}" if path else key)


_PARAM_KEYS = (
    "rho_a", "C_a", "rho_b", "C_b", "W", "kappa_a", "b", "rho",
    "beta_acous", "theta_a", "tau",
)

_PRESETS = ("zero", "sine", "gaussian", "raw")


def load_config(text: str) -> SimConfig:
    """Parse and fully validate a configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")

    grid_sec = _require(doc, "", "grid", dict)
    L = _require(grid_sec, "grid", "L", float)
    N = _require(grid_sec, "grid", "N", int)
    _reject_unknown(grid_sec, "grid")
    if N < 2:
        raise ValidationError("grid.N", "must be at least 2")
    if L <= 0:
        raise ValidationError("grid.L", "must be positive")
    grid = GridConfig(L=L, N=N)

    param_sec = _require(doc, "", "params", dict)
    values = {k: _require(param_sec, "params", k, float) for k in _PARAM_KEYS}
    _reject_unknown(param_sec, "params")
    params = PhysicalParams(**values)

    model_sec = _require(doc, "", "speed_model", dict)
    coeffs = _number_list(
        _require(model_sec, "speed_model", "coeffs", list), "speed_model.coeffs"
    )
    if not coeffs:
        raise ValidationError("speed_model.coeffs", "must not be empty")
    h_floor = _require(model_sec, "speed_model", "h_floor", float)
    growth = _require(
        model_sec, "speed_model", "growth_exponents", list, optional=True
    )
    if growth is not None:
        growth = _number_list(growth, "speed_model.growth_exponents")
        if len(growth) != 2:
            raise ValidationError(
                "speed_model.growth_exponents", "must have exactly 2 entries"
            )
    _reject_unknown(model_sec, "speed_model")
    model = SpeedOfSoundModel(coeffs=coeffs, h_floor=h_floor, growth_exponents=growth)

    problems = validate_params(params, model)
    if problems:
        raise ValidationError("params", "; ".join(problems))

    init_sec = _require(doc, "", "initial_data", dict)
    preset = _require(init_sec, "initial_data", "preset", str)
    if preset not in _PRESETS:
        raise ValidationError(
            "initial_data.preset", f"must be one of {', '.join(_PRESETS)}"
        )
    amplitude_p = _require(init_sec, "initial_data", "amplitude_p", float,
                           optional=True, default=0.0)
    amplitude_theta = _require(init_sec, "initial_data", "amplitude_theta", float,
                               optional=True, default=0.0)
    mode_k = _require(init_sec, "initial_data", "mode_k", int,
                      optional=True, default=1)
    center = _require(init_sec, "initial_data", "center", float, optional=True)
    width = _require(init_sec, "initial_data", "width", float, optional=True)
    raw = {}
    for key, length in (("p0", N), ("p1", N), ("theta0", N), ("q0", N + 1)):
        arr = _require(init_sec, "initial_data", key, list, optional=True)
        if arr is not None:
            arr = _number_list(arr, f"initial_data.{key}")
            if len(arr) != length:
                raise ValidationError(
                    f"initial_data.{key}", f"must have length {length}"
                )
        raw[key] = arr
    _reject_unknown(init_sec, "initial_data")
    if preset == "raw":
        for key in ("p0", "p1", "theta0", "q0"):
            if raw[key] is None:
                raise ValidationError(
                    f"initial_data.{key}", "required for the raw preset"
                )
    if preset == "gaussian" and width is not None and width <= 0:
        raise ValidationError("initial_data.width", "must be positive")
    if mode_k < 1:
        raise ValidationError("initial_data.mode_k", "must be at least 1")
    init = InitialData(
        preset=preset, amplitude_p=amplitude_p, amplitude_theta=amplitude_theta,
        mode_k=mode_k, center=center, width=width, **raw,
    )

    time_sec = _require(doc, "", "time", dict)
    T = _require(time_sec, "time", "T", float)
    dt = _require(time_sec, "time", "dt", float)
    stride = _require(time_sec, "time", "output_stride", int, optional=True, default=1)
    snap = _require(time_sec, "time", "snapshot_times", list, optional=True, default=[])
    snap = _number_list(snap, "time.snapshot_times")
    _reject_unknown(time_sec, "time")
    if T < 0:
        raise ValidationError("time.T", "must be nonnegative")
    if dt <= 0:
        raise ValidationError("time.dt", "must be positive")
    if stride < 1:
        raise ValidationError("time.output_stride", "must be at least 1")
    n_steps = _step_count(T, dt, "time.T")
    for i, s in enumerate(snap):
        key = f"time.snapshot_times[{i}]"
        if not 0 <= _step_count(s, dt, key) <= n_steps:
            raise ValidationError(key, "must lie in [0, time.T]")
    time_cfg = TimeConfig(T=T, dt=dt, output_stride=stride, snapshot_times=snap)

    picard_sec = _require(doc, "", "picard", dict, optional=True, default={})
    tol = _require(picard_sec, "picard", "tol", float, optional=True, default=1e-10)
    max_iter = _require(picard_sec, "picard", "max_iter", int, optional=True, default=25)
    gamma_bar = _require(picard_sec, "picard", "gamma_bar", float,
                         optional=True, default=0.5)
    _reject_unknown(picard_sec, "picard")
    if tol <= 0:
        raise ValidationError("picard.tol", "must be positive")
    if max_iter < 1:
        raise ValidationError("picard.max_iter", "must be at least 1")
    if not 0.0 < gamma_bar < 1.0:
        raise ValidationError("picard.gamma_bar", "must lie in (0, 1)")
    picard = PicardConfig(tol=tol, max_iter=max_iter, gamma_bar=gamma_bar)

    sweep_sec = _require(doc, "", "sweep", dict, optional=True)
    sweep_taus = None
    if sweep_sec is not None:
        sweep_taus = _number_list(
            _require(sweep_sec, "sweep", "tau_list", list), "sweep.tau_list"
        )
        _reject_unknown(sweep_sec, "sweep")
        if not sweep_taus:
            raise ValidationError("sweep.tau_list", "must not be empty")
        if any(t <= 0 for t in sweep_taus):
            raise ValidationError("sweep.tau_list", "entries must be positive")
        if any(b >= a for a, b in zip(sweep_taus, sweep_taus[1:])):
            raise ValidationError("sweep.tau_list", "must be strictly decreasing")

    seed = _require(doc, "", "seed", int, optional=True, default=0)
    _reject_unknown(doc, "")

    return SimConfig(
        grid=grid, params=params, speed_model=model, initial_data=init,
        time=time_cfg, picard=picard, sweep_tau_list=sweep_taus, seed=seed,
    )


def load_config_file(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


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
