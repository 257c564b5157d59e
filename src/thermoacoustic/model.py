"""Medium parameters and constitutive laws of the thermo-acoustic model.

The model couples the Westervelt equation for the acoustic pressure p with
the Pennes bioheat equation for the shifted temperature theta (temperature
above ambient), closed by the Cattaneo flux law with relaxation time tau:

    p_tt - h(theta) Lap p - b Lap p_t = k(theta) (p^2)_tt
    m theta_t + div q + ell theta     = Q(p_t)
    tau q_t + q + kappa_a grad theta  = 0

with m = rho_a * C_a and ell = rho_b * C_b * W.  The squared sound speed
h(theta) = c^2(theta + theta_a) is a user-supplied polynomial in the
*shifted* temperature (thermal lensing); the nonlinearity coefficient is
k(theta) = beta_acous / (rho * h(theta)), and the absorbed acoustic power
is Q(p_t) = 2 b / (rho_a C_a^4) * p_t^2.

h is required to stay above a positive floor h_floor.  Evaluation below the
floor is a hard error rather than a clamp: clamping would silently destroy
the C^2 smoothness of the constitutive law and mask a run leaving the
validated regime.  The floor induces the uniform bound
k <= k1 = beta_acous / (rho * h_floor) used by the non-degeneracy guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import NodeField

__all__ = [
    "FloorViolated",
    "PhysicalParams",
    "SpeedOfSoundModel",
    "h_eval",
    "k_eval",
    "q_source",
    "validate_params",
]


class FloorViolated(ArithmeticError):
    """The sound-speed polynomial fell below its positive floor h_floor.

    Signals that the run has left the validated regime of the constitutive
    assumptions (no silent clamping).  The coupled driver adds the failing
    step and time.
    """

    def __init__(self, theta, value, floor, index=None, step=None, time=None):
        self.theta = theta
        self.value = value
        self.floor = floor
        self.index = index
        self.step = step
        self.time = time
        when = f" at step {step}, t={time:.6g}" if step is not None else ""
        where = "" if index is None else f" at node index {index}"
        super().__init__(
            f"h(theta)={value:.6g} < h_floor={floor:.6g}{when} "
            f"for theta={theta:.6g}{where}"
        )

    def located(self, step: int, time: float) -> "FloorViolated":
        return FloorViolated(self.theta, self.value, self.floor, self.index, step, time)


@dataclass(frozen=True)
class PhysicalParams:
    """Medium constants (SI units).

    rho_a, C_a:   ambient density and heat capacity
    rho_b, C_b:   blood density and heat capacity
    W:            volumetric perfusion rate
    kappa_a:      thermal conductivity
    b:            sound diffusivity (strictly positive; gives the pressure
                  equation its parabolic character)
    rho:          mass density
    beta_acous:   acoustic nonlinearity parameter
    theta_a:      ambient temperature (bookkeeping only; the solver works in
                  the shifted variable theta = Theta - theta_a)
    tau:          thermal relaxation time; tau = 0 selects the Fourier law
    """

    rho_a: float
    C_a: float
    rho_b: float
    C_b: float
    W: float
    kappa_a: float
    b: float
    rho: float
    beta_acous: float
    theta_a: float
    tau: float

    @property
    def m(self) -> float:
        """Heat capacity per volume m = rho_a * C_a."""
        return self.rho_a * self.C_a

    @property
    def ell(self) -> float:
        """Perfusion sink coefficient ell = rho_b * C_b * W."""
        return self.rho_b * self.C_b * self.W

    @property
    def decay_rate(self) -> float:
        """Thermal energy decay constant c = min(ell/m, 2/tau).

        At tau = 0 the 2/tau branch is +inf, so the rate is ell/m; at
        ell = 0 the rate is 0 and exponential-decay certificates are void.
        """
        if self.tau == 0.0:
            return self.ell / self.m
        return min(self.ell / self.m, 2.0 / self.tau)


@dataclass(frozen=True)
class SpeedOfSoundModel:
    """Polynomial squared sound speed in the shifted temperature.

    h(theta) = sum_i coeffs[i] * theta**i, already expressed in the shifted
    variable, so the ambient temperature never enters evaluation.  h_floor
    is the positive lower bound the polynomial must respect wherever it is
    evaluated.  growth_exponents (gamma1, gamma2) are metadata describing
    the assumed polynomial growth of h'' and k'; they constrain analysis,
    never arithmetic, and are stored untouched.
    """

    coeffs: tuple[float, ...]
    h_floor: float
    growth_exponents: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("speed-of-sound polynomial needs at least one coefficient")

    def k1(self, params: PhysicalParams) -> float:
        """Uniform bound k1 = k(h_floor) on k(theta)."""
        return _k_of_h(params, self.h_floor)


def _polyval(coeffs: tuple[float, ...], theta):
    # Horner, low-to-high coefficient order, in place.
    result = np.zeros(np.shape(theta))
    for c in reversed(coeffs):
        result *= theta
        result += c
    return result


def h_eval(model: SpeedOfSoundModel, theta):
    """Evaluate h at a scalar or array of shifted temperatures.

    Raises FloorViolated as soon as any value falls below h_floor.
    """
    theta_arr = np.asarray(theta, dtype=float)
    values = _polyval(model.coeffs, theta_arr)
    if values.ndim == 0:
        v = float(values)
        if v < model.h_floor:
            raise FloorViolated(float(theta_arr), v, model.h_floor)
        return v
    # fmin skips nan entries, which never compare below the floor
    if np.fmin.reduce(values, initial=np.inf) < model.h_floor:
        i = int(np.flatnonzero(values < model.h_floor)[0])
        raise FloorViolated(float(theta_arr[i]), float(values[i]), model.h_floor, index=i)
    return values


def _k_of_h(params: PhysicalParams, h):
    """k = beta_acous / (rho * h) for already evaluated values of h."""
    return params.beta_acous / (params.rho * h)


def k_eval(model: SpeedOfSoundModel, params: PhysicalParams, theta):
    """Nonlinearity coefficient k = beta_acous / (rho * h(theta)).

    Bounded by k1 = beta_acous/(rho*h_floor) wherever h_eval succeeds.
    """
    return _k_of_h(params, h_eval(model, theta))


def q_source(params: PhysicalParams, p_t: NodeField) -> NodeField:
    """Absorbed acoustic power Q(p_t) = 2b/(rho_a C_a^4) * p_t^2, pointwise.

    Quadratic in p_t, hence nonnegative everywhere.
    """
    return NodeField(p_t.grid, _absorbed_power(params, p_t.values))


def _absorbed_power(params: PhysicalParams, p_t: np.ndarray) -> np.ndarray:
    """Raw values of q_source."""
    coeff = 2.0 * params.b / (params.rho_a * params.C_a**4)
    return coeff * p_t * p_t


def _relaxation_problem(tau: float) -> str:
    """Why tau cannot be a relaxation time, or ''; tau = 0 is the Fourier model."""
    return "must be finite" if tau == math.inf else "" if tau >= 0.0 else "must be nonnegative"


def _invalid_taus(taus) -> list:
    """The entries of taus that are not finite and positive relaxation times."""
    return [tau for tau in taus if _relaxation_problem(tau) or not tau > 0.0]


def validate_params(params: PhysicalParams, model: SpeedOfSoundModel) -> list[str]:
    """Collect every violated invariant by name; empty list means ok."""
    errors = [f"{name} must be strictly positive"
              for name in ("rho_a", "C_a", "rho_b", "C_b", "kappa_a", "rho", "beta_acous")
              if not getattr(params, name) > 0.0]
    if params.W < 0.0:
        errors.append("W must be nonnegative")
    if not params.b > 0.0:
        errors.append("b must be strictly positive")
    if why := _relaxation_problem(params.tau):
        errors.append(f"tau {why}")
    if not all(map(math.isfinite, model.coeffs)):
        errors.append("coeffs must be finite")
    if not model.h_floor > 0.0:
        errors.append("h_floor must be positive")
    elif model.coeffs[0] < model.h_floor:
        errors.append("coeffs[0] must respect the floor (h(0) >= h_floor)")
    if errors:
        return errors
    # the derived constants the run divides by or multiplies with
    positive = [
        ("k1 = beta_acous/(rho*h_floor)", lambda: model.k1(params)),
        ("m = rho_a*C_a", lambda: params.m),
        ("rho_a*C_a**4", lambda: params.rho_a * params.C_a**4),
        ("2b/(rho_a*C_a**4)", lambda: _absorbed_power(params, 1.0)),  # Q at p_t = 1
    ]
    if params.tau > 0.0:
        positive.append(("tau*m", lambda: params.tau * params.m))
    for name, constant in positive:
        try:
            value = constant()
        except (OverflowError, ZeroDivisionError):  # Python floats raise where numpy gives inf
            value = math.inf
        if not (math.isfinite(value) and value > 0.0):
            errors.append(f"{name} must be finite and positive")
    if not math.isfinite(params.ell):
        errors.append("ell = rho_b*C_b*W must be finite")
    return errors
