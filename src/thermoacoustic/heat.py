"""Implicit time steppers for the Pennes-Cattaneo system and its Fourier limit.

The semi-discrete system on the staggered grid reads

    m theta_t + div q + ell theta = f        (nodes)
    tau q_t + q + kappa_a grad theta = 0     (faces)

and both steppers are backward Euler.  Backward Euler is chosen over a
trapezoidal rule deliberately: the relaxation term tau q_t + q is stiff as
tau -> 0 and an L-stable one-step method keeps the update uniformly stable
for every tau in [0, tau_bar], which is what the relaxation-limit study
needs.  First-order accuracy in time is accepted and compensated by a small
dt at desk scale.

The Cattaneo update eliminates the new flux,

    q^{n+1} = w q^n - eta grad theta^{n+1},
    w = tau/(tau+dt),  eta = kappa_a * dt/(tau+dt),

which leaves a symmetric, strictly diagonally dominant tridiagonal system
for theta^{n+1}.  At tau = 0 the weights degenerate to w = 0, eta = kappa_a
exactly (IEEE: 0/(0+dt) = 0 and dt/(0+dt) = 1), so the update is bit for
bit the Fourier backward-Euler step followed by the Fourier law
q = -kappa_a grad theta.  The exactly-zero w term is skipped rather than
multiplied out so that signed zeros cannot leak into the tau = 0 path.

States carry a short history ring (up to three levels at uniform spacing)
from which time derivatives for the energy diagnostics are reconstructed by
backward differences.  Diagnostic derivatives deliberately come from stored
history, never from re-evaluating the right-hand side, so the energy
reports remain an independent cross-check on the steppers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    FaceField,
    Grid1D,
    NodeField,
    _difference_quotient,
    _dirichlet_gradient,
    _Field,
    _require,
    _step_problem,
    _thomas,
)
from .model import PhysicalParams, _relaxation_problem

__all__ = [
    "InsufficientHistory",
    "InvalidMode",
    "ThermalState",
    "cattaneo_step",
    "fourier_step",
    "fourier_thermal_step",
    "reconstruct_time_derivatives",
    "telegraph_mode_oracle",
]

_HISTORY_DEPTH = 3


class InsufficientHistory(RuntimeError):
    """A diagnostic needed more stored time levels than the state carries."""


class InvalidMode(ValueError):
    """The modal oracle was asked for a negative Laplacian eigenvalue."""


@dataclass(frozen=True)
class _TimeLevels:
    """History ring of the state classes: up to _HISTORY_DEPTH levels
    (t, a, b) at uniform spacing, newest last.  The newest level is the
    current state; subclasses name its fields a and b.  Spacings of stamps
    t + dt may differ by one ulp of the newest stamp, which rounding makes.
    """

    history: tuple[tuple[float, _Field, _Field], ...]

    def __post_init__(self) -> None:
        h = self.history
        if len(h) > 1 and not (last := h[-1][0] - h[-2][0]) > 0.0:
            raise ValueError("history time stamps must be strictly increasing")
        for i in range(len(h) - 2):  # the steps before the last one
            if abs(h[i + 1][0] - h[i][0] - last) > 1e-9 * abs(last) + math.ulp(h[-1][0]):
                raise ValueError("history time stamps must have constant spacing")

    @classmethod
    def initial(cls, a: _Field, b: _Field, t: float = 0.0):
        if a.grid != b.grid:
            raise ValueError("the fields of a time level must share the grid")
        return cls(((t, a, b),))

    @property
    def t(self) -> float:
        return self.history[-1][0]

    @property
    def grid(self) -> Grid1D:
        return self.history[-1][1].grid

    @property
    def depth(self) -> int:
        return len(self.history)

    @property
    def dt(self) -> float:
        if self.depth < 2:
            raise InsufficientHistory("need at least 2 levels to define dt")
        return self.history[-1][0] - self.history[-2][0]

    def advanced(self, a: _Field, b: _Field, t: float):
        return type(self)((self.history + ((t, a, b),))[-_HISTORY_DEPTH:])


class _Stacked(dict):
    """The levels of some rings of equal depth, as rows, each stacked once on
    first use: [slot, back] is field a (slot 1) or b (slot 2) of each ring,
    ``back`` levels before its newest, and [0, k] the column of each ring's
    last spacing to the power k (a Python float)."""

    def __init__(self, rings) -> None:
        super().__init__()
        self.rings = rings

    def __missing__(self, key):
        slot, back = key
        self[key] = (np.array([ring.history[-1 - back][slot].values for ring in self.rings])
                     if slot else np.array([ring.dt**back for ring in self.rings])[:, None])
        return self[key]

    def difference(self, slot: int, k: int) -> np.ndarray:
        """Order-k (1 or 2) backward difference of field ``slot``, as rows;
        each row divides by its own ring's spacing."""
        if self.rings[0].depth < k + 1:
            raise InsufficientHistory(
                f"time derivative of order {k} needs {k + 1} levels, have {self.rings[0].depth}"
            )
        new, old = self[slot, 0], self[slot, 1]
        if k == 1:
            return (new - old) / self[0, 1]
        return (new - 2.0 * old + self[slot, 2]) / self[0, 2]


class ThermalState(_TimeLevels):
    """Temperature at nodes and heat flux at faces, plus a 3-level history ring."""

    @property
    def theta(self) -> NodeField:
        return self.history[-1][1]

    @property
    def q(self) -> FaceField:
        return self.history[-1][2]


def _heat_matrix(grid: Grid1D, params: PhysicalParams, dt: float, eta: float):
    """(diag, lower, upper) of the heat operator m/dt + ell - eta*Lap_h.

    Strictly diagonally dominant with margin m/dt + ell, and fixed by
    (grid, params, dt, eta): a coupled run factors it once, while the
    public steppers, one step per call, solve it once with _thomas.
    """
    dx2 = grid.dx * grid.dx
    diag = np.full(grid.N, params.m / dt + params.ell + 2.0 * eta / dx2)
    off = np.full(grid.N - 1, -eta / dx2)
    return diag, off, off


def _cattaneo_weights(params: PhysicalParams, dt: float) -> tuple[float, float]:
    """(w, eta) of the flux elimination q' = w q - eta grad theta'."""
    tau = params.tau
    _require("tau", _relaxation_problem(tau))
    return tau / (tau + dt), params.kappa_a * (dt / (tau + dt))


# The raw updates below serve both the public steppers and the coupled
# kernel.  m_theta = (m/dt) theta^n and w_div_q = w div q^n depend on the
# time level only, so the kernel computes them once per step; it also gives
# out, a scratch row of its workspace, which the rhs is built in.


def _fourier_update(f: np.ndarray, m_theta: np.ndarray, solve, out=None) -> np.ndarray:
    """theta^{n+1} of the Fourier step for the source f."""
    return solve(np.add(f, m_theta, out))


def _fourier_flux(theta_new: np.ndarray, params: PhysicalParams, dx: float) -> np.ndarray:
    """The Fourier law q = -kappa_a grad theta."""
    return -(params.kappa_a * _dirichlet_gradient(theta_new, dx))


def _cattaneo_update(f: np.ndarray, m_theta: np.ndarray, w_div_q, solve, out=None) -> np.ndarray:
    """theta^{n+1} of the Cattaneo step; w_div_q is None when w = 0."""
    rhs = np.add(f, m_theta, out)
    if w_div_q is not None:
        rhs = np.subtract(rhs, w_div_q, out)
    return solve(rhs)


def _cattaneo_flux(
    theta_new: np.ndarray, q: np.ndarray, w: float, eta: float, dx: float
) -> np.ndarray:
    """The eliminated flux q' = w q - eta grad theta'; the w term is skipped at w = 0."""
    grad = _dirichlet_gradient(theta_new, dx)
    if w != 0.0:
        return w * q - eta * grad
    return -(eta * grad)


def fourier_step(
    theta: NodeField, f_next: NodeField, dt: float, params: PhysicalParams
) -> NodeField:
    """Backward Euler for the parabolic Pennes equation.

    m theta_t - kappa_a Lap theta + ell theta = f.  For a single discrete
    eigenmode with eigenvalue lambda_h and f = 0 the update is exactly
    theta^{n+1} = theta^n / (1 + dt (ell + kappa_a lambda_h)/m).
    """
    _require("dt", _step_problem(dt))
    theta._check_compatible(f_next)
    solve = partial(_thomas, *_heat_matrix(theta.grid, params, dt, params.kappa_a))
    new_vals = _fourier_update(f_next.values, (params.m / dt) * theta.values, solve)
    return NodeField(theta.grid, new_vals)


def fourier_thermal_step(
    state: ThermalState, f_next: NodeField, dt: float, params: PhysicalParams
) -> ThermalState:
    """Fourier-path state update: parabolic step plus q = -kappa_a grad theta.

    Written independently of cattaneo_step on purpose, so the bitwise
    degeneration check (acceptance criterion 8) compares two separate
    updates, not one code path with itself.  Coupled runs call its raw
    parts, _fourier_update and _fourier_flux, from their kernel; mode_run
    and the tests call this function.
    """
    theta_new = fourier_step(state.theta, f_next, dt, params)
    q_new = FaceField(state.grid, _fourier_flux(theta_new.values, params, state.grid.dx))
    return state.advanced(theta_new, q_new, state.t + dt)


def cattaneo_step(
    state: ThermalState, f_next: NodeField, dt: float, params: PhysicalParams
) -> ThermalState:
    """Fully implicit step of the Cattaneo system via flux elimination.

    Solves
        m (theta' - theta)/dt + div q' + ell theta' = f,
        tau (q' - q)/dt + q' + kappa_a grad theta' = 0,
    by substituting q' = w q - eta grad theta' into the first equation.
    Plugging the returned pair back into both scheme equations leaves
    residuals at rounding level.  At tau = 0 the update is bit-identical
    to fourier_step followed by the Fourier flux law.
    """
    _require("dt", _step_problem(dt))
    state.theta._check_compatible(f_next)
    w, eta = _cattaneo_weights(params, dt)
    grid = state.grid
    q = state.q.values
    w_div_q = w * _difference_quotient(q, grid.dx) if w != 0.0 else None
    solve = partial(_thomas, *_heat_matrix(grid, params, dt, eta))
    theta_new = _cattaneo_update(
        f_next.values, (params.m / dt) * state.theta.values, w_div_q, solve
    )
    q_new = _cattaneo_flux(theta_new, q, w, eta, grid.dx)
    return state.advanced(
        NodeField(grid, theta_new), FaceField(grid, q_new), state.t + dt
    )


def reconstruct_time_derivatives(
    state: ThermalState, k: int
) -> tuple[NodeField, FaceField]:
    """Backward-difference time derivatives of (theta, q) of order k in {1, 2}.

    Matches the stepper's accuracy: first-order one-sided over 2 levels for
    k = 1, second difference over 3 levels for k = 2.  Exact for data that
    is linear (k=1) or quadratic (k=2) in time.
    """
    if k not in (1, 2):
        raise ValueError("derivative order k must be 1 or 2")
    return (
        NodeField(state.grid, _Stacked([state]).difference(1, k)[0]),
        FaceField(state.grid, _Stacked([state]).difference(2, k)[0]),
    )


def telegraph_mode_oracle(
    params: PhysicalParams, lam: float, T0: float, T0dot: float, t: float
) -> float:
    """Closed-form modal amplitude of the homogeneous telegraph equation.

    Eliminating the flux from the Cattaneo system turns a single spatial
    mode with Laplacian eigenvalue lam into the constant-coefficient ODE

        tau m T'' + (m + tau ell) T' + (ell + kappa_a lam) T = 0,

    solved here from the characteristic roots (real-distinct, repeated and
    complex cases).  At tau = 0 the equation is first order and the oracle
    returns T0 * exp(-(ell + kappa_a lam) t / m); T0dot is then ignored.
    """
    if lam < 0.0:
        raise InvalidMode(f"Laplacian eigenvalue must be nonnegative, got {lam}")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    m, ell, kappa, tau = params.m, params.ell, params.kappa_a, params.tau
    stiffness = ell + kappa * lam
    if tau == 0.0:
        return T0 * math.exp(-stiffness * t / m)

    a = tau * m
    bb = m + tau * ell
    disc = bb * bb - 4.0 * a * stiffness
    if disc > 0.0:
        root = math.sqrt(disc)
        r1 = (-bb - root) / (2.0 * a)
        r2 = (-bb + root) / (2.0 * a)
        c2 = (T0dot - r1 * T0) / (r2 - r1)
        c1 = T0 - c2
        return c1 * math.exp(r1 * t) + c2 * math.exp(r2 * t)
    if disc == 0.0:
        r = -bb / (2.0 * a)
        return (T0 + (T0dot - r * T0) * t) * math.exp(r * t)
    sigma = bb / (2.0 * a)
    omega = math.sqrt(-disc) / (2.0 * a)
    c2 = (T0dot + sigma * T0) / omega
    phase = omega * t
    if math.isinf(phase):  # math.cos raises where numpy would give nan
        return math.nan
    return math.exp(-sigma * t) * (T0 * math.cos(phase) + c2 * math.sin(phase))
