"""Implicit stepper for the linearized pressure equation with frozen coefficients.

Within each fixed-point iterate of the coupled solver the quasilinear
Westervelt equation is frozen into the linear strongly damped wave equation

    alpha(x) p_tt - r(x) Lap p - b Lap p_t = g(x),

with coefficients assembled from the previous iterate (* denotes iterate
fields):

    alpha = 1 - 2 k(theta*) p*,   r = h(theta*),   g = 2 k(theta*) (p_t*)^2.

alpha's positive lower bound is the quasilinear non-degeneracy condition;
it is guarded explicitly and its violation is a meaningful, located error,
not a numerical accident.

The step integrates the first-order system v = p_t with backward Euler:

    alpha (v' - v)/dt - r Lap p' - b Lap v' = g,     p' = p + dt v'.

Eliminating p' gives a single tridiagonal solve per step,

    [diag(alpha)/dt - (dt diag(r) + b I) Lap_h] v'
        = diag(alpha) v/dt + diag(r) Lap_h p + g,

with r frozen per node row.  The strong damping -b Lap p_t makes the
equation parabolic in character, which is exactly what the L-stable
one-step method exploits.  Strict diagonal dominance holds whenever
alpha > 0 and b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NodeField, _thomas, laplacian_dirichlet
from .heat import _time_difference, _TimeLevels
from .model import PhysicalParams, SpeedOfSoundModel, _k_of_h, h_eval

__all__ = [
    "Degenerate",
    "AcousticState",
    "FrozenCoefficients",
    "assemble_coefficients",
    "check_nondegeneracy",
    "westervelt_linear_step",
]


class Degenerate(ArithmeticError):
    """The leading coefficient 1 - 2 k(theta) p lost its positive margin.

    Carries the minimum of alpha and the offending node index; the coupled
    driver adds the failing step and time.  Signals that the smallness
    condition on the pressure data has been violated and the quasilinear
    equation is leaving its well-posed regime.
    """

    def __init__(self, alpha_min, node_index, threshold, step=None, time=None):
        self.alpha_min = alpha_min
        self.node_index = node_index
        self.threshold = threshold
        self.step = step
        self.time = time
        where = f" at step {step}, t={time:.6g}" if step is not None else ""
        super().__init__(
            f"non-degeneracy violated{where}: alpha_min={alpha_min:.6g} < "
            f"{threshold:.6g} at node index {node_index}"
        )

    def located(self, step: int, time: float) -> "Degenerate":
        return Degenerate(self.alpha_min, self.node_index, self.threshold, step, time)


class AcousticState(_TimeLevels):
    """Pressure and its velocity v = p_t, plus a 3-level history ring."""

    @property
    def p(self) -> NodeField:
        return self.history[-1][1]

    @property
    def v(self) -> NodeField:
        return self.history[-1][2]

    def second_derivative(self) -> NodeField:
        """p_tt by second differences over the stored levels."""
        return NodeField(self.grid, _time_difference([self], 1, 2)[0])


@dataclass(frozen=True)
class FrozenCoefficients:
    """Per-iterate coefficient fields with the cached minimum of alpha."""

    alpha: NodeField
    r: NodeField
    g: NodeField
    alpha_min: float


def assemble_coefficients(
    theta: NodeField,
    p: NodeField,
    p_t: NodeField,
    model: SpeedOfSoundModel,
    params: PhysicalParams,
) -> FrozenCoefficients:
    """Freeze alpha = 1 - 2k(theta)p, r = h(theta), g = 2k(theta)p_t^2.

    Propagates FloorViolated from the h evaluation.
    """
    return _frozen(theta.grid, *_coefficients(theta.values, p.values, p_t.values, model, params))


def _coefficients(theta, p, p_t, model, params):
    """Raw (alpha, r, g) arrays of assemble_coefficients."""
    h_vals = h_eval(model, theta)
    k_vals = _k_of_h(params, h_vals)
    alpha = 1.0 - 2.0 * k_vals * p
    g = 2.0 * k_vals * p_t * p_t
    return alpha, h_vals, g


def _frozen(grid, alpha, r, g) -> FrozenCoefficients:
    return FrozenCoefficients(
        alpha=NodeField(grid, alpha),
        r=NodeField(grid, r),
        g=NodeField(grid, g),
        alpha_min=float(alpha.min()),
    )


def _degeneracy_threshold(gamma_bar: float) -> float:
    if not 0.0 < gamma_bar < 1.0:
        raise ValueError(f"gamma_bar must lie in (0, 1), got {gamma_bar}")
    return 1.0 - gamma_bar


def check_nondegeneracy(coeffs: FrozenCoefficients, gamma_bar: float) -> None:
    """Require alpha >= 1 - gamma_bar everywhere; raise Degenerate otherwise.

    gamma_bar in (0, 1) is the admissible fraction of the leading
    coefficient that the pressure term may consume (the smallness margin
    gamma < 1/(2 k1) expressed through alpha).
    """
    threshold = _degeneracy_threshold(gamma_bar)
    if coeffs.alpha_min < threshold:
        node = int(np.argmin(coeffs.alpha.values))
        raise Degenerate(coeffs.alpha_min, node, threshold)


def westervelt_linear_step(
    state: AcousticState,
    coeffs: FrozenCoefficients,
    dt: float,
    params: PhysicalParams,
) -> AcousticState:
    """One backward-Euler step of the frozen-coefficient pressure equation.

    Plugging the returned pair back into the scheme equations leaves a
    residual at the 1e-9 * field-scale level (rounding of the tridiagonal
    solve; there is no consistency defect in the plugged-back equations).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = state.grid
    lap_p = laplacian_dirichlet(state.p).values
    system = _westervelt_system(
        coeffs.alpha.values, coeffs.r.values, coeffs.g.values, state.v.values, lap_p,
        dt, params, grid.dx,
    )
    v_new = _thomas(*system)
    p_new = state.p.values + dt * v_new
    return state.advanced(
        NodeField(grid, p_new), NodeField(grid, v_new), state.t + dt
    )


def _westervelt_system(alpha, r, g, v, lap_p, dt, params, dx):
    """(diag, lower, upper, rhs) of the step's tridiagonal system for v'."""
    stencil = (dt * r + params.b) / (dx * dx)  # per-row off-diagonal magnitude
    diag = alpha / dt + 2.0 * stencil
    rhs = alpha * v / dt + r * lap_p + g
    return diag, -stencil[1:], -stencil[:-1], rhs
