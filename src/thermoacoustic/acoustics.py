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
one-step method exploits.  Row i of the matrix reads -s_i, a_i + 2 s_i,
-s_i with a = alpha/dt and s = (dt r + b)/dx^2.  alpha > 0 makes each row
strictly dominant, yet LAPACK still swaps rows i and i+1 where a steep s
lifts s_{i+1} above the pivot.  With s >= 0 every exact pivot exceeds
a_i + s_i, so the certificate a_min > (s_max - s_min) + eps s_max, tested
on the float bands, proves that no row is swapped and that every pivot
passes the loop's test.  eps = 2**-48 covers the 9 or so unit roundoffs of
s_max that the pivot recursion and the test itself can lose.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .grid import (NodeField, _check_arrays, _difference_quotient, _dirichlet_gradient,
                   _require, _step_problem, _thomas, _Tridiagonal)
from .heat import _Stacked, _TimeLevels
from .model import PhysicalParams, SpeedOfSoundModel, _k_of_h, h_eval

__all__ = [
    "Degenerate",
    "AcousticState",
    "FrozenCoefficients",
    "assemble_coefficients",
    "check_nondegeneracy",
    "westervelt_linear_step",
]
_kept = threading.local()  # .slot: westervelt_linear_step's (key, factors) in this thread


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
        return NodeField(self.grid, _Stacked([self]).difference(1, 2)[0])


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


def _coefficients(theta, p, p_t, model, params, run=None):
    """Raw (alpha, r, g) arrays of assemble_coefficients; run, a constant h's (r, 2 k)."""
    h_vals, k2 = run or _h_and_k2(theta, model, params)
    return 1.0 - k2 * p, h_vals, k2 * p_t * p_t


def _h_and_k2(theta, model, params):
    h_vals = h_eval(model, theta)
    return h_vals, 2.0 * _k_of_h(params, h_vals)


def _frozen(grid, alpha, r, g, run=None) -> FrozenCoefficients:
    """The fields of (alpha, r, g) under one guard each: a non-finite entry of alpha or g
    makes alpha.dot(g) non-finite, and one of r makes r.dot(r), which is skipped when r is
    the proven run[0] of a run.  A tripped guard checks the three in field order."""
    if not (math.isfinite(alpha.dot(g)) and (run and r is run[0] or math.isfinite(r.dot(r)))):
        _check_arrays((("NodeField", alpha), ("NodeField", r), ("NodeField", g)))
    return FrozenCoefficients(
        alpha=NodeField._proven(grid, alpha),
        r=NodeField._proven(grid, r),
        g=NodeField._proven(grid, g),
        alpha_min=float(np.minimum.reduce(alpha)),
    )


def _margin_problem(gamma_bar: float) -> str:
    """Why gamma_bar cannot be the non-degeneracy margin, or ''."""
    return "" if 0.0 < gamma_bar < 1.0 else "must lie in (0, 1)"


def _degeneracy_threshold(gamma_bar: float) -> float:
    _require("gamma_bar", _margin_problem(gamma_bar), f", got {gamma_bar}")
    return 1.0 - gamma_bar


def check_nondegeneracy(coeffs: FrozenCoefficients, gamma_bar: float) -> None:
    """Require alpha >= 1 - gamma_bar everywhere; raise Degenerate otherwise.

    gamma_bar in (0, 1) is the admissible fraction of the leading
    coefficient that the pressure term may consume (the smallness margin
    gamma < 1/(2 k1) expressed through alpha).  The minimum and its node
    come from alpha itself, not from the alpha_min a caller may set by hand.
    """
    _guard_alpha(coeffs.alpha.values, _degeneracy_threshold(gamma_bar))


def _guard_alpha(alpha, threshold, *others) -> float:
    """alpha's minimum; below threshold, _check_arrays of alpha and others, then Degenerate."""
    alpha_min = float(np.minimum.reduce(alpha))  # ndarray.min minus its Python wrapper
    if alpha_min < threshold:
        _check_arrays((("NodeField", alpha), *others))
        raise Degenerate(alpha_min, int(alpha.argmin()), threshold)
    return alpha_min


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
    One guard covers both returned fields: p' = p + dt v' with p finite and
    dt positive and finite is finite only if v' is, so a finite p'.dot(p')
    proves both; a tripped guard checks p', then v'.

    Each thread keeps the factors of its last matrix, keyed on the bytes of alpha, r, dt, b and
    dx, and reuses them only for a call with an equal key: a constant matrix is factored once.
    """
    if problem := _step_problem(dt):
        raise ValueError(f"dt {problem}")
    grid, p, v, dx = state.grid, state.p.values, state.v.values, state.grid.dx
    alpha, r, g = coeffs.alpha.values, coeffs.r.values, coeffs.g.values
    if not coeffs.alpha.grid is coeffs.r.grid is coeffs.g.grid is grid:  # one grid: no comparison
        for field in (coeffs.alpha, coeffs.r, coeffs.g):
            state.p._check_compatible(field)
    lap_p = _difference_quotient(grad_p := _dirichlet_gradient(p, dx), dx)
    key = (alpha.tobytes(), r.tobytes(), struct.pack("3d", dt, params.b, dx))
    kept_key, solver = getattr(_kept, "slot", (None, None))
    if kept_key != key:  # alpha's own minimum: a caller may build coeffs by hand
        *_, s_min, s_max = bands = _westervelt_bands(r, dt, params, dx)
        *system, _ = _westervelt_system(alpha, r, g, v, lap_p, dt, params, dx, bands=bands)
        solver = _Tridiagonal(grid.N).factor(*system, _certified(alpha.min(), dt, s_min, s_max))
        _kept.slot = (key, solver)
    rhs = _westervelt_rhs(alpha, r, g, v, lap_p, dt)
    _guard_system(solver.bands[0], rhs, alpha, r, g, grad_p, lap_p)
    v_new = solver.solve(rhs)
    p_new = p + dt * v_new
    if not math.isfinite(p_new.dot(p_new)):
        _check_arrays((("NodeField", p_new), ("NodeField", v_new)))
    return state.advanced(NodeField._proven(grid, p_new), NodeField._proven(grid, v_new),
                          state.t + dt)


def _westervelt_system(alpha, r, g, v, lap_p, dt, params, dx, out=None, bands=None):
    """(diag, lower, upper, rhs) of the step's system for v', built by the ufuncs' third argument
    in out (rows scratch, diag, off, rhs) or fresh arrays (None); bands: r's _westervelt_bands."""
    tmp, d, up, b = out or (None,) * 4
    off, two_off, *_ = bands or _westervelt_bands(r, dt, params, dx, up, tmp)
    diag = np.subtract(np.divide(alpha, dt, d), two_off, d)
    return diag, off[1:], off[:-1], _westervelt_rhs(alpha, r, g, v, lap_p, dt, (b, tmp))


def _westervelt_rhs(alpha, r, g, v, lap_p, dt, out=(None, None)):
    """(alpha v/dt + r Lap p) + g, in out's (rhs, scratch) rows or fresh arrays (None)."""
    b = np.multiply(alpha, v, out[0])
    return np.add(np.add(np.divide(b, dt, b), np.multiply(r, lap_p, out[1]), b), g, b)


def _westervelt_bands(r, dt, params, dx, up=None, tmp=None):
    """(off, 2 off, s_min, s_max) of the system, with off = -s to the bit (IEEE division is
    sign-symmetric), so diag = a - 2 off = a + 2 s to the bit; argmax stops at a nan."""
    off = np.divide(np.add(np.multiply(dt, r, up), params.b, up), -(dx * dx), up)
    return off, np.multiply(2.0, off, tmp), -off.item(off.argmax()), -off.item(off.argmin())


def _certified(alpha_min, dt, s_min, s_max) -> bool:
    """The certificate of the module docstring: no row swap, every pivot passes the loop."""
    return 0.0 <= s_min and alpha_min / dt > s_max - s_min + 2.0**-48 * s_max


def _guard_system(diag, rhs, alpha, r, g, grad_p, lap_p) -> None:
    """Unless the system is finite, check its inputs in field order, naming field and index."""
    if not math.isfinite(diag.dot(rhs)):
        _check_arrays((("NodeField", alpha), ("NodeField", r), ("NodeField", g),
                       ("FaceField", grad_p), ("NodeField", lap_p)))


def _westervelt_solve(alpha, alpha_min, r, g, v, grad_p, lap_p, dt, params, dx, work=None,
                      out=None, bands=None):
    """v' of a step on raw arrays by a one-shot driver: alpha_min is alpha's minimum, lap_p the
    divergence of grad_p, and work (a _Tridiagonal), out (rows) and bands (of r) save work."""
    tmp, _, up, _ = out or (None,) * 4
    *_, s_min, s_max = bands = bands or _westervelt_bands(r, dt, params, dx, up, tmp)
    diag, lower, upper, rhs = _westervelt_system(alpha, r, g, v, lap_p, dt, params, dx, out, bands)
    _guard_system(diag, rhs, alpha, r, g, grad_p, lap_p)
    return _thomas(diag, lower, upper, rhs, work, _certified(alpha_min, dt, s_min, s_max))
