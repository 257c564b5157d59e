"""Energy and dissipation functionals, balance residuals and norm diagnostics.

Every functional the solver reports is defined here, computed from stored
state histories only (backward differences for time derivatives), so the
diagnostics stay independent of the steppers they audit.

Heat side, per time-derivative order k = 0, 1, 2:

    E_k = 1/2 (m kappa_a ||d_t^k theta||^2 + tau ||d_t^k q||^2)
    D_k = ell kappa_a ||d_t^k theta||^2 + ||d_t^k q||^2

with the exact balance  d/dt E_k + D_k = kappa_a <d_t^k f, d_t^k theta>.
The higher-order temperature energies control the L-infinity bound on theta
needed by the temperature-dependent coefficients:

    cal_E0 = (m kappa_a / 2)(||theta||^2 + ||theta_t||^2 + ||theta_tt||^2)
    cal_E1 = ((m + tau ell)/2)||grad theta||^2 + kappa_a ||grad theta_t||^2
             + kappa_a ||Lap theta||^2

with dissipations cal_D0, cal_D1 (same structure, coefficients ell kappa_a
and {ell, kappa_a, kappa_a}).

Acoustic side, with frozen coefficients alpha, r and diffusivity b:

    E1 = 1/2 (||sqrt(alpha) p_t||^2 + ||sqrt(r) grad p||^2)
    E2 = 1/2 (||sqrt(alpha) p_tt||^2 + ||sqrt(r) grad p_t||^2 + b ||Lap p||^2)
    E3 = 1/2 (b ||grad p_tt||^2 + b ||grad Lap p||^2)

plus the coefficient diagnostics

    Lambda = ||alpha_t||^2 + ||alpha_t||^{4/3} + ||r_t||^{4/3}
             + ||grad r||^2 + ||r_t||_{L3}^2 + ||alpha_t||_{L3}^2
             + ||grad r||_{L3}^2 + ||grad alpha||_{L3}^2
    F      = ||grad g||^2 + ||g_t||^2.

The 4/3 exponent is 4/(4-d) with the spatial dimension d = 1 fixed by this
artifact.  Coefficient gradients use the one-sided interior gradient: the
frozen coefficients do not vanish on the boundary, so the Dirichlet closure
would be wrong for them.  Third spatial derivatives (grad Lap p) use the
composite stencil Lap_h then grad_h and are first-order accurate only;
Lambda and E3 are reported as diagnostics, never asserted against a priori
bounds, whose hidden constants are not computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .acoustics import AcousticState, FrozenCoefficients, _first_energy
from .grid import (
    FaceField,
    NodeField,
    _difference_quotient,
    _dirichlet_gradient,
    _face_extend,
    _l2,
    _laplacian,
    gradient_to_faces,
    interior_gradient,
    l2_inner,
    l2_norm,
    laplacian_dirichlet,
)
from .heat import ThermalState, reconstruct_time_derivatives
from .model import PhysicalParams

__all__ = [
    "EnergyReport",
    "TIMESERIES_COLUMNS",
    "heat_energy",
    "heat_dissipation",
    "theta_higher_energy",
    "heat_balance_residual",
    "acoustic_energy",
    "coefficient_diagnostics",
    "XNormAccumulator",
    "gronwall_bound",
]

_SPATIAL_DIM = 1  # fixes the 4/(4-d) exponent below


def _l3_norm(values: np.ndarray, dx: float) -> float:
    return (dx * float(np.sum(np.abs(values) ** 3))) ** (1.0 / 3.0)


def _level_e0(theta: NodeField, q: FaceField, params: PhysicalParams) -> float:
    return 0.5 * (
        params.m * params.kappa_a * l2_norm(theta) ** 2 + params.tau * l2_norm(q) ** 2
    )


def _level_d0(theta: NodeField, q: FaceField, params: PhysicalParams) -> float:
    return params.ell * params.kappa_a * l2_norm(theta) ** 2 + l2_norm(q) ** 2


def heat_energy(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """E_k of the current level; time derivatives from the history ring."""
    if k == 0:
        return _level_e0(state.theta, state.q, params)
    dtheta, dq = reconstruct_time_derivatives(state, k)
    return _level_e0(dtheta, dq, params)


def heat_dissipation(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """D_k of the current level."""
    if k == 0:
        return _level_d0(state.theta, state.q, params)
    dtheta, dq = reconstruct_time_derivatives(state, k)
    return _level_d0(dtheta, dq, params)


def theta_higher_energy(
    state: ThermalState, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(cal_E0, cal_E1, cal_D0, cal_D1); needs 3 stored levels for theta_tt."""
    theta_t, _ = reconstruct_time_derivatives(state, 1)
    theta_tt, _ = reconstruct_time_derivatives(state, 2)
    sq_sum = l2_norm(state.theta) ** 2 + l2_norm(theta_t) ** 2 + l2_norm(theta_tt) ** 2
    grad = l2_norm(gradient_to_faces(state.theta)) ** 2
    grad_t = l2_norm(gradient_to_faces(theta_t)) ** 2
    lap = l2_norm(laplacian_dirichlet(state.theta)) ** 2
    m, ell, kappa, tau = params.m, params.ell, params.kappa_a, params.tau
    cal_e0 = 0.5 * m * kappa * sq_sum
    cal_e1 = 0.5 * (m + tau * ell) * grad + kappa * grad_t + kappa * lap
    cal_d0 = ell * kappa * sq_sum
    cal_d1 = ell * grad + kappa * grad_t + kappa * lap
    return cal_e0, cal_e1, cal_d0, cal_d1


def heat_balance_residual(
    state: ThermalState, f_next: NodeField, params: PhysicalParams
) -> float:
    """Defect |(E0' - E0)/dt + D0' - kappa_a <f', theta'>| over the last step.

    Summation-by-parts exactness kills every spatial contribution, so the
    residual is purely the backward-Euler time defect
    (m kappa_a ||d theta||^2 + tau ||d q||^2) / (2 dt), which is O(dt) on
    smooth runs and matches the scalar modal defect exactly on single-mode
    runs.
    """
    dt = state.dt  # InsufficientHistory below 2 stored levels
    (_, th0, q0), (_, th1, q1) = state.history[-2:]
    e_old = _level_e0(th0, q0, params)
    e_new = _level_e0(th1, q1, params)
    d_new = _level_d0(th1, q1, params)
    work = params.kappa_a * l2_inner(f_next, th1)
    return abs((e_new - e_old) / dt + d_new - work)


def acoustic_energy(
    state: AcousticState, coeffs: FrozenCoefficients, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(E1, E2, E3, total); E2 and E3 need p_tt, hence 3 stored levels."""
    dx = state.grid.dx
    e1 = _first_energy(state.p, state.v, coeffs)
    p_tt = state.second_derivative()
    r_faces = _face_extend(coeffs.r.values)
    grad_v = gradient_to_faces(state.v).values
    lap_p = laplacian_dirichlet(state.p)
    e2 = 0.5 * (
        dx * float(np.dot(coeffs.alpha.values * p_tt.values, p_tt.values))
        + dx * float(np.dot(r_faces * grad_v, grad_v))
        + params.b * l2_norm(lap_p) ** 2
    )
    e3 = 0.5 * params.b * (
        l2_norm(gradient_to_faces(p_tt)) ** 2
        + l2_norm(gradient_to_faces(lap_p)) ** 2
    )
    return e1, e2, e3, e1 + e2 + e3


def coefficient_diagnostics(
    coeffs_prev: FrozenCoefficients, coeffs_next: FrozenCoefficients, dt: float
) -> tuple[float, float]:
    """(Lambda, F) from two consecutive coefficient levels."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = coeffs_next.alpha.grid
    dx = grid.dx
    exponent = 4.0 / (4.0 - _SPATIAL_DIM)

    alpha_t = (coeffs_next.alpha.values - coeffs_prev.alpha.values) / dt
    r_t = (coeffs_next.r.values - coeffs_prev.r.values) / dt
    g_t = (coeffs_next.g.values - coeffs_prev.g.values) / dt

    alpha_t_l2 = math.sqrt(dx * float(np.dot(alpha_t, alpha_t)))
    r_t_l2 = math.sqrt(dx * float(np.dot(r_t, r_t)))
    grad_r = interior_gradient(coeffs_next.r)
    grad_alpha = interior_gradient(coeffs_next.alpha)
    grad_r_l2_sq = dx * float(np.dot(grad_r, grad_r))

    lam = (
        alpha_t_l2**2
        + alpha_t_l2**exponent
        + r_t_l2**exponent
        + grad_r_l2_sq
        + _l3_norm(r_t, dx) ** 2
        + _l3_norm(alpha_t, dx) ** 2
        + _l3_norm(grad_r, dx) ** 2
        + _l3_norm(grad_alpha, dx) ** 2
    )
    grad_g = gradient_to_faces(coeffs_next.g)
    frak_f = l2_norm(grad_g) ** 2 + dx * float(np.dot(g_t, g_t))
    return lam, frak_f


def _h_norms(u: NodeField) -> tuple[float, float, float, float]:
    """(||u||, |u|_H1, |u|_H2, |u|_H3) seminorm ladder via the composite stencils."""
    n0 = l2_norm(u)
    n1 = l2_norm(gradient_to_faces(u))
    lap = laplacian_dirichlet(u)
    n2 = l2_norm(lap)
    n3 = l2_norm(gradient_to_faces(lap))
    return n0, n1, n2, n3


def _sobolev(u: NodeField, order: int) -> float:
    parts = _h_norms(u)[: order + 1]
    return math.sqrt(sum(p * p for p in parts))


class XNormAccumulator:
    """Running solution-space norms of a run.

    Sup-in-time terms are running maxima sampled at output times; squared
    L2-in-time terms are dt-weighted sums accumulated at every accepted
    step.  Components:

        ||p||_X     = ||p||_{Loo H3} + ||p_t||_{Loo H2} + ||grad Lap p_t||_{L2 L2}
                      + ||grad p_tt||_{Loo L2} + ||Lap p_tt||_{L2 L2}
                      + ||p_ttt||_{L2 L2}
        ||theta||_X = ||theta||_{Loo H2} + ||theta_t||_{Loo H1}
                      + ||theta_tt||_{Loo L2}
        ||q||_X     = ||q||_{Loo H1} + ||q_t||_{L2 L2} + ||q_tt||_{L2 L2}

    Derivative terms join the accumulation as soon as the history ring is
    deep enough.  Every component is monotone in run length.
    """

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self._sup = {"p_h3": 0.0, "pt_h2": 0.0, "ptt_grad": 0.0,
                     "theta_h2": 0.0, "thetat_h1": 0.0, "thetatt": 0.0,
                     "q_h1": 0.0}
        self._int = {"grad_lap_pt": 0.0, "lap_ptt": 0.0, "pttt": 0.0,
                     "qt": 0.0, "qtt": 0.0}

    def accumulate_step(self, ac: AcousticState, th: ThermalState) -> None:
        """Add the L2-in-time contributions of the newest accepted level.

        Works on the raw history arrays.  A sum that turns non-finite
        rebuilds the derivative fields in order, so a non-finite one raises
        its NonFinite.
        """
        dt, dx, acc = self.dt, ac.grid.dx, self._int
        if ac.depth >= 2:
            grad_lap = _dirichlet_gradient(_laplacian(ac.v.values, dx), dx)
            acc["grad_lap_pt"] += dt * _l2(grad_lap, dx) ** 2
        if ac.depth >= 3:
            acc["lap_ptt"] += dt * _l2(_laplacian(ac._difference(1, 2), dx), dx) ** 2
            acc["pttt"] += dt * _l2(ac._difference(2, 2), dx) ** 2
        if th.depth >= 2:
            acc["qt"] += dt * _l2(th._difference(2, 1), dx) ** 2
        if th.depth >= 3:
            acc["qtt"] += dt * _l2(th._difference(2, 2), dx) ** 2
        if not math.isfinite(sum(acc.values())):
            if ac.depth >= 2:
                gradient_to_faces(laplacian_dirichlet(ac.v))
            if ac.depth >= 3:
                laplacian_dirichlet(ac.second_derivative())
                ac.third_derivative()
            if th.depth >= 2:
                reconstruct_time_derivatives(th, 1)
            if th.depth >= 3:
                reconstruct_time_derivatives(th, 2)

    def sample_output(self, ac: AcousticState, th: ThermalState) -> None:
        """Refresh the sup-in-time terms at an output time."""
        sup = self._sup
        sup["p_h3"] = max(sup["p_h3"], _sobolev(ac.p, 3))
        sup["pt_h2"] = max(sup["pt_h2"], _sobolev(ac.v, 2))
        if ac.depth >= 3:
            sup["ptt_grad"] = max(
                sup["ptt_grad"], l2_norm(gradient_to_faces(ac.second_derivative()))
            )
        sup["theta_h2"] = max(sup["theta_h2"], _sobolev(th.theta, 2))
        if th.depth >= 2:
            theta_t, _ = reconstruct_time_derivatives(th, 1)
            sup["thetat_h1"] = max(sup["thetat_h1"], _sobolev(theta_t, 1))
        if th.depth >= 3:
            theta_tt, _ = reconstruct_time_derivatives(th, 2)
            sup["thetatt"] = max(sup["thetatt"], l2_norm(theta_tt))
        q_deriv = _difference_quotient(th.q.values, th.grid.dx)
        q_h1 = math.sqrt(
            l2_norm(th.q) ** 2 + th.grid.dx * float(np.dot(q_deriv, q_deriv))
        )
        sup["q_h1"] = max(sup["q_h1"], q_h1)

    def norms(self) -> tuple[float, float, float]:
        s, i = self._sup, self._int
        x_p = (
            s["p_h3"] + s["pt_h2"] + math.sqrt(i["grad_lap_pt"]) + s["ptt_grad"]
            + math.sqrt(i["lap_ptt"]) + math.sqrt(i["pttt"])
        )
        x_theta = s["theta_h2"] + s["thetat_h1"] + s["thetatt"]
        x_q = s["q_h1"] + math.sqrt(i["qt"]) + math.sqrt(i["qtt"])
        return x_p, x_theta, x_q


def gronwall_bound(
    u0: float, alpha_samples, beta_samples, t_grid
) -> np.ndarray:
    """Evaluate the integral-inequality bound on a uniform time grid.

    For u' + v <= alpha u + beta with u(0) = u0 the bound is

        u(t) + int_0^t v <= u0 e^{A(t)} + int_0^t beta(s) e^{A(t)-A(s)} ds,
        A(t) = int_0^t alpha,

    with both integrals accumulated by the trapezoidal rule.
    """
    t = np.asarray(t_grid, dtype=float)
    alpha = np.broadcast_to(np.asarray(alpha_samples, dtype=float), t.shape)
    beta = np.broadcast_to(np.asarray(beta_samples, dtype=float), t.shape)
    if t.size < 2:
        return np.full_like(t, u0)
    steps = np.diff(t)
    if steps.size and (steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * steps[0]):
        raise ValueError("t_grid must be uniform and increasing")

    def cumtrapz(y):
        inc = 0.5 * (y[1:] + y[:-1]) * steps
        return np.concatenate(([0.0], np.cumsum(inc)))

    a_curve = cumtrapz(alpha)
    weighted = beta * np.exp(-a_curve)
    return np.exp(a_curve) * (u0 + cumtrapz(weighted))


TIMESERIES_COLUMNS = (
    "t", "E0", "E1", "E2", "E_tau", "D0", "D1", "D2", "cal_E0", "cal_E1",
    "acE1", "acE2", "acE3", "acE_total", "lambda", "frakF", "alpha_min",
    "picard_iters", "heat_residual", "acoustic_residual",
)


@dataclass(frozen=True)
class EnergyReport:
    """One diagnostics row of a run.

    Derivative-based entries read 0.0 until the history ring is deep enough
    to define them (the first one or two rows).
    """

    t: float
    E0: float
    E1: float
    E2: float
    E_tau: float
    D0: float
    D1: float
    D2: float
    cal_E0: float
    cal_E1: float
    acE1: float
    acE2: float
    acE3: float
    acE_total: float
    lam: float
    frak_f: float
    alpha_min: float
    picard_iters: int
    heat_residual: float
    acoustic_residual: float

    def row(self) -> tuple:
        """The values in TIMESERIES_COLUMNS order, which is the field order."""
        return tuple(getattr(self, f.name) for f in fields(self))
