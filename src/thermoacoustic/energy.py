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

An output row of simulate is one pass over raw arrays: _Row forms each time
difference, stencil and L2 norm once, sample_output and the report read it,
and the public functions are thin wrappers over its formulas.  No field is
validated on the way: a non-finite norm or report column re-checks the
arrays in the order the field-based diagnostics built them (x-norm samples,
Q(v), grad g, grad p of the previous level), so the same NonFinite results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .acoustics import AcousticState, FrozenCoefficients
from .grid import (
    NodeField,
    _check_arrays,
    _difference_quotient,
    _dirichlet_gradient,
    _face_extend,
    _l2,
    _quadrature_dot,
)
from .heat import InsufficientHistory, ThermalState
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


def _stencils(u: np.ndarray, dx: float, order: int):
    """Yield grad u, Lap u = div grad u, grad Lap u, ... (order of them)."""
    for k in range(order):
        u = (_dirichlet_gradient if k % 2 == 0 else _difference_quotient)(u, dx)
        yield u


def _chain_fields(chains, dx: float):
    """(kind, values) of each chain (u, order, flux): u, flux, order stencils of u."""
    for u, order, flux in chains:
        yield "NodeField", u
        if flux is not None:
            yield "FaceField", flux
        yield from zip(("FaceField", "NodeField", "FaceField"), _stencils(u, dx, order))


_LEVELS = {0: ("theta", "q"), 1: ("theta_t", "q_t"), 2: ("theta_tt", "q_tt"),
           "prev": ("theta_prev", "q_prev")}


class _Row:
    """Each time difference, stencil and L2 norm of one time level, computed
    once from the raw arrays of the history rings (one may be None, one must
    hold ``levels`` levels); its methods are the state diagnostics' formulas.
    Arrays: p, v, theta, q, theta_prev, q_prev, as deep as the rings allow
    p_tt, theta_t, q_t, theta_tt, q_tt, their stencils grad_, lap_, grad_lap_
    as far as read; ``n``: their norms.  A stencil the field-based samples
    built but nothing reads overflows only from an entry above 1.3e154 of
    the array below (for dx > 1.5e-154), whose norm then overflows too."""

    def __init__(self, ac: AcousticState | None = None, th: ThermalState | None = None,
                 levels: int = 1) -> None:
        ring = ac or th
        if ring.depth < levels:
            raise InsufficientHistory(f"need {levels} stored levels, have {ring.depth}")
        self.ac, self.th, self.dx = ac, th, ring.grid.dx
        chains = []  # (name, array, stencils read, stencils its field had, flux name)
        if ac is not None:
            chains += [("p", ac.p.values, 3, 3, None), ("v", ac.v.values, 2, 3, None)]
            if ac.depth >= 3:
                chains.append(("p_tt", ac._difference(1, 2), 1, 1, None))
        if th is not None:
            chains.append(("theta", th.theta.values, 2, 3, None))
            self.q = th.q.values
            if th.depth >= 2:
                self.theta_prev, self.q_prev = (f.values for f in th.history[-2][1:])
                self.q_t = th._difference(2, 1)
                chains.append(("theta_t", th._difference(1, 1), 1, 3, "q_t"))
            if th.depth >= 3:
                self.q_tt = th._difference(2, 2)
                chains.append(("theta_tt", th._difference(1, 2), 0, 0, "q_tt"))
        for name, u, read, _, _ in chains:
            setattr(self, name, u)
            for prefix, values in zip(("grad_", "lap_", "grad_lap_"), _stencils(u, self.dx, read)):
                setattr(self, prefix + name, values)
        self.chains = [(u, had, flux and getattr(self, flux)) for _, u, _, had, flux in chains]
        self.n = {k: _l2(a, self.dx) for k, a in vars(self).items() if isinstance(a, np.ndarray)}

    def fields(self):
        """(kind, values) of the row's chains, in the field-based diagnostics' order."""
        return _chain_fields(self.chains, self.dx)

    def heat(self, params: PhysicalParams, k=0) -> tuple[float, float]:
        """(E_k, D_k) of time order k = 0, 1, 2, or (E_0, D_0) of the level before ("prev")."""
        theta, q = _LEVELS[k]
        theta_sq, q_sq = self.n[theta] ** 2, self.n[q] ** 2
        e = 0.5 * (params.m * params.kappa_a * theta_sq + params.tau * q_sq)
        return e, params.ell * params.kappa_a * theta_sq + q_sq

    def theta_higher(self, params: PhysicalParams) -> tuple[float, float, float, float]:
        n = self.n
        sq_sum = n["theta"] ** 2 + n["theta_t"] ** 2 + n["theta_tt"] ** 2
        grad, grad_t, lap = n["grad_theta"] ** 2, n["grad_theta_t"] ** 2, n["lap_theta"] ** 2
        m, ell, kappa, tau = params.m, params.ell, params.kappa_a, params.tau
        cal_e0 = 0.5 * m * kappa * sq_sum
        cal_e1 = 0.5 * (m + tau * ell) * grad + kappa * grad_t + kappa * lap
        cal_d0 = ell * kappa * sq_sum
        cal_d1 = ell * grad + kappa * grad_t + kappa * lap
        return cal_e0, cal_e1, cal_d0, cal_d1

    def heat_residual(self, f: np.ndarray, params: PhysicalParams) -> float:
        e_old, _ = self.heat(params, "prev")
        e_new, d_new = self.heat(params)
        work = params.kappa_a * _quadrature_dot(f, self.theta, self.dx)
        return abs((e_new - e_old) / self.th.dt + d_new - work)

    def first_energy(self, coeffs: FrozenCoefficients, v, grad_p, r_faces=None) -> float:
        """E1 = 1/2 (||sqrt(alpha) v||^2 + ||sqrt(r) grad p||^2) of a level."""
        r_faces = _face_extend(coeffs.r.values) if r_faces is None else r_faces
        a_term = self.dx * float(np.dot(coeffs.alpha.values * v, v))
        return 0.5 * (a_term + self.dx * float(np.dot(r_faces * grad_p, grad_p)))

    def acoustic(self, coeffs: FrozenCoefficients, params: PhysicalParams) -> tuple:
        """(E1, E2, E3, total); E1 only, with zeros, below 3 stored levels."""
        dx, grad_v, r_faces = self.dx, self.grad_v, _face_extend(coeffs.r.values)
        e1 = self.first_energy(coeffs, self.v, self.grad_p, r_faces)
        if self.ac.depth < 3:
            return e1, 0.0, 0.0, e1
        e2 = 0.5 * (
            dx * float(np.dot(coeffs.alpha.values * self.p_tt, self.p_tt))
            + dx * float(np.dot(r_faces * grad_v, grad_v))
            + params.b * self.n["lap_p"] ** 2
        )
        e3 = 0.5 * params.b * (self.n["grad_p_tt"] ** 2 + self.n["grad_lap_p"] ** 2)
        return e1, e2, e3, e1 + e2 + e3

    def identity_residual(self, coeffs_prev, coeffs, params: PhysicalParams, e1: float) -> float:
        """acoustics.acoustic_identity_residual, given E1 of the newest level."""
        dt = self.ac.dt  # InsufficientHistory below 2 stored levels
        dx, v, grad_p = self.dx, self.v, self.grad_p
        _, p0, v0 = self.ac.history[-2]
        e1_old = self.first_energy(coeffs_prev, v0.values, _dirichlet_gradient(p0.values, dx))
        lhs = (e1 - e1_old) / dt
        lhs += params.b * self.n["grad_v"] ** 2
        alpha_t = (coeffs.alpha.values - coeffs_prev.alpha.values) / dt
        r_t = (coeffs.r.values - coeffs_prev.r.values) / dt
        rhs = dx * float(np.dot(coeffs.g.values, v))
        rhs += 0.5 * dx * float(np.dot(alpha_t, v * v))
        # grad r lives only on interior faces (r does not vanish on the
        # boundary); v is interpolated to the same face midpoints.
        grad_r = _difference_quotient(coeffs.r.values, dx)
        rhs -= dx * float(np.dot(grad_r * grad_p[1:-1], _face_extend(v)[1:-1]))
        rhs += 0.5 * dx * float(np.dot(_face_extend(r_t), grad_p * grad_p))
        return abs(lhs - rhs)


def heat_energy(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """E_k of the current level; time derivatives from the history ring."""
    return _Row(th=state, levels=k + 1).heat(params, k)[0]


def heat_dissipation(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """D_k of the current level."""
    return _Row(th=state, levels=k + 1).heat(params, k)[1]


def theta_higher_energy(
    state: ThermalState, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(cal_E0, cal_E1, cal_D0, cal_D1); needs 3 stored levels for theta_tt."""
    return _Row(th=state, levels=3).theta_higher(params)


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
    return _Row(th=state, levels=2).heat_residual(f_next.values, params)


def acoustic_energy(
    state: AcousticState, coeffs: FrozenCoefficients, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(E1, E2, E3, total); E2 and E3 need p_tt, hence 3 stored levels."""
    return _Row(ac=state, levels=3).acoustic(coeffs, params)


def coefficient_diagnostics(
    coeffs_prev: FrozenCoefficients, coeffs_next: FrozenCoefficients, dt: float
) -> tuple[float, float]:
    """(Lambda, F) from two consecutive coefficient levels."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    dx, exponent = coeffs_next.alpha.grid.dx, 4.0 / (4.0 - _SPATIAL_DIM)
    alpha_t = (coeffs_next.alpha.values - coeffs_prev.alpha.values) / dt
    r_t = (coeffs_next.r.values - coeffs_prev.r.values) / dt
    g_t = (coeffs_next.g.values - coeffs_prev.g.values) / dt
    alpha_t_l2, r_t_l2 = _l2(alpha_t, dx), _l2(r_t, dx)
    grad_r = _difference_quotient(coeffs_next.r.values, dx)
    grad_alpha = _difference_quotient(coeffs_next.alpha.values, dx)
    lam = (
        alpha_t_l2**2 + alpha_t_l2**exponent + r_t_l2**exponent
        + dx * float(np.dot(grad_r, grad_r)) + _l3_norm(r_t, dx) ** 2
        + _l3_norm(alpha_t, dx) ** 2 + _l3_norm(grad_r, dx) ** 2 + _l3_norm(grad_alpha, dx) ** 2
    )
    grad_g = _dirichlet_gradient(coeffs_next.g.values, dx)
    return lam, _l2(grad_g, dx) ** 2 + dx * float(np.dot(g_t, g_t))


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
        self._sup = dict.fromkeys(
            ("p_h3", "pt_h2", "ptt_grad", "theta_h2", "thetat_h1", "thetatt", "q_h1"), 0.0
        )
        self._int = dict.fromkeys(("grad_lap_pt", "lap_ptt", "pttt", "qt", "qtt"), 0.0)

    def accumulate_step(self, ac: AcousticState, th: ThermalState) -> None:
        """Add the L2-in-time contributions of the newest accepted level, from
        raw arrays; a non-finite sum re-checks them in their field order."""
        dt, dx, acc = self.dt, ac.grid.dx, self._int
        if ac.depth >= 2:
            *_, grad_lap_v = _stencils(ac.v.values, dx, 3)
            acc["grad_lap_pt"] += dt * _l2(grad_lap_v, dx) ** 2
        if ac.depth >= 3:
            *_, lap_p_tt = _stencils(ac._difference(1, 2), dx, 2)
            acc["lap_ptt"] += dt * _l2(lap_p_tt, dx) ** 2
            acc["pttt"] += dt * _l2(ac._difference(2, 2), dx) ** 2
        if th.depth >= 2:
            acc["qt"] += dt * _l2(th._difference(2, 1), dx) ** 2
        if th.depth >= 3:
            acc["qtt"] += dt * _l2(th._difference(2, 2), dx) ** 2
        if not math.isfinite(sum(acc.values())):
            chains = [(ac.v.values, 3, None)] if ac.depth >= 2 else []
            if ac.depth >= 3:
                chains += [(ac._difference(1, 2), 2, None), (ac._difference(2, 2), 0, None)]
            for k in range(1, th.depth):
                chains.append((th._difference(1, k), 0, th._difference(2, k)))
            _check_arrays(_chain_fields(chains, dx))

    def sample_output(self, ac: AcousticState, th: ThermalState) -> _Row:
        """Refresh the sup-in-time terms at an output time and return the
        _Row they were read from; a non-finite norm re-checks its fields."""
        row = _Row(ac, th)
        n, q_deriv = row.n, _difference_quotient(row.q, row.dx)
        samples = {
            "p_h3": _h_norm(n["p"], n["grad_p"], n["lap_p"], n["grad_lap_p"]),
            "pt_h2": _h_norm(n["v"], n["grad_v"], n["lap_v"]),
            "theta_h2": _h_norm(n["theta"], n["grad_theta"], n["lap_theta"]),
            "q_h1": math.sqrt(n["q"] ** 2 + row.dx * float(np.dot(q_deriv, q_deriv))),
        }
        if ac.depth >= 3:
            samples["ptt_grad"] = n["grad_p_tt"]
        if th.depth >= 2:
            samples["thetat_h1"] = _h_norm(n["theta_t"], n["grad_theta_t"])
        if th.depth >= 3:
            samples["thetatt"] = n["theta_tt"]
        if not math.isfinite(sum(n.values())):
            _check_arrays(row.fields())
        for key, value in samples.items():
            self._sup[key] = max(self._sup[key], value)
        return row

    def norms(self) -> tuple[float, float, float]:
        s, i = self._sup, self._int
        x_p = (
            s["p_h3"] + s["pt_h2"] + math.sqrt(i["grad_lap_pt"]) + s["ptt_grad"]
            + math.sqrt(i["lap_ptt"]) + math.sqrt(i["pttt"])
        )
        x_theta = s["theta_h2"] + s["thetat_h1"] + s["thetatt"]
        x_q = s["q_h1"] + math.sqrt(i["qt"]) + math.sqrt(i["qtt"])
        return x_p, x_theta, x_q


def _h_norm(*norms: float) -> float:
    """sqrt of the sum of squares of a seminorm ladder ||u||, |u|_H1, ..."""
    return math.sqrt(sum(n * n for n in norms))


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
