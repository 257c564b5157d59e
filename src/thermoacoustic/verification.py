"""Named verification checks shared by the CLI and the acceptance suite.

Three families:

  operator exactness   - summation-by-parts adjointness, exact second
                         difference of quadratics, the composite Laplacian,
                         discrete Parseval identities;
  manufactured solutions - spatial / temporal convergence orders of the
                         damped wave stepper against a closed-form solution;
  energy balance       - single-mode fidelity against the telegraph oracle,
                         the discrete decay certificate, the exact match of
                         the energy-balance defect with its scalar modal
                         reduction, refinement of the balance residuals on
                         coupled runs, contraction of the per-step fixed
                         point, the relaxation-limit ladder, bitwise
                         degeneration of the tau = 0 path, failure
                         semantics, and the integral-inequality checker.

Heavy runs are cached per process so the CLI and a test session pay for
each configuration once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    westervelt_linear_step,
)
from .config import (
    GridConfig,
    InitialData,
    PicardConfig,
    SimConfig,
    TimeConfig,
)
from .coupling import SweepResult, simulate, tau_sweep
from .energy import gronwall_bound, heat_balance_residual, heat_energy
from .grid import (
    FaceField,
    Grid1D,
    NodeField,
    NonFinite,
    divergence_from_faces,
    gradient_to_faces,
    l2_inner,
    l2_norm,
    laplacian_dirichlet,
)
from .heat import ThermalState, cattaneo_step, fourier_thermal_step, telegraph_mode_oracle
from .model import PhysicalParams, SpeedOfSoundModel

__all__ = [
    "CheckResult",
    "unit_params",
    "unit_speed_model",
    "canonical_config",
    "sbp_adjointness_check",
    "laplacian_quadratic_check",
    "laplacian_composition_check",
    "parseval_checks",
    "mode_run",
    "mode_study",
    "manufactured_spatial_orders",
    "manufactured_temporal_orders",
    "canonical_run",
    "canonical_sweep",
    "tau_zero_bit_identity",
    "degeneracy_semantics",
    "gronwall_cases",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


def unit_params(tau: float = 0.0, b: float = 1.0) -> PhysicalParams:
    """All-ones medium: m = ell = kappa_a = rho = beta_acous = 1."""
    return PhysicalParams(
        rho_a=1.0, C_a=1.0, rho_b=1.0, C_b=1.0, W=1.0, kappa_a=1.0,
        b=b, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=tau,
    )


def unit_speed_model() -> SpeedOfSoundModel:
    """Constant h = 1 with floor 1, so k1 = 1."""
    return SpeedOfSoundModel(coeffs=(1.0,), h_floor=1.0)


def canonical_config(
    tau: float = 0.05,
    amplitude_p: float = 0.05,
    dt: float = 1e-3,
    T: float = 1.0,
) -> SimConfig:
    """The pinned known-good small-data configuration.

    Unit medium, h = 1 (so k1 = 1), pressure amplitude 0.05 sine, ambient
    temperature offset 0.5 sine (deliberately not small: the smallness
    requirement concerns the pressure data only), N = 128, tol 1e-10.
    """
    return SimConfig(
        grid=GridConfig(L=1.0, N=128),
        params=unit_params(tau=tau),
        speed_model=unit_speed_model(),
        initial_data=InitialData(
            preset="sine", amplitude_p=amplitude_p, amplitude_theta=0.5, mode_k=1,
        ),
        time=TimeConfig(T=T, dt=dt, output_stride=10),
        picard=PicardConfig(tol=1e-10, max_iter=25, gamma_bar=0.5),
        sweep_tau_list=(0.1, 0.05, 0.025, 0.0125),
        seed=0,
    )


# ---------------------------------------------------------------- operators


def sbp_adjointness_check(seed: int = 0, n_pairs: int = 100, N: int = 64) -> CheckResult:
    """|<div w, v> + <w, grad v>| <= 1e-12 ||w|| ||v|| over random pairs."""
    grid = Grid1D(1.0, N)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        w = FaceField(grid, rng.standard_normal(N + 1))
        v = NodeField(grid, rng.standard_normal(N))
        defect = abs(
            l2_inner(divergence_from_faces(w), v) + l2_inner(w, gradient_to_faces(v))
        )
        worst = max(worst, defect / (l2_norm(w) * l2_norm(v)))
    return CheckResult("operator_sbp_adjointness", worst <= 1e-12, worst, 1e-12,
                       f"{n_pairs} random pairs at N={N}")


def laplacian_quadratic_check(N: int = 64) -> CheckResult:
    """Second difference of x(1-x) is exactly -2 (zero truncation error)."""
    grid = Grid1D(1.0, N)
    x = grid.nodes()
    u = NodeField(grid, x * (1.0 - x))
    dev = float(np.max(np.abs(laplacian_dirichlet(u).values + 2.0)))
    return CheckResult("operator_laplacian_quadratic", dev <= 1e-10, dev, 1e-10,
                       "roundoff-only deviation from -2")


def laplacian_composition_check(N: int = 64, seed: int = 0) -> CheckResult:
    """laplacian_dirichlet must equal divergence(gradient(.)) bit for bit."""
    grid = Grid1D(1.0, N)
    rng = np.random.default_rng(seed)
    u = NodeField(grid, rng.standard_normal(N))
    lhs = laplacian_dirichlet(u).values.tobytes()
    rhs = divergence_from_faces(gradient_to_faces(u)).values.tobytes()
    same = lhs == rhs
    return CheckResult("operator_laplacian_composition", same,
                       0.0 if same else 1.0, 0.5, "bitwise comparison")


def parseval_checks(N: int = 64) -> list[CheckResult]:
    """Discrete sine/cosine norms are exactly L/2."""
    grid = Grid1D(1.0, N)
    s = NodeField(grid, np.sin(np.pi * grid.nodes()))
    c = FaceField(grid, np.cos(np.pi * grid.faces()))
    dev_s = abs(l2_norm(s) ** 2 - 0.5)
    dev_c = abs(l2_norm(c) ** 2 - 0.5)
    return [
        CheckResult("operator_sine_node_norm", dev_s <= 1e-14, dev_s, 1e-14),
        CheckResult("operator_cosine_face_norm", dev_c <= 1e-14, dev_c, 1e-14),
    ]


# ------------------------------------------------------------- mode studies


def mode_run(
    params: PhysicalParams, theta0: NodeField, T0: float, mode_k: int, dt: float, n_steps: int
):
    """Step theta0 with q0 = 0, f = 0 and yield (state, numeric, oracle) per step.

    numeric projects theta onto sin(mode_k pi x / L); oracle is the telegraph
    amplitude from T0 with T0' = -ell T0 / m (the first equation at t = 0).
    Fourier step at tau = 0, Cattaneo otherwise; a non-finite field or value
    (bb*bb of the oracle can overflow) raises a NonFinite located at its
    step, without a numpy warning.  The single-mode driver of mode_study, the
    modes subcommand and demo 02.
    """
    grid = theta0.grid
    shape = NodeField(grid, np.sin(mode_k * np.pi * grid.nodes() / grid.L))
    shape_sq = l2_norm(shape) ** 2
    lam = grid.laplacian_eigenvalue(mode_k)
    T0dot = -params.ell * T0 / params.m
    step = fourier_thermal_step if params.tau == 0.0 else cattaneo_step
    zero_f = grid.zero_node_field()
    state = ThermalState.initial(theta0, grid.zero_face_field())
    for n in range(1, n_steps + 1):
        with np.errstate(all="ignore"):
            try:
                state = step(state, zero_f, dt, params)
            except NonFinite as exc:
                raise exc.located(n, state.t + dt) from None
            numeric = l2_inner(state.theta, shape) / shape_sq
        oracle = telegraph_mode_oracle(params, lam, T0, T0dot, state.t)
        for column, value in (("numeric", numeric), ("oracle", oracle)):
            if not math.isfinite(value):
                raise NonFinite(f"modes column {column}", step=n, time=state.t)
        yield state, numeric, oracle


@dataclass(frozen=True)
class ModeStudy:
    """Single-mode Cattaneo run versus its exact scalar reductions."""

    dt: float
    max_amplitude_error: float
    max_defect_mismatch: float
    decay_excess: float
    monotonicity_excess: float


@lru_cache(maxsize=None)
def mode_study(dt: float, tau: float = 0.1, N: int = 128, T: float = 1.0) -> ModeStudy:
    """Run theta0 = sin(pi x), q0 = 0, f = 0 and collect every modal metric.

    The discrete update preserves the (sin at nodes, cos at faces) pair, so
    the run reduces exactly to a 2x2 recurrence whose telegraph ODE has the
    discrete eigenvalue lambda_h(1).  Collected:

      - max-in-time modal amplitude error against the closed-form oracle;
      - max mismatch between the energy-balance defect of the PDE run and
        the same defect computed from the scalar recurrence;
      - worst excess over the decay certificate
        E0(t_n) <= E0(0) (1 + 2 c dt)^{-n}, c = min(ell/m, 2/tau);
      - worst monotonicity violation of E0.
    """
    params = unit_params(tau=tau)
    grid = Grid1D(1.0, N)
    sin_field = NodeField(grid, np.sin(np.pi * grid.nodes()))
    cos_field = FaceField(grid, np.cos(np.pi * grid.faces()))
    zero_f = grid.zero_node_field()

    lam = grid.laplacian_eigenvalue(1)
    mu = math.sqrt(lam)
    s_sq = l2_norm(sin_field) ** 2
    c_sq = l2_norm(cos_field) ** 2
    m, ell, kappa = params.m, params.ell, params.kappa_a
    c_rate = params.decay_rate

    w = tau / (tau + dt)
    eta = kappa * (dt / (tau + dt))
    denom = m / dt + ell + eta * lam

    def modal_e0(T_amp, R_amp):
        return 0.5 * (m * kappa * T_amp**2 * s_sq + tau * R_amp**2 * c_sq)

    def modal_d0(T_amp, R_amp):
        return ell * kappa * T_amp**2 * s_sq + R_amp**2 * c_sq

    T_amp, R_amp = 1.0, 0.0
    initial = ThermalState.initial(sin_field, grid.zero_face_field())
    e0_first = e0_prev = heat_energy(initial, params, 0)
    max_amp_err = 0.0
    max_mismatch = 0.0
    decay_excess = -math.inf
    mono_excess = -math.inf
    run = mode_run(params, sin_field, 1.0, 1, dt, int(round(T / dt)))
    for n, (state, numeric_amp, oracle_amp) in enumerate(run, start=1):
        T_new = ((m / dt) * T_amp + w * mu * R_amp) / denom
        R_new = w * R_amp - eta * mu * T_new
        defect_modal = abs(
            (modal_e0(T_new, R_new) - modal_e0(T_amp, R_amp)) / dt
            + modal_d0(T_new, R_new)
        )
        defect_pde = heat_balance_residual(state, zero_f, params)
        max_mismatch = max(max_mismatch, abs(defect_pde - defect_modal))
        T_amp, R_amp = T_new, R_new

        max_amp_err = max(max_amp_err, abs(numeric_amp - oracle_amp))

        e0 = heat_energy(state, params, 0)
        mono_excess = max(mono_excess, e0 - e0_prev)
        decay_excess = max(
            decay_excess, e0 - e0_first * (1.0 + 2.0 * c_rate * dt) ** (-n)
        )
        e0_prev = e0
    return ModeStudy(
        dt=dt,
        max_amplitude_error=max_amp_err,
        max_defect_mismatch=max_mismatch,
        decay_excess=decay_excess,
        monotonicity_excess=mono_excess,
    )


# ----------------------------------------------------- manufactured solution


@lru_cache(maxsize=None)
def manufactured_error(N: int, dt: float, T: float, b: float = 1.0) -> float:
    """L2 error at time T against the exact solution p = e^{-t} sin(pi x).

    With alpha = r = 1 the matching forcing is
    g = (1 + pi^2 - b pi^2) e^{-t} sin(pi x); at b = 1 it collapses to
    e^{-t} sin(pi x) and the r- and b-terms cancel against each other.  The
    cancellation is eigenvalue-independent, so at b = 1 the sine mode also
    solves the *semi-discrete* system exactly and the measured error is
    purely temporal; a b != 1 run exposes the O(dx^2) spatial truncation.
    """
    params = unit_params(b=b)
    grid = Grid1D(1.0, N)
    s = np.sin(np.pi * grid.nodes())
    ones = NodeField(grid, np.ones(N))
    state = AcousticState.initial(NodeField(grid, s), NodeField(grid, -s))
    amplitude = 1.0 + math.pi**2 - b * math.pi**2
    n_steps = int(round(T / dt))
    for n in range(1, n_steps + 1):
        g = NodeField(grid, amplitude * math.exp(-n * dt) * s)
        coeffs = FrozenCoefficients(alpha=ones, r=ones, g=g, alpha_min=1.0)
        state = westervelt_linear_step(state, coeffs, dt, params)
    exact = math.exp(-n_steps * dt) * s
    return float(np.sqrt(grid.dx * np.sum((state.p.values - exact) ** 2)))


def manufactured_spatial_orders(
    Ns=(32, 64, 128), dt: float = 1e-5, T: float = 0.1, b: float = 1.0
) -> tuple[float, ...]:
    errors = [manufactured_error(N, dt, T, b) for N in Ns]
    return tuple(
        math.log2(a / b_) for a, b_ in zip(errors, errors[1:])
    )


def manufactured_temporal_orders(
    dts=(4e-3, 2e-3, 1e-3), N: int = 256, T: float = 1.0
) -> tuple[float, ...]:
    errors = [manufactured_error(N, dt, T) for dt in dts]
    return tuple(
        math.log2(a / b) for a, b in zip(errors, errors[1:])
    )


# ------------------------------------------------------------- coupled runs


@lru_cache(maxsize=None)
def canonical_run(dt: float = 1e-3, T: float = 1.0):
    return simulate(canonical_config(dt=dt, T=T))


@lru_cache(maxsize=None)
def canonical_sweep() -> SweepResult:
    return tau_sweep(canonical_config())


def lensing_config() -> SimConfig:
    """Canonical configuration with a temperature-dependent sound speed.

    h = 1 + 0.2 theta couples the pressure path to the temperature, so the
    relaxation ladder becomes visible in e_p as well; with h = const the
    acoustic subsystem is exactly independent of theta and e_p vanishes
    identically.
    """
    return replace(
        canonical_config(),
        speed_model=SpeedOfSoundModel(coeffs=(1.0, 0.2), h_floor=0.5),
    )


@lru_cache(maxsize=None)
def lensing_sweep() -> SweepResult:
    return tau_sweep(lensing_config())


def contraction_metrics(result) -> tuple[float, int, float]:
    """(min alpha_min, max Picard iterations, max successive-difference ratio)."""
    worst_ratio = 0.0
    for distances in result.picard_distances_per_step:
        for a, b in zip(distances, distances[1:]):
            if a > 0.0:
                worst_ratio = max(worst_ratio, b / a)
    return (
        min(result.alpha_min_per_step),
        max(result.picard_iters_per_step),
        worst_ratio,
    )


def residual_refinement_ratio(column: str = "heat_residual", t_min: float = 0.05) -> float:
    """Max-in-time balance residual ratio between the dt and dt/2 canonical runs."""
    coarse = canonical_run(1e-3)
    fine = canonical_run(5e-4)

    def peak(run):
        return max(
            getattr(r, column) for r in run.reports if r.t >= t_min
        )

    return peak(coarse) / peak(fine)


@lru_cache(maxsize=None)
def tau_zero_bit_identity(T: float = 0.25) -> bool:
    """The Cattaneo code path at tau = 0 must reproduce the Fourier path bitwise."""
    config = replace(
        canonical_config(T=T), params=replace(canonical_config().params, tau=0.0)
    )
    via_cattaneo = simulate(config, force_cattaneo=True)
    via_fourier = simulate(config)

    def fingerprint(run):
        blobs = [np.asarray(a).tobytes() for a in run.theta_series]
        blobs += [np.asarray(a).tobytes() for a in run.p_series]
        blobs += [np.asarray(a).tobytes() for a in run.v_series]
        blobs.append(run.final_state.thermal.q.values.tobytes())
        blobs.append(np.asarray([r.row() for r in run.reports], dtype=float).tobytes())
        return b"".join(blobs)

    return fingerprint(via_cattaneo) == fingerprint(via_fourier)


def degeneracy_semantics() -> tuple[bool, str]:
    """An over-amplitude run must abort with a located Degenerate error."""
    config = canonical_config(amplitude_p=0.75, T=0.1)
    try:
        simulate(config)
    except Degenerate as exc:
        located = exc.node_index is not None and exc.step is not None
        return located, (
            f"alpha_min={exc.alpha_min:.3g} at node {exc.node_index} step {exc.step}"
        )
    return False, "run unexpectedly completed"


def gronwall_cases(dt: float = 1e-3, T: float = 1.0) -> float:
    """Max error of the bound checker over the three closed-form cases."""
    t = np.arange(0.0, T + dt / 2, dt)
    u0 = 2.0
    worst = 0.0
    flat = gronwall_bound(u0, np.zeros_like(t), np.zeros_like(t), t)
    worst = max(worst, float(np.max(np.abs(flat - u0))))
    a = 0.7
    growing = gronwall_bound(u0, np.full_like(t, a), np.zeros_like(t), t)
    worst = max(worst, float(np.max(np.abs(growing - u0 * np.exp(a * t)))))
    c = 0.3
    driven = gronwall_bound(u0, np.zeros_like(t), np.full_like(t, c), t)
    return max(worst, float(np.max(np.abs(driven - (u0 + c * t)))))


# ------------------------------------------------------------------- driver


def _ratio_check(name: str, errors, detail: str) -> CheckResult:
    """Strictly-decreasing ladder with consecutive ratios >= 1.5."""
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    if decreasing and errors[-1] > 0.0:
        worst = min(a / b for a, b in zip(errors, errors[1:]))
    else:
        worst = 0.0
    return CheckResult(name, decreasing and worst >= 1.5, worst, 1.5, detail)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []

    checks.append(sbp_adjointness_check(seed=seed))
    checks.append(laplacian_quadratic_check())
    checks.append(laplacian_composition_check(seed=seed))
    checks.extend(parseval_checks())

    coarse = mode_study(1e-3)
    fine = mode_study(5e-4)
    checks.append(CheckResult(
        "mode_amplitude_error", coarse.max_amplitude_error <= 2e-3,
        coarse.max_amplitude_error, 2e-3, "vs telegraph oracle at dt=1e-3"))
    ratio = coarse.max_amplitude_error / fine.max_amplitude_error
    checks.append(CheckResult(
        "mode_amplitude_refinement", 1.7 <= ratio <= 2.3, ratio, 2.3,
        "halving dt halves the error"))
    checks.append(CheckResult(
        "mode_decay_certificate", coarse.decay_excess <= 0.0,
        coarse.decay_excess, 0.0, "E0 <= E0(0)(1+2c dt)^-n exactly"))
    checks.append(CheckResult(
        "mode_energy_monotone", coarse.monotonicity_excess <= 0.0,
        coarse.monotonicity_excess, 0.0))
    checks.append(CheckResult(
        "balance_modal_defect", coarse.max_defect_mismatch <= 1e-12,
        coarse.max_defect_mismatch, 1e-12,
        "PDE balance defect vs scalar recurrence"))

    spatial = manufactured_spatial_orders()
    checks.append(CheckResult(
        "acoustic_spatial_order", min(spatial) >= 1.9, min(spatial), 1.9,
        "orders " + "/".join(f"{o:.3f}" for o in spatial)
        + "; b=1 sine solution is spatially exact so no order is observable"))
    spatial_b2 = manufactured_spatial_orders(b=2.0)
    checks.append(CheckResult(
        "acoustic_spatial_order_b2", min(spatial_b2) >= 1.9, min(spatial_b2), 1.9,
        "orders " + "/".join(f"{o:.3f}" for o in spatial_b2)
        + " with b=2 (spatial truncation visible)"))
    temporal = manufactured_temporal_orders()
    dev = max(abs(o - 1.0) for o in temporal)
    checks.append(CheckResult(
        "acoustic_temporal_order", dev <= 0.1, dev, 0.1,
        "orders " + "/".join(f"{o:.3f}" for o in temporal)))

    run = canonical_run()
    alpha_min, iters, ratio = contraction_metrics(run)
    checks.append(CheckResult(
        "coupled_alpha_min", alpha_min >= 0.5, alpha_min, 0.5,
        "canonical small-data run"))
    checks.append(CheckResult(
        "coupled_picard_iterations", iters <= 5, float(iters), 5.0))
    checks.append(CheckResult(
        "coupled_contraction_ratio", ratio <= 0.5, ratio, 0.5,
        "successive Picard differences"))
    heat_ratio = residual_refinement_ratio("heat_residual")
    checks.append(CheckResult(
        "balance_refinement_heat", 1.7 <= heat_ratio <= 2.3, heat_ratio, 2.3))
    ac_ratio = residual_refinement_ratio("acoustic_residual")
    checks.append(CheckResult(
        "balance_refinement_acoustic", 1.7 <= ac_ratio <= 2.3, ac_ratio, 2.3))

    sweep = canonical_sweep()
    checks.append(_ratio_check("sweep_theta_ratio", sweep.e_theta,
                               "consecutive e_theta ratios"))
    checks.append(_ratio_check(
        "sweep_p_ratio", sweep.e_p,
        "e_p on the canonical run; identically zero because h=const "
        "decouples the pressure path from the temperature"))
    lensing = lensing_sweep()
    checks.append(_ratio_check("sweep_p_ratio_lensing", lensing.e_p,
                               "e_p with h = 1 + 0.2 theta"))

    identical = tau_zero_bit_identity()
    checks.append(CheckResult(
        "tau_zero_bitwise", identical, 0.0 if identical else 1.0, 0.5,
        "Cattaneo path at tau=0 vs Fourier path"))

    located, detail = degeneracy_semantics()
    checks.append(CheckResult(
        "degeneracy_semantics", located, 0.0 if located else 1.0, 0.5, detail))

    worst = gronwall_cases()
    checks.append(CheckResult(
        "gronwall_closed_forms", worst <= 1e-8, worst, 1e-8))
    return checks
