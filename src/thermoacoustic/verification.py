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

Every study runs at fixed settings, and each configuration is one run
cached per process, so the CLI and a pytest run pay for it once.
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
    _westervelt_system,
    westervelt_linear_step,
)
from .config import (
    GridConfig,
    InitialData,
    PicardConfig,
    SimConfig,
    TimeConfig,
)
from .coupling import SimulationResult, SweepResult, simulate, tau_sweep
from .energy import _passes, _Row, _Rows, gronwall_bound
from .grid import (
    FaceField,
    Grid1D,
    NodeField,
    NonFinite,
    _Blocks,
    _difference_quotient,
    _dirichlet_gradient,
    _Tridiagonal,
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


def _bound(name: str, measured: float, low: float, high: float, detail: str = "") -> CheckResult:
    """Passes when low <= measured <= high; the threshold column shows high,
    or low when high is inf."""
    threshold = low if high == math.inf else high
    return CheckResult(name, low <= measured <= high, measured, threshold, detail)


def _flag(name: str, ok: bool, detail: str = "") -> CheckResult:
    """A yes/no check: measured 0 when it holds and 1 when not, against 0.5."""
    return CheckResult(name, ok, 0.0 if ok else 1.0, 0.5, detail)


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


_OPERATOR_N = 64  # the grid of the operator checks


def sbp_adjointness_check(seed: int = 0) -> CheckResult:
    """|<div w, v> + <w, grad v>| <= 1e-12 ||w|| ||v|| over 100 random pairs."""
    N, n_pairs = _OPERATOR_N, 100
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
    return _bound("operator_sbp_adjointness", worst, -math.inf, 1e-12,
                  f"{n_pairs} random pairs at N={N}")


def laplacian_quadratic_check() -> CheckResult:
    """Second difference of x(1-x) is exactly -2 (zero truncation error)."""
    grid = Grid1D(1.0, _OPERATOR_N)
    x = grid.nodes()
    u = NodeField(grid, x * (1.0 - x))
    dev = float(np.max(np.abs(laplacian_dirichlet(u).values + 2.0)))
    return _bound("operator_laplacian_quadratic", dev, -math.inf, 1e-10,
                  "roundoff-only deviation from -2")


def laplacian_composition_check(seed: int = 0) -> CheckResult:
    """laplacian_dirichlet must equal divergence(gradient(.)) bit for bit."""
    grid = Grid1D(1.0, _OPERATOR_N)
    rng = np.random.default_rng(seed)
    u = NodeField(grid, rng.standard_normal(_OPERATOR_N))
    lhs = laplacian_dirichlet(u).values.tobytes()
    rhs = divergence_from_faces(gradient_to_faces(u)).values.tobytes()
    return _flag("operator_laplacian_composition", lhs == rhs, "bitwise comparison")


def parseval_checks() -> list[CheckResult]:
    """Discrete sine/cosine norms are exactly L/2."""
    grid = Grid1D(1.0, _OPERATOR_N)
    s = NodeField(grid, np.sin(np.pi * grid.nodes()))
    c = FaceField(grid, np.cos(np.pi * grid.faces()))
    return [
        _bound("operator_sine_node_norm", abs(l2_norm(s) ** 2 - 0.5), -math.inf, 1e-14),
        _bound("operator_cosine_face_norm", abs(l2_norm(c) ** 2 - 0.5), -math.inf, 1e-14),
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
def mode_study(dt: float) -> ModeStudy:
    """Run theta0 = sin(pi x), q0 = 0, f = 0 at tau = 0.1, N = 128 to T = 1
    and collect every modal metric.

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
    tau, T = 0.1, 1.0
    params = unit_params(tau=tau)
    grid = Grid1D(1.0, 128)
    sin_field = NodeField(grid, np.sin(np.pi * grid.nodes()))
    cos_field = FaceField(grid, np.cos(np.pi * grid.faces()))

    def rows():
        """(n, numeric, oracle, _Row) of each step (n, (state, numeric,
        oracle)); one _Rows pass with zero sources per list of _passes."""
        steps = enumerate(mode_run(params, sin_field, 1.0, 1, dt, int(round(T / dt))), start=1)
        for chunk in _passes(steps, lambda step: step[1][0], grid):
            batch = _Rows(ths=[c[1][0] for c in chunk], levels=2, f=np.zeros((len(chunk), grid.N)))
            for i, (n, (_, numeric, oracle)) in enumerate(chunk):
                yield n, numeric, oracle, _Row(batch, i)

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
    max_amp_err = 0.0
    max_mismatch = 0.0
    decay_excess = -math.inf
    mono_excess = -math.inf
    for n, numeric_amp, oracle_amp, row in rows():
        e0, d0 = row.heat(params)
        if n == 1:
            e0_first = e0_prev = row.heat(params, "prev")[0]
        T_new = ((m / dt) * T_amp + w * mu * R_amp) / denom
        R_new = w * R_amp - eta * mu * T_new
        defect_modal = abs(
            (modal_e0(T_new, R_new) - modal_e0(T_amp, R_amp)) / dt
            + modal_d0(T_new, R_new)
        )
        defect_pde = row.heat_residual(params, e0, d0)
        max_mismatch = max(max_mismatch, abs(defect_pde - defect_modal))
        T_amp, R_amp = T_new, R_new

        max_amp_err = max(max_amp_err, abs(numeric_amp - oracle_amp))

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

    Each step is a public westervelt_linear_step call, which perfbench's
    wave_manufactured workload times, so this keeps its own loop;
    manufactured_spatial_orders reads the same errors from _spatial_errors.
    """
    params = unit_params(b=b)
    grid = Grid1D(1.0, N)
    s = np.sin(np.pi * grid.nodes())
    ones = NodeField(grid, np.ones(N))
    state = AcousticState.initial(NodeField(grid, s), NodeField(grid, -s))
    amplitude = 1.0 + math.pi**2 - b * math.pi**2
    n_steps = int(round(T / dt))
    for n in range(1, n_steps + 1):
        g = NodeField._proven(grid, amplitude * math.exp(-n * dt) * s)  # |g| <= |amplitude|
        coeffs = FrozenCoefficients(alpha=ones, r=ones, g=g, alpha_min=1.0)
        state = westervelt_linear_step(state, coeffs, dt, params)
    exact = math.exp(-n_steps * dt) * s
    return float(np.sqrt(grid.dx * np.sum((state.p.values - exact) ** 2)))


def _log2_ratios(errors) -> tuple[float, ...]:
    return tuple(math.log2(a / b) for a, b in zip(errors, errors[1:]))


_SPATIAL_N = (32, 64, 128)  # the grids of the spatial studies, at dt = 1e-5 and T = 0.1


@lru_cache(maxsize=None)
def _spatial_errors(bs: tuple[float, ...]) -> dict[tuple[int, float], float]:
    """manufactured_error(N, 1e-5, 0.1, b), keyed (N, b), for every N of _SPATIAL_N and b of
    bs, bit for bit, from one run of all these studies as the blocks of one system.

    With alpha = r = 1 the step's matrix is constant: it is joined from each block's
    _westervelt_system and factored once, and its rhs (alpha v/dt + r Lap p) + g is
    v/dt + Lap p + g to the bit.  dx enters the stencils per node and per face, and p is
    reset to +0.0 at the separators, each block's boundary zero; v's separator entries
    meet only the separator rows, whose rhs is reset to 1.
    """
    dt, T = 1e-5, 0.1
    n_steps = int(round(T / dt))
    cases = [(N, b) for b in bs for N in _SPATIAL_N]
    grids = [Grid1D(1.0, N) for N, _ in cases]
    blocks = _Blocks(grid.N for grid in grids)
    systems = [_westervelt_system(np.ones(grid.N), np.ones(grid.N), 0.0, 0.0, 0.0, dt,
                                  unit_params(b=b), grid.dx) for grid, (_, b) in zip(grids, cases)]
    solver = _Tridiagonal(blocks.n).factor(
        blocks.join([system[0] for system in systems], 1.0),
        *(blocks.join([system[band] for system in systems], extra=-1) for band in (1, 2)),
    )
    s = blocks.join([np.sin(np.pi * grid.nodes()) for grid in grids])
    amplitude = blocks.join([np.full(N, 1.0 + math.pi**2 - b * math.pi**2) for N, b in cases])
    dx_nodes = blocks.join([np.full(grid.N, grid.dx) for grid in grids], 1.0)
    dx_faces = blocks.join([np.full(grid.N + 1, grid.dx) for grid in grids], extra=1)
    separators = blocks.separators
    p, v = s, -s
    for n in range(1, n_steps + 1):
        rhs = v / dt + _difference_quotient(_dirichlet_gradient(p, dx_faces), dx_nodes)
        rhs += amplitude * math.exp(-n * dt) * s
        rhs[separators] = 1.0
        v = solver.solve(rhs)
        p = p + dt * v
        p[separators] = 0.0
    exact = math.exp(-n_steps * dt) * s
    return {case: float(np.sqrt(grid.dx * np.sum((block - block_exact) ** 2)))
            for case, grid, block, block_exact
            in zip(cases, grids, blocks.split(p), blocks.split(exact))}


def manufactured_spatial_orders(b: float = 1.0) -> tuple[float, ...]:
    """Orders over N = 32, 64, 128 at dt = 1e-5 and T = 0.1, read from one batch of the
    b = 1 and b = 2 studies (of b's alone for another b)."""
    errors = _spatial_errors((1.0, 2.0) if b in (1.0, 2.0) else (b,))
    return _log2_ratios([errors[N, b] for N in _SPATIAL_N])


def manufactured_temporal_orders() -> tuple[float, ...]:
    """Orders over dt = 4e-3, 2e-3, 1e-3 at N = 256 and T = 1."""
    return _log2_ratios([manufactured_error(256, dt, 1.0) for dt in (4e-3, 2e-3, 1e-3)])


# ------------------------------------------------------------- coupled runs


def canonical_run(dt: float = 1e-3) -> SimulationResult:
    """simulate(canonical_config(dt=dt)), run once per step size, however
    the call is written."""
    return _canonical_run(dt)


@lru_cache(maxsize=None)
def _canonical_run(dt: float) -> SimulationResult:
    return simulate(canonical_config(dt=dt))


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


def residual_refinement_ratio(column: str = "heat_residual") -> float:
    """Max over t >= 0.05 of a balance residual, as the ratio between the
    dt and dt/2 canonical runs."""

    def peak(run):
        return max(getattr(r, column) for r in run.reports if r.t >= 0.05)

    return peak(canonical_run(1e-3)) / peak(canonical_run(5e-4))


@lru_cache(maxsize=None)
def tau_zero_bit_identity() -> bool:
    """The Cattaneo code path at tau = 0 must reproduce the Fourier path
    bitwise, on the canonical configuration to T = 0.25."""
    config = canonical_config(tau=0.0, T=0.25)
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


def gronwall_cases() -> float:
    """Max error of the bound checker over the three closed-form cases, on
    [0, 1] at spacing 1e-3."""
    t = np.arange(0.0, 1.0 + 1e-3 / 2, 1e-3)
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
    """Strictly-decreasing ladder with consecutive ratios >= 1.5; the worst
    ratio reads 0 for a ladder that does not decrease strictly to a positive
    error."""
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    if decreasing and errors[-1] > 0.0:
        worst = min(a / b for a, b in zip(errors, errors[1:]))
    else:
        worst = 0.0
    return _bound(name, worst, 1.5, math.inf, detail)


def _orders(orders) -> str:
    return "orders " + "/".join(f"{o:.3f}" for o in orders)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    inf = math.inf
    coarse, fine = mode_study(1e-3), mode_study(5e-4)
    spatial = manufactured_spatial_orders()
    spatial_b2 = manufactured_spatial_orders(b=2.0)
    temporal = manufactured_temporal_orders()
    alpha_min, iters, ratio = contraction_metrics(canonical_run())
    sweep = canonical_sweep()
    return [
        sbp_adjointness_check(seed=seed),
        laplacian_quadratic_check(),
        laplacian_composition_check(seed=seed),
        *parseval_checks(),
        _bound("mode_amplitude_error", coarse.max_amplitude_error, -inf, 2e-3,
               "vs telegraph oracle at dt=1e-3"),
        _bound("mode_amplitude_refinement",
               coarse.max_amplitude_error / fine.max_amplitude_error, 1.7, 2.3,
               "halving dt halves the error"),
        _bound("mode_decay_certificate", coarse.decay_excess, -inf, 0.0,
               "E0 <= E0(0)(1+2c dt)^-n exactly"),
        _bound("mode_energy_monotone", coarse.monotonicity_excess, -inf, 0.0),
        _bound("balance_modal_defect", coarse.max_defect_mismatch, -inf, 1e-12,
               "PDE balance defect vs scalar recurrence"),
        _bound("acoustic_spatial_order", min(spatial), 1.9, inf, _orders(spatial)
               + "; b=1 sine solution is spatially exact so no order is observable"),
        _bound("acoustic_spatial_order_b2", min(spatial_b2), 1.9, inf, _orders(spatial_b2)
               + " with b=2 (spatial truncation visible)"),
        _bound("acoustic_temporal_order", max(abs(o - 1.0) for o in temporal), -inf, 0.1,
               _orders(temporal)),
        _bound("coupled_alpha_min", alpha_min, 0.5, inf, "canonical small-data run"),
        _bound("coupled_picard_iterations", float(iters), -inf, 5.0),
        _bound("coupled_contraction_ratio", ratio, -inf, 0.5, "successive Picard differences"),
        _bound("balance_refinement_heat", residual_refinement_ratio("heat_residual"), 1.7, 2.3),
        _bound("balance_refinement_acoustic", residual_refinement_ratio("acoustic_residual"),
               1.7, 2.3),
        _ratio_check("sweep_theta_ratio", sweep.e_theta, "consecutive e_theta ratios"),
        _ratio_check("sweep_p_ratio", sweep.e_p,
                     "e_p on the canonical run; identically zero because h=const "
                     "decouples the pressure path from the temperature"),
        _ratio_check("sweep_p_ratio_lensing", lensing_sweep().e_p, "e_p with h = 1 + 0.2 theta"),
        _flag("tau_zero_bitwise", tau_zero_bit_identity(),
              "Cattaneo path at tau=0 vs Fourier path"),
        _flag("degeneracy_semantics", *degeneracy_semantics()),
        _bound("gronwall_closed_forms", gronwall_cases(), -inf, 1e-8),
    ]
