"""Fixed-point coupling of the pressure and bioheat solvers.

Each time step solves the nonlinear coupled system by Picard iteration on
the frozen-coefficient map: from the iterate (p*, v*, theta*) assemble
alpha = 1 - 2 k(theta*) p*, r = h(theta*), g = 2 k(theta*) (v*)^2, guard
non-degeneracy, take one implicit acoustic step from the time-n state, feed
the freshly updated v into the heat source Q(v) (Gauss-Seidel ordering,
which matches the information flow of the decoupled system and accelerates
contraction), take one implicit thermal step, and repeat until the L2
distance between successive iterates drops below tol * (1 + field scale).

The iteration is applied per time step: the window-global map used by the
existence theory is a compactness device, and per-step iteration is its
standard practical realization - it exercises the same frozen-coefficient
structure.  The accepted state satisfies the nonlinear discrete system with
coefficients evaluated at the accepted fields up to a small multiple of the
Picard tolerance.

The relaxation path is selected by tau: tau > 0 steps the Cattaneo system;
the tau = 0 reference uses the dedicated Fourier stepper (the Cattaneo
elimination degenerates to it bit for bit, which the test suite checks).
The relaxation-limit study runs the same configuration over a ladder of tau
values against the tau = 0 reference and reports max-in-time L2 deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    _first_energy,
    acoustic_identity_residual,
    assemble_coefficients,
    check_nondegeneracy,
    westervelt_linear_step,
)
from .energy import (
    TIMESERIES_COLUMNS,
    EnergyReport,
    XNormAccumulator,
    acoustic_energy,
    coefficient_diagnostics,
    heat_balance_residual,
    heat_dissipation,
    heat_energy,
    theta_higher_energy,
)
from .grid import (
    FaceField,
    Grid1D,
    NodeField,
    NonFinite,
    _difference_quotient,
    gradient_to_faces,
    l2_norm,
    laplacian_dirichlet,
)
from .heat import (
    InsufficientHistory,
    ThermalState,
    cattaneo_step,
    fourier_thermal_step,
)
from .model import (
    FloorViolated,
    PhysicalParams,
    SpeedOfSoundModel,
    q_source,
    validate_params,
)

__all__ = [
    "PicardDiverged",
    "TauZeroFluxDerivative",
    "CompatibilityData",
    "CoupledState",
    "SimulationResult",
    "SweepResult",
    "compatibility_data",
    "coupled_step",
    "simulate",
    "tau_sweep",
]


class PicardDiverged(RuntimeError):
    """The per-step fixed-point iteration exhausted max_iter.

    Non-decreasing successive differences signal leaving the contraction
    regime; a still-decreasing sequence simply needed more iterations.
    Either way the step is not accepted.
    """

    def __init__(self, step, time, iterations, distances):
        self.step = step
        self.time = time
        self.iterations = iterations
        self.distances = tuple(distances)
        trend = (
            "non-decreasing differences (left the contraction regime)"
            if len(self.distances) >= 2 and self.distances[-1] >= self.distances[-2]
            else "still decreasing but tolerance not reached"
        )
        super().__init__(
            f"Picard iteration at step {step} (t={time:.6g}) failed after "
            f"{iterations} iterations, last d={self.distances[-1]:.3e}: {trend}"
        )


class TauZeroFluxDerivative(ValueError):
    """The initial flux rate q1 = -(q0 + kappa_a grad theta0)/tau needs tau > 0."""


@dataclass(frozen=True)
class CompatibilityData:
    """Recursively defined initial time derivatives of the coupled system.

    p2 and theta1 come from solving the equations for the highest time
    derivative at t = 0; q1 exists only for tau > 0 and is None in the
    Fourier limit.  The second-order thermal data (theta2, q2) are needed
    by the well-posedness analysis but never by the scheme and are omitted.
    """

    p2: NodeField
    theta1: NodeField
    q1: FaceField | None


def compatibility_data(
    p0: NodeField,
    p1: NodeField,
    theta0: NodeField,
    q0: FaceField,
    params: PhysicalParams,
    model: SpeedOfSoundModel,
    include_q1: bool | None = None,
) -> CompatibilityData:
    """Initial p_tt, theta_t (and q_t for tau > 0) from the data.

        p2     = [h(theta0) Lap p0 + b Lap p1 + 2 k(theta0) p1^2]
                 / (1 - 2 k(theta0) p0)
        theta1 = (-div q0 - ell theta0 + Q(p1)) / m
        q1     = -(q0 + kappa_a grad theta0) / tau

    Raises Degenerate if the denominator of p2 is not positive everywhere,
    and TauZeroFluxDerivative if q1 is requested at tau = 0.
    """
    grid = p0.grid
    coeffs = assemble_coefficients(theta0, p0, p1, model, params)
    if coeffs.alpha_min <= 0.0:
        node = int(np.argmin(coeffs.alpha.values))
        raise Degenerate(coeffs.alpha_min, node, 0.0)
    numer = (
        coeffs.r.values * laplacian_dirichlet(p0).values
        + params.b * laplacian_dirichlet(p1).values
        + coeffs.g.values
    )
    p2 = NodeField(grid, numer / coeffs.alpha.values)
    theta1 = NodeField(
        grid,
        (-_difference_quotient(q0.values, grid.dx) - params.ell * theta0.values
         + q_source(params, p1).values) / params.m,
    )
    want_q1 = include_q1 if include_q1 is not None else params.tau > 0.0
    q1 = None
    if want_q1:
        if params.tau == 0.0:
            raise TauZeroFluxDerivative(
                "q1 is undefined at tau = 0 (the flux law is algebraic)"
            )
        grad0 = gradient_to_faces(theta0).values
        q1 = FaceField(grid, -(q0.values + params.kappa_a * grad0) / params.tau)
    return CompatibilityData(p2=p2, theta1=theta1, q1=q1)


@dataclass(frozen=True)
class CoupledState:
    """Accepted state of the coupled integration at one time level.

    coeffs_last are the frozen coefficients assembled from this state's
    fields (None for a state built by initial()).  coupled_step reuses them
    as the first iterate's coefficients of the next step, so it must be
    called with the params and speed model that produced them.
    """

    acoustic: AcousticState
    thermal: ThermalState
    n: int
    picard_iterations_last: int = 0
    coeffs_last: FrozenCoefficients | None = None
    picard_distances_last: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.acoustic.grid != self.thermal.grid:
            raise ValueError("acoustic and thermal states must share the grid")

    @property
    def grid(self) -> Grid1D:
        return self.acoustic.grid

    @property
    def t(self) -> float:
        return self.acoustic.t

    @property
    def alpha_min_last(self) -> float:
        """alpha_min of coeffs_last; 1.0 before any coefficients exist."""
        return 1.0 if self.coeffs_last is None else self.coeffs_last.alpha_min

    @staticmethod
    def initial(
        p0: NodeField, p1: NodeField, theta0: NodeField, q0: FaceField
    ) -> "CoupledState":
        return CoupledState(
            acoustic=AcousticState.initial(p0, p1),
            thermal=ThermalState.initial(theta0, q0),
            n=0,
        )


def coupled_step(
    state: CoupledState,
    dt: float,
    picard_tol: float,
    max_iter: int,
    gamma_bar: float,
    params: PhysicalParams,
    model: SpeedOfSoundModel,
    use_fourier: bool = False,
) -> CoupledState:
    """Advance the coupled system one step by frozen-coefficient iteration."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if picard_tol <= 0.0:
        raise ValueError("picard_tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    step_index = state.n + 1
    step_time = state.t + dt
    p_star = state.acoustic.p
    v_star = state.acoustic.v
    theta_star = state.thermal.theta

    distances: list[float] = []
    try:
        coeffs = state.coeffs_last
        if coeffs is None:
            coeffs = assemble_coefficients(theta_star, p_star, v_star, model, params)
        for _ in range(max_iter):
            check_nondegeneracy(coeffs, gamma_bar)
            acoustic_new = westervelt_linear_step(state.acoustic, coeffs, dt, params)
            f_next = q_source(params, acoustic_new.v)
            if use_fourier:
                thermal_new = fourier_thermal_step(state.thermal, f_next, dt, params)
            else:
                thermal_new = cattaneo_step(state.thermal, f_next, dt, params)

            d = (
                l2_norm(acoustic_new.p - p_star)
                + l2_norm(acoustic_new.v - v_star)
                + l2_norm(thermal_new.theta - theta_star)
            )
            distances.append(d)
            p_star, v_star = acoustic_new.p, acoustic_new.v
            theta_star = thermal_new.theta
            scale = l2_norm(p_star) + l2_norm(v_star) + l2_norm(theta_star)
            converged = d <= picard_tol * (1.0 + scale)
            if not converged and len(distances) == max_iter:
                raise PicardDiverged(step_index, step_time, len(distances), distances)
            coeffs = assemble_coefficients(theta_star, p_star, v_star, model, params)
            if converged:
                break
    except (Degenerate, FloorViolated, NonFinite) as exc:
        raise exc.located(step_index, step_time) from None

    return CoupledState(
        acoustic=acoustic_new,
        thermal=thermal_new,
        n=step_index,
        picard_iterations_last=len(distances),
        coeffs_last=coeffs,
        picard_distances_last=tuple(distances),
    )


@dataclass(frozen=True)
class SimulationResult:
    """Artifacts of one coupled run.

    reports hold one row per output time (t = 0, every output_stride-th
    step and the last step), each carrying its own t; theta/p/v series hold
    raw field values at the same times for cross-run comparisons; snapshots
    are (time, x, p, p_t, theta, q_at_left_face) tuples at the configured
    snapshot times.  alpha_min_per_step covers the initial state plus every
    accepted step (length n_steps + 1); the Picard histories cover the
    accepted steps only.  x_norms are the solution-space norms of the whole
    run (XNormAccumulator).
    """

    grid: Grid1D
    reports: tuple[EnergyReport, ...]
    theta_series: tuple[np.ndarray, ...]
    p_series: tuple[np.ndarray, ...]
    v_series: tuple[np.ndarray, ...]
    snapshots: tuple[tuple, ...]
    final_state: CoupledState
    alpha_min_per_step: tuple[float, ...]
    picard_iters_per_step: tuple[int, ...]
    picard_distances_per_step: tuple[tuple[float, ...], ...]
    x_norms: tuple[float, float, float]


def _make_report(
    state: CoupledState,
    coeffs: FrozenCoefficients,
    coeffs_prev: FrozenCoefficients | None,
    f_next: NodeField | None,
    params: PhysicalParams,
) -> EnergyReport:
    th, ac = state.thermal, state.acoustic
    e0 = heat_energy(th, params, 0)
    d0 = heat_dissipation(th, params, 0)
    e1 = e2 = d1 = d2 = 0.0
    if th.depth >= 2:
        e1 = heat_energy(th, params, 1)
        d1 = heat_dissipation(th, params, 1)
    if th.depth >= 3:
        e2 = heat_energy(th, params, 2)
        d2 = heat_dissipation(th, params, 2)
    cal_e0 = cal_e1 = 0.0
    if th.depth >= 3:
        cal_e0, cal_e1, _, _ = theta_higher_energy(th, params)
    try:
        ac_e1, ac_e2, ac_e3, ac_total = acoustic_energy(ac, coeffs, params)
    except InsufficientHistory:
        ac_e1 = _first_energy(ac.p, ac.v, coeffs)
        ac_e2 = ac_e3 = 0.0
        ac_total = ac_e1
    lam = frak_f = 0.0
    heat_res = ac_res = 0.0
    if coeffs_prev is not None:
        lam, frak_f = coefficient_diagnostics(coeffs_prev, coeffs, th.dt)
        ac_res = acoustic_identity_residual(ac, coeffs_prev, coeffs, params)
    if f_next is not None and th.depth >= 2:
        heat_res = heat_balance_residual(th, f_next, params)
    report = EnergyReport(
        t=state.t,
        E0=e0, E1=e1, E2=e2, E_tau=e0 + e1 + e2,
        D0=d0, D1=d1, D2=d2,
        cal_E0=cal_e0, cal_E1=cal_e1,
        acE1=ac_e1, acE2=ac_e2, acE3=ac_e3, acE_total=ac_total,
        lam=lam, frak_f=frak_f,
        alpha_min=coeffs.alpha_min,
        picard_iters=state.picard_iterations_last,
        heat_residual=heat_res,
        acoustic_residual=ac_res,
    )
    for column, value in zip(TIMESERIES_COLUMNS, report.row()):
        if not math.isfinite(value):
            raise NonFinite(f"report column {column}")
    return report


def simulate(config, force_cattaneo: bool = False) -> SimulationResult:
    """Run the coupled integration described by a SimConfig.

    The thermal step is Cattaneo for tau > 0 and Fourier for tau = 0.
    force_cattaneo runs the Cattaneo step at tau = 0 as well; that path must
    reproduce the Fourier path bit for bit (tau_zero_bit_identity).
    Deterministic: identical configs produce identical outputs.
    """
    from .config import initial_fields, make_grid  # deferred: config imports us

    params, model = config.params, config.speed_model
    problems = validate_params(params, model)
    if problems:
        raise ValueError("invalid physical configuration: " + "; ".join(problems))
    use_fourier = params.tau == 0.0 and not force_cattaneo

    grid = make_grid(config)
    dt = config.time.dt
    n_steps = int(round(config.time.T / dt))
    stride = config.time.output_stride
    snapshot_steps = {
        int(round(s / dt)): s for s in config.time.snapshot_times
    }

    try:  # setup counts as step 0
        p0, p1, theta0, q0 = initial_fields(config, grid)
        coeffs = assemble_coefficients(theta0, p0, p1, model, params)
        check_nondegeneracy(coeffs, config.picard.gamma_bar)
    except (Degenerate, FloorViolated, NonFinite) as exc:
        raise exc.located(0, 0.0) from None
    state = replace(CoupledState.initial(p0, p1, theta0, q0), coeffs_last=coeffs)

    try:
        xacc = XNormAccumulator(dt)
        xacc.sample_output(state.acoustic, state.thermal)
        reports = [_make_report(state, coeffs, None, None, params)]
        theta_series = [theta0.values.copy()]
        p_series = [p0.values.copy()]
        v_series = [p1.values.copy()]
        snapshots = []
        if 0 in snapshot_steps:
            snapshots.append(_snapshot(state, grid))
        alpha_mins: list[float] = [coeffs.alpha_min]
        iters: list[int] = []
        dists: list[tuple[float, ...]] = []

        coeffs_prev = coeffs
        for n in range(1, n_steps + 1):
            state = coupled_step(
                state, dt, config.picard.tol, config.picard.max_iter,
                config.picard.gamma_bar, params, model, use_fourier=use_fourier,
            )
            alpha_mins.append(state.alpha_min_last)
            iters.append(state.picard_iterations_last)
            dists.append(state.picard_distances_last)
            xacc.accumulate_step(state.acoustic, state.thermal)
            if n % stride == 0 or n == n_steps:
                xacc.sample_output(state.acoustic, state.thermal)
                f_next = q_source(params, state.acoustic.v)
                reports.append(
                    _make_report(state, state.coeffs_last, coeffs_prev, f_next, params)
                )
                theta_series.append(state.thermal.theta.values.copy())
                p_series.append(state.acoustic.p.values.copy())
                v_series.append(state.acoustic.v.values.copy())
                coeffs_prev = state.coeffs_last
            if n in snapshot_steps:
                snapshots.append(_snapshot(state, grid))
    except NonFinite as exc:
        if exc.step is not None:  # located by coupled_step
            raise
        raise exc.located(state.n, state.t) from None  # from the diagnostics

    return SimulationResult(
        grid=grid,
        reports=tuple(reports),
        theta_series=tuple(theta_series),
        p_series=tuple(p_series),
        v_series=tuple(v_series),
        snapshots=tuple(snapshots),
        final_state=state,
        alpha_min_per_step=tuple(alpha_mins),
        picard_iters_per_step=tuple(iters),
        picard_distances_per_step=tuple(dists),
        x_norms=xacc.norms(),
    )


def _snapshot(state: CoupledState, grid: Grid1D) -> tuple:
    """(t, x, p, p_t, theta, q_at_left_face); the flux column is the face
    value at x - dx/2 of each node row."""
    return (
        state.t,
        grid.nodes(),
        state.acoustic.p.values.copy(),
        state.acoustic.v.values.copy(),
        state.thermal.theta.values.copy(),
        state.thermal.q.values[:-1].copy(),
    )


@dataclass(frozen=True)
class SweepResult:
    """Relaxation-limit deviations against the tau = 0 Fourier reference.

    Entries are ordered by tau descending; each error is the maximum over
    output times of the L2 distance to the reference run, and members holds
    the per-tau runs in the same order.
    """

    taus: tuple[float, ...]
    e_theta: tuple[float, ...]
    e_p: tuple[float, ...]
    e_pt: tuple[float, ...]
    reference: SimulationResult
    members: tuple[SimulationResult, ...]

    def __post_init__(self) -> None:
        if any(tau <= 0.0 for tau in self.taus):
            raise ValueError("sweep tau values must be positive")
        if any(b > a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("sweep tau values must be non-increasing")
        if any(e < 0.0 for e in self.e_theta + self.e_p + self.e_pt):
            raise ValueError("sweep errors must be nonnegative")


def _series_distance(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...], dx: float) -> float:
    return max(
        float(np.sqrt(dx * np.sum((x - y) ** 2))) for x, y in zip(a, b)
    )


def tau_sweep(base_config, tau_list=None) -> SweepResult:
    """Run the relaxation ladder against the tau = 0 reference.

    All member runs share the grid, step size and initial data; only tau
    changes.  Runs execute sequentially (determinism for free); results are
    sorted by tau descending regardless of the order given.  The member runs
    are kept in the same order (for file emission).
    """
    taus = tuple(tau_list) if tau_list is not None else tuple(base_config.sweep_tau_list or ())
    if not taus:
        raise ValueError("tau_sweep needs a non-empty tau list")
    order = sorted(range(len(taus)), key=lambda i: -taus[i])
    taus_sorted = tuple(taus[i] for i in order)

    ref_config = replace(
        base_config, params=replace(base_config.params, tau=0.0)
    )
    reference = simulate(ref_config)
    dx = reference.grid.dx

    e_theta, e_p, e_pt = [], [], []
    members = []
    for tau in taus_sorted:
        cfg = replace(base_config, params=replace(base_config.params, tau=tau))
        result = simulate(cfg)
        e_theta.append(_series_distance(result.theta_series, reference.theta_series, dx))
        e_p.append(_series_distance(result.p_series, reference.p_series, dx))
        e_pt.append(_series_distance(result.v_series, reference.v_series, dx))
        members.append(result)
    return SweepResult(
        taus=taus_sorted,
        e_theta=tuple(e_theta),
        e_p=tuple(e_p),
        e_pt=tuple(e_pt),
        reference=reference,
        members=tuple(members),
    )
