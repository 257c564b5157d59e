"""Fixed-point coupling of the pressure and bioheat solvers.

Each time step solves the nonlinear coupled system by Picard iteration on
the frozen-coefficient map: from the iterate (p*, v*, theta*) assemble
alpha = 1 - 2 k(theta*) p*, r = h(theta*), g = 2 k(theta*) (v*)^2, guard
non-degeneracy, take one implicit acoustic step from the time-n state, feed
the freshly updated v into the heat source Q(v) (Gauss-Seidel ordering,
which matches the information flow of the decoupled system and accelerates
contraction), take one implicit thermal step, and repeat until the L2
distance between successive iterates drops below tol * (1 + field scale).
_picard runs these iterates on raw arrays, with scalar guards only;
coupled_step owns the fields and locates errors at the step.

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

from . import config as config_mod  # attributes looked up per call, so wrappers apply
from .acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    _coefficients,
    _degeneracy_threshold,
    _frozen,
    _guard_alpha,
    _h_and_k2,
    _westervelt_bands,
    _westervelt_solve,
    assemble_coefficients,
    check_nondegeneracy,
    westervelt_linear_step,  # not called here; perfbench/probes.py wraps it
)
from .energy import EnergyReport, XNormAccumulator, _chunk_rows, _make_report, _Row, _Rows
from .grid import (
    FaceField,
    Grid1D,
    NodeField,
    NonFinite,
    _check_arrays,
    _difference_quotient,
    _dirichlet_gradient,
    _l2,
    _count_problem,
    _require,
    _step_problem,
    _tolerance_problem,
    _Tridiagonal,
    gradient_to_faces,
    l2_norm,  # not called here; perfbench/probes.py wraps it
    laplacian_dirichlet,
)
from .heat import (
    ThermalState,
    _cattaneo_flux,
    _cattaneo_update,
    _cattaneo_weights,
    _fourier_flux,
    _fourier_update,
    _heat_matrix,
    cattaneo_step,  # not called here; perfbench/probes.py wraps it
    fourier_thermal_step,  # not called here; perfbench/probes.py wraps it
)
from .model import (
    FloorViolated,
    PhysicalParams,
    SpeedOfSoundModel,
    _absorbed_power,
    _invalid_taus,
    q_source,
    validate_params,
)

__all__ = [
    "PicardDiverged",
    "CompatibilityData",
    "CoupledState",
    "SimulationResult",
    "Stepper",
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
) -> CompatibilityData:
    """Initial p_tt, theta_t (and q_t for tau > 0) from the data.

        p2     = [h(theta0) Lap p0 + b Lap p1 + 2 k(theta0) p1^2]
                 / (1 - 2 k(theta0) p0)
        theta1 = (-div q0 - ell theta0 + Q(p1)) / m
        q1     = -(q0 + kappa_a grad theta0) / tau

    Raises Degenerate if the denominator of p2 is not positive everywhere.
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
    q1 = None
    if params.tau > 0.0:
        grad0 = gradient_to_faces(theta0).values
        q1 = FaceField(grid, -(q0.values + params.kappa_a * grad0) / params.tau)
    return CompatibilityData(p2=p2, theta1=theta1, q1=q1)


class Stepper:
    """What the steps of one run share, and the one holder of its settings: the grid, dx, params,
    model and the step settings dt, tol, max_iter and gamma_bar's threshold, checked here once
    (dt, picard_tol, max_iter, tau, then gamma_bar), the thermal path (Fourier at tau = 0 unless
    force_cattaneo; both read _cattaneo_weights), the _Tridiagonal gtsv, solve_heat of one that
    factors _heat_matrix's operator once, and the rows each iterate builds its systems in: rows
    for _westervelt_system and heat_rhs for the thermal update.  The solves copy them into
    LAPACK's rows, so a fallback reads them untouched, and a stepper serves any number of
    coupled_step calls.  simulate builds one per run.  If model's h is a finite constant
    c >= h_floor > 0, 0 theta + c = c to the bit for finite theta: run = (r, 2 k) and bands,
    r's _westervelt_bands, are then read-only run constants, r proven finite.  A built stepper
    refuses to have any attribute set: its derived parts could not follow a new setting."""

    def __init__(self, grid: Grid1D, dt, params, model, picard_tol, max_iter, gamma_bar,
                 force_cattaneo=False):
        _require("dt", _step_problem(dt))
        _require("picard_tol", _tolerance_problem(picard_tol))
        _require("max_iter", _count_problem(max_iter, 1))
        self.dt, self.tol, self.max_iter = dt, picard_tol, max_iter
        self.grid, self.params, self.model = grid, params, model
        self.fourier, self.dx = params.tau == 0.0 and not force_cattaneo, grid.dx
        self.gtsv = _Tridiagonal(grid.N)
        *self.rows, self.heat_rhs = np.empty((5, grid.N))
        self.w, self.eta = _cattaneo_weights(params, dt)
        self.threshold = _degeneracy_threshold(gamma_bar)
        heat = _Tridiagonal(grid.N).factor(*_heat_matrix(grid, params, dt, self.eta))
        self.solve_heat = heat.solve
        self.run = self.bands = None
        if len(model.coeffs) == 1 and 0.0 < model.h_floor <= model.coeffs[0] < math.inf:
            self.run = _h_and_k2(np.zeros(grid.N), model, params)
            self.bands = _westervelt_bands(self.run[0], dt, params, grid.dx)
            for constant in (*self.run, *self.bands[:2]):
                constant.flags.writeable = False
        self.__dict__["_built"] = True

    def __setattr__(self, name, value):
        # The heat factor, the Cattaneo weights, the threshold and a constant h's run constants
        # were made from the settings, so a built stepper takes no new value for any of them.
        if "_built" in self.__dict__:
            raise AttributeError(
                f"a Stepper's settings are fixed when it is built: cannot set {name}")
        object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CoupledState:
    """Accepted state of the coupled integration at one time level.

    coeffs_last are the frozen coefficients assembled from this state's
    fields (None for a state built by initial()).  coupled_step reuses them
    as the first iterate's coefficients of the next step, so the Stepper it
    is called with must hold the params and speed model that produced them.
    With a constant h, coeffs_last.r is the Stepper's read-only run constant.
    picard_distances_last are the successive Picard distances of the step
    that produced this state (empty for initial()).
    """

    acoustic: AcousticState
    thermal: ThermalState
    n: int
    coeffs_last: FrozenCoefficients | None = None
    picard_distances_last: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.acoustic.grid is not self.thermal.grid and self.acoustic.grid != self.thermal.grid:
            raise ValueError("acoustic and thermal states must share the grid")

    @property
    def grid(self) -> Grid1D:
        return self.acoustic.grid

    @property
    def t(self) -> float:
        return self.acoustic.t

    @property
    def picard_iterations_last(self) -> int:
        return len(self.picard_distances_last)

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


def coupled_step(state: CoupledState, stepper: Stepper) -> CoupledState:
    """Advance the coupled system one step by frozen-coefficient iteration.

    stepper holds the run's settings, params and model, and its scratch rows;
    simulate builds one per run, and a stepper serves any number of calls.  A
    state on another grid than the stepper's raises ValueError.

    The field boundary of the step: _picard iterates on raw arrays, and this
    picks the first iterate's coefficients, builds the accepted state's
    fields and locates every error at the step.  p, v and theta skip the
    fields' finiteness check: _picard proved them finite by a finite scale
    or by _check_arrays.  q, alpha, r and g, which can overflow, take one guard
    each (q.dot(q) here, the rest in _frozen) and no field check; a constant
    h's r, the stepper's read-only run constant, is finite by construction.
    """
    grid, params, model, run = state.grid, stepper.params, stepper.model, stepper.run
    if grid is not stepper.grid and grid != stepper.grid:  # identity first: simulate's case
        raise ValueError(f"coupled_step: the stepper was built for {stepper.grid!r}, "
                         f"got a state on {grid!r}")
    step_index, step_time = state.n + 1, state.t + stepper.dt
    ac, th = state.acoustic, state.thermal
    try:
        c = state.coeffs_last or assemble_coefficients(th.theta, ac.p, ac.v, model, params)
        level = ac.p.values, ac.v.values, th.theta.values, th.q.values
        accepted, distances = _picard(level, (c.alpha.values, c.r.values, c.g.values), stepper)
        if accepted is None:
            raise PicardDiverged(step_index, step_time, len(distances), distances)
        p, v, theta, q = accepted
        acoustic = ac.advanced(NodeField._proven(grid, p), NodeField._proven(grid, v), step_time)
        if not math.isfinite(q.dot(q)):
            _check_arrays((("FaceField", q),))
        thermal = th.advanced(NodeField._proven(grid, theta), FaceField._proven(grid, q),
                              th.t + stepper.dt)
        coeffs = _frozen(grid, *_coefficients(theta, p, v, model, params, run), run)
    except (Degenerate, FloorViolated, NonFinite) as exc:
        raise exc.located(step_index, step_time) from None

    return CoupledState(acoustic=acoustic, thermal=thermal, n=step_index, coeffs_last=coeffs,
                        picard_distances_last=tuple(distances))


def _picard(level, first, stepper):
    """The Picard iterates of one step on raw arrays, from the time-n arrays
    level = (p, v, theta, q), the first iterate's (alpha, r, g) and the
    stepper, whose params, model and settings it reads.  Returns the accepted
    (p, v, theta, q), or None when stepper.max_iter iterates did not converge,
    and the distances.  Only scalar guards run inside: the alpha_min threshold,
    and finiteness of the acoustic system (through one dot product) and of the
    Picard distance and scale.  When one trips, the arrays are checked in the
    order in which validated fields would have been built, so the error raised
    names the same field and index.  A constant h's iterates take stepper.run
    (from the 2nd) and stepper.bands (if r is stepper.run's)."""
    (p_n, v_n, theta_n, q_n), dx, dt, params = level, stepper.dx, stepper.dt, stepper.params
    run, solve_heat, heat_rhs = stepper.run, stepper.solve_heat, stepper.heat_rhs
    # per time level: Lap_h p^n, (m/dt) theta^n and w div q^n
    grad_p_n = _dirichlet_gradient(p_n, dx)
    lap_p_n = _difference_quotient(grad_p_n, dx)
    m_theta = (params.m / dt) * theta_n
    w_div_q = stepper.w * _difference_quotient(q_n, dx) if stepper.w != 0.0 else None

    def flux(theta_new):
        return (_fourier_flux(theta_new, params, dx) if stepper.fourier
                else _cattaneo_flux(theta_new, q_n, stepper.w, stepper.eta, dx))
    p_star, v_star, theta_star = p_n, v_n, theta_n
    alpha, r, g = first
    distances: list[float] = []
    for i in range(stepper.max_iter):
        if i:
            alpha, r, g = _coefficients(theta_star, p_star, v_star, stepper.model, params, run)
        alpha_min = _guard_alpha(alpha, stepper.threshold, ("NodeField", r), ("NodeField", g))
        v_new = _westervelt_solve(
            alpha, alpha_min, r, g, v_n, grad_p_n, lap_p_n, dt, params, dx, stepper.gtsv,
            stepper.rows, stepper.bands if run and r is run[0] else None,
        )
        p_new = p_n + dt * v_new
        f_next = _absorbed_power(params, v_new)
        if stepper.fourier:
            theta_new = _fourier_update(f_next, m_theta, solve_heat, heat_rhs)
        else:
            theta_new = _cattaneo_update(f_next, m_theta, w_div_q, solve_heat, heat_rhs)

        diffs = (p_new - p_star, v_new - v_star, theta_new - theta_star)
        d = _l2(diffs[0], dx) + _l2(diffs[1], dx) + _l2(diffs[2], dx)
        scale = _l2(p_new, dx) + _l2(v_new, dx) + _l2(theta_new, dx)
        if not (math.isfinite(d) and math.isfinite(scale)):
            _check_arrays((
                ("NodeField", p_new), ("NodeField", v_new), ("NodeField", f_next),
                ("NodeField", theta_new), ("FaceField", flux(theta_new)),
                *(("NodeField", diff) for diff in diffs),
            ))
        distances.append(d)
        p_star, v_star, theta_star = p_new, v_new, theta_new
        if d <= stepper.tol * (1.0 + scale):
            return (p_new, v_new, theta_new, flux(theta_new)), distances
    return None, distances


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
    picard_distances_per_step: tuple[tuple[float, ...], ...]
    x_norms: tuple[float, float, float]

    @property
    def picard_iters_per_step(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.picard_distances_per_step)


def _check_medium(params, model) -> None:
    problems = validate_params(params, model)
    if problems:
        raise ValueError("invalid physical configuration: " + "; ".join(problems))


@np.errstate(all="ignore")
def simulate(config, force_cattaneo: bool = False) -> SimulationResult:
    """Run the coupled integration described by a SimConfig.

    The thermal step is Cattaneo for tau > 0 and Fourier for tau = 0.
    force_cattaneo runs the Cattaneo step at tau = 0 as well; that path must
    reproduce the Fourier path bit for bit (tau_zero_bit_identity).
    Deterministic: identical configs produce identical outputs.  numpy's
    floating-point warnings are silenced; a non-finite field or report
    value still raises the located NonFinite.
    """
    params, model = config.params, config.speed_model
    _check_medium(params, model)

    grid = config_mod.make_grid(config)
    dt = config.time.dt
    n_steps = int(round(config.time.T / dt))
    stride = config.time.output_stride
    snapshot_steps = {int(round(s / dt)) for s in config.time.snapshot_times}

    try:  # setup counts as step 0
        p0, p1, theta0, q0 = config_mod.initial_fields(config, grid)
        coeffs = assemble_coefficients(theta0, p0, p1, model, params)
        check_nondegeneracy(coeffs, config.picard.gamma_bar)
    except (Degenerate, FloorViolated, NonFinite) as exc:
        raise exc.located(0, 0.0) from None
    state = replace(CoupledState.initial(p0, p1, theta0, q0), coeffs_last=coeffs)
    picard = config.picard
    stepper = Stepper(grid, dt, params, model, picard.tol, picard.max_iter, picard.gamma_bar,
                      force_cattaneo)

    xacc = XNormAccumulator(dt)
    reports, theta_series, p_series, v_series, snapshots = [], [], [], [], []
    alpha_mins: list[float] = [coeffs.alpha_min]
    dists: list[tuple[float, ...]] = []
    coeffs_prev = None
    chunk: list[CoupledState] = []  # accepted states whose diagnostics are pending

    def flush() -> None:
        """The diagnostics of the chunk's rows, in step order: one _Rows
        pass, then per row the x-norm sums, sample and report; an error is
        located at its own row."""
        nonlocal coeffs_prev
        outs = [i for i, s in enumerate(chunk) if s.n % stride == 0 or s.n == n_steps]
        coeffs = [chunk[i].coeffs_last for i in outs]
        later = outs and coeffs_prev is not None  # rows after step 0's: prevs and sources
        sources = np.array([chunk[i].acoustic.v.values for i in outs]) if later else None
        rows = _Rows(
            [s.acoustic for s in chunk], [s.thermal for s in chunk], sel=outs, coeffs=coeffs,
            prev=coeffs_prev if later else None,
            f=_absorbed_power(params, sources) if later else None,
        )
        for i, s in enumerate(chunk):
            try:
                if s.n >= 1:
                    xacc.accumulate_step(s.acoustic, s.thermal, rows, i)
                if i in outs:
                    row = xacc.sample_output(s.acoustic, s.thermal, _Row(rows, i))
                    reports.append(_make_report(s, coeffs_prev, params, row))
                    theta_series.append(s.thermal.theta.values.copy())
                    p_series.append(s.acoustic.p.values.copy())
                    v_series.append(s.acoustic.v.values.copy())
                    coeffs_prev = s.coeffs_last
            except NonFinite as exc:
                raise exc.located(s.n, s.t) from None
            if s.n in snapshot_steps:
                snapshots.append(_snapshot(s, grid))
        chunk.clear()

    chunk_rows = _chunk_rows(grid)
    for n in range(n_steps + 1):
        if n >= 1:
            try:
                state = coupled_step(state, stepper)
            except Exception:
                if chunk:  # an error in an earlier step's diagnostics wins
                    flush()
                raise
            alpha_mins.append(state.alpha_min_last)
            dists.append(state.picard_distances_last)
        chunk.append(state)
        # the rows of a pass share their ring depth, so steps 0 and 1 go alone
        if len(chunk) == chunk_rows or n < 2 or n == n_steps:
            flush()

    return SimulationResult(
        grid=grid,
        reports=tuple(reports),
        theta_series=tuple(theta_series),
        p_series=tuple(p_series),
        v_series=tuple(v_series),
        snapshots=tuple(snapshots),
        final_state=state,
        alpha_min_per_step=tuple(alpha_mins),
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


def _series_distance(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...], dx: float) -> float:
    return max(
        float(np.sqrt(dx * np.sum((x - y) ** 2))) for x, y in zip(a, b)
    )


def tau_sweep(base_config, tau_list=None) -> SweepResult:
    """Run the relaxation ladder against the tau = 0 reference.

    All member runs share the grid, step size and initial data; only tau
    changes.  Runs execute sequentially (determinism for free), the
    reference first; results are sorted by tau descending regardless of the
    order given, and the member runs are kept in the same order (for file
    emission).  An empty list, a tau that is not finite and positive, or a
    member whose medium fails validate_params (tau*m overflowing, say)
    raises ValueError before any run.
    """
    taus = tuple(tau_list) if tau_list is not None else tuple(base_config.sweep_tau_list or ())
    if not taus:
        raise ValueError("tau_sweep needs a non-empty tau list")
    bad = _invalid_taus(taus)
    if bad:
        raise ValueError(f"sweep tau values must be finite and positive, got {bad}")
    taus_sorted = tuple(sorted(taus, reverse=True))
    media = [replace(base_config.params, tau=tau) for tau in (0.0,) + taus_sorted]
    for params in media:
        _check_medium(params, base_config.speed_model)

    reference, *members = (simulate(replace(base_config, params=p)) for p in media)
    dx = reference.grid.dx
    e_theta, e_p, e_pt = (
        tuple(_series_distance(getattr(m, s), getattr(reference, s), dx) for m in members)
        for s in ("theta_series", "p_series", "v_series")
    )
    return SweepResult(
        taus=taus_sorted,
        e_theta=e_theta,
        e_p=e_p,
        e_pt=e_pt,
        reference=reference,
        members=tuple(members),
    )
