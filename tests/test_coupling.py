import copy
import dataclasses
import hashlib
import pickle
import re
import sys
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from thermoacoustic import acoustics as acoustics_mod
from thermoacoustic import coupling as coupling_mod
from thermoacoustic import energy as energy_mod
from thermoacoustic import grid as grid_mod
from thermoacoustic import heat as heat_mod
from thermoacoustic import verification as verification_mod
from thermoacoustic.acoustics import (
    AcousticState,
    Degenerate,
    assemble_coefficients,
    westervelt_linear_step,
)
from thermoacoustic.cli import snapshot_csv, timeseries_csv
from thermoacoustic.config import InitialData, TimeConfig, initial_fields, make_grid
from thermoacoustic.energy import (
    EnergyReport,
    XNormAccumulator,
    acoustic_energy,
    acoustic_identity_residual,
    coefficient_diagnostics,
    heat_balance_residual,
    heat_dissipation,
    heat_energy,
    theta_higher_energy,
)
from thermoacoustic.coupling import (
    CoupledState,
    PicardDiverged,
    Stepper,
    compatibility_data,
    coupled_step,
    simulate,
    tau_sweep,
)
from thermoacoustic.grid import (
    FaceField,
    Grid1D,
    GridMismatch,
    NodeField,
    NonFinite,
    gradient_to_faces,
    laplacian_dirichlet,
)
from thermoacoustic.heat import ThermalState, cattaneo_step, fourier_step, fourier_thermal_step
from thermoacoustic.model import FloorViolated, SpeedOfSoundModel, q_source
from thermoacoustic.verification import (
    canonical_config,
    canonical_run,
    degeneracy_semantics,
    lensing_config,
    lensing_sweep,
    unit_params,
    unit_speed_model,
)


UNIT_MODEL = unit_speed_model()


class TestCompatibilityData:
    def test_zero_data(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        q0 = grid.zero_face_field()
        out = compatibility_data(z, z, z, q0, unit_params(tau=0.1), UNIT_MODEL)
        assert np.all(out.p2.values == 0.0)
        assert np.all(out.theta1.values == 0.0)
        assert np.all(out.q1.values == 0.0)

    def test_pressure_rate_formula(self):
        grid = Grid1D(1.0, 64)
        z = grid.zero_node_field()
        p1 = NodeField(grid, np.sin(np.pi * grid.nodes()))
        out = compatibility_data(z, p1, z, grid.zero_face_field(),
                                 unit_params(tau=0.1), UNIT_MODEL)
        expected = laplacian_dirichlet(p1).values + 2.0 * p1.values**2
        assert np.allclose(out.p2.values, expected, atol=1e-13)

    def test_temperature_rate_collapses_to_source(self):
        grid = Grid1D(1.0, 32)
        z = grid.zero_node_field()
        rng = np.random.default_rng(0)
        p1 = NodeField(grid, rng.standard_normal(32))
        params = unit_params(tau=0.1)
        out = compatibility_data(z, p1, z, grid.zero_face_field(), params, UNIT_MODEL)
        assert np.allclose(out.theta1.values, q_source(params, p1).values, atol=1e-15)

    def test_flux_rate_formula(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(1)
        theta0 = NodeField(grid, rng.standard_normal(32))
        q0 = FaceField(grid, rng.standard_normal(33))
        params = unit_params(tau=0.25)
        out = compatibility_data(grid.zero_node_field(), grid.zero_node_field(),
                                 theta0, q0, params, UNIT_MODEL)
        expected = -(q0.values + gradient_to_faces(theta0).values) / 0.25
        assert np.allclose(out.q1.values, expected, atol=1e-13)

    def test_tau_zero_omits_flux_rate(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        out = compatibility_data(z, z, z, grid.zero_face_field(),
                                 unit_params(tau=0.0), UNIT_MODEL)
        assert out.q1 is None

    def test_degenerate_data_rejected(self):
        grid = Grid1D(1.0, 16)
        p0 = NodeField(grid, np.full(16, 0.6))  # 2 k p0 = 1.2 > 1
        z = grid.zero_node_field()
        with pytest.raises(Degenerate):
            compatibility_data(p0, z, z, grid.zero_face_field(),
                               unit_params(tau=0.1), UNIT_MODEL)


class TestCoupledStep:
    def test_zero_state_converges_immediately(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        state = CoupledState.initial(z, z, z, grid.zero_face_field())
        new = coupled_step(state, Stepper(grid, 1e-3, unit_params(tau=0.05), UNIT_MODEL,
                                          1e-10, 25, 0.5))
        assert new.picard_iterations_last == 1
        assert np.all(new.acoustic.p.values == 0.0)
        assert np.all(new.thermal.theta.values == 0.0)
        assert new.alpha_min_last == 1.0

    @pytest.mark.parametrize(
        "change, message",
        [({"dt": 0.0}, "dt must be positive"), ({"dt": -1e-3}, "dt must be positive"),
         ({"picard_tol": 0.0}, "picard_tol must be positive"),
         ({"max_iter": 0}, "max_iter must be at least 1"),
         ({"dt": float("inf")}, "dt too large"), ({"dt": 5e-324}, "dt too small"),
         ({"picard_tol": float("inf")}, "picard_tol must be finite"),
         ({"max_iter": 2.5}, "max_iter must be an integer")],
        ids=["dt_zero", "dt_negative", "tol_zero", "max_iter_zero", "dt_inf", "dt_5e-324",
             "tol_inf", "max_iter_fractional"],
    )
    def test_bad_step_arguments_rejected(self, change, message):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        state = CoupledState.initial(z, z, z, grid.zero_face_field())
        args = {"dt": 1e-3, "picard_tol": 1e-10, "max_iter": 25, "gamma_bar": 0.5,
                "params": unit_params(tau=0.05), "model": UNIT_MODEL}
        with pytest.raises(ValueError, match=message):
            coupled_step(state, Stepper(grid, **(args | change)))

    def test_state_on_two_grids_rejected(self):
        a, b = Grid1D(1.0, 16), Grid1D(2.0, 16)
        z = a.zero_node_field()
        with pytest.raises(ValueError, match="share the grid"):
            CoupledState.initial(z, z, b.zero_node_field(), b.zero_face_field())

    def test_degenerate_iterate_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        p0 = NodeField(grid, 0.8 * np.sin(np.pi * grid.nodes()))
        z = grid.zero_node_field()
        state = CoupledState.initial(p0, z, z, grid.zero_face_field())
        with pytest.raises(Degenerate) as err:
            coupled_step(state, Stepper(grid, 1e-3, unit_params(tau=0.05), UNIT_MODEL,
                                        1e-10, 25, 0.5))
        assert err.value.step == 1
        assert err.value.node_index is not None

    def test_floor_violation_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        theta0 = NodeField(grid, 0.5 * np.sin(np.pi * grid.nodes()))
        z = grid.zero_node_field()
        state = CoupledState.initial(z, z, theta0, grid.zero_face_field())
        model = SpeedOfSoundModel(coeffs=(1.0, -1.2), h_floor=0.5)
        with pytest.raises(FloorViolated) as err:
            coupled_step(state, Stepper(grid, 1e-3, unit_params(tau=0.05), model, 1e-10, 25, 0.5))
        assert err.value.step == 1
        assert err.value.time == pytest.approx(1e-3)
        assert "step 1" in str(err.value)

    def test_nonfinite_iterate_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        z = grid.zero_node_field()
        v0 = NodeField(grid, np.full(grid.N, 1e200))  # g = 2 k v^2 overflows
        state = CoupledState.initial(z, v0, z, grid.zero_face_field())
        with pytest.raises(NonFinite) as err, np.errstate(over="ignore"):
            coupled_step(state, Stepper(grid, 1e-3, unit_params(tau=0.05), UNIT_MODEL,
                                        1e-10, 25, 0.5))
        assert (err.value.what, err.value.index) == ("NodeField", 0)
        assert err.value.step == 1
        assert err.value.time == pytest.approx(1e-3)
        assert "step 1" in str(err.value)

    @pytest.mark.parametrize(
        "case, where",
        [
            ("r_overflow", ("NodeField", 5)),  # h(theta) = 1 + theta^8 overflows
            ("gradient_overflow", ("FaceField", 1)),  # grad p^n overflows
            ("laplacian_overflow", ("NodeField", 0)),  # Lap_h p^n overflows
        ],
    )
    def test_nonfinite_located_like_the_field_iteration(self, case, where):
        # The kernel runs on raw arrays and re-checks them in the order the
        # field-based iteration validated its fields; these are the errors
        # that iteration raised.
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        if case == "r_overflow":
            theta0 = np.zeros(grid.N)
            theta0[[5, 9]] = 1e40
            state = CoupledState.initial(z, z, NodeField(grid, theta0), grid.zero_face_field())
            params = unit_params(tau=0.05)
            model = SpeedOfSoundModel(coeffs=(1.0,) + (0.0,) * 7 + (1.0,), h_floor=1.0)
        else:
            amplitude = 1e307 if case == "gradient_overflow" else 1e306
            p0 = NodeField(grid, amplitude * np.array([(-1.0) ** j for j in range(grid.N)]))
            state = CoupledState.initial(p0, z, z, grid.zero_face_field())
            params = replace(unit_params(tau=0.05), beta_acous=1e-310)  # alpha stays near 1
            model = UNIT_MODEL
        with pytest.raises(NonFinite) as err, np.errstate(all="ignore"):
            coupled_step(state, Stepper(grid, 1e-3, params, model, 1e-10, 25, 0.5))
        assert (err.value.what, err.value.index, err.value.step) == (*where, 1)

    def test_overflowing_norms_alone_do_not_stop_a_step(self):
        # ||v|| overflows although every entry is finite: the distance guard
        # trips, the re-check finds no bad field, and the step is accepted
        # as the field-based iteration accepted it (d = inf <= tol*(1 + inf)).
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        params = replace(unit_params(tau=0.05), C_a=1e10, beta_acous=1e-310)
        state = CoupledState.initial(
            z, NodeField(grid, np.full(grid.N, 1.2e154)), z, grid.zero_face_field()
        )
        stepper = Stepper(grid, 1e-3, params, UNIT_MODEL, 1e-10, 25, 0.5)
        with np.errstate(all="ignore"):
            for _ in range(3):
                state = coupled_step(state, stepper)
                assert state.picard_distances_last == (np.inf,)
        assert np.all(np.isfinite(state.acoustic.v.values))

    def test_exhausted_iterations_raise(self):
        config = canonical_config()
        grid = make_grid(config)
        p0, p1, th0, q0 = initial_fields(config, grid)
        state = CoupledState.initial(p0, p1, th0, q0)
        with pytest.raises(PicardDiverged) as err:
            coupled_step(state, Stepper(grid, config.time.dt, config.params,
                                        config.speed_model, 1e-16, 1, 0.5))
        assert err.value.step == 1
        assert err.value.iterations == 1

    @pytest.mark.parametrize("distances,trend", [
        ((1.0, 2.0), "non-decreasing differences (left the contraction regime)"),
        ((2.0, 2.0), "non-decreasing differences (left the contraction regime)"),
        ((2.0, 1.0), "still decreasing but tolerance not reached"),
        ((1.0,), "still decreasing but tolerance not reached"),
    ])
    def test_divergence_message_names_the_trend(self, distances, trend):
        err = PicardDiverged(3, 0.003, len(distances), distances)
        assert str(err).endswith(f"last d={distances[-1]:.3e}: {trend}")

    def test_fixed_point_consistency(self):
        # the accepted step satisfies the nonlinear discrete system with
        # coefficients evaluated at the accepted state
        config = canonical_config()
        grid = make_grid(config)
        p0, p1, th0, q0 = initial_fields(config, grid)
        state = CoupledState.initial(p0, p1, th0, q0)
        params, model = config.params, config.speed_model
        dt, tol = config.time.dt, config.picard.tol
        stepper = Stepper(grid, dt, params, model, tol, 25, 0.5)
        for _ in range(3):
            prev = state
            state = coupled_step(state, stepper)
        ac, th = state.acoustic, state.thermal
        coeffs = assemble_coefficients(th.theta, ac.p, ac.v, model, params)
        f = q_source(params, ac.v)
        res_acoustic = (
            coeffs.alpha.values * (ac.v.values - prev.acoustic.v.values) / dt
            - coeffs.r.values * laplacian_dirichlet(ac.p).values
            - params.b * laplacian_dirichlet(ac.v).values
            - coeffs.g.values
        )
        res_thermal = (
            params.m * (th.theta.values - prev.thermal.theta.values) / dt
            + np.diff(th.q.values) / grid.dx
            + params.ell * th.theta.values
            - f.values
        )
        res_flux = (
            params.tau * (th.q.values - prev.thermal.q.values) / dt
            + th.q.values
            + params.kappa_a * gradient_to_faces(th.theta).values
        )
        bound = 10.0 * tol
        assert np.max(np.abs(res_acoustic)) <= bound
        assert np.max(np.abs(res_thermal)) <= bound
        assert np.max(np.abs(res_flux)) <= bound


class TestSimulate:
    def test_zero_horizon_emits_initial_row_only(self):
        config = replace(canonical_config(),
                         time=replace(canonical_config().time, T=0.0))
        result = simulate(config)
        assert len(result.reports) == 1
        assert result.reports[0].t == 0.0

    def test_zero_data_run_is_identically_zero(self):
        config = replace(
            canonical_config(T=0.05),
            initial_data=InitialData(preset="zero"),
        )
        result = simulate(config)
        for report in result.reports:
            row = report.row()
            assert row[TIME_COLUMNS.index("alpha_min")] == 1.0
            for name, value in zip(TIME_COLUMNS, row):
                if name in ("t", "alpha_min", "picard_iters"):
                    continue
                assert value == 0.0

    def test_snapshot_contents(self):
        base = canonical_config(T=0.01)
        config = replace(base, time=replace(base.time, snapshot_times=(0.0,)))
        result = simulate(config)
        assert len(result.snapshots) == 1
        t, x, p, v, theta, q_left = result.snapshots[0]
        grid = make_grid(config)
        assert t == 0.0
        assert np.array_equal(x, grid.nodes())
        assert np.allclose(p, 0.05 * np.sin(np.pi * x))
        assert np.allclose(theta, 0.5 * np.sin(np.pi * x))
        assert q_left.shape == (grid.N,)
        assert np.array_equal(q_left, _initial_flux(config, grid)[:-1])

    def test_invalid_medium_rejected_before_any_step(self):
        config = canonical_config(T=0.01)
        config = replace(config, params=replace(config.params, W=-1.0))
        with pytest.raises(ValueError, match="^invalid physical configuration: W must be "):
            simulate(config)

    def test_degenerate_initial_data_aborts_at_step_zero(self):
        config = canonical_config(amplitude_p=0.75, T=0.1)
        with pytest.raises(Degenerate) as err:
            simulate(config)
        assert err.value.step == 0

    def test_alpha_history_covers_every_step(self):
        config = canonical_config(T=0.02)
        result = simulate(config)
        assert len(result.alpha_min_per_step) == 21  # initial state + 20 steps
        assert len(result.picard_iters_per_step) == 20


def _initial_flux(config, grid):
    _, _, theta0, q0 = initial_fields(config, grid)
    return q0.values


TIME_COLUMNS = (
    "t", "E0", "E1", "E2", "E_tau", "D0", "D1", "D2", "cal_E0", "cal_E1",
    "acE1", "acE2", "acE3", "acE_total", "lambda", "frakF", "alpha_min",
    "picard_iters", "heat_residual", "acoustic_residual",
)


class TestSweep:
    def test_duplicate_taus_are_bit_identical(self):
        config = canonical_config(T=0.02)
        sweep = tau_sweep(config, tau_list=(0.1, 0.1))
        assert sweep.e_theta[0] == sweep.e_theta[1]
        assert sweep.e_p[0] == sweep.e_p[1]

    def test_zero_data_errors_vanish(self):
        config = replace(canonical_config(T=0.02),
                         initial_data=InitialData(preset="zero"))
        sweep = tau_sweep(config, tau_list=(0.1, 0.05))
        assert sweep.e_theta == (0.0, 0.0)
        assert sweep.e_p == (0.0, 0.0)
        assert sweep.e_pt == (0.0, 0.0)

    def test_results_sorted_descending(self):
        config = canonical_config(T=0.02)
        sweep = tau_sweep(config, tau_list=(0.025, 0.1, 0.05))
        assert sweep.taus == (0.1, 0.05, 0.025)

    def test_empty_list_rejected(self):
        config = replace(canonical_config(T=0.02), sweep_tau_list=None)
        with pytest.raises(ValueError):
            tau_sweep(config)

    @pytest.mark.parametrize("rho_a, taus", [
        pytest.param(1.0, (0.0,), id="0.0"),
        pytest.param(1.0, (float("nan"),), id="nan"),
        # tau*m = 1e308 * 10 overflows for the second member only
        pytest.param(10.0, (0.1, 1e308), id="tau_m_overflows"),
    ])
    def test_bad_tau_rejected_before_any_run(self, monkeypatch, rho_a, taus):
        import thermoacoustic.coupling as coupling

        calls = []
        monkeypatch.setattr(coupling, "simulate", lambda *a, **k: calls.append(1))
        config = canonical_config(T=0.02)
        config = replace(config, params=replace(config.params, rho_a=rho_a))
        with pytest.raises(ValueError, match="finite and positive"):
            tau_sweep(config, tau_list=taus)
        assert calls == []

    def test_degeneracy_scaling_over_run(self):
        # halving the pressure amplitude at least halves max_t(1 - alpha_min)
        full = simulate(canonical_config(amplitude_p=0.05, T=0.2))
        half = simulate(canonical_config(amplitude_p=0.025, T=0.2))
        gap_full = max(1.0 - a for a in full.alpha_min_per_step)
        gap_half = max(1.0 - a for a in half.alpha_min_per_step)
        assert gap_half <= 0.5 * gap_full * (1.0 + 1e-9)


def _state_bytes(state) -> bytes:
    fields = (state.acoustic.p, state.acoustic.v, state.thermal.theta, state.thermal.q)
    return b"".join(f.values.tobytes() for f in fields)


def _bad_calls():
    """Public stepper calls with a step size, tau, Picard tolerance or iteration
    count out of range (nan included), by name, with the message each must raise."""
    grid = Grid1D(1.0, 16)
    z = grid.zero_node_field()
    params = unit_params(tau=0.1)
    coeffs = assemble_coefficients(z, z, z, UNIT_MODEL, params)
    thermal = ThermalState.initial(z, grid.zero_face_field())
    acoustic = AcousticState.initial(z, z)
    coupled = CoupledState.initial(z, z, z, grid.zero_face_field())
    nan = float("nan")
    dt_message, tau_message = "dt must be positive", "tau must be nonnegative"

    def step(dt, tol, state=coupled, max_iter=25):
        return coupled_step(state, Stepper(grid, dt, params, UNIT_MODEL, tol, max_iter, 0.5))

    calls = {
        "fourier_step_dt_zero": (lambda: fourier_step(z, z, 0.0, params), dt_message),
        "fourier_step_dt_nan": (lambda: fourier_step(z, z, nan, params), dt_message),
        "cattaneo_step_dt_negative": (lambda: cattaneo_step(thermal, z, -1e-3, params),
                                      dt_message),
        "cattaneo_step_dt_nan": (lambda: cattaneo_step(thermal, z, nan, params), dt_message),
        "cattaneo_step_tau_negative": (
            lambda: cattaneo_step(thermal, z, 1e-3, replace(params, tau=-0.1)), tau_message),
        "cattaneo_step_tau_nan": (
            lambda: cattaneo_step(thermal, z, 1e-3, replace(params, tau=nan)), tau_message),
        "westervelt_linear_step_dt_zero": (
            lambda: westervelt_linear_step(acoustic, coeffs, 0.0, params), dt_message),
        "westervelt_linear_step_dt_nan": (
            lambda: westervelt_linear_step(acoustic, coeffs, nan, params), dt_message),
        "coupled_step_dt_nan": (lambda: step(nan, 1e-10), dt_message),
        "coupled_step_picard_tol_nan": (lambda: step(1e-3, nan), "picard_tol must be positive"),
        "coupled_step_picard_tol_inf": (lambda: step(1e-3, float("inf")),
                                        "picard_tol must be finite"),
        "cattaneo_step_tau_inf": (
            lambda: cattaneo_step(thermal, z, 1e-3, replace(params, tau=float("inf"))),
            "tau must be finite"),
        "coefficient_diagnostics_dt_negative": (
            lambda: coefficient_diagnostics(coeffs, coeffs, -1e-3), dt_message),
        "coefficient_diagnostics_dt_nan": (
            lambda: coefficient_diagnostics(coeffs, coeffs, nan), dt_message),
        "XNormAccumulator_dt_zero": (lambda: XNormAccumulator(0.0), dt_message),
        "XNormAccumulator_dt_negative": (lambda: XNormAccumulator(-1e-3), dt_message),
        "XNormAccumulator_dt_nan": (lambda: XNormAccumulator(nan), dt_message),
    }
    # a positive dt whose square overflows or is not a normal float
    large = re.escape("dt too large: dt**2 must be a finite float")
    small = re.escape("dt too small: dt**2 must be a normal float")
    stepped = step(1e-3, 1e-10)
    by_dt = {
        "fourier_step": lambda dt: fourier_step(z, z, dt, params),
        "fourier_thermal_step": lambda dt: fourier_thermal_step(thermal, z, dt, params),
        "cattaneo_step": lambda dt: cattaneo_step(thermal, z, dt, params),
        "westervelt_linear_step": lambda dt: westervelt_linear_step(acoustic, coeffs, dt, params),
        "coupled_step": lambda dt: step(dt, 1e-10),
        "coupled_step_after_a_step": lambda dt: step(dt, 1e-10, stepped),
        "coefficient_diagnostics": lambda dt: coefficient_diagnostics(coeffs, coeffs, dt),
        "XNormAccumulator": XNormAccumulator,
    }
    for label, max_iter in (("2.5", 2.5), ("25.0", 25.0), ("True", True)):
        calls[f"coupled_step_max_iter_{label}"] = (
            partial(step, 1e-3, 1e-10, max_iter=max_iter),
            "max_iter must be an integer")
    for name, call in by_dt.items():
        for label, dt, message in (("inf", float("inf"), large), ("1e300", 1e300, large),
                                   ("5e-324", 5e-324, small)):
            calls[f"{name}_dt_{label}"] = (partial(call, dt), message)
    return calls


@pytest.mark.parametrize("case", sorted(_bad_calls()))
def test_public_steppers_reject_bad_step_size_or_tau(case):
    call, message = _bad_calls()[case]
    with pytest.raises(ValueError, match=message):
        call()


def _calls_across_grids(other_length):
    """Public stepper calls whose source or coefficients live on a second
    grid with the same N and length other_length, by name."""
    grid, other = Grid1D(1.0, 16), Grid1D(other_length, 16)
    z, z_other = grid.zero_node_field(), other.zero_node_field()
    params = unit_params(tau=0.1)
    thermal = ThermalState.initial(z, grid.zero_face_field())
    coeffs = assemble_coefficients(z_other, z_other, z_other, UNIT_MODEL, params)
    return {
        "fourier_step": lambda: fourier_step(z, z_other, 1e-3, params),
        "fourier_thermal_step": lambda: fourier_thermal_step(thermal, z_other, 1e-3, params),
        "cattaneo_step": lambda: cattaneo_step(thermal, z_other, 1e-3, params),
        "westervelt_linear_step": lambda: westervelt_linear_step(
            AcousticState.initial(z, z), coeffs, 1e-3, params),
    }


@pytest.mark.parametrize("case", sorted(_calls_across_grids(2.0)))
def test_public_steppers_reject_a_field_on_another_grid(case):
    # as l2_inner does for the same mix of grids
    with pytest.raises(GridMismatch, match="fields live on different grids"):
        _calls_across_grids(2.0)[case]()
    _calls_across_grids(1.0)[case]()  # an equal grid built apart is the same grid


def test_copied_or_hand_stepped_state_matches_simulate():
    # A state carries no Stepper, only fields: a pickled or deep-copied final
    # state steps to the bytes of the original, and 5 public coupled_step
    # calls from CoupledState.initial reproduce the run, each with a Stepper
    # of its own or all sharing one, whose scratch rows leak nothing from one
    # call into the next, on both thermal paths.
    for tau in (0.05, 0.0):
        config = canonical_config(tau=tau, T=0.005)
        run, grid, picard = simulate(config), make_grid(config), config.picard

        def stepper():
            return Stepper(grid, config.time.dt, config.params, config.speed_model, picard.tol,
                           picard.max_iter, picard.gamma_bar)

        stepped = _state_bytes(coupled_step(run.final_state, stepper()))
        for twin in (pickle.loads(pickle.dumps(run.final_state)), copy.deepcopy(run.final_state)):
            assert _state_bytes(coupled_step(twin, stepper())) == stepped
        shared = stepper()
        for steppers in (stepper, lambda: shared):
            state = CoupledState.initial(*initial_fields(config, grid))
            distances = []
            for _ in range(5):
                state = coupled_step(state, steppers())
                distances.append(state.picard_distances_last)
            assert (state.n, state.t) == (run.final_state.n, run.final_state.t)
            assert _state_bytes(state) == _state_bytes(run.final_state)
            assert tuple(distances) == run.picard_distances_per_step


def test_one_module_global_coupled_step_call_per_step(monkeypatch):
    # perfbench's step timer and tracer wrap coupling.coupled_step, so every
    # accepted step of simulate, and of each member of tau_sweep, must go
    # through that one name exactly once.
    config = canonical_config(T=0.05)
    unwrapped = timeseries_csv(simulate(config))
    calls = []
    step = coupling_mod.coupled_step

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(coupling_mod, "coupled_step", counting)
    assert timeseries_csv(simulate(config)) == unwrapped
    assert len(calls) == 50
    calls.clear()
    sweep = tau_sweep(canonical_config(T=0.01))
    assert len(sweep.members) == 4
    assert len(calls) == 5 * 10


def test_step_settings_are_checked_once_per_run(monkeypatch):
    # dt, the Picard settings and gamma_bar are checked where a run starts,
    # not at its steps: a run ten times longer asks the step-size rule as often
    rule, calls = grid_mod._step_problem, []

    def spy(*args):
        calls.append(args)
        return rule(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("thermoacoustic") and getattr(module, "_step_problem", None) is rule:
            monkeypatch.setattr(module, "_step_problem", spy)
    counts = []
    for T in (0.01, 0.1):
        calls.clear()
        simulate(canonical_config(T=T))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_only_a_run_factors_the_heat_operator(monkeypatch):
    # A run factors its heat operator once and solves it at every Picard
    # iterate; a public stepper solves it once per call, where factoring
    # first would cost more than it saves.
    if grid_mod._GTTRF is None:
        pytest.skip("numpy ships no bundled OpenBLAS here")
    calls = []
    gttrf = grid_mod._GTTRF

    def spy(*args):
        calls.append(1)
        return gttrf(*args)

    monkeypatch.setattr(grid_mod, "_GTTRF", spy)
    simulate(canonical_config(T=0.01))
    assert len(calls) == 1
    tau_sweep(canonical_config(T=0.01), tau_list=(0.1, 0.05))
    assert len(calls) == 1 + 3  # the reference and two members
    grid = Grid1D(1.0, 16)
    theta = NodeField(grid, np.sin(np.pi * grid.nodes()))
    state = ThermalState.initial(theta, gradient_to_faces(theta) * -1.0)
    for tau in (0.0, 0.1):
        params = unit_params(tau=tau)
        fourier_step(theta, theta, 1e-3, params)
        fourier_thermal_step(state, theta, 1e-3, params)
        cattaneo_step(state, theta, 1e-3, params)
    assert len(calls) == 4



def test_acoustic_solves_of_the_benchmark_runs_are_certified(monkeypatch):
    # Every Westervelt matrix of these runs passes the certificate of
    # acoustics, so the full elimination check runs only where a run
    # factors its heat operator: once per simulate, never in the
    # manufactured-solution studies.
    if grid_mod._GTSV is None or grid_mod._GTTRF is None:
        pytest.skip("numpy ships no bundled OpenBLAS here")
    calls = []
    check = grid_mod._eliminated_like_loop

    def spy(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(grid_mod, "_eliminated_like_loop", spy)
    short = TimeConfig(T=0.1, dt=1e-3, output_stride=10)
    for config in (canonical_config(T=0.1), replace(lensing_config(), time=short)):
        calls.clear()
        simulate(config)
        assert len(calls) == 1
    calls.clear()
    for case in ((32, 1e-5, 0.1, 2.0), (256, 4e-3, 1.0, 1.0)):
        verification_mod.manufactured_error.__wrapped__(*case)  # past the cache
    assert calls == []

_THERMAL_UPDATES = ("_fourier_update", "_fourier_flux", "_cattaneo_update", "_cattaneo_flux")


@pytest.mark.parametrize("force_cattaneo", [False, True], ids=["fourier", "force_cattaneo"])
def test_tau_zero_path_runs_its_own_update(monkeypatch, force_cattaneo):
    # Criterion 8 compares the Cattaneo update at tau = 0 with the separately
    # written Fourier update.  A run that sent one path through the other's
    # arithmetic (say Fourier as Cattaneo with w = 0) would compare a code
    # path with itself, and the bitwise check would pass without meaning.
    calls = Counter()
    for module in (coupling_mod, heat_mod):
        for name in _THERMAL_UPDATES:
            original = getattr(module, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, spy)
    result = simulate(canonical_config(tau=0.0, T=0.01), force_cattaneo=force_cattaneo)
    used, unused = ("_cattaneo", "_fourier") if force_cattaneo else ("_fourier", "_cattaneo")
    assert calls[f"{used}_update"] == sum(result.picard_iters_per_step)
    assert calls[f"{used}_flux"] == len(result.picard_iters_per_step) == 10
    assert calls[f"{unused}_update"] == calls[f"{unused}_flux"] == 0


def test_zero_run_solves_every_system_with_the_loop_on_its_own_bytes(monkeypatch):
    # From the zero preset every solution is all zeros, so each acoustic and
    # heat solve of the run (100 steps of 1 iterate) refuses LAPACK's result
    # and runs the loop, which must get the bands and rhs untouched: the
    # kernel builds them in scratch rows, and LAPACK overwrites only its own
    # copy.  The digests were recorded before the kernel built its systems
    # in reused rows.
    calls = []
    loop = grid_mod._thomas_loop

    def spy(*bands):
        calls.append(len(bands[0]))
        return loop(*bands)

    monkeypatch.setattr(grid_mod, "_thomas_loop", spy)
    run = simulate(replace(canonical_config(T=0.1), initial_data=InitialData(preset="zero")))
    assert run.picard_iters_per_step == (1,) * 100
    if grid_mod._GTSV is not None and grid_mod._GTTRF is not None:
        assert calls == [128] * 200
    assert _sha256(timeseries_csv(run)) == (
        "0d7fde9bf29b6c290ccebbfe24c9b0e896dc8e98257fa86afb16922c8d18bffc"
    )
    digests = _run_digests(run)
    assert digests["picard_distances_per_step"] == (
        "1e3f9d150249e722ff4d48ff24018f38d86d0ff6b76f8b4f60354016489d4524"
    )
    assert digests["final_fields"] == (
        "4f2cfec1c5dc3827cdeb42906713b37cae91e009aa0e2d211c376ccb9969b3ea"
    )


def test_accepted_p_v_theta_skip_the_field_check(monkeypatch):
    # _picard has proven the accepted p, v and theta finite, so coupled_step
    # builds them unchecked; q and the frozen alpha and g pass one scalar
    # guard each and are built unchecked too: with a constant h the frozen r
    # is the stepper's run constant, finite by construction.  So an
    # accepted step builds no checked field at all.
    calls = Counter()
    init = grid_mod._Field.__init__

    def counting_init(self, grid, values):
        calls[type(self).__name__] += 1
        init(self, grid, values)

    monkeypatch.setattr(grid_mod._Field, "__init__", counting_init)
    config = canonical_config(T=0.01)
    p0, p1, theta0, q0 = initial_fields(config, make_grid(config))
    assemble_coefficients(theta0, p0, p1, config.speed_model, config.params)
    setup = Counter(calls)
    calls.clear()
    run = simulate(config)
    assert len(run.picard_iters_per_step) == 10
    assert calls == setup
    state = run.final_state
    assert all(type(f) is NodeField and f.grid is run.grid
               for f in (state.acoustic.p, state.acoustic.v, state.thermal.theta))



def test_constant_h_run_constant_is_not_checked_again(monkeypatch):
    # The read-only r of a constant h's stepper is finite by construction,
    # so the accepted states' frozen coefficients take it unchecked; every
    # other field and array keeps its check.
    checked = Counter()
    require = grid_mod._require_finite

    def spy(what, values):
        checked[values.flags.writeable] += 1
        require(what, values)

    monkeypatch.setattr(grid_mod, "_require_finite", spy)
    run = simulate(canonical_config(T=0.01))
    assert not run.final_state.coeffs_last.r.values.flags.writeable
    assert checked[False] == 0 and checked[True] > 0


def test_frozen_r_is_checked_unless_it_is_the_run_constant():
    # A polynomial h can overflow, so an r that is not the run's constant
    # array keeps the fields' finiteness check, even one that holds its values.
    grid, ones, bad = Grid1D(1.0, 4), np.ones(4), np.full(4, np.inf)
    for run in (None, (bad.copy(), ones)):
        with pytest.raises(NonFinite):
            acoustics_mod._frozen(grid, ones, bad, ones, run)


def _fixed(name):
    message = f"a Stepper's settings are fixed when it is built: cannot set {name}"
    return "^" + re.escape(message) + "$"


@pytest.mark.parametrize("name, other", [
    ("params", replace(canonical_config().params, b=2.0)),
    ("model", SpeedOfSoundModel((2.0,), 1.0)),
], ids=["params", "model"])
def test_a_workspace_built_for_another_medium_is_refused(name, other):
    # The step reads the heat operator, the Cattaneo weights and a constant
    # h's r from its stepper, all made from the params and model it was built
    # with, so a built stepper refuses another medium and keeps stepping with
    # its own; equal copies are the same medium and step to the same bits.
    config = canonical_config(T=0.01)
    grid, picard = make_grid(config), config.picard
    state = CoupledState.initial(*initial_fields(config, grid))
    medium = {"params": config.params, "model": config.speed_model}

    def stepper(params, model):
        return Stepper(grid, 1e-3, params, model, picard.tol, picard.max_iter, picard.gamma_bar)

    built = stepper(**medium)
    stepped = _state_bytes(coupled_step(state, built))
    copies = {key: replace(value) for key, value in medium.items()}
    assert _state_bytes(coupled_step(state, stepper(**copies))) == stepped
    with pytest.raises(AttributeError, match=_fixed(name)):
        setattr(built, name, other)
    assert getattr(built, name) is medium[name]
    assert _state_bytes(coupled_step(state, built)) == stepped


@pytest.mark.parametrize("name, other", [
    ("dt", 5e-3), ("tol", 1e-8), ("max_iter", 3), ("threshold", 0.25),
    ("grid", Grid1D(1.0, 64)), ("grid", Grid1D(2.0, 128)),
], ids=["dt", "picard_tol", "max_iter", "gamma_bar", "grid", "grid_length"])
def test_a_step_refuses_settings_its_workspace_was_not_built_for(name, other):
    # The step reads dt, the Picard settings, gamma_bar's threshold and the
    # grid's dx, rows and operators from its stepper, whose heat factor and
    # Cattaneo weights were made from dt and the grid, so a built stepper
    # refuses a new setting, and the state must live on the grid the stepper
    # was built for: another N would die in numpy's unnamed broadcast, and
    # another L would step with the wrong dx.  An equal grid built apart is
    # the same grid.
    config = canonical_config(T=0.01)
    grid, picard = make_grid(config), config.picard
    stepper = Stepper(grid, 1e-3, config.params, config.speed_model, picard.tol,
                      picard.max_iter, picard.gamma_bar)
    state = CoupledState.initial(*initial_fields(config, grid))
    stepped = _state_bytes(coupled_step(state, stepper))
    twin = CoupledState.initial(*initial_fields(config, Grid1D(grid.L, grid.N)))
    assert _state_bytes(coupled_step(twin, stepper)) == stepped
    kept = getattr(stepper, name)
    with pytest.raises(AttributeError, match=_fixed(name)):
        setattr(stepper, name, other)
    assert getattr(stepper, name) is kept
    if name == "grid":
        other_config = replace(config, grid=replace(config.grid, L=other.L, N=other.N))
        with pytest.raises(ValueError, match=re.escape(
                f"coupled_step: the stepper was built for {grid!r}, got a state on {other!r}")):
            coupled_step(CoupledState.initial(*initial_fields(other_config, other)), stepper)
    assert _state_bytes(coupled_step(state, stepper)) == stepped


def test_a_non_finite_flux_is_named_before_the_floor_of_h(monkeypatch):
    # coupled_step guards q where it built q's checked field: after the
    # acoustic ring's advance and before the accepted state's coefficients,
    # whose h falls below its floor here.  So the NonFinite of q wins, with
    # the field, index, step and message it had.
    config = replace(lensing_config(), time=TimeConfig(T=0.01, dt=1e-3, output_stride=10))
    grid = make_grid(config)
    state = CoupledState.initial(*initial_fields(config, grid))
    theta = np.full(grid.N, -5.0)  # h = 1 + 0.2 theta = 0 < h_floor = 0.5
    q = np.zeros(grid.N + 1)
    q[5] = np.inf
    picard = config.picard

    def step(flux):
        monkeypatch.setattr(coupling_mod, "_picard", lambda *args: (
            (state.acoustic.p.values, state.acoustic.v.values, theta, flux), [0.0]))
        return coupled_step(state, Stepper(grid, 1e-3, config.params, config.speed_model,
                                           picard.tol, picard.max_iter, picard.gamma_bar))

    with pytest.raises(FloorViolated):
        step(np.zeros(grid.N + 1))
    with pytest.raises(NonFinite) as err:
        step(q)
    assert (err.value.what, err.value.index, err.value.step) == ("FaceField", 5, 1)
    assert str(err.value) == (
        "FaceField contains non-finite entries (first at index 5) at step 1, t=0.001"
    )


@pytest.mark.parametrize("run, checked", [
    (lambda: verification_mod.manufactured_error.__wrapped__(32, 1e-5, 0.1, 2.0), 3),
    (lambda: simulate(canonical_config()), 5),
    (lambda: simulate(lensing_config()), 5),
], ids=["manufactured", "canonical", "lensing"])
def test_a_run_checks_only_the_fields_it_sets_up(monkeypatch, run, checked):
    # Every step proves what it returns finite by one scalar guard, so the
    # fields' own check runs only on the fields a run sets up: the study's
    # initial p, v and unit coefficient, and simulate's initial fields (its
    # first coefficients pass _frozen's guard).
    calls = []
    init = grid_mod._Field.__init__

    def counting_init(self, grid, values):
        calls.append(1)
        init(self, grid, values)

    monkeypatch.setattr(grid_mod._Field, "__init__", counting_init)
    run()
    assert len(calls) == checked


def _whole_run(run) -> dict:
    """_run_digests plus the rest of what a run returns, as bytes or exact reprs."""
    c = run.final_state.coeffs_last
    return {
        **_run_digests(run),
        "reports": repr(run.reports),
        "timeseries_csv": timeseries_csv(run),
        "series": [a.tobytes() for s in (run.theta_series, run.p_series, run.v_series) for a in s],
        "snapshots": [(t, *(a.tobytes() for a in arrays)) for t, *arrays in run.snapshots],
        "coeffs_last": [f.values.tobytes() for f in (c.alpha, c.r, c.g)],
    }


def _speed(c, *more):
    return SpeedOfSoundModel(coeffs=(c, *more), h_floor=1.0)


@pytest.mark.parametrize("c", [1.0, 2.5])
@pytest.mark.parametrize("tau, force_cattaneo", [(0.05, False), (0.0, False), (0.0, True)])
def test_constant_h_run_constants_give_the_general_paths_bits(c, tau, force_cattaneo):
    # coeffs (c,) takes r, 2 k and the Westervelt bands from the stepper;
    # (c, 0.0) evaluates h = 0 theta + c on every iterate, which equals c to
    # the bit for finite theta.  Every output must be the same, byte for byte.
    config = replace(canonical_config(tau=tau, T=0.1), time=TimeConfig(
        T=0.1, dt=1e-3, output_stride=10, snapshot_times=(0.05, 0.1)))
    constant = simulate(replace(config, speed_model=_speed(c)), force_cattaneo=force_cattaneo)
    general = simulate(replace(config, speed_model=_speed(c, 0.0)), force_cattaneo=force_cattaneo)
    assert len(constant.snapshots) == 2
    assert _whole_run(constant) == _whole_run(general)
    assert not constant.final_state.coeffs_last.r.values.flags.writeable  # the run constant
    assert general.final_state.coeffs_last.r.values.flags.writeable


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_constant_h_sweep_gives_the_general_paths_bits(c):
    config = canonical_config(T=0.05)
    constant = tau_sweep(replace(config, speed_model=_speed(c)), (0.1, 0.05))
    general = tau_sweep(replace(config, speed_model=_speed(c, 0.0)), (0.1, 0.05))
    for a, b in zip((constant.reference, *constant.members), (general.reference, *general.members)):
        assert _whole_run(a) == _whole_run(b)
    assert (constant.e_theta, constant.e_p, constant.e_pt) == (
        general.e_theta, general.e_p, general.e_pt)
    assert not constant.reference.final_state.coeffs_last.r.values.flags.writeable


def test_hand_built_coefficients_keep_their_own_bands():
    # The first iterate takes the Westervelt bands of the r it is handed;
    # only the stepper's own run constant r may use the precomputed ones.
    config = canonical_config(T=0.002)
    picard, state = config.picard, simulate(config).final_state
    c = state.coeffs_last
    hand = replace(c, r=NodeField(c.r.grid, 2.0 * c.r.values))
    models = (_speed(1.0), _speed(1.0, 0.0))
    steps = [coupled_step(replace(state, coeffs_last=hand),
                          Stepper(state.grid, 1e-3, config.params, model, picard.tol,
                                  picard.max_iter, picard.gamma_bar))
             for model in models]
    fields = [[f.values.tobytes() for f in (s.acoustic.p, s.acoustic.v, s.thermal.theta)]
              for s in steps]
    assert fields[0] == fields[1]
    assert steps[0].picard_distances_last == steps[1].picard_distances_last
    assert not steps[0].coeffs_last.r.values.flags.writeable


def _raw_sine(p0, p1, n=128):
    mode = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return InitialData(preset="raw", p0=tuple(p0 * mode), p1=tuple(p1 * mode),
                       theta0=tuple(0.5 * mode), q0=(0.0,) * (n + 1))


def _error(call):
    try:
        call()
    except (Degenerate, FloorViolated) as exc:
        return type(exc), str(exc), exc.step, exc.time
    raise AssertionError("no error raised")


@pytest.mark.parametrize("c", [1.0, 2.5])
@pytest.mark.parametrize("p0, p1, in_kernel", [(0.75, 0.0, False), (0.2, 10.0, True)])
def test_constant_h_run_constants_keep_degenerate_where_it_was(c, p0, p1, in_kernel):
    # amplitude 0.75 c fails the set-up check; a large initial velocity
    # drives alpha below the margin inside a later step's Picard kernel.
    config = replace(canonical_config(T=0.05), initial_data=_raw_sine(p0 * c, p1 * c))
    constant = _error(lambda: simulate(replace(config, speed_model=_speed(c))))
    assert constant == _error(lambda: simulate(replace(config, speed_model=_speed(c, 0.0))))
    assert constant[0] is Degenerate
    assert constant[2] > 1 if in_kernel else constant[2] == 0  # every iterate r is stepper.run[0]


def test_constant_h_below_its_floor_keeps_its_located_floor_violation():
    # A constant below h_floor takes the general path, so the first iterate
    # that evaluates h raises, located at the step and the node as before.
    config = canonical_config(T=0.002)
    picard = config.picard
    state = simulate(config).final_state
    error = _error(lambda: coupled_step(state, Stepper(
        state.grid, 1e-3, config.params, SpeedOfSoundModel(coeffs=(0.5,), h_floor=1.0),
        picard.tol, picard.max_iter, picard.gamma_bar)))
    assert error == (FloorViolated, "h(theta)=0.5 < h_floor=1 at step 3, t=0.003 for "
                     "theta=0.0117795 at node index 0", 3, 0.003)


def test_constant_h_is_evaluated_once_per_run(monkeypatch):
    calls = []
    h_eval = acoustics_mod.h_eval

    def spy(model, theta):
        calls.append(model.coeffs)
        return h_eval(model, theta)

    monkeypatch.setattr(acoustics_mod, "h_eval", spy)
    for T in (0.1, 0.2):  # the set-up coefficients and the stepper's run constants
        calls.clear()
        run = simulate(canonical_config(T=T))
        assert len(calls) == 2
    with pytest.raises(ValueError, match="read-only"):
        run.final_state.coeffs_last.r.values[0] = 2.0
    calls.clear()
    lensing = simulate(replace(lensing_config(), time=TimeConfig(T=0.1, dt=1e-3)))
    # the set-up, every iterate after the first and each accepted state
    assert len(calls) == 1 + sum(lensing.picard_iters_per_step) > 100


def _dense_lensing(T=0.05):
    return replace(lensing_config(), time=TimeConfig(T=T, dt=1e-3, output_stride=1))


def test_output_rows_build_no_fields(monkeypatch):
    # The diagnostics of a row run on raw arrays: a run builds the 7 fields
    # of each accepted step (p, v, theta, q and the frozen alpha, r, g) plus
    # those of its set-up, whatever the output stride.  _make_report and
    # sample_output, which perfbench times, run once per output row.
    calls = Counter()
    init = grid_mod._Field.__init__

    def counting_init(self, grid, values):
        calls["fields"] += 1
        init(self, grid, values)

    monkeypatch.setattr(grid_mod._Field, "__init__", counting_init)
    for owner, name in ((coupling_mod, "_make_report"), (XNormAccumulator, "sample_output")):
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)
    result = simulate(_dense_lensing())
    assert len(result.reports) == 51
    assert calls["_make_report"] == calls["sample_output"] == 51
    assert calls["fields"] <= 7 * 50 + 10


@pytest.mark.xfail(
    strict=True,
    reason="lambda, frakF and acoustic_residual pair the previous output row's "
    "coefficients with one step's dt and the ring's previous level (README, "
    "Known limitations); the fix changes recorded CSV bytes",
)
def test_report_row_does_not_depend_on_output_stride():
    config = canonical_config(T=0.1)
    rows = {}
    for stride in (1, 10):
        run = simulate(replace(config, time=replace(config.time, output_stride=stride)))
        rows[stride] = next(r for r in run.reports if r.t == pytest.approx(0.05))
    assert rows[1].heat_residual == rows[10].heat_residual  # the ring only: agrees today
    for column in ("lam", "frak_f", "acoustic_residual"):
        assert getattr(rows[1], column) == getattr(rows[10], column), column


# the columns that pair a row with the previous output row's coefficients,
# which the strict xfail above pins
_STRIDE_DEFECT = ("lam", "frak_f", "acoustic_residual")
_SHORT_RUNS = {"canonical": canonical_config(T=0.1),
               "lensing": replace(lensing_config(), time=TimeConfig(T=0.1, dt=1e-3))}


@pytest.mark.parametrize("stride", [10, 50])
@pytest.mark.parametrize("name", _SHORT_RUNS)
def test_report_row_does_not_depend_on_which_rows_a_chunk_pass_formed(name, stride):
    # At stride 1 a chunk pass forms every array on all its rows; at a
    # larger stride it forms the arrays only the report reads on the report
    # rows (none, in the chunks of steps 2-33 and 66-97 at stride 50).  A
    # row's columns are the same bytes either way, beyond the stride defect.
    config = _SHORT_RUNS[name]
    dense, sparse = (simulate(replace(config, time=replace(config.time, output_stride=s)))
                     for s in (1, stride))
    assert len(sparse.reports) == 1 + 100 // stride
    kept = [k for k, f in enumerate(dataclasses.fields(EnergyReport))
            if f.name not in _STRIDE_DEFECT]
    for k, row in enumerate(sparse.reports):
        dense_row = dense.reports[stride * k]
        assert row.t == dense_row.t
        assert (np.array(row.row(), dtype=float)[kept].tobytes()
                == np.array(dense_row.row(), dtype=float)[kept].tobytes()), row.t


_SUM_ARRAYS = {"v", "p_tt", "v_tt", "q_t", "q_tt"}  # read by the per-step x-norm sums


@pytest.mark.parametrize("stride", [10, 1])
def test_chunk_pass_forms_report_arrays_on_report_rows_only(monkeypatch, stride):
    # Arrays that only the report reads are formed on the pass's report rows
    # (sel); those that feed the x-norm sums on all K rows of the pass.
    formed, passes = [], []
    rows_cls, original = coupling_mod._Rows, energy_mod._formed

    def rows_spy(acs, ths, **kwargs):
        passes.append((len(acs), len(kwargs["sel"])))
        return rows_cls(acs, ths, **kwargs)

    def formed_spy(name, *args):
        u = original(name, *args)
        if u is not None:
            formed.append((len(passes), name, u.shape[0]))
        return u

    monkeypatch.setattr(coupling_mod, "_Rows", rows_spy)
    monkeypatch.setattr(energy_mod, "_formed", formed_spy)
    config = canonical_config(T=0.1)
    simulate(replace(config, time=replace(config.time, output_stride=stride)))
    assert (32, 3 if stride == 10 else 32) in passes  # a full chunk with its report rows
    assert {name for _, name, _ in formed} == set(energy_mod._ARRAYS)
    for pass_no, name, n_rows in formed:
        k, n_sel = passes[pass_no - 1]
        assert n_rows == (k if name in _SUM_ARRAYS else n_sel), (pass_no, name)


def test_public_diagnostics_equal_report_columns(monkeypatch):
    # Each public diagnostic function and the report of simulate read the
    # same formulas, so their values agree bit for bit on every row.
    rows = []
    original = coupling_mod._make_report

    def capture(state, coeffs_prev, params, row):
        report = original(state, coeffs_prev, params, row)
        rows.append((state, coeffs_prev, row.f, report))
        return report

    monkeypatch.setattr(coupling_mod, "_make_report", capture)
    config = _dense_lensing(T=0.005)
    params = config.params
    simulate(config)
    assert len(rows) == 6

    def same(a, b):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    for state, coeffs_prev, f_next, report in rows:
        th, ac, coeffs = state.thermal, state.acoustic, state.coeffs_last
        for k in range(th.depth):
            same(heat_energy(th, params, k), (report.E0, report.E1, report.E2)[k])
            same(heat_dissipation(th, params, k), (report.D0, report.D1, report.D2)[k])
        if th.depth == 3:
            same(theta_higher_energy(th, params)[:2], (report.cal_E0, report.cal_E1))
            same(acoustic_energy(ac, coeffs, params),
                 (report.acE1, report.acE2, report.acE3, report.acE_total))
        if coeffs_prev is not None:
            same(coefficient_diagnostics(coeffs_prev, coeffs, th.dt), (report.lam, report.frak_f))
            same(acoustic_identity_residual(ac, coeffs_prev, coeffs, params),
                 report.acoustic_residual)
            same(heat_balance_residual(th, NodeField(th.grid, f_next), params),
                 report.heat_residual)


def test_report_energy_sums_are_exact():
    result = simulate(canonical_config(T=0.05))
    for report in result.reports:
        assert report.E_tau == report.E0 + report.E1 + report.E2
        assert report.acE_total == report.acE1 + report.acE2 + report.acE3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_digests(run) -> dict[str, str]:
    """Digests of what the CSVs do not carry: the per-step histories, the
    x-norms and the final state's fields."""
    final = run.final_state
    fields = (final.acoustic.p, final.acoustic.v, final.thermal.theta, final.thermal.q)
    return {
        "x_norms": _sha256(repr(run.x_norms)),
        "alpha_min_per_step": _sha256(repr(run.alpha_min_per_step)),
        "picard_iters_per_step": _sha256(repr(run.picard_iters_per_step)),
        "picard_distances_per_step": _sha256(repr(run.picard_distances_per_step)),
        "final_fields": hashlib.sha256(b"".join(f.values.tobytes() for f in fields)).hexdigest(),
    }


def test_canonical_run_is_one_cached_run_per_step_size():
    assert canonical_run() is canonical_run(1e-3) is canonical_run(dt=1e-3)


def test_degeneracy_semantics_reports_a_run_that_completes(monkeypatch):
    monkeypatch.setattr(verification_mod, "simulate", lambda config: None)
    assert degeneracy_semantics() == (False, "run unexpectedly completed")


def test_golden_outputs_bitwise():
    # Whole-run bitwise proof for refactors: digests of the canonical run,
    # the lensing-sweep reference, its four member runs and the sweep errors,
    # plus the histories and final fields of the canonical run, the
    # reference and the tau = 0.1 member, and a stride-1 lensing run with
    # snapshots.
    # They depend on the numpy build (summation order of np.dot/np.sum);
    # regenerate them only when a change is meant to alter the numbers.
    sweep = lensing_sweep()
    assert _run_digests(canonical_run()) == {
        "x_norms": "1b9fd5f19a5fbd68ae5024d83d0314b5d2390a5f4617a6e9ab55ddfccc605a75",
        "alpha_min_per_step": "6293ce6e3d3712484152bcd4077c0dfa12d1f5a882121db140c62ffb70a1bb60",
        "picard_iters_per_step": "0e53606b41c548741ca9a2d0eb2e07debd14b06f68af236bd5ef85446a7ad4b7",
        "picard_distances_per_step":
            "e9c25db41b339516e8d04f24cbd5ef5ad690e2373e42b8988f24dd78881c9ff2",
        "final_fields": "22ba119bc93ce1b4e0274cc0062197f47f5b0f670df6c72553fba42b00adab47",
    }
    assert _run_digests(sweep.reference) == {
        "x_norms": "559f5da555e02c138828446e3e6e68ce8f48b6caf45ad96a45b259cb13b9a38f",
        "alpha_min_per_step": "b505dd4db9b7e0509d811f9d146e58bfd93863dbb9963ed79f459f8179338dd2",
        "picard_iters_per_step": "2b80d673218222cfdaf4da01f787c5aabbd3933bacae25bddb929819c392fbc1",
        "picard_distances_per_step":
            "9b13d52c35965401508378f87aef5574cefa88f95444cd7bbe83e0a2574190ee",
        "final_fields": "342e755a1bb9a868bb44271213a48eccbc4211d6c652e1ec233f263feb2070ee",
    }
    assert sweep.taus[0] == 0.1
    assert _run_digests(sweep.members[0]) == {
        "x_norms": "20ec4605c796889b6b6fbb526a9ef30d92c98eab561451be833c60fa4ee5cb38",
        "alpha_min_per_step": "75421701bddacebe2dec980a1a623fbcf99198e68da35b59e814ef1f1ad09074",
        "picard_iters_per_step": "693a200f4aa557dc477e8f896f6a5911d5487727d41a33c92648e699f075c64e",
        "picard_distances_per_step":
            "31ea6b82b5370a78967c3f2468c7b60856bfb741b8cee5836aa0318eb0cc39ba",
        "final_fields": "5aad93e113ec0296982a12764647ddcb6e8536b524e1f5c3ae1f51f0f6084689",
    }
    assert _sha256(timeseries_csv(canonical_run())) == (
        "196f28ad1dedf3b672dd6416925fb8869205a2be7cc9be6dfa92543db68bb090"
    )
    assert _sha256(timeseries_csv(sweep.reference)) == (
        "d1f1d8bb61e765db5be3b1c7b8e3165ead7d571075b1b348d7363e0bd1e693e2"
    )
    assert {tau: _sha256(timeseries_csv(m)) for tau, m in zip(sweep.taus, sweep.members)} == {
        0.1: "4575d59635cc011c9e6e1d85df33f34cefd9d04439f00b2b99125498320549da",
        0.05: "172d85b057e2c984081bf07f571cfe9e5af953a5e1a4ca6059b4ae97951e02c5",
        0.025: "7265825448c4a5c08806bb77e06b138264d399a61bfe45d4e56294590b69a22d",
        0.0125: "e0d486ce9a15cdb44c4904c5e402a4e695cc9e162ce423b3d27cf6906c5631e8",
    }
    assert _sha256(repr((sweep.e_theta, sweep.e_p, sweep.e_pt))) == (
        "915e56307b6d676ad1407f08da09d7d2c167f602460204f01eaf8ecb8e5422b6"
    )
    # A report row and an x-norm sample at every step, so the rows at ring
    # depth 1 and 2 (steps 0 and 1) are pinned too; shaped like perfbench's
    # dense_diagnostics workload.
    dense = simulate(replace(
        lensing_config(),
        time=TimeConfig(T=0.05, dt=1e-3, output_stride=1,
                        snapshot_times=(0.0, 0.001, 0.002, 0.025, 0.05)),
    ))
    assert len(dense.reports) == 51 and len(dense.snapshots) == 5
    assert {
        "timeseries": _sha256(timeseries_csv(dense)),
        "snapshots": _sha256("".join(snapshot_csv(s) for s in dense.snapshots)),
        "x_norms": _sha256(repr(dense.x_norms)),
    } == {
        "timeseries": "ba2fd595fb9c0f3223b2867d732e41ed1483a3ca305db9e18fac4ec9a4596dcb",
        "snapshots": "9375d9b723b02d70a75596a6dc5749952f71b8e4c631fbce63554e29d4405d55",
        "x_norms": "d056517cc1c8a537c8b0cba22869d7bf458012c303e7055289f9bcd51617ca66",
    }


# Runs whose lengths straddle the fixed-size chunks of the diagnostics pass
# (32 rows at N = 128), with output strides that do and do not divide the
# chunk and snapshots on and next to chunk edges.  The digests were recorded
# from the step-by-step diagnostics, so a chunked pass must reproduce every
# report row, x-norm and snapshot bit for bit.
_CHUNK_EDGE_DIGESTS = {
    1: "84a3ca711973bf9440cb8ad0300132a50a6bbf7aaf120a4f8ee812140dd86a8e",
    2: "9fe2fadc83bbef1a99718030edcc6772ddb1644d16331a01a66414c560b290a3",
    3: "473de39bcd996b8ec754022fa4fa8f1cf7efb580e0d02d835f9fdf412ccbcc3c",
    31: "00028c369958d6b8cdde74ce16b7ff9ef7551c0df1a56f3006bf7cf293f61117",
    32: "4a16a0d148123b298b710962d1e194e931832110e75d6e362eb347e25a0fc6e2",
    33: "01c55e501524cdd463c1ce81e91d2cbc52860d6f815e51a0c4352a0da77d63fa",
    69: "5dc59b201fa8e24ae7c3fc4f4a3cc78b097826e28801a91fcb72112f6e6a1443",
}


@pytest.mark.parametrize("steps", sorted(_CHUNK_EDGE_DIGESTS))
def test_chunk_edge_outputs_bitwise(steps):
    snapshot_steps = [n for n in (0, 1, 2, 31, 32, 33, 34, 63, 64, 65, 66) if n <= steps]
    parts = []
    for stride in (1, 3, 7):
        run = simulate(replace(lensing_config(), time=TimeConfig(
            T=steps * 1e-3, dt=1e-3, output_stride=stride,
            snapshot_times=tuple(n * 1e-3 for n in snapshot_steps),
        )))
        assert len(run.snapshots) == len(snapshot_steps)
        parts += [timeseries_csv(run), repr(run.x_norms), *map(snapshot_csv, run.snapshots)]
    assert _sha256("".join(parts)) == _CHUNK_EDGE_DIGESTS[steps]
