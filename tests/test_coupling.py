import hashlib
from dataclasses import replace

import numpy as np
import pytest

from thermoacoustic.acoustics import Degenerate, assemble_coefficients
from thermoacoustic.cli import timeseries_csv
from thermoacoustic.config import InitialData, initial_fields, make_grid
from thermoacoustic.coupling import (
    CoupledState,
    PicardDiverged,
    TauZeroFluxDerivative,
    compatibility_data,
    coupled_step,
    simulate,
    tau_sweep,
)
from thermoacoustic.grid import (
    FaceField,
    Grid1D,
    NodeField,
    NonFinite,
    gradient_to_faces,
    laplacian_dirichlet,
)
from thermoacoustic.model import FloorViolated, SpeedOfSoundModel, q_source
from thermoacoustic.verification import (
    canonical_config,
    canonical_run,
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

    def test_tau_zero_explicit_request_fails(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        with pytest.raises(TauZeroFluxDerivative):
            compatibility_data(z, z, z, grid.zero_face_field(),
                               unit_params(tau=0.0), UNIT_MODEL, include_q1=True)

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
        new = coupled_step(state, 1e-3, 1e-10, 25, 0.5, unit_params(tau=0.05),
                           UNIT_MODEL)
        assert new.picard_iterations_last == 1
        assert np.all(new.acoustic.p.values == 0.0)
        assert np.all(new.thermal.theta.values == 0.0)
        assert new.alpha_min_last == 1.0

    def test_degenerate_iterate_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        p0 = NodeField(grid, 0.8 * np.sin(np.pi * grid.nodes()))
        z = grid.zero_node_field()
        state = CoupledState.initial(p0, z, z, grid.zero_face_field())
        with pytest.raises(Degenerate) as err:
            coupled_step(state, 1e-3, 1e-10, 25, 0.5, unit_params(tau=0.05),
                         UNIT_MODEL)
        assert err.value.step == 1
        assert err.value.node_index is not None

    def test_floor_violation_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        theta0 = NodeField(grid, 0.5 * np.sin(np.pi * grid.nodes()))
        z = grid.zero_node_field()
        state = CoupledState.initial(z, z, theta0, grid.zero_face_field())
        model = SpeedOfSoundModel(coeffs=(1.0, -1.2), h_floor=0.5)
        with pytest.raises(FloorViolated) as err:
            coupled_step(state, 1e-3, 1e-10, 25, 0.5, unit_params(tau=0.05), model)
        assert err.value.step == 1
        assert err.value.time == pytest.approx(1e-3)
        assert "step 1" in str(err.value)

    def test_nonfinite_iterate_aborts_with_location(self):
        grid = Grid1D(1.0, 32)
        z = grid.zero_node_field()
        v0 = NodeField(grid, np.full(grid.N, 1e200))  # g = 2 k v^2 overflows
        state = CoupledState.initial(z, v0, z, grid.zero_face_field())
        with pytest.raises(NonFinite) as err, np.errstate(over="ignore"):
            coupled_step(state, 1e-3, 1e-10, 25, 0.5, unit_params(tau=0.05), UNIT_MODEL)
        assert (err.value.what, err.value.index) == ("NodeField", 0)
        assert err.value.step == 1
        assert err.value.time == pytest.approx(1e-3)
        assert "step 1" in str(err.value)

    def test_exhausted_iterations_raise(self):
        config = canonical_config()
        grid = make_grid(config)
        p0, p1, th0, q0 = initial_fields(config, grid)
        state = CoupledState.initial(p0, p1, th0, q0)
        with pytest.raises(PicardDiverged) as err:
            coupled_step(state, config.time.dt, 1e-16, 1, 0.5, config.params,
                         config.speed_model)
        assert err.value.step == 1
        assert err.value.iterations == 1

    def test_fixed_point_consistency(self):
        # the accepted step satisfies the nonlinear discrete system with
        # coefficients evaluated at the accepted state
        config = canonical_config()
        grid = make_grid(config)
        p0, p1, th0, q0 = initial_fields(config, grid)
        state = CoupledState.initial(p0, p1, th0, q0)
        params, model = config.params, config.speed_model
        dt, tol = config.time.dt, config.picard.tol
        for _ in range(3):
            prev = state
            state = coupled_step(state, dt, tol, 25, 0.5, params, model)
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

    def test_degeneracy_scaling_over_run(self):
        # halving the pressure amplitude at least halves max_t(1 - alpha_min)
        full = simulate(canonical_config(amplitude_p=0.05, T=0.2))
        half = simulate(canonical_config(amplitude_p=0.025, T=0.2))
        gap_full = max(1.0 - a for a in full.alpha_min_per_step)
        gap_half = max(1.0 - a for a in half.alpha_min_per_step)
        assert gap_half <= 0.5 * gap_full * (1.0 + 1e-9)


def test_report_energy_sums_are_exact():
    result = simulate(canonical_config(T=0.05))
    for report in result.reports:
        assert report.E_tau == report.E0 + report.E1 + report.E2
        assert report.acE_total == report.acE1 + report.acE2 + report.acE3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_outputs_bitwise():
    # Whole-run bitwise proof for refactors: digests of the canonical run,
    # the lensing-sweep reference, its four member runs and the sweep errors.
    # They depend on the numpy build (summation order of np.dot/np.sum);
    # regenerate them only when a change is meant to alter the numbers.
    sweep = lensing_sweep()
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
