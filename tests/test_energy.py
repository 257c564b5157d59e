import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoacoustic.acoustics import AcousticState, FrozenCoefficients
from thermoacoustic.energy import (
    TIMESERIES_COLUMNS,
    EnergyReport,
    XNormAccumulator,
    _passes,
    acoustic_energy,
    coefficient_diagnostics,
    gronwall_bound,
    heat_balance_residual,
    heat_dissipation,
    heat_energy,
    theta_higher_energy,
)
from thermoacoustic.grid import FaceField, Grid1D, NodeField
from thermoacoustic.heat import InsufficientHistory, ThermalState
from thermoacoustic.model import PhysicalParams


def unit_params(tau=0.1):
    return PhysicalParams(
        rho_a=1.0, C_a=1.0, rho_b=1.0, C_b=1.0, W=1.0, kappa_a=1.0,
        b=1.0, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=tau,
    )


def frozen_history(grid, theta_vals, q_vals, levels=3, dt=0.01):
    state = ThermalState.initial(NodeField(grid, theta_vals), FaceField(grid, q_vals))
    for n in range(1, levels):
        state = state.advanced(
            NodeField(grid, theta_vals), FaceField(grid, q_vals), n * dt
        )
    return state


def constant_coeffs(grid, alpha=1.0, r=1.0, g=0.0):
    n = grid.N
    return FrozenCoefficients(
        alpha=NodeField(grid, np.full(n, alpha)),
        r=NodeField(grid, np.full(n, r)),
        g=NodeField(grid, np.full(n, g)),
        alpha_min=alpha,
    )


class TestHeatEnergies:
    def test_sine_values(self):
        grid = Grid1D(1.0, 64)
        s = np.sin(np.pi * grid.nodes())
        state = frozen_history(grid, s, np.zeros(65))
        params = unit_params(tau=0.1)
        assert heat_energy(state, params, 0) == pytest.approx(0.25, abs=1e-14)
        assert heat_energy(state, params, 1) == 0.0
        assert heat_energy(state, params, 2) == 0.0
        assert heat_dissipation(state, params, 0) == pytest.approx(0.5, abs=1e-14)

    def test_zero_state(self):
        grid = Grid1D(1.0, 16)
        state = frozen_history(grid, np.zeros(16), np.zeros(17))
        params = unit_params()
        for k in (0, 1, 2):
            assert heat_energy(state, params, k) == 0.0
            assert heat_dissipation(state, params, k) == 0.0

    def test_tau_zero_drops_flux_energy(self):
        grid = Grid1D(1.0, 32)
        q = np.cos(np.pi * grid.faces())
        state = frozen_history(grid, np.zeros(32), q)
        assert heat_energy(state, unit_params(tau=0.0), 0) == 0.0
        # the flux still contributes to the dissipation
        assert heat_dissipation(state, unit_params(tau=0.0), 0) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_flux_dissipation_is_face_norm(self):
        grid = Grid1D(1.0, 32)
        q = np.cos(np.pi * grid.faces())
        state = frozen_history(grid, np.zeros(32), q)
        assert heat_dissipation(state, unit_params(), 0) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_insufficient_history(self):
        grid = Grid1D(1.0, 16)
        state = ThermalState.initial(grid.zero_node_field(), grid.zero_face_field())
        with pytest.raises(InsufficientHistory):
            heat_energy(state, unit_params(), 1)


class TestHigherEnergies:
    def test_zero(self):
        grid = Grid1D(1.0, 16)
        state = frozen_history(grid, np.zeros(16), np.zeros(17))
        assert theta_higher_energy(state, unit_params()) == (0.0, 0.0, 0.0, 0.0)

    def test_frozen_sine_values(self):
        grid = Grid1D(1.0, 64)
        lam = grid.laplacian_eigenvalue(1)
        s = np.sin(np.pi * grid.nodes())
        state = frozen_history(grid, s, np.zeros(65))
        params = unit_params(tau=0.1)
        cal_e0, cal_e1, cal_d0, cal_d1 = theta_higher_energy(state, params)
        assert cal_e0 == pytest.approx(0.25, abs=1e-14)
        assert cal_e1 == pytest.approx(0.55 * lam / 2 + lam**2 / 2, rel=1e-12)
        assert cal_d0 == pytest.approx(0.5, abs=1e-14)
        assert cal_d1 == pytest.approx(lam / 2 + lam**2 / 2, rel=1e-12)

    def test_quadratic_scaling(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(32)
        params = unit_params()
        base = theta_higher_energy(frozen_history(grid, vals, np.zeros(33)), params)
        scaled = theta_higher_energy(frozen_history(grid, 3.0 * vals, np.zeros(33)), params)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(9.0 * b, rel=1e-12)


class TestBalanceResidual:
    def test_zero_run(self):
        grid = Grid1D(1.0, 16)
        state = frozen_history(grid, np.zeros(16), np.zeros(17), levels=2)
        res = heat_balance_residual(state, grid.zero_node_field(), unit_params())
        assert res == 0.0

    def test_needs_two_levels(self):
        grid = Grid1D(1.0, 16)
        state = ThermalState.initial(grid.zero_node_field(), grid.zero_face_field())
        with pytest.raises(InsufficientHistory):
            heat_balance_residual(state, grid.zero_node_field(), unit_params())


class TestAcousticEnergies:
    def make_state(self, grid, p_vals, v_vals, levels=3, dt=0.01):
        state = AcousticState.initial(NodeField(grid, p_vals), NodeField(grid, v_vals))
        for n in range(1, levels):
            state = state.advanced(
                NodeField(grid, p_vals), NodeField(grid, v_vals), n * dt
            )
        return state

    def test_zero(self):
        grid = Grid1D(1.0, 16)
        state = self.make_state(grid, np.zeros(16), np.zeros(16))
        out = acoustic_energy(state, constant_coeffs(grid), unit_params())
        assert out == (0.0, 0.0, 0.0, 0.0)

    def test_frozen_velocity_mode(self):
        grid = Grid1D(1.0, 64)
        lam = grid.laplacian_eigenvalue(1)
        s = np.sin(np.pi * grid.nodes())
        state = self.make_state(grid, np.zeros(64), s)
        e1, e2, e3, total = acoustic_energy(state, constant_coeffs(grid), unit_params())
        assert e1 == pytest.approx(0.25, abs=1e-14)
        assert e2 == pytest.approx(lam / 4, rel=1e-12)
        assert total == e1 + e2 + e3

    def test_quadratic_scaling(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(1)
        p, v = rng.standard_normal((2, 32))
        coeffs = constant_coeffs(grid, alpha=1.2, r=0.8)
        params = unit_params()
        base = acoustic_energy(self.make_state(grid, p, v), coeffs, params)
        scaled = acoustic_energy(self.make_state(grid, 2.0 * p, 2.0 * v), coeffs, params)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(4.0 * b, rel=1e-12)

    def test_needs_three_levels(self):
        grid = Grid1D(1.0, 16)
        state = self.make_state(grid, np.zeros(16), np.zeros(16), levels=2)
        with pytest.raises(InsufficientHistory):
            acoustic_energy(state, constant_coeffs(grid), unit_params())


class TestCoefficientDiagnostics:
    def test_constant_coefficients_vanish(self):
        grid = Grid1D(1.0, 32)
        coeffs = constant_coeffs(grid, alpha=0.9, r=1.4)
        lam, frak_f = coefficient_diagnostics(coeffs, coeffs, 0.01)
        assert lam == 0.0
        assert frak_f == 0.0

    @staticmethod
    def unit_coeffs_with_forcing(grid, g_vals):
        return FrozenCoefficients(
            alpha=NodeField(grid, np.ones(grid.N)),
            r=NodeField(grid, np.ones(grid.N)),
            g=NodeField(grid, g_vals),
            alpha_min=1.0,
        )

    def test_forcing_mode_value(self):
        grid = Grid1D(1.0, 128)
        lam_h = grid.laplacian_eigenvalue(1)
        s = np.sin(np.pi * grid.nodes())
        dt = 1e-3
        t = 0.3
        prev = self.unit_coeffs_with_forcing(grid, math.exp(-(t - dt)) * s)
        curr = self.unit_coeffs_with_forcing(grid, math.exp(-t) * s)
        lam, frak_f = coefficient_diagnostics(prev, curr, dt)
        assert lam == 0.0
        expected = math.exp(-2 * t) * (lam_h / 2) + math.exp(-2 * t) / 2
        assert frak_f == pytest.approx(expected, rel=3 * dt)

    def test_forcing_scaling(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(2)
        g0, g1 = rng.standard_normal((2, 32))
        _, f_base = coefficient_diagnostics(
            self.unit_coeffs_with_forcing(grid, g0),
            self.unit_coeffs_with_forcing(grid, g1), 0.01,
        )
        _, f_scaled = coefficient_diagnostics(
            self.unit_coeffs_with_forcing(grid, 3.0 * g0),
            self.unit_coeffs_with_forcing(grid, 3.0 * g1), 0.01,
        )
        assert f_scaled == pytest.approx(9.0 * f_base, rel=1e-12)


def x_norms_of(acoustic_states, thermal_states, dt):
    """Norms of a stored run, fed to the accumulator as simulate feeds it
    with output_stride 1."""
    acc = XNormAccumulator(dt)
    for n, (ac, th) in enumerate(zip(acoustic_states, thermal_states)):
        if n > 0:
            acc.accumulate_step(ac, th)
        acc.sample_output(ac, th)
    return acc.norms()


class TestXNorm:
    def test_zero_run(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        ac = [AcousticState.initial(z, z)]
        th = [ThermalState.initial(z, grid.zero_face_field())]
        for n in (1, 2, 3):
            ac.append(ac[-1].advanced(z, z, 0.01 * n))
            th.append(th[-1].advanced(z, grid.zero_face_field(), 0.01 * n))
        assert x_norms_of(ac, th, 0.01) == (0.0, 0.0, 0.0)

    def test_frozen_sine_theta_component(self):
        grid = Grid1D(1.0, 64)
        lam = grid.laplacian_eigenvalue(1)
        s = NodeField(grid, np.sin(np.pi * grid.nodes()))
        q = grid.zero_face_field()
        z = grid.zero_node_field()
        ac = [AcousticState.initial(z, z)]
        th = [ThermalState.initial(s, q)]
        for n in range(1, 11):
            ac.append(ac[-1].advanced(z, z, 0.1 * n))
            th.append(th[-1].advanced(s, q, 0.1 * n))
        _, x_theta, _ = x_norms_of(ac, th, 0.1)
        assert x_theta == pytest.approx(
            math.sqrt(0.5 + lam / 2 + lam**2 / 2), rel=1e-12
        )

    def test_monotone_in_run_length(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(3)
        z = grid.zero_node_field()
        ac = [AcousticState.initial(z, z)]
        th = [ThermalState.initial(NodeField(grid, rng.standard_normal(32)),
                                   grid.zero_face_field())]
        for n in range(1, 8):
            ac.append(ac[-1].advanced(
                NodeField(grid, rng.standard_normal(32)),
                NodeField(grid, rng.standard_normal(32)), 0.01 * n))
            th.append(th[-1].advanced(
                NodeField(grid, rng.standard_normal(32)),
                FaceField(grid, rng.standard_normal(33)), 0.01 * n))
        short = x_norms_of(ac[:4], th[:4], 0.01)
        full = x_norms_of(ac, th, 0.01)
        for a, b in zip(short, full):
            assert b >= a - 1e-15


class TestGronwall:
    def test_flat(self):
        t = np.arange(0.0, 1.0005, 1e-3)
        out = gronwall_bound(2.0, np.zeros_like(t), np.zeros_like(t), t)
        assert np.max(np.abs(out - 2.0)) == 0.0

    def test_exponential(self):
        t = np.arange(0.0, 1.0005, 1e-3)
        out = gronwall_bound(2.0, np.full_like(t, 0.7), np.zeros_like(t), t)
        assert np.max(np.abs(out - 2.0 * np.exp(0.7 * t))) <= 1e-8

    def test_linear_drive(self):
        t = np.arange(0.0, 1.0005, 1e-3)
        out = gronwall_bound(2.0, np.zeros_like(t), np.full_like(t, 0.3), t)
        assert np.max(np.abs(out - (2.0 + 0.3 * t))) <= 1e-8

    def test_reproduces_equality_solution(self):
        # u' = a u + c with equality and v = 0: the bound must return u itself
        a, c, u0 = 0.5, 0.2, 1.5
        t = np.arange(0.0, 1.0005, 1e-3)
        exact = (u0 + c / a) * np.exp(a * t) - c / a
        out = gronwall_bound(u0, np.full_like(t, a), np.full_like(t, c), t)
        assert np.max(np.abs(out - exact)) <= 1e-6

    @pytest.mark.parametrize("t", [[], [0.0]], ids=["no_time", "one_time"])
    def test_fewer_than_two_times_give_u0(self, t):
        assert gronwall_bound(1.5, 0.3, 0.2, t).tolist() == [1.5] * len(t)

    def test_nonuniform_grid_rejected(self):
        for t in (np.array([0.0, 0.1, 0.3]), np.array([0.0, np.nan, 2.0])):
            with pytest.raises(ValueError):
                gronwall_bound(1.0, np.zeros(3), np.zeros(3), t)


def test_report_row_matches_schema():
    report = EnergyReport(
        t=1.0, E0=2.0, E1=3.0, E2=4.0, E_tau=9.0, D0=5.0, D1=6.0, D2=7.0,
        cal_E0=8.0, cal_E1=9.5, acE1=10.0, acE2=11.0, acE3=12.0,
        acE_total=33.0, lam=13.0, frak_f=14.0, alpha_min=0.9,
        picard_iters=3, heat_residual=1e-5, acoustic_residual=2e-5,
    )
    row = report.row()
    assert len(row) == len(TIMESERIES_COLUMNS)
    assert row[0] == 1.0
    assert row[TIMESERIES_COLUMNS.index("lambda")] == 13.0
    assert row[TIMESERIES_COLUMNS.index("picard_iters")] == 3


def _mixed_magnitudes(rng, shape):
    """Values from 1e-320 (subnormal) to 1e150 in size, one in ten a signed zero."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 150, size=shape)
    u = rng.random(shape)
    values[u < 0.05] = 0.0
    values[(u >= 0.05) & (u < 0.1)] = -0.0
    return values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 69), n=st.integers(2, 399), step=st.integers(1, 3),
    trim=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_vecdot_rows_equal_dot_bitwise(rows, n, step, trim, seed):
    # The chunked diagnostics take every inner product of a chunk as one
    # np.vecdot over its (K, n) arrays, and the recorded report and x-norm
    # digests were made with np.dot on each row's 1-D array; they agree bit
    # for bit only if the two reduce each row in the same order.  Rows are
    # strided (every step-th column) or trimmed like grad_p[1:-1]; at least
    # two entries remain, since np.dot multiplies a single pair, which keeps
    # a -0.0 that vecdot's sum turns into +0.0.
    rng = np.random.default_rng(seed)
    width = n + 2 if trim else n
    a, b = (_mixed_magnitudes(rng, (rows, width * step))[:, ::step] for _ in range(2))
    if trim:
        a, b = a[:, 1:-1], b[:, 1:-1]
    dots = np.vecdot(a, b)
    for i in range(rows):
        assert dots[i].tobytes() == np.float64(np.dot(a[i], b[i])).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 64), n=st.integers(2, 4096), seed=st.integers(0, 2**32 - 1))
def test_row_axis_reduce_equals_each_row_reduced_alone(rows, n, seed):
    # The chunk pass sums the cubes of an L3 norm with one
    # np.add.reduce(..., axis=-1) over a C-contiguous (K, n) array, and the
    # recorded digests were made by reducing each row's 1-D array alone; they
    # agree bit for bit only if both sum a row in the same (pairwise) order.
    # Signed values and the nonnegative cubes are both checked.
    u = _mixed_magnitudes(np.random.default_rng(seed), (rows, n))
    for a in (u, np.abs(u * 1e-51) ** 3):
        assert a.flags.c_contiguous
        sums = np.add.reduce(a, axis=-1)
        for i in range(rows):
            assert sums[i].tobytes() == np.add.reduce(a[i]).tobytes()


def _steps(*depths):
    """(n, stand-in ring of that depth) for each depth, n from 0."""
    return [(n, SimpleNamespace(depth=d)) for n, d in enumerate(depths)]


def _ring(step):
    return step[1]


def test_passes_end_a_list_when_full_or_at_a_new_ring_depth():
    # _passes is the one batching rule of the chunk passes: on N = 128 a
    # list holds 4096 // 128 = 32 consecutive items of one ring depth.
    grid = Grid1D(1.0, 128)
    steps = _steps(1, 2, *[3] * 70)
    lists = list(_passes(iter(steps), _ring, grid))
    assert [len(chunk) for chunk in lists] == [1, 1, 32, 32, 6]
    assert [n for chunk in lists for n, _ in chunk] == list(range(72))
    assert list(_passes(iter(()), _ring, grid)) == []


def test_passes_yield_the_pending_list_before_the_stream_error():
    # An error in stepping comes after the diagnostics of the steps before
    # it, so the error of an earlier step's diagnostics wins.
    steps, error = _steps(*[3] * 5), RuntimeError("step 5 failed")

    def stream():
        yield from steps
        raise error

    lists = _passes(stream(), _ring, Grid1D(1.0, 128))
    assert next(lists) == steps
    with pytest.raises(RuntimeError) as raised:
        next(lists)
    assert raised.value is error
