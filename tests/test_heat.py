import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thermoacoustic.acoustics import AcousticState
from thermoacoustic.grid import (
    FaceField,
    Grid1D,
    NodeField,
    gradient_to_faces,
    l2_inner,
    l2_norm,
)
from thermoacoustic.heat import (
    InsufficientHistory,
    InvalidMode,
    ThermalState,
    cattaneo_step,
    fourier_step,
    fourier_thermal_step,
    reconstruct_time_derivatives,
    telegraph_mode_oracle,
)
from thermoacoustic.model import PhysicalParams


RING_CLASSES = pytest.mark.parametrize(
    "cls", [AcousticState, ThermalState], ids=lambda cls: cls.__name__
)
SECOND_DIFFERENCE = {
    AcousticState: AcousticState.second_derivative,
    ThermalState: lambda state: reconstruct_time_derivatives(state, 2),
}


def zero_level(cls, grid):
    """One zero time level of the ring's two named fields."""
    if cls is AcousticState:
        return grid.zero_node_field(), grid.zero_node_field()
    return grid.zero_node_field(), grid.zero_face_field()


def unit_params(tau):
    return PhysicalParams(
        rho_a=1.0, C_a=1.0, rho_b=1.0, C_b=1.0, W=1.0, kappa_a=1.0,
        b=1.0, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=tau,
    )


def sine_state(grid, amplitude=1.0, k=1):
    theta = NodeField(grid, amplitude * np.sin(k * np.pi * grid.nodes() / grid.L))
    return ThermalState.initial(theta, grid.zero_face_field())


def scheme_residuals(old, new, f, dt, params):
    """Max-norm residuals of the two implicit scheme equations."""
    grid = old.grid
    res_theta = (
        params.m * (new.theta.values - old.theta.values) / dt
        + np.diff(new.q.values) / grid.dx
        + params.ell * new.theta.values
        - f.values
    )
    res_q = (
        params.tau * (new.q.values - old.q.values) / dt
        + new.q.values
        + params.kappa_a * gradient_to_faces(new.theta).values
    )
    return np.max(np.abs(res_theta)), np.max(np.abs(res_q))


class TestCattaneoStep:
    def test_zero_state_stays_zero(self):
        grid = Grid1D(1.0, 16)
        state = ThermalState.initial(grid.zero_node_field(), grid.zero_face_field())
        new = cattaneo_step(state, grid.zero_node_field(), 0.1, unit_params(0.2))
        assert np.all(new.theta.values == 0.0)
        assert np.all(new.q.values == 0.0)

    def test_tau_zero_matches_fourier_bitwise(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(6)
        theta = NodeField(grid, rng.standard_normal(32))
        q = FaceField(grid, rng.standard_normal(33))
        f = NodeField(grid, rng.standard_normal(32))
        params = PhysicalParams(
            rho_a=1.3, C_a=0.9, rho_b=1.1, C_b=0.8, W=0.6, kappa_a=0.7,
            b=0.01, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=0.0,
        )
        state = ThermalState.initial(theta, q)
        via_cattaneo = cattaneo_step(state, f, 0.05, params)
        direct = fourier_step(theta, f, 0.05, params)
        assert via_cattaneo.theta.values.tobytes() == direct.values.tobytes()
        via_fourier = fourier_thermal_step(state, f, 0.05, params)
        assert via_cattaneo.q.values.tobytes() == via_fourier.q.values.tobytes()

    def test_scheme_residuals_and_modal_oracle(self):
        # single-mode step cross-checked against the 2x2 modal system solved
        # independently with a dense linear solve
        grid = Grid1D(1.0, 128)
        params = unit_params(0.1)
        dt = 0.01
        state = sine_state(grid)
        new = cattaneo_step(state, grid.zero_node_field(), dt, params)
        res_theta, res_q = scheme_residuals(state, new, grid.zero_node_field(), dt, params)
        assert res_theta <= 1e-10
        assert res_q <= 1e-10

        lam = grid.laplacian_eigenvalue(1)
        mu = math.sqrt(lam)
        # backward Euler on (T, R): [[m/dt + ell, -mu], [kappa*mu, tau/dt + 1]]
        A = np.array([[params.m / dt + params.ell, -mu],
                      [params.kappa_a * mu, params.tau / dt + 1.0]])
        rhs = np.array([params.m / dt * 1.0, params.tau / dt * 0.0])
        T1, R1 = np.linalg.solve(A, rhs)
        s = NodeField(grid, np.sin(np.pi * grid.nodes()))
        c = FaceField(grid, np.cos(np.pi * grid.faces()))
        T_num = l2_inner(new.theta, s) / l2_norm(s) ** 2
        R_num = l2_inner(new.q, c) / l2_norm(c) ** 2
        assert T_num == pytest.approx(T1, abs=1e-12)
        assert R_num == pytest.approx(R1, abs=1e-12)

    def test_mode_invariance(self):
        grid = Grid1D(1.0, 64)
        params = unit_params(0.2)
        state = ThermalState.initial(
            NodeField(grid, 0.8 * np.sin(2 * np.pi * grid.nodes())),
            FaceField(grid, -0.3 * np.cos(2 * np.pi * grid.faces())),
        )
        s = NodeField(grid, np.sin(2 * np.pi * grid.nodes()))
        c = FaceField(grid, np.cos(2 * np.pi * grid.faces()))
        for _ in range(20):
            state = cattaneo_step(state, grid.zero_node_field(), 0.01, params)
        T = l2_inner(state.theta, s) / l2_norm(s) ** 2
        R = l2_inner(state.q, c) / l2_norm(c) ** 2
        off_theta = state.theta.values - T * s.values
        off_q = state.q.values - R * c.values
        assert np.max(np.abs(off_theta)) <= 1e-13
        assert np.max(np.abs(off_q)) <= 1e-13

    def test_tau_robustness_linear_rate(self):
        # fixed dt and data: cattaneo -> fourier at rate O(tau)
        grid = Grid1D(1.0, 48)
        rng = np.random.default_rng(12)
        theta0 = NodeField(grid, rng.standard_normal(48))
        q0 = FaceField(grid, rng.standard_normal(49))
        f = NodeField(grid, rng.standard_normal(48))
        dt, n_steps = 0.02, 10

        def final_theta(tau):
            params = unit_params(tau)
            state = ThermalState.initial(theta0, q0)
            for _ in range(n_steps):
                state = cattaneo_step(state, f, dt, params)
            return state.theta.values

        ref = final_theta(0.0)
        gaps = [np.max(np.abs(final_theta(tau) - ref)) for tau in (1e-3, 5e-4)]
        assert 1.7 <= gaps[0] / gaps[1] <= 2.3

    @pytest.mark.parametrize("dt", [0.1, 10.0])
    def test_unconditional_energy_decay(self, dt):
        grid = Grid1D(1.0, 32)
        params = unit_params(0.3)
        rng = np.random.default_rng(8)
        state = ThermalState.initial(
            NodeField(grid, rng.standard_normal(32)),
            FaceField(grid, rng.standard_normal(33)),
        )

        def e0(s):
            return 0.5 * (
                params.m * params.kappa_a * l2_norm(s.theta) ** 2
                + params.tau * l2_norm(s.q) ** 2
            )

        prev = e0(state)
        for _ in range(10):
            state = cattaneo_step(state, grid.zero_node_field(), dt, params)
            now = e0(state)
            assert now <= prev
            prev = now


class TestFourierStep:
    def test_zero(self):
        grid = Grid1D(1.0, 16)
        out = fourier_step(grid.zero_node_field(), grid.zero_node_field(), 0.1,
                           unit_params(0.0))
        assert np.all(out.values == 0.0)

    def test_single_mode_amplitude_ratio(self):
        grid = Grid1D(1.0, 128)
        params = unit_params(0.0)
        dt = 0.1
        lam = grid.laplacian_eigenvalue(1)
        s = np.sin(np.pi * grid.nodes())
        out = fourier_step(NodeField(grid, s), grid.zero_node_field(), dt, params)
        expected = 1.0 / (1.0 + dt * (1.0 + lam))
        assert np.max(np.abs(out.values - expected * s)) <= 1e-14

    def test_manufactured_fixed_point(self):
        grid = Grid1D(1.0, 64)
        params = unit_params(0.0)
        lam = grid.laplacian_eigenvalue(1)
        A = 0.7
        s = np.sin(np.pi * grid.nodes())
        theta = NodeField(grid, A * s)
        f = NodeField(grid, A * (params.ell + params.kappa_a * lam) * s)
        out = fourier_step(theta, f, 0.05, params)
        assert np.max(np.abs(out.values - theta.values)) <= 1e-14


class TestTimeDerivatives:
    def make_history(self, grid, profile):
        s = np.sin(np.pi * grid.nodes())
        c = np.cos(np.pi * grid.faces())
        state = ThermalState.initial(
            NodeField(grid, profile(0.0) * s), FaceField(grid, profile(0.0) * c)
        )
        for n in (1, 2):
            t = 0.1 * n
            state = state.advanced(
                NodeField(grid, profile(t) * s), FaceField(grid, profile(t) * c), t
            )
        return state, s, c

    def test_constant_history_gives_zero(self):
        grid = Grid1D(1.0, 16)
        state, _, _ = self.make_history(grid, lambda t: 1.0)
        for k in (1, 2):
            dtheta, dq = reconstruct_time_derivatives(state, k)
            assert np.all(dtheta.values == 0.0)
            assert np.all(dq.values == 0.0)

    def test_linear_history_exact_first_derivative(self):
        grid = Grid1D(1.0, 16)
        state, s, _ = self.make_history(grid, lambda t: t)
        dtheta, _ = reconstruct_time_derivatives(state, 1)
        assert np.allclose(dtheta.values, s, atol=1e-13)

    def test_quadratic_history_exact_second_derivative(self):
        grid = Grid1D(1.0, 16)
        state, s, _ = self.make_history(grid, lambda t: t * t)
        dtheta, _ = reconstruct_time_derivatives(state, 2)
        assert np.allclose(dtheta.values, 2.0 * s, atol=1e-11)

    def test_insufficient_history(self):
        grid = Grid1D(1.0, 16)
        state = ThermalState.initial(grid.zero_node_field(), grid.zero_face_field())
        with pytest.raises(InsufficientHistory):
            reconstruct_time_derivatives(state, 1)

    def test_invalid_order(self):
        grid = Grid1D(1.0, 16)
        state = ThermalState.initial(grid.zero_node_field(), grid.zero_face_field())
        with pytest.raises(ValueError):
            reconstruct_time_derivatives(state, 3)

    @RING_CLASSES
    def test_nonuniform_stamps_rejected(self, cls):
        grid = Grid1D(1.0, 16)
        a, b = zero_level(cls, grid)
        state = cls.initial(a, b)
        state = state.advanced(a, b, 0.1)
        with pytest.raises(ValueError):
            state.advanced(a, b, 0.3)

    @RING_CLASSES
    @pytest.mark.parametrize("start", [8191.9995, 16383.9995])
    def test_stamps_by_t_plus_dt_across_a_power_of_two_accepted(self, cls, start):
        # Past 8192 one ulp of t exceeds 1e-9 dt at dt = 1e-3, so t + dt can
        # round two spacings further apart than the relative tolerance allows.
        a, b = zero_level(cls, Grid1D(1.0, 16))
        state = cls.initial(a, b, t=start)
        for _ in range(4):
            state = state.advanced(a, b, state.t + 1e-3)
        assert state.t > start + 3e-3

    @RING_CLASSES
    def test_spacing_off_by_a_millionth_rejected_past_a_power_of_two(self, cls):
        a, b = zero_level(cls, Grid1D(1.0, 16))
        state = cls.initial(a, b, t=16383.9995)
        state = state.advanced(a, b, state.t + 1e-3)
        with pytest.raises(ValueError, match="constant spacing"):
            state.advanced(a, b, state.t + 1e-3 * (1.0 + 1e-6))

    @RING_CLASSES
    def test_nonincreasing_stamps_rejected(self, cls):
        a, b = zero_level(cls, Grid1D(1.0, 16))
        state = cls.initial(a, b, t=0.1)
        for t in (0.1, 0.05, float("nan")):
            with pytest.raises(ValueError, match="strictly increasing"):
                state.advanced(a, b, t)

    @RING_CLASSES
    def test_level_on_two_grids_rejected(self, cls):
        a, _ = zero_level(cls, Grid1D(1.0, 16))
        _, b = zero_level(cls, Grid1D(2.0, 16))
        with pytest.raises(ValueError, match="share the grid"):
            cls.initial(a, b)

    @RING_CLASSES
    def test_depth_capped_at_three(self, cls):
        grid = Grid1D(1.0, 16)
        a, b = zero_level(cls, grid)
        state = cls.initial(a, b)
        for n in range(1, 6):
            last = (a * float(n), b * float(n))
            state = state.advanced(*last, 0.1 * n)
        assert state.depth == 3
        assert [h[0] for h in state.history] == [0.1 * n for n in (3, 4, 5)]
        assert state.t == 0.1 * 5
        assert state.history[-1][1] is last[0] and state.history[-1][2] is last[1]

    @RING_CLASSES
    def test_short_ring_raises_insufficient_history(self, cls):
        grid = Grid1D(1.0, 16)
        a, b = zero_level(cls, grid)
        state = cls.initial(a, b)
        with pytest.raises(InsufficientHistory):
            state.dt
        state = state.advanced(a, b, 0.1)
        assert state.dt == 0.1
        with pytest.raises(InsufficientHistory):
            SECOND_DIFFERENCE[cls](state)


class TestTelegraphOracle:
    def test_initial_value(self):
        params = unit_params(0.1)
        assert telegraph_mode_oracle(params, 4.0, 1.7, -0.3, 0.0) == pytest.approx(1.7)

    def test_tau_zero_closed_form(self):
        params = unit_params(0.0)
        lam = math.pi**2
        value = telegraph_mode_oracle(params, lam, 1.0, 0.0, 0.1)
        assert value == pytest.approx(math.exp(-(1.0 + lam) * 0.1), rel=1e-14)
        assert value == pytest.approx(0.337240, abs=5e-6)

    @pytest.mark.parametrize(
        "tau,lam",
        [
            (0.1, math.pi**2),   # complex roots: 1.21 - 0.4(1+pi^2) < 0
            (0.1, 0.0),          # real distinct roots: 1.21 - 0.4 > 0
            (0.5, 3.0),
            (1.0, 0.0),          # repeated root: (1 + 1)^2 - 4 = 0 exactly
        ],
    )
    def test_against_adaptive_integrator(self, tau, lam):
        params = unit_params(tau)
        m, ell, kappa = params.m, params.ell, params.kappa_a
        T0, T0dot = 1.0, -1.0

        def rhs(t, y):
            return [y[1], (-(m + tau * ell) * y[1] - (ell + kappa * lam) * y[0]) / (tau * m)]

        sol = solve_ivp(rhs, (0.0, 1.0), [T0, T0dot], rtol=1e-10, atol=1e-12,
                        dense_output=True)
        for t in np.linspace(0.05, 1.0, 7):
            assert telegraph_mode_oracle(params, lam, T0, T0dot, t) == pytest.approx(
                float(sol.sol(t)[0]), abs=1e-8
            )

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidMode):
            telegraph_mode_oracle(unit_params(0.1), -1.0, 1.0, 0.0, 0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            telegraph_mode_oracle(unit_params(0.1), 1.0, 1.0, 0.0, -0.5)
