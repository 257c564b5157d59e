from dataclasses import replace

import numpy as np
import pytest

from thermoacoustic.acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    assemble_coefficients,
    check_nondegeneracy,
    westervelt_linear_step,
)
from thermoacoustic.coupling import CoupledState, coupled_step
from thermoacoustic.energy import acoustic_identity_residual
from thermoacoustic.grid import (
    Grid1D,
    NodeField,
    NonFinite,
    gradient_to_faces,
    l2_inner,
    l2_norm,
    laplacian_dirichlet,
)
from thermoacoustic.heat import InsufficientHistory
from thermoacoustic.model import FloorViolated, PhysicalParams, SpeedOfSoundModel
from thermoacoustic.verification import manufactured_error


def unit_params(b=1.0):
    return PhysicalParams(
        rho_a=1.0, C_a=1.0, rho_b=1.0, C_b=1.0, W=1.0, kappa_a=1.0,
        b=b, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=0.0,
    )


UNIT_MODEL = SpeedOfSoundModel(coeffs=(1.0,), h_floor=1.0)


def constant_coeffs(grid, alpha=1.0, r=1.0, g=0.0):
    n = grid.N
    return FrozenCoefficients(
        alpha=NodeField(grid, np.full(n, alpha)),
        r=NodeField(grid, np.full(n, r)),
        g=NodeField(grid, np.full(n, g)),
        alpha_min=alpha,
    )


class TestAssemble:
    def test_rest_state(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        coeffs = assemble_coefficients(z, z, z, UNIT_MODEL, unit_params())
        assert np.all(coeffs.alpha.values == 1.0)
        assert np.all(coeffs.r.values == 1.0)
        assert np.all(coeffs.g.values == 0.0)
        assert coeffs.alpha_min == 1.0

    def test_uniform_pressure(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        p = NodeField(grid, np.full(16, 0.3))
        coeffs = assemble_coefficients(z, p, z, UNIT_MODEL, unit_params())
        assert np.allclose(coeffs.alpha.values, 0.4)
        assert coeffs.alpha_min == pytest.approx(0.4)

    def test_source_from_velocity(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        v = NodeField(grid, np.full(16, 2.0))
        coeffs = assemble_coefficients(z, z, v, UNIT_MODEL, unit_params())
        assert np.allclose(coeffs.g.values, 8.0)

    def test_floor_violation_propagates(self):
        grid = Grid1D(1.0, 16)
        model = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01)
        theta = NodeField(grid, np.full(16, -20.0))
        z = grid.zero_node_field()
        with pytest.raises(FloorViolated):
            assemble_coefficients(theta, z, z, model, unit_params())

    def test_degeneracy_scaling_identity(self):
        # alpha(s p) = 1 - s (1 - alpha(p)) pointwise at fixed temperature
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(4)
        theta = NodeField(grid, 0.2 * rng.standard_normal(32))
        p = NodeField(grid, 0.1 * rng.standard_normal(32))
        z = grid.zero_node_field()
        model = SpeedOfSoundModel(coeffs=(1.0, 0.05), h_floor=0.5)
        s = 0.37
        a_full = assemble_coefficients(theta, p, z, model, unit_params()).alpha.values
        a_scaled = assemble_coefficients(theta, s * p, z, model, unit_params()).alpha.values
        assert np.allclose(a_scaled, 1.0 - s * (1.0 - a_full), atol=1e-15)


class TestNondegeneracyGuard:
    def test_ok_case(self):
        grid = Grid1D(1.0, 8)
        check_nondegeneracy(constant_coeffs(grid, alpha=0.4), 0.8)

    def test_degenerate_reports_location(self):
        grid = Grid1D(1.0, 8)
        alpha = np.ones(8)
        alpha[5] = -0.2
        coeffs = FrozenCoefficients(
            alpha=NodeField(grid, alpha), r=NodeField(grid, np.ones(8)),
            g=grid.zero_node_field(), alpha_min=-0.2,
        )
        with pytest.raises(Degenerate) as err:
            check_nondegeneracy(coeffs, 0.5)
        assert err.value.alpha_min == pytest.approx(-0.2)
        assert err.value.node_index == 5

    def test_hand_built_alpha_min_is_not_trusted(self):
        # FrozenCoefficients is public and its alpha_min a caller's claim:
        # the guard reads the minimum and its node from alpha itself.
        grid = Grid1D(1.0, 8)
        alpha = np.ones(8)
        alpha[5] = -0.2
        coeffs = FrozenCoefficients(
            alpha=NodeField(grid, alpha), r=NodeField(grid, np.ones(8)),
            g=grid.zero_node_field(), alpha_min=1.0,
        )
        with pytest.raises(Degenerate) as err:
            check_nondegeneracy(coeffs, 0.5)
        assert (err.value.alpha_min, err.value.node_index) == (-0.2, 5)
        # and a low claim on a healthy alpha raises nothing
        check_nondegeneracy(replace(constant_coeffs(grid), alpha_min=-1.0), 0.5)

    def test_unit_alpha_passes_any_margin(self):
        grid = Grid1D(1.0, 8)
        for gamma in (0.01, 0.5, 0.99):
            check_nondegeneracy(constant_coeffs(grid, alpha=1.0), gamma)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3, 2.0])
    def test_margin_domain_enforced(self, gamma):
        grid = Grid1D(1.0, 8)
        with pytest.raises(ValueError):
            check_nondegeneracy(constant_coeffs(grid), gamma)

    @pytest.mark.parametrize("alpha_min, degenerate", [
        (0.5, False), (np.nextafter(0.5, 0.0), True),
    ], ids=["at_threshold", "just_below"])
    def test_step_zero_and_iterates_share_one_boundary(self, alpha_min, degenerate):
        # gamma_bar = 0.5: the threshold is 0.5 both for step 0 and for the
        # first Picard iterate of a step, whose coefficients are coeffs_last
        grid = Grid1D(1.0, 8)
        alpha = np.ones(8)
        alpha[5] = alpha_min
        coeffs = replace(constant_coeffs(grid), alpha=NodeField(grid, alpha), alpha_min=alpha_min)
        z = grid.zero_node_field()
        state = replace(CoupledState.initial(z, z, z, grid.zero_face_field()), coeffs_last=coeffs)

        def step():
            return coupled_step(state, 1e-3, 1e-10, 25, 0.5, unit_params(), UNIT_MODEL)

        if not degenerate:
            check_nondegeneracy(coeffs, 0.5)
            assert step().n == 1
            return
        errors = []
        for run in (lambda: check_nondegeneracy(coeffs, 0.5), step):
            with pytest.raises(Degenerate) as err:
                run()
            errors.append(err.value)
        for e in errors:
            assert (e.alpha_min, e.node_index, e.threshold) == (alpha_min, 5, 0.5)
        assert (errors[0].step, errors[1].step) == (None, 1)


class TestWesterveltStep:
    def test_zero_state(self):
        grid = Grid1D(1.0, 16)
        state = AcousticState.initial(grid.zero_node_field(), grid.zero_node_field())
        new = westervelt_linear_step(state, constant_coeffs(grid), 0.01, unit_params())
        assert np.all(new.p.values == 0.0)
        assert np.all(new.v.values == 0.0)

    def test_plugged_back_residual(self):
        grid = Grid1D(1.0, 64)
        rng = np.random.default_rng(10)
        x = grid.nodes()
        p = NodeField(grid, np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x))
        v = NodeField(grid, 0.5 * np.sin(np.pi * x))
        alpha = NodeField(grid, 1.0 + 0.2 * np.sin(np.pi * x))
        r = NodeField(grid, 1.0 + 0.1 * np.cos(np.pi * x / 2))
        g = NodeField(grid, rng.standard_normal(64))
        coeffs = FrozenCoefficients(alpha=alpha, r=r, g=g,
                                    alpha_min=float(alpha.values.min()))
        params = unit_params(b=0.5)
        dt = 0.01
        state = AcousticState.initial(p, v)
        new = westervelt_linear_step(state, coeffs, dt, params)
        res = (
            alpha.values * (new.v.values - v.values) / dt
            - r.values * laplacian_dirichlet(new.p).values
            - params.b * laplacian_dirichlet(new.v).values
            - g.values
        )
        scale = max(np.max(np.abs(new.v.values)) / dt, np.max(np.abs(g.values)))
        assert np.max(np.abs(res)) <= 1e-9 * scale
        assert np.array_equal(new.p.values, p.values + dt * new.v.values)

    def test_modal_recurrence_with_constant_coefficients(self):
        # alpha=2, r=1, b=1, g=0: single-mode data follows the scalar
        # recurrence 2 (v'-v)/dt + lam p' + lam v' = 0, p' = p + dt v'
        grid = Grid1D(1.0, 64)
        lam = grid.laplacian_eigenvalue(1)
        s_vals = np.sin(np.pi * grid.nodes())
        s = NodeField(grid, s_vals)
        state = AcousticState.initial(NodeField(grid, 0.8 * s_vals),
                                      NodeField(grid, -0.2 * s_vals))
        coeffs = constant_coeffs(grid, alpha=2.0, r=1.0, g=0.0)
        params = unit_params(b=1.0)
        dt = 0.02
        P, V = 0.8, -0.2
        norm_sq = l2_norm(s) ** 2
        for _ in range(25):
            state = westervelt_linear_step(state, coeffs, dt, params)
            V = (2.0 * V / dt - lam * P) / (2.0 / dt + (dt * 1.0 + 1.0) * lam)
            P = P + dt * V
            p_num = l2_inner(state.p, s) / norm_sq
            v_num = l2_inner(state.v, s) / norm_sq
            assert p_num == pytest.approx(P, abs=1e-13)
            assert v_num == pytest.approx(V, abs=1e-13)
        off = state.p.values - P * s_vals
        assert np.max(np.abs(off)) <= 1e-12

    def test_superposition(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(3)
        params = unit_params(b=0.7)
        alpha = NodeField(grid, 1.0 + 0.1 * rng.random(32))
        r = NodeField(grid, 1.0 + 0.1 * rng.random(32))

        def coeffs_with(g_vals):
            return FrozenCoefficients(
                alpha=alpha, r=r, g=NodeField(grid, g_vals),
                alpha_min=float(alpha.values.min()),
            )

        def step(p, v, g_vals):
            state = AcousticState.initial(NodeField(grid, p), NodeField(grid, v))
            out = westervelt_linear_step(state, coeffs_with(g_vals), 0.01, params)
            return out.p.values, out.v.values

        p1, v1, g1 = rng.standard_normal((3, 32))
        p2, v2, g2 = rng.standard_normal((3, 32))
        a, c = 1.3, -0.8
        pa, va = step(a * p1 + c * p2, a * v1 + c * v2, a * g1 + c * g2)
        pb1, vb1 = step(p1, v1, g1)
        pb2, vb2 = step(p2, v2, g2)
        assert np.allclose(pa, a * pb1 + c * pb2, atol=1e-12)
        assert np.allclose(va, a * vb1 + c * vb2, atol=1e-12)

    def test_energy_decay_with_constant_coefficients(self):
        grid = Grid1D(1.0, 32)
        rng = np.random.default_rng(5)
        params = unit_params(b=0.5)
        coeffs = constant_coeffs(grid, alpha=1.3, r=0.8)
        state = AcousticState.initial(
            NodeField(grid, rng.standard_normal(32)),
            NodeField(grid, rng.standard_normal(32)),
        )

        def e1(s):
            return 0.5 * (
                1.3 * l2_norm(s.v) ** 2
                + 0.8 * l2_norm(gradient_to_faces(s.p)) ** 2
            )

        prev = e1(state)
        for _ in range(50):
            state = westervelt_linear_step(state, coeffs, 0.05, params)
            now = e1(state)
            assert now <= prev + 1e-14
            prev = now

    @pytest.mark.parametrize("length, p4, kind, index",
                             [(34.0, -1e308, "FaceField", 4), (17.0, 0.0, "NodeField", 3)])
    def test_overflowing_difference_of_finite_pressure_is_located(self, length, p4, kind, index):
        # 1e308 on node 3: with -1e308 on node 4 and dx = 2 the gradient
        # overflows on face 4; alone at dx = 1 the gradient is finite and
        # the Laplacian overflows on node 3
        grid = Grid1D(length, 16)
        p = np.zeros(16)
        p[3], p[4] = 1e308, p4
        state = AcousticState.initial(NodeField(grid, p), grid.zero_node_field())
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as err:
            westervelt_linear_step(state, constant_coeffs(grid), 0.01, unit_params())
        assert (err.value.what, err.value.index) == (kind, index)


    def test_stale_alpha_min_leaves_the_solve_unchanged(self):
        # alpha_min is a cache the caller may build by hand; a wrong one must
        # not let a steep r pass the dominance certificate, which would
        # return dgtsv's row-swapped bytes instead of the loop's.
        grid = Grid1D(9.0, 8)
        rng = np.random.default_rng(1)
        alpha = NodeField(grid, 10.0 ** rng.uniform(-3.0, 0.0, 8))
        r = NodeField(grid, 10.0 ** rng.uniform(0.0, 6.0, 8))
        v = NodeField(grid, rng.standard_normal(8))
        state = AcousticState.initial(grid.zero_node_field(), v)
        steps = [
            westervelt_linear_step(state, FrozenCoefficients(alpha, r, grid.zero_node_field(), a),
                                   1.0, unit_params(b=0.0)).v.values.tobytes()
            for a in (float(alpha.values.min()), 1e300)
        ]
        assert steps[0] == steps[1]


# The manufactured-solution errors as (N, dt, T, b, repr of the error): the
# spatial studies at b = 1 and 2 and the temporal study, recorded before the
# one-shot solve's buffer and the study's forcing were made cheaper.  Each
# error is the end of thousands of public steps, so one changed bit anywhere
# in the step shows here.
_MANUFACTURED_ERRORS = [
    (32, 1e-5, 0.1, 1.0, "3.194634445194347e-07"),
    (64, 1e-5, 0.1, 1.0, "3.194634883794533e-07"),
    (128, 1e-5, 0.1, 1.0, "3.1946347066071356e-07"),
    (32, 1e-5, 0.1, 2.0, "1.4071117202697879e-05"),
    (64, 1e-5, 0.1, 2.0, "3.3868443065673057e-06"),
    (128, 1e-5, 0.1, 2.0, "6.187949299321545e-07"),
    (256, 4e-3, 1.0, 1.0, "0.0004943659631200266"),
    (256, 2e-3, 1.0, 1.0, "0.00024739091714810144"),
    (256, 1e-3, 1.0, 1.0, "0.00012374752270023195"),
]


@pytest.mark.parametrize("N, dt, T, b, recorded", _MANUFACTURED_ERRORS)
def test_manufactured_errors_keep_their_recorded_bits(N, dt, T, b, recorded):
    assert repr(manufactured_error(N, dt, T, b)) == recorded


class TestIdentityResidual:
    def test_zero_run(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        state = AcousticState.initial(z, z).advanced(z, z, 0.01)
        coeffs = constant_coeffs(grid)
        assert acoustic_identity_residual(state, coeffs, coeffs, unit_params()) == 0.0

    def test_stationary_solution(self):
        # v = 0 with time-constant coefficients: both sides vanish
        grid = Grid1D(1.0, 32)
        p = NodeField(grid, np.sin(np.pi * grid.nodes()))
        z = grid.zero_node_field()
        state = AcousticState.initial(p, z).advanced(p, z, 0.01)
        coeffs = constant_coeffs(grid, alpha=1.1, r=0.9, g=0.4)
        res = acoustic_identity_residual(state, coeffs, coeffs, unit_params())
        assert res <= 1e-9

    def test_single_level_rejected(self):
        grid = Grid1D(1.0, 16)
        z = grid.zero_node_field()
        state = AcousticState.initial(z, z)
        coeffs = constant_coeffs(grid)
        with pytest.raises(InsufficientHistory):
            acoustic_identity_residual(state, coeffs, coeffs, unit_params())
