import threading
from dataclasses import replace

import numpy as np
import pytest

from thermoacoustic import acoustics as acoustics_mod
from thermoacoustic import grid as grid_mod
from thermoacoustic import verification as verification_mod
from thermoacoustic.acoustics import (
    AcousticState,
    Degenerate,
    FrozenCoefficients,
    assemble_coefficients,
    check_nondegeneracy,
    westervelt_linear_step,
)
from thermoacoustic.coupling import CoupledState, Stepper, coupled_step
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
            return coupled_step(state, Stepper(grid, 1e-3, unit_params(), UNIT_MODEL,
                                               1e-10, 25, 0.5))

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


def test_spatial_batch_keeps_the_recorded_bits(monkeypatch):
    # manufactured_spatial_orders reads the six spatial studies from one run
    # of their blocks joined into one system, factored once: each error must
    # equal the recorded repr of its own run of public steps, and no solve may
    # fall back to the loop.  Another b runs as a batch of its own.
    loops = []
    loop = grid_mod._thomas_loop
    monkeypatch.setattr(grid_mod, "_thomas_loop", lambda *bands: loops.append(1) or loop(*bands))
    errors = verification_mod._spatial_errors.__wrapped__((1.0, 2.0))  # past the cache
    recorded = {(N, b): error for N, dt, T, b, error in _MANUFACTURED_ERRORS if T == 0.1}
    assert {case: repr(error) for case, error in errors.items()} == recorded
    assert loops == []
    other = verification_mod._spatial_errors.__wrapped__((3.0,))
    assert sorted(other) == [(32, 3.0), (64, 3.0), (128, 3.0)]
    assert repr(other[32, 3.0]) == repr(manufactured_error.__wrapped__(32, 1e-5, 0.1, 3.0))


def _guarded_step(p, alpha, g):
    """A public step on N = 4, L = 100 at dt = 1 with v = 0, r = 0 and b = 0,
    so that v' solves diag(alpha) v' = g and p' = p + v'."""
    grid = Grid1D(100.0, 4)
    field = lambda values: NodeField(grid, np.array(values, dtype=float))  # noqa: E731
    coeffs = FrozenCoefficients(field(alpha), field([0.0] * 4), field(g), min(alpha))
    state = AcousticState.initial(field(p), grid.zero_node_field())
    return westervelt_linear_step(state, coeffs, 1.0, unit_params(b=0.0))


@pytest.mark.parametrize("p, alpha, g, index, loops", [
    # v' is finite, p' = p + v' overflows
    ([0.0, 1e308, 1e308, 0.0], [1.0] * 4, [1.0, 1.0, 1e308, 1.0], 2, 0),
    # v' = g/alpha overflows: LAPACK's solution is refused and the loop's
    # comes back non-finite, nan from its first entry on
    ([0.0] * 4, [1.0, 1e-300, 1e-300, 1.0], [0.0, 1e300, -1e300, 0.0], 0, 1),
], ids=["p_overflows", "loop_solution"])
def test_one_guard_on_p_names_what_the_field_checks_named(monkeypatch, p, alpha, g, index, loops):
    # One guard on p' covers both fields a public step returns; when it trips,
    # p' and then v' are checked in the order their checked fields were built,
    # so the error names the same field, first index and message.
    calls = []
    loop = grid_mod._thomas_loop
    monkeypatch.setattr(grid_mod, "_thomas_loop", lambda *bands: calls.append(1) or loop(*bands))
    with np.errstate(all="ignore"), pytest.raises(NonFinite) as err:
        _guarded_step(p, alpha, g)
    assert (err.value.what, err.value.index) == ("NodeField", index)
    assert str(err.value) == f"NodeField contains non-finite entries (first at index {index})"
    assert len(calls) == loops


@pytest.mark.parametrize("bad, index", [("alpha", 1), ("r", 2), ("g", 3), ("all", 1)])
def test_frozen_names_the_first_non_finite_coefficient(bad, index):
    # alpha.dot(g) and r.dot(r) guard the three coefficients; a tripped guard
    # checks alpha, r and g in field order, as their checked fields did.
    grid = Grid1D(1.0, 4)
    arrays = {name: np.ones(4) for name in ("alpha", "r", "g")}
    for i, (name, value) in enumerate(zip(arrays, (np.nan, np.inf, -np.inf))):
        if bad in (name, "all"):
            arrays[name][i + 1] = value
    with pytest.raises(NonFinite) as err:
        acoustics_mod._frozen(grid, *arrays.values())
    assert (err.value.what, err.value.index) == ("NodeField", index)
    assert str(err.value) == f"NodeField contains non-finite entries (first at index {index})"


def test_a_guard_tripped_by_the_overflow_of_its_dot_alone_lets_the_step_go_on():
    # Entries near 1e200 are finite, but their dot product overflows: the
    # check behind the guard finds no bad entry and the step returns.  numpy
    # warns of the dot's overflow, which simulate's errstate silences.
    with np.errstate(over="ignore"):
        state = _guarded_step([1e200] * 4, [1.0] * 4, [0.0] * 4)
        frozen = acoustics_mod._frozen(Grid1D(1.0, 4), np.full(4, 1e200), np.ones(4),
                                       np.full(4, 1e200))
        assert state.p.values.dot(state.p.values) == np.inf
    assert np.isfinite(state.p.values).all() and np.isfinite(state.v.values).all()
    assert state.p.values.tolist() == [1e200] * 4 and state.v.values.tolist() == [0.0] * 4
    assert frozen.alpha_min == 1e200 and frozen.g.values.tolist() == [1e200] * 4


def test_the_manufactured_study_factors_its_matrix_once(monkeypatch):
    # alpha = r = ones at one dt, b and dx: the public step factors the
    # study's matrix on its first step and solves each of the 1,000 steps
    # with those factors, with no one-shot solve.
    calls = []
    factor, fresh = grid_mod._Tridiagonal.factor, grid_mod._Tridiagonal.solve_fresh
    monkeypatch.setattr(grid_mod._Tridiagonal, "factor",
                        lambda *args: calls.append("factor") or factor(*args))
    monkeypatch.setattr(grid_mod._Tridiagonal, "solve_fresh",
                        staticmethod(lambda *args: calls.append("fresh") or fresh(*args)))
    verification_mod.manufactured_error.__wrapped__(32, 1e-5, 0.01, 2.0)  # past the cache
    assert calls == ["factor"]


def _locked(values):
    """A read-only float copy of values."""
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


def _one_shot_step(p, v, alpha, r, g, dt, params, dx):
    """(p', v') by _westervelt_solve, the one-shot dgtsv driver of coupled_step."""
    grad_p = grid_mod._dirichlet_gradient(p, dx)
    v_new = acoustics_mod._westervelt_solve(alpha, float(alpha.min()), r, g, v, grad_p,
                                            grid_mod._difference_quotient(grad_p, dx), dt,
                                            params, dx)
    return p + dt * v_new, v_new


_N = 16


# (r, b, dt, L, whether the factors pass, whether every solve runs the
# loop), with alpha = 1 + sin/2: a certified matrix; a steep fall of r,
# which fails the certificate but swaps no row, so factor's full check
# accepts it; a steep rise of r, which makes LAPACK swap rows 0 and 1; and
# r = b = 0 on node 3, which decouples it, so v' keeps an exact zero there
# that LAPACK's result may not stand for.
@pytest.mark.parametrize("r, b, dt, L, factored, loops", [
    (1.0, 0.5, 1e-2, 1.0, True, False),
    (10.0 ** np.linspace(6.0, 0.0, _N), 0.0, 1.0, _N + 1.0, True, False),
    ([1.0, 1e6] + [1.0] * (_N - 2), 0.0, 1.0, _N + 1.0, False, True),
    ([1.0] * 3 + [0.0] + [1.0] * (_N - 4), 0.0, 1e-2, 1.0, True, True),
], ids=["certified", "uncertified", "row_interchange", "exact_zero"])
def test_kept_factors_step_like_fresh_ones(monkeypatch, r, b, dt, L, factored, loops):
    # A chain of public steps given equal fresh copies of alpha and r at
    # each step, which keeps one factorization, equals byte for byte the
    # chain that drops the kept factors before each step, which factors
    # every matrix, and the chain of the one-shot dgtsv driver of coupled_step.
    grid, params, steps = Grid1D(L, _N), unit_params(b=b), 24
    x = grid.nodes() / L
    alpha = _locked(1.0 + 0.5 * np.sin(np.pi * x))
    r = _locked(np.broadcast_to(r, _N))
    decoupled = r == 0.0
    p0, v0 = (np.where(decoupled, 0.0, f(np.pi * x)) for f in (np.sin, np.cos))
    gs = [np.where(decoupled, 0.0, np.sin(n * x)) for n in range(steps)]
    loop_calls, factor_calls = [], []
    loop, factor = grid_mod._thomas_loop, grid_mod._Tridiagonal.factor
    monkeypatch.setattr(grid_mod, "_thomas_loop", lambda *a: loop_calls.append(1) or loop(*a))
    monkeypatch.setattr(grid_mod._Tridiagonal, "factor",
                        lambda *a: factor_calls.append(1) or factor(*a))
    vars(acoustics_mod._kept).clear()
    chains = []
    for drop in (False, True):
        state = AcousticState.initial(NodeField(grid, p0), NodeField(grid, v0))
        chain = []
        for g in gs:
            if drop:
                vars(acoustics_mod._kept).clear()
            coeffs = FrozenCoefficients(NodeField(grid, alpha.copy()), NodeField(grid, r.copy()),
                                        NodeField(grid, g), 1.0)
            state = westervelt_linear_step(state, coeffs, dt, params)
            chain.append(state.p.values.tobytes() + state.v.values.tobytes())
        chains.append(chain)
        if not drop:
            assert len(factor_calls) == 1
            assert (acoustics_mod._kept.slot[1].factored, len(loop_calls)) == (
                (factored, steps * loops) if grid_mod._GTTRF else (False, steps))
    p, v, chain = p0, v0, []
    for g in gs:
        p, v = _one_shot_step(p, v, alpha, r, g, dt, params, grid.dx)
        chain.append(p.tobytes() + v.tobytes())
    assert chains[0] == chains[1] == chain
    assert len(factor_calls) == 1 + steps


def _flip(values, locked):
    """Scale values in place by 1.5, writeable for the change and locked after it."""
    values.flags.writeable = True
    values *= 1.5
    values.flags.writeable = not locked


# (alpha, r, dt, b, L) of each call in turn, and the array its owner
# changes in place between calls: a read-only view of a writeable buffer,
# or a read-only array set writeable for the change and locked again.
@pytest.mark.parametrize("case", ["two_sets", "dt", "b", "L", "writeable_alpha", "writeable_r",
                                  "read_only_view", "relocked_alpha"])
def test_kept_factors_serve_only_their_own_matrix(case):
    # The public step keeps the factors of its last matrix for calls whose
    # alpha, r, dt, b and dx are equal to the bit.  Every call of each case
    # must equal a one-off step by the dgtsv driver, which never meets them.
    rng = np.random.default_rng(7)
    a1, r1, a2, r2 = (_locked(1.0 + rng.random(_N)) for _ in range(4))
    p0, v0, g = rng.standard_normal((3, _N))
    owner = {"writeable_alpha": a1, "writeable_r": r1, "relocked_alpha": a1}.get(case)
    if case == "read_only_view":  # owner changes a1 through its own writeable array
        owner = np.array(a1)
        a1 = owner.view()
        a1.flags.writeable = False
    calls = {
        "two_sets": [(a1, r1, 1e-2, 0.5, 1.0), (a2, r2, 1e-2, 0.5, 1.0)] * 2,
        "dt": [(a1, r1, 1e-2, 0.5, 1.0), (a1, r1, 2e-2, 0.5, 1.0)],
        "b": [(a1, r1, 1e-2, 0.5, 1.0), (a1, r1, 1e-2, 1.0, 1.0)],
        "L": [(a1, r1, 1e-2, 0.5, 1.0), (a1, r1, 1e-2, 0.5, 2.0)],
    }.get(case, [(a1, r1, 1e-2, 0.5, 1.0)] * 3)
    for alpha, r, dt, b, L in calls:
        grid = Grid1D(L, _N)
        state = AcousticState.initial(NodeField(grid, p0), NodeField(grid, v0))
        coeffs = FrozenCoefficients(NodeField(grid, alpha), NodeField(grid, r),
                                    NodeField(grid, g), 1.0)
        new = westervelt_linear_step(state, coeffs, dt, unit_params(b=b))
        p, v = _one_shot_step(p0, v0, alpha, r, g, dt, unit_params(b=b), grid.dx)
        assert new.p.values.tobytes() + new.v.values.tobytes() == p.tobytes() + v.tobytes()
        if owner is not None:
            _flip(owner, locked=case == "relocked_alpha")


def test_each_thread_keeps_its_own_factors(monkeypatch):
    # The kept factors live in one slot per thread: another thread factors
    # the same matrix afresh, and its step leaves this thread's slot as it was.
    factor_calls = []
    factor = grid_mod._Tridiagonal.factor
    monkeypatch.setattr(grid_mod._Tridiagonal, "factor",
                        lambda *a: factor_calls.append(1) or factor(*a))
    vars(acoustics_mod._kept).clear()
    grid = Grid1D(1.0, _N)
    rng = np.random.default_rng(3)
    alpha, r, p0, v0, g = (NodeField(grid, 1.0 + rng.random(_N)) for _ in range(5))
    coeffs, params = FrozenCoefficients(alpha, r, g, 1.0), unit_params(b=0.5)
    state = AcousticState.initial(p0, v0)
    steps = []
    step = lambda: steps.append(westervelt_linear_step(state, coeffs, 1e-2, params))  # noqa: E731
    step()
    mine = acoustics_mod._kept.slot
    other = threading.Thread(target=step)
    other.start()
    other.join()
    step()
    assert acoustics_mod._kept.slot is mine and len(factor_calls) == 2
    assert len({s.p.values.tobytes() + s.v.values.tobytes() for s in steps}) == 1


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
