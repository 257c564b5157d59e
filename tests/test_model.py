from dataclasses import replace

import numpy as np
import pytest

from thermoacoustic.coupling import simulate
from thermoacoustic.grid import Grid1D, NodeField
from thermoacoustic.model import (
    FloorViolated,
    PhysicalParams,
    SpeedOfSoundModel,
    h_eval,
    k_eval,
    q_source,
    validate_params,
)
from thermoacoustic.verification import canonical_config, unit_params, unit_speed_model


def make_params(**overrides):
    base = dict(
        rho_a=1.0, C_a=1.0, rho_b=1.0, C_b=1.0, W=1.0, kappa_a=1.0,
        b=0.01, rho=1.0, beta_acous=1.0, theta_a=0.0, tau=0.1,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestSpeedOfSound:
    def test_constant_polynomial(self):
        model = SpeedOfSoundModel(coeffs=(1.0,), h_floor=0.5)
        assert h_eval(model, 5.0) == 1.0

    def test_linear_polynomial(self):
        model = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01)
        assert h_eval(model, 2.0) == pytest.approx(1.2)

    def test_floor_violation_is_an_error(self):
        model = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01)
        with pytest.raises(FloorViolated) as err:
            h_eval(model, -20.0)
        assert err.value.value == pytest.approx(-1.0)
        assert err.value.floor == 0.01

    def test_array_evaluation_reports_offender(self):
        model = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01)
        with pytest.raises(FloorViolated) as err:
            h_eval(model, np.array([0.0, 1.0, -20.0, 2.0]))
        assert err.value.index == 2

    def test_array_evaluation_values(self):
        model = SpeedOfSoundModel(coeffs=(1.0, 0.5, 0.25), h_floor=0.1)
        theta = np.array([0.0, 1.0, 2.0])
        assert np.allclose(h_eval(model, theta), [1.0, 1.75, 3.0])

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            SpeedOfSoundModel(coeffs=(), h_floor=0.1)


class TestK:
    @pytest.mark.parametrize(
        "beta,rho,h0,expected",
        [(1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 1.25, 0.2), (2.0, 4.0, 1.0, 0.5)],
    )
    def test_values(self, beta, rho, h0, expected):
        model = SpeedOfSoundModel(coeffs=(h0,), h_floor=h0 / 2)
        params = make_params(beta_acous=beta, rho=rho)
        assert k_eval(model, params, 0.0) == pytest.approx(expected)

    def test_bounded_by_k1(self):
        model = SpeedOfSoundModel(coeffs=(1.0, 0.3, 0.05), h_floor=0.5)
        params = make_params(beta_acous=2.0, rho=3.0)
        k1 = model.k1(params)
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.0, 4.0, size=200)
        k = k_eval(model, params, theta)
        assert np.all(k > 0.0)
        assert np.all(k <= k1 + 1e-15)


class TestSource:
    def test_unit_coefficient(self):
        grid = Grid1D(1.0, 8)
        params = make_params(b=1.0, rho_a=2.0, C_a=1.0)
        out = q_source(params, NodeField(grid, np.full(8, 3.0)))
        assert np.allclose(out.values, 9.0)

    def test_zero(self):
        grid = Grid1D(1.0, 8)
        out = q_source(make_params(), NodeField(grid, np.zeros(8)))
        assert np.all(out.values == 0.0)

    def test_other_unit_combination(self):
        grid = Grid1D(1.0, 8)
        params = make_params(b=2.0, rho_a=4.0, C_a=1.0)
        out = q_source(params, NodeField(grid, np.full(8, 2.0)))
        assert np.allclose(out.values, 4.0)

    def test_quadratic_homogeneity(self):
        grid = Grid1D(1.0, 16)
        rng = np.random.default_rng(2)
        p_t = NodeField(grid, rng.standard_normal(16))
        params = make_params(b=0.7, rho_a=1.3, C_a=1.1)
        scaled = q_source(params, -2.5 * p_t)
        assert np.allclose(scaled.values, 6.25 * q_source(params, p_t).values)
        assert np.all(q_source(params, p_t).values >= 0.0)


class TestValidation:
    def test_all_positive_ok(self):
        model = SpeedOfSoundModel(coeffs=(1.0,), h_floor=0.5)
        assert validate_params(make_params(b=0.01), model) == []

    def test_zero_b_flagged(self):
        model = SpeedOfSoundModel(coeffs=(1.0,), h_floor=0.5)
        errors = validate_params(make_params(b=0.0), model)
        assert "b must be strictly positive" in errors

    def test_negative_floor_flagged(self):
        model = SpeedOfSoundModel(coeffs=(1.0,), h_floor=-1.0)
        errors = validate_params(make_params(), model)
        assert "h_floor must be positive" in errors

    def test_floor_above_constant_term_flagged(self):
        model = SpeedOfSoundModel(coeffs=(0.3,), h_floor=0.5)
        assert any("coeffs[0]" in e for e in validate_params(make_params(), model))

    def test_negative_tau_flagged(self):
        model = SpeedOfSoundModel(coeffs=(1.0,), h_floor=0.5)
        assert any("tau" in e for e in validate_params(make_params(tau=-0.1), model))

    def test_nan_tau_flagged_before_any_step(self):
        nan_tau = replace(unit_params(tau=0.05), tau=float("nan"))
        assert validate_params(nan_tau, unit_speed_model()) == ["tau must be nonnegative"]
        config = canonical_config(T=0.01)
        with pytest.raises(ValueError, match="invalid physical configuration: tau must be"):
            simulate(replace(config, params=replace(config.params, tau=float("nan"))))


class TestDerivedConstants:
    def test_m_and_ell(self):
        params = make_params(rho_a=2.0, C_a=3.0, rho_b=4.0, C_b=0.5, W=0.25)
        assert params.m == pytest.approx(6.0)
        assert params.ell == pytest.approx(0.5)

    def test_decay_rate_selects_fourier_branch_at_tau_zero(self):
        params = make_params(tau=0.0)
        assert params.decay_rate == pytest.approx(params.ell / params.m)

    def test_decay_rate_min_selection(self):
        assert make_params(tau=0.1).decay_rate == pytest.approx(1.0)  # ell/m branch
        assert make_params(tau=4.0).decay_rate == pytest.approx(0.5)  # 2/tau branch

    def test_zero_perfusion_gives_zero_rate(self):
        assert make_params(W=0.0, tau=0.0).decay_rate == 0.0

    def test_growth_exponents_are_inert_metadata(self):
        m1 = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01)
        m2 = SpeedOfSoundModel(coeffs=(1.0, 0.1), h_floor=0.01,
                               growth_exponents=(2.0, 3.0))
        theta = np.linspace(-1, 1, 11)
        assert np.array_equal(h_eval(m1, theta), h_eval(m2, theta))
