"""Acceptance suite.

One test per verification target, each printing a PASS/FAIL line with the
measured value and checking its runtime budget (run with `pytest -v -s` to
see every line).  Heavy runs are cached per process, so targets sharing a
configuration pay for it once.

Three targets fail by construction of the configurations they pin and are
kept red deliberately; see the "Known limitations" section of the README:

  * the single-mode amplitude bound 2e-3 at dt=1e-3 (the intrinsic
    first-order backward-Euler error there is 3.69e-3; it halves at dt/2);
  * the spatial-order study with b=1 (the e^{-t} sin(pi x) solution is
    spatially exact for every N when b=1, so no spatial order is
    observable; the b=2 variant shows the true second order);
  * the pressure column of the relaxation sweep with h=const (the pressure
    path is then exactly independent of the temperature, so e_p vanishes
    identically; the thermal-lensing variant shows the first-order ladder).
"""

import json
import time

from thermoacoustic.cli import main
from thermoacoustic.verification import (
    canonical_run,
    canonical_sweep,
    contraction_metrics,
    degeneracy_semantics,
    gronwall_cases,
    laplacian_quadratic_check,
    lensing_sweep,
    manufactured_spatial_orders,
    manufactured_temporal_orders,
    mode_study,
    residual_refinement_ratio,
    sbp_adjointness_check,
    tau_zero_bit_identity,
)


def conclude(name, ok, detail, started, budget):
    elapsed = time.monotonic() - started
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}  [{elapsed:.2f}s]")
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s exceeded {budget}s"
    assert ok, f"{name}: {detail}"


def test_criterion_1_operator_exactness():
    started = time.monotonic()
    sbp = sbp_adjointness_check(seed=0)
    quad = laplacian_quadratic_check()
    ok = sbp.passed and quad.passed
    conclude(
        "operator exactness",
        ok,
        f"sbp defect {sbp.measured:.2e} (<=1e-12), "
        f"quadratic deviation {quad.measured:.2e} (roundoff only)",
        started, budget=1.0,
    )


def test_criterion_2_mode_amplitude_error():
    started = time.monotonic()
    study = mode_study(1e-3)
    err = study.max_amplitude_error
    conclude(
        "single-mode amplitude error",
        err <= 2e-3,
        f"max |numeric - oracle| = {err:.3e} vs target 2e-3 at dt=1e-3; "
        "this equals the exact scalar backward-Euler error of the scheme "
        "(cross-checked against an independent 2x2 recurrence), so the "
        "target is below the intrinsic first-order error at this step size",
        started, budget=5.0,
    )


def test_criterion_2_mode_amplitude_refinement():
    started = time.monotonic()
    ratio = mode_study(1e-3).max_amplitude_error / mode_study(5e-4).max_amplitude_error
    conclude(
        "single-mode refinement",
        1.7 <= ratio <= 2.3,
        f"error ratio dt vs dt/2 = {ratio:.3f} (target [1.7, 2.3])",
        started, budget=5.0,
    )


def test_criterion_3_decay_certificate():
    started = time.monotonic()
    study = mode_study(1e-3)
    ok = study.decay_excess <= 0.0 and study.monotonicity_excess <= 0.0
    conclude(
        "discrete exponential decay",
        ok,
        f"worst excess over (1+2c dt)^-n bound = {study.decay_excess:.3e}, "
        f"worst monotonicity violation = {study.monotonicity_excess:.3e} "
        "(both must be <= 0, zero tolerance)",
        started, budget=5.0,
    )


def test_criterion_4_energy_balance():
    started = time.monotonic()
    mismatch = mode_study(1e-3).max_defect_mismatch
    ratio = residual_refinement_ratio("heat_residual")
    ok = mismatch <= 1e-12 and 1.7 <= ratio <= 2.3
    conclude(
        "energy-balance residual",
        ok,
        f"modal-defect mismatch {mismatch:.2e} (<=1e-12), "
        f"coupled refinement ratio {ratio:.3f} (target [1.7, 2.3])",
        started, budget=10.0,
    )


def test_criterion_5_spatial_order():
    started = time.monotonic()
    orders = manufactured_spatial_orders()
    conclude(
        "manufactured spatial order (b=1)",
        min(orders) >= 1.9,
        f"observed orders {tuple(round(o, 3) for o in orders)} vs target >=1.9; "
        "with b=1 the e^-t sin(pi x) solution solves the semi-discrete system "
        "exactly at every N (the r- and b-terms cancel eigenvalue-independently), "
        "so the measured errors are pure temporal floor and carry no spatial order",
        started, budget=20.0,
    )


def test_criterion_5_spatial_order_nondegenerate_forcing():
    started = time.monotonic()
    orders = manufactured_spatial_orders(b=2.0)
    conclude(
        "manufactured spatial order (b=2 variant)",
        min(orders) >= 1.9,
        f"observed orders {tuple(round(o, 3) for o in orders)} (target >=1.9)",
        started, budget=20.0,
    )


def test_criterion_5_temporal_order():
    started = time.monotonic()
    orders = manufactured_temporal_orders()
    ok = all(0.9 <= o <= 1.1 for o in orders)
    conclude(
        "manufactured temporal order",
        ok,
        f"observed orders {tuple(round(o, 3) for o in orders)} (target [0.9, 1.1])",
        started, budget=20.0,
    )


def test_criterion_6_small_data_contraction():
    started = time.monotonic()
    run = canonical_run()
    alpha_min, iters, ratio = contraction_metrics(run)
    ok = alpha_min >= 0.5 and iters <= 5 and ratio <= 0.5
    conclude(
        "non-degeneracy and contraction",
        ok,
        f"alpha_min {alpha_min:.4f} (>=0.5), Picard iterations {iters} (<=5), "
        f"successive-difference ratio {ratio:.2e} (<=0.5)",
        started, budget=30.0,
    )


def test_criterion_7_sweep_temperature():
    started = time.monotonic()
    sweep = canonical_sweep()
    decreasing = all(a > b for a, b in zip(sweep.e_theta, sweep.e_theta[1:]))
    ratios = [a / b for a, b in zip(sweep.e_theta, sweep.e_theta[1:])]
    ok = decreasing and min(ratios) >= 1.5
    conclude(
        "relaxation sweep, temperature",
        ok,
        f"e_theta {tuple(f'{e:.3e}' for e in sweep.e_theta)}, "
        f"ratios {tuple(round(r, 3) for r in ratios)} (>=1.5)",
        started, budget=120.0,
    )


def test_criterion_7_sweep_pressure():
    started = time.monotonic()
    sweep = canonical_sweep()
    decreasing = all(a > b for a, b in zip(sweep.e_p, sweep.e_p[1:]))
    ok = decreasing and sweep.e_p[-1] > 0.0 and min(
        (a / b for a, b in zip(sweep.e_p, sweep.e_p[1:])), default=0.0
    ) >= 1.5
    conclude(
        "relaxation sweep, pressure",
        ok,
        f"e_p = {sweep.e_p}; with h = const the acoustic subsystem is exactly "
        "independent of the temperature, so every member run has the identical "
        "pressure path and e_p vanishes for all tau - no decreasing ladder exists "
        "on this configuration (the thermal-lensing variant demonstrates it)",
        started, budget=120.0,
    )


def test_criterion_7_sweep_pressure_with_thermal_lensing():
    started = time.monotonic()
    sweep = lensing_sweep()
    decreasing = all(a > b for a, b in zip(sweep.e_p, sweep.e_p[1:]))
    ratios = [a / b for a, b in zip(sweep.e_p, sweep.e_p[1:])]
    ok = decreasing and min(ratios) >= 1.5
    conclude(
        "relaxation sweep, pressure (h = 1 + 0.2 theta variant)",
        ok,
        f"e_p {tuple(f'{e:.3e}' for e in sweep.e_p)}, "
        f"ratios {tuple(round(r, 3) for r in ratios)} (>=1.5)",
        started, budget=120.0,
    )


def test_criterion_8_tau_zero_degeneration():
    started = time.monotonic()
    identical = tau_zero_bit_identity()
    conclude(
        "tau = 0 degeneration",
        identical,
        "Cattaneo code path at tau=0 is bit-identical to the Fourier path"
        if identical else "bitwise mismatch between the two paths",
        started, budget=10.0,
    )


def test_criterion_9_failure_semantics(tmp_path, capsys):
    started = time.monotonic()
    doc = {
        "grid": {"L": 1.0, "N": 64},
        "params": {
            "rho_a": 1.0, "C_a": 1.0, "rho_b": 1.0, "C_b": 1.0, "W": 1.0,
            "kappa_a": 1.0, "b": 1.0, "rho": 1.0, "beta_acous": 1.0,
            "theta_a": 0.0, "tau": 0.05,
        },
        "speed_model": {"coeffs": [1.0], "h_floor": 1.0},
        "initial_data": {"preset": "sine", "amplitude_p": 0.75,
                         "amplitude_theta": 0.5},
        "time": {"T": 0.1, "dt": 1e-3},
        "picard": {"tol": 1e-10, "max_iter": 25, "gamma_bar": 0.5},
    }
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    err_text = capsys.readouterr().err
    located, detail = degeneracy_semantics()
    worst_gronwall = gronwall_cases()
    ok = (
        code == 3
        and "step" in err_text and "node" in err_text
        and located
        and worst_gronwall <= 1e-8
    )
    conclude(
        "failure semantics",
        ok,
        f"degenerate run exits 3 with located report ({detail}); "
        f"bound-checker worst closed-form error {worst_gronwall:.2e} (<=1e-8)",
        started, budget=5.0,
    )
