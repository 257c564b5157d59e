import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoacoustic
from thermoacoustic import coupling as coupling_mod
from thermoacoustic.cli import _LINE_BREAKS, main
from thermoacoustic.config import (
    ParseError,
    UnknownKey,
    ValidationError,
    initial_fields,
    load_config,
    make_grid,
)
from thermoacoustic.coupling import PicardDiverged
from thermoacoustic.energy import TIMESERIES_COLUMNS
from thermoacoustic.heat import fourier_thermal_step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_doc(**overrides):
    doc = {
        "grid": {"L": 1.0, "N": 16},
        "params": {
            "rho_a": 1.0, "C_a": 1.0, "rho_b": 1.0, "C_b": 1.0, "W": 1.0,
            "kappa_a": 1.0, "b": 1.0, "rho": 1.0, "beta_acous": 1.0,
            "theta_a": 0.0, "tau": 0.05,
        },
        "speed_model": {"coeffs": [1.0], "h_floor": 1.0},
        "initial_data": {"preset": "zero"},
        "time": {"T": 0.01, "dt": 1e-3},
    }
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_minimal_zero_preset(self):
        config = load_config(json.dumps(minimal_doc()))
        assert config.grid.N == 16
        assert config.initial_data.preset == "zero"
        assert config.picard.tol == 1e-10  # defaults applied
        assert config.seed == 0
        grid = make_grid(config)
        p0, p1, theta0, q0 = initial_fields(config, grid)
        assert np.all(p0.values == 0.0)
        assert np.all(q0.values == 0.0)

    def test_grid_size_bounded_before_anything_is_allocated(self):
        # Checked through load_config alone: no run, so no array of the
        # rejected (or of the largest accepted) size is ever made.
        doc = minimal_doc()
        for n in (10**6 + 1, 10**400):
            doc["grid"]["N"] = n
            with pytest.raises(ValidationError) as err:
                load_config(json.dumps(doc))
            assert (err.value.key, err.value.reason) == ("grid.N", "must be at most 1000000")
        doc["grid"]["N"] = 10**6
        assert load_config(json.dumps(doc)).grid.N == 10**6

    def test_missing_required_parameter(self):
        doc = minimal_doc()
        del doc["params"]["b"]
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert err.value.key == "params.b"
        assert err.value.reason == "required"

    def test_negative_dt(self):
        doc = minimal_doc()
        doc["time"]["dt"] = -0.1
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert err.value.key == "time.dt"
        assert "positive" in err.value.reason

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["grdi"] = {"L": 1.0}
        with pytest.raises(UnknownKey) as err:
            load_config(json.dumps(doc))
        assert err.value.path == "grdi"

    def test_unknown_nested_key(self):
        doc = minimal_doc()
        doc["time"]["dt_max"] = 0.1
        with pytest.raises(UnknownKey) as err:
            load_config(json.dumps(doc))
        assert err.value.path == "time.dt_max"

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_config("{not json")

    def test_wrong_type(self):
        doc = minimal_doc()
        doc["grid"]["N"] = "many"
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert err.value.key == "grid.N"

    def test_invalid_preset(self):
        doc = minimal_doc()
        doc["initial_data"]["preset"] = "sawtooth"
        with pytest.raises(ValidationError):
            load_config(json.dumps(doc))

    def test_raw_preset_requires_arrays(self):
        doc = minimal_doc()
        doc["initial_data"] = {"preset": "raw"}
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert "raw" in str(err.value)

    def test_raw_preset_length_checked(self):
        doc = minimal_doc()
        n = doc["grid"]["N"]
        doc["initial_data"] = {
            "preset": "raw",
            "p0": [0.0] * n, "p1": [0.0] * n, "theta0": [0.0] * n,
            "q0": [0.0] * n,  # needs N + 1 entries
        }
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert err.value.key == "initial_data.q0"

    @pytest.mark.parametrize(
        "section, fields, message",
        [
            ("speed_model", {"coeffs": [], "h_floor": "x"},
             "speed_model.coeffs: must not be empty"),
            ("speed_model", {"growth_exponents": [1.0], "zz": 0},
             "speed_model.growth_exponents: must have exactly 2 entries"),
            ("initial_data", {"preset": "sawtooth", "amplitude_p": "x", "zz": 0},
             "initial_data.preset: must be one of zero, sine, gaussian, raw"),
            ("initial_data", {"preset": "raw", "p0": [0.0], "q0": "x"},
             "initial_data.p0: must have length 16"),
        ],
        ids=["empty_coeffs", "growth_exponents_length", "unknown_preset", "raw_length"],
    )
    def test_value_rule_fires_before_later_keys_are_read(self, section, fields, message):
        # these rules judge one value as soon as it is read, so a document
        # with a later fault in the same section still reports them first
        doc = minimal_doc()
        doc[section].update(fields)
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load_config(json.dumps(doc))

    def test_sweep_must_decrease_strictly(self):
        doc = minimal_doc(sweep={"tau_list": [0.1, 0.1]})
        with pytest.raises(ValidationError):
            load_config(json.dumps(doc))

    def test_invalid_physics_rejected(self):
        doc = minimal_doc()
        doc["params"]["b"] = 0.0
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert "b must be strictly positive" in str(err.value)

    def test_grid_aligned_times_accepted(self):
        doc = minimal_doc()
        doc["time"] = {
            "T": 1.0, "dt": 1e-3, "snapshot_times": [k / 20 for k in range(21)],
        }
        config = load_config(json.dumps(doc))
        assert config.time.snapshot_times[-1] == 1.0
        for path in sorted(CONFIG_DIR.glob("*.json")):
            load_config(path.read_text())

    def test_sine_preset_prepares_fourier_flux(self):
        doc = minimal_doc()
        doc["initial_data"] = {
            "preset": "sine", "amplitude_p": 0.1, "amplitude_theta": 0.5,
        }
        config = load_config(json.dumps(doc))
        grid = make_grid(config)
        _, _, theta0, q0 = initial_fields(config, grid)
        grad = np.diff(theta0.values, prepend=0.0, append=0.0) / grid.dx
        assert np.array_equal(q0.values, -config.params.kappa_a * grad)

    @staticmethod
    def gaussian_fields(**init):
        doc = minimal_doc()
        doc["grid"]["L"] = 2.0
        doc["params"]["kappa_a"] = 3.0
        doc["initial_data"] = {
            "preset": "gaussian", "amplitude_p": 0.1, "amplitude_theta": 0.5, **init,
        }
        config = load_config(json.dumps(doc))
        grid = make_grid(config)
        return grid, initial_fields(config, grid)

    def test_gaussian_preset_defaults_and_fourier_flux(self):
        grid, (p0, p1, theta0, q0) = self.gaussian_fields()
        # defaults: centred bump of width L/10
        bump = np.exp(-0.5 * ((grid.nodes() - 1.0) / 0.2) ** 2)
        assert np.array_equal(p0.values, 0.1 * bump)
        assert np.array_equal(theta0.values, 0.5 * bump)
        assert np.array_equal(p1.values, np.zeros(grid.N))
        grad = np.diff(theta0.values, prepend=0.0, append=0.0) / grid.dx
        assert np.array_equal(q0.values, -3.0 * grad)
        _, explicit = self.gaussian_fields(center=1.0, width=0.2)
        for a, b in zip((p0, p1, theta0, q0), explicit):
            assert np.array_equal(a.values, b.values)

    def test_gaussian_preset_explicit_center_and_width(self):
        grid, (p0, _, theta0, q0) = self.gaussian_fields(center=0.5, width=0.05)
        bump = np.exp(-0.5 * ((grid.nodes() - 0.5) / 0.05) ** 2)
        assert np.array_equal(p0.values, 0.1 * bump)
        assert int(np.argmax(theta0.values)) == int(np.argmin(np.abs(grid.nodes() - 0.5)))
        grad = np.diff(theta0.values, prepend=0.0, append=0.0) / grid.dx
        assert np.array_equal(q0.values, -3.0 * grad)

    def test_raw_preset_keeps_arrays_and_inconsistent_flux(self):
        doc = minimal_doc()
        n = doc["grid"]["N"]
        arrays = {
            "p0": [0.01 * j for j in range(n)],
            "p1": [-0.02 * j for j in range(n)],
            "theta0": [0.3 + 0.1 * j for j in range(n)],
            "q0": [1.0] * (n + 1),  # not -kappa_a grad theta0
        }
        doc["initial_data"] = {"preset": "raw", **arrays}
        config = load_config(json.dumps(doc))
        fields = initial_fields(config, make_grid(config))
        for field, key in zip(fields, ("p0", "p1", "theta0", "q0")):
            assert np.array_equal(field.values, np.asarray(arrays[key]))


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sine_doc(amplitude_p=0.05, T=0.02, tau=0.05, **extra_time):
    doc = minimal_doc()
    doc["grid"] = {"L": 1.0, "N": 32}
    doc["params"]["tau"] = tau
    doc["initial_data"] = {
        "preset": "sine", "amplitude_p": amplitude_p, "amplitude_theta": 0.5,
    }
    doc["time"] = {"T": T, "dt": 1e-3, **extra_time}
    doc["picard"] = {"tol": 1e-10, "max_iter": 25, "gamma_bar": 0.5}
    return doc


class TestCli:
    def test_simulate_zero_preset_zero_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_doc())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert lines[0] == ",".join(TIMESERIES_COLUMNS)
        for line in lines[1:]:
            values = dict(zip(TIMESERIES_COLUMNS, line.split(",")))
            for name, text in values.items():
                if name in ("t", "alpha_min", "picard_iters"):
                    continue
                assert float(text) == 0.0

    def test_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, sine_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()

    def test_float_formatting_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, sine_doc())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        e0_col = TIMESERIES_COLUMNS.index("E0")
        texts = [line.split(",")[e0_col] for line in lines[1:]]
        values = [float(t) for t in texts]
        assert any(v != 0.0 for v in values)
        for t, v in zip(texts, values):
            assert format(v + 0.0, ".17g") == t  # 17 significant digits round-trip

    def test_snapshot_schema(self, tmp_path):
        doc = sine_doc(T=0.01, snapshot_times=[0.0, 0.01])
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        for name in ("snapshot_0.csv", "snapshot_1.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "x,p,p_t,theta,q_at_left_face"
            assert len(lines) == 1 + 32

    def test_config_error_exit_code(self, tmp_path):
        doc = minimal_doc()
        del doc["params"]["b"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "content, cause",
        [
            (b"\xff\xfe{}", "byte 0xff is not UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
            (b"1" * 5000, "Exceeds the limit (4300 digits)"),
            (b"{not json", "(line 1): Expecting property name"),
            ("missing", "cannot read config: [Errno 2]"),
            ("directory", "cannot read config: [Errno 21]"),
        ],
        ids=["not-utf8", "deep-nesting", "long-integer", "not-json", "missing", "directory"],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content, cause):
        path = tmp_path / "config.json"
        if content == "directory":
            path.mkdir()
        elif content != "missing":
            path.write_bytes(content)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("configuration error: ") and cause in err

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\u2028"], ids=["lf", "crlf", "u2028"])
    def test_unknown_key_with_a_line_break_is_one_stderr_line(self, tmp_path, capsys, sep):
        doc = minimal_doc()
        doc["grid"][f"x{sep}y"] = 1
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("configuration error: unknown configuration key: grid.x")

    def test_failure_lines_escape_what_splitlines_breaks_at(self):
        breaks = {i for i in range(sys.maxunicode + 1) if len(f"a{chr(i)}b".splitlines()) > 1}
        assert set(_LINE_BREAKS) == breaks
        assert all(len(escape.splitlines()) == 1 for escape in _LINE_BREAKS.values())

    def test_degenerate_exit_code_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sine_doc(amplitude_p=0.75))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("degeneracy abort: ")
        assert "step" in err and "node" in err

    def test_floor_violation_exit_code_and_location(self, tmp_path, capsys):
        doc = sine_doc()
        doc["speed_model"] = {"coeffs": [1.0, -1.2], "h_floor": 0.5}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("sound-speed floor violated: ")
        assert "step 0" in err and "t=0" in err and "node" in err

    @pytest.mark.parametrize(
        "case, where",
        [
            ("energy_overflow", "report column E0 contains non-finite entries at step 0, t=0"),
            ("flux_overflow",
             "FaceField contains non-finite entries (first at index 0) at step 0, t=0"),
            ("raw_source_overflow",
             "NodeField contains non-finite entries (first at index 0) at step 0, t=0"),
            ("mid_run_overflow",
             "report column E2 contains non-finite entries at step 2, t=0.002"),
            ("derivative_overflow",
             "NodeField contains non-finite entries (first at index 51) at step 1, t=0.0001"),
        ],
        ids=["energy_overflow", "flux_overflow", "raw_source_overflow", "mid_run_overflow",
             "derivative_overflow"],
    )
    def test_nonfinite_exit_code_and_location(self, tmp_path, capsys, recwarn, case, where):
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"]["T"] = 0.01
        init = doc["initial_data"]
        if case == "energy_overflow":
            init["amplitude_theta"] = 1e300
        elif case == "flux_overflow":
            init["amplitude_theta"] = 1e307
            doc["params"]["kappa_a"] = 100.0
        elif case == "raw_source_overflow":
            n = doc["grid"]["N"]
            doc["initial_data"] = {
                "preset": "raw", "p0": [0.0] * n, "p1": [1e200] * n,
                "theta0": [0.0] * n, "q0": [0.0] * (n + 1),
            }
        elif case == "mid_run_overflow":
            init["amplitude_theta"] = 1e152
            doc["time"]["output_stride"] = 1
        else:
            # The source Q(p_t) (C_a = 0.01 makes its factor 2e8) lifts theta
            # to about 1e304 in step 1, so theta_t = (theta^1 - theta^0)/dt
            # overflows in the row at ring depth 2, the first field built
            # from it; a tiny kappa_a keeps q, and the per-step x-norm sums,
            # small, and a tiny beta_acous keeps alpha near 1.
            n = doc["grid"]["N"]
            x = np.arange(1, n + 1) / (n + 1)
            doc["params"].update(C_a=0.01, beta_acous=1e-300, kappa_a=1e-200)
            doc["time"].update(dt=1e-4, output_stride=1)
            doc["initial_data"] = {
                "preset": "raw", "p0": [0.0] * n, "p1": (1e149 * np.sin(np.pi * x)).tolist(),
                "theta0": [0.0] * n, "q0": [0.0] * (n + 1),
            }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 8
        assert capsys.readouterr().err == f"non-finite values: {where}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "timeseries.csv").exists()

    @pytest.mark.parametrize(
        "case, where, kernel_step",
        [
            ("derivative_overflow",
             "NodeField contains non-finite entries (first at index 51) at step 1, t=0.0001", 3),
            ("mid_run_overflow",
             "report column E2 contains non-finite entries at step 2, t=0.002", 5),
        ],
        ids=["derivative_overflow", "mid_run_overflow"],
    )
    def test_diagnostics_error_wins_over_a_later_kernel_error(
        self, tmp_path, capsys, monkeypatch, case, where, kernel_step
    ):
        # Two configs of test_nonfinite_exit_code_and_location whose report
        # row fails; the kernel is made to diverge a few steps later.  The
        # earlier step's error is the one reported, however the diagnostics
        # of the steps between are scheduled.
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"].update(T=0.01, output_stride=1)
        if case == "mid_run_overflow":
            doc["initial_data"]["amplitude_theta"] = 1e152
        else:
            n = doc["grid"]["N"]
            x = np.arange(1, n + 1) / (n + 1)
            doc["params"].update(C_a=0.01, beta_acous=1e-300, kappa_a=1e-200)
            doc["time"]["dt"] = 1e-4
            doc["initial_data"] = {
                "preset": "raw", "p0": [0.0] * n, "p1": (1e149 * np.sin(np.pi * x)).tolist(),
                "theta0": [0.0] * n, "q0": [0.0] * (n + 1),
            }
        stepped = coupling_mod.coupled_step

        def diverging(state, dt, *args, **kwargs):
            if state.n + 1 == kernel_step:
                raise PicardDiverged(kernel_step, state.t + dt, 1, (1.0,))
            return stepped(state, dt, *args, **kwargs)

        monkeypatch.setattr(coupling_mod, "coupled_step", diverging)
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 8
        assert capsys.readouterr().err == f"non-finite values: {where}\n"

    @pytest.mark.parametrize(
        "variant", ["cattaneo", "fourier", "lensing"], ids=["tau_0.05", "tau_0", "lensing"]
    )
    def test_source_overflow_in_step_one_exits_8(self, tmp_path, capsys, recwarn, variant):
        # Q(p_t) = 2b/(rho_a C_a^4) p_t^2 overflows for the first Picard iterate
        # of step 1: C_a = 0.01 makes the factor 2e8 and p_t stays near 1e150.
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"]["T"] = 0.01
        doc["params"]["C_a"] = 0.01
        n = doc["grid"]["N"]
        doc["initial_data"] = {
            "preset": "raw", "p0": [0.0] * n, "p1": [1e150] * n,
            "theta0": [0.0] * n, "q0": [0.0] * (n + 1),
        }
        if variant == "fourier":
            doc["params"]["tau"] = 0.0
        elif variant == "lensing":
            doc["speed_model"] = {"coeffs": [1.0, 0.2], "h_floor": 0.5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 8
        assert capsys.readouterr().err == (
            "non-finite values: NodeField contains non-finite entries "
            "(first at index 0) at step 1, t=0.001\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unwritable_out_exit_code_and_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_doc())
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code = main(["simulate", "--config", cfg, "--out", str(blocker)])
        assert code == 7
        err = capsys.readouterr().err
        assert err.startswith("cannot write outputs: ")
        assert str(blocker) in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("params", "tau", float("nan")),
            ("time", "dt", float("inf")),
            ("time", "T", 0.0105),
            ("time", "snapshot_times", [0.5]),
            ("grid", "L", 10**400),
            ("speed_model", "growth_exponents", [1.0]),
            ("speed_model", "growth_exponents", [1.0, 2.0, 3.0]),
            ("initial_data", "mode_k", 10**400),
            ("initial_data", "mode_k", 17),
        ],
        ids=["tau_nan", "dt_infinite", "T_off_grid", "snapshot_past_T", "L_huge_integer",
             "growth_exponents_one", "growth_exponents_three", "mode_k_huge_integer",
             "mode_k_above_N"],
    )
    def test_bad_number_exits_2(self, tmp_path, capsys, section, key, value):
        doc = minimal_doc()
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, params, constant",
        [
            ("simulate", "canonical.json", {"C_a": 1e80}, "rho_a*C_a**4"),
            ("simulate", "canonical.json", {"C_a": 1e-100}, "rho_a*C_a**4"),
            ("simulate", "canonical.json", {"C_a": 1e-80}, "2b/(rho_a*C_a**4)"),
            ("simulate", "canonical.json", {"rho_b": 1e300, "C_b": 1e300}, "ell = rho_b*C_b*W"),
            ("simulate", "canonical.json", {"rho": 1e-200}, "k1 = beta_acous/(rho*h_floor)"),
            ("modes", "canonical.json", {"rho_a": 1e-200, "C_a": 1e-200}, "m = rho_a*C_a"),
            ("modes", "modes.json", {"tau": 1e-200, "rho_a": 1e-200}, "tau*m"),
        ],
        ids=["C_a_pow4_overflows", "C_a_pow4_underflows", "Q_factor_overflows",
             "ell_overflows", "k1_division_by_zero", "m_underflows", "tau_m_underflows"],
    )
    def test_out_of_range_derived_constant_exits_2(
        self, tmp_path, capsys, command, config, params, constant
    ):
        # Each constant is finite and positive, but a product or quotient the
        # run divides by or multiplies with is not (Python floats raise on
        # C_a**4 overflow and on division by an underflowed 0).
        doc = json.loads((CONFIG_DIR / config).read_text())
        doc["time"]["T"] = 0.01
        doc["params"].update(params)
        if "rho" in params:  # k1 divides by rho*h_floor, which then underflows to 0
            doc["speed_model"]["h_floor"] = 1e-200
        cfg = write_config(tmp_path, doc)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: params: ") and err.count("\n") == 1
        assert f"{constant} must be finite" in err

    @pytest.mark.parametrize("command", ["simulate", "limit-sweep", "modes"])
    @pytest.mark.parametrize(
        "key, value",
        [("L", 1e-200), ("L", 1e-160), ("L", 1e-155), ("L", 1e160), ("mode_k", 10**400),
         ("mode_k", 129)],
        ids=["L_1e-200", "L_1e-160", "L_1e-155", "L_1e160", "mode_k_huge_integer",
             "mode_k_N_plus_1"],
    )
    def test_grid_spacing_and_mode_out_of_range_exit_2(
        self, tmp_path, capsys, command, key, value
    ):
        # N = 128: below L ~ 1.9e-152 dx*dx is no longer a normal float (the
        # stencils divided by 0 or overflowed), above L ~ 1.7e156 it
        # overflows; a mode above N is zero to rounding at every node.
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"]["T"] = 0.005
        if key == "L":
            doc["grid"]["L"] = value
            if command != "modes":
                doc["initial_data"] = {"preset": "zero"}
            name = "grid.L"
        else:
            doc["initial_data"]["mode_k"] = value
            name = "initial_data.mode_k"
        cfg = write_config(tmp_path, doc)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name}: ") and err.count("\n") == 1

    def test_snapshot_times_on_one_step_exit_2(self, tmp_path, capsys):
        # three snapshots asked for, one step: the run would write only one
        doc = minimal_doc()
        doc["time"]["snapshot_times"] = [0.005, 0.005, 0.0050000000001]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "time.snapshot_times[1]: falls on step 5" in capsys.readouterr().err

    def test_picard_divergence_exit_code(self, tmp_path, capsys):
        doc = sine_doc()
        doc["picard"] = {"tol": 1e-15, "max_iter": 1, "gamma_bar": 0.5}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("fixed-point divergence: ")

    def test_modes_subcommand(self, tmp_path):
        doc = sine_doc(T=0.05, tau=0.1)
        cfg = write_config(tmp_path, doc)
        assert main(["modes", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[0] == "t,numeric,oracle,abs_err"
        worst = max(float(line.split(",")[3]) for line in lines[1:])
        assert worst < 1e-3
        assert sha256_of(tmp_path / "modes.csv") == (
            "9bc869fa3779bb8beb190e3399fda600a197264aa8f3c72a4bc4ba8a9aa591d9"
        )

    def test_modes_csv_digest_higher_mode(self, tmp_path):
        # Mode 3 at N = 128: the projection shape and the discrete eigenvalue
        # must both come from initial_data.mode_k.
        doc = sine_doc(T=0.05, tau=0.0)
        doc["grid"]["N"] = 128
        doc["initial_data"].update(mode_k=3, amplitude_theta=0.7)
        cfg = write_config(tmp_path, doc)
        assert main(["modes", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert sha256_of(tmp_path / "modes.csv") == (
            "5610a3699d39d7923c31abf24c9503e640575c6e09e9f1d49e5b297315463a13"
        )

    def test_modes_nonfinite_oracle_exits_8(self, tmp_path, capsys, recwarn):
        # Every derived constant is finite, but bb = m + tau*ell overflows in
        # the telegraph oracle, which then returns nan from the first step on.
        doc = json.loads((CONFIG_DIR / "modes.json").read_text())
        doc["time"]["T"] = 0.01
        doc["params"].update(tau=1e300, W=1e10)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["modes", "--config", cfg, "--out", str(out), "--quiet"]) == 8
        assert capsys.readouterr().err == (
            "non-finite values: modes column oracle contains non-finite entries"
            " at step 1, t=0.001\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "modes.csv").exists()

    def test_modes_step_overflow_exits_8_located(self, tmp_path, capsys, recwarn):
        # m/dt = 1e303 is finite, but (m/dt) theta overflows in the first
        # Cattaneo step: one located line on stderr, no numpy warning.
        doc = json.loads((CONFIG_DIR / "modes.json").read_text())
        doc["time"]["T"] = 0.01
        doc["params"]["rho_a"] = 1e300
        doc["initial_data"]["amplitude_theta"] = 1e160
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["modes", "--config", cfg, "--out", str(out), "--quiet"]) == 8
        assert capsys.readouterr().err == (
            "non-finite values: NodeField contains non-finite entries (first at index 0)"
            " at step 1, t=0.001\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "modes.csv").exists()

    def test_modes_subcommand_fourier_limit(self, tmp_path, monkeypatch):
        import thermoacoustic.verification as verification

        calls = []

        def spy(*args):
            calls.append(1)
            return fourier_thermal_step(*args)

        monkeypatch.setattr(verification, "fourier_thermal_step", spy)
        worst, digests = {}, {}
        for dt in (1e-3, 5e-4):
            doc = sine_doc(T=0.05, tau=0.0)
            doc["time"]["dt"] = dt
            cfg = write_config(tmp_path, doc)
            assert main(["modes", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
            lines = (tmp_path / "modes.csv").read_text().splitlines()
            worst[dt] = max(float(line.split(",")[3]) for line in lines[1:])
            digests[dt] = sha256_of(tmp_path / "modes.csv")
        assert len(calls) == 50 + 100  # every step took the Fourier branch
        assert digests == {
            1e-3: "ee71f468d47caad85f2183131ce207089928f9087f24b1ccbad84cd18f7b78d2",
            5e-4: "9639e4f0eb1e93cd80203f97cf2ba9d81655d0257c1ec86d42a61112df7e1e48",
        }
        assert worst[1e-3] < 1e-3
        assert 1.8 < worst[1e-3] / worst[5e-4] < 2.2  # first order in time

    def test_limit_sweep_with_override(self, tmp_path):
        cfg = write_config(tmp_path, sine_doc(T=0.02))
        code = main(["limit-sweep", "--config", cfg, "--out", str(tmp_path),
                     "--tau", "0.1,0.05", "--quiet"])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,e_theta,e_p,e_pt"
        assert len(lines) == 3
        assert (tmp_path / "tau_0.1" / "timeseries.csv").exists()
        assert (tmp_path / "tau_0.05" / "timeseries.csv").exists()
        assert (tmp_path / "tau_0" / "timeseries.csv").exists()  # reference run

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_close_taus_get_their_own_folders(self, tmp_path, source):
        # %g names 0.1000001 and 0.1 alike; the second run must not
        # overwrite the first one's timeseries
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"]["T"] = 0.02
        doc["sweep"]["tau_list"] = [0.1000001, 0.1, 0.05]
        extra = ["--tau", "0.1000001,0.1,0.05"] if source == "flag" else []
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["limit-sweep", "--config", cfg, "--out", str(out), "--quiet", *extra]) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "tau_0", "tau_0.05", "tau_0.1", "tau_0.1000001"]
        close = [(out / name / "timeseries.csv").read_bytes()
                 for name in ("tau_0.1", "tau_0.1000001")]
        assert close[0] != close[1]

    @pytest.mark.parametrize(
        "tau, message",
        [("0", "finite and positive"), ("-0.1", "finite and positive"),
         ("nan", "finite and positive"), ("inf", "finite and positive"),
         ("abc", "--tau: not a comma-separated float list: '0.1,abc'")],
        ids=["0", "-0.1", "nan", "inf", "abc"],
    )
    def test_limit_sweep_rejects_bad_tau(self, tmp_path, capsys, tau, message):
        cfg = write_config(tmp_path, sine_doc(T=0.02))
        assert main(["limit-sweep", "--config", cfg, "--out", str(tmp_path),
                     "--tau", f"0.1,{tau}", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "tau_0").exists()  # rejected before any run

    @pytest.mark.parametrize(
        "taus, message",
        [("0.05,0.1", "strictly decreasing"), ("0.1,0.1", "strictly decreasing"),
         ("", "must not be empty")],
        ids=["increasing", "duplicate", "empty"],
    )
    def test_limit_sweep_rejects_taus_the_config_rejects(self, tmp_path, capsys, taus, message):
        # one rule for sweep.tau_list and --tau: a duplicate tau would write
        # two members into the same tau_<value>/ folder
        doc = sine_doc(T=0.02)
        doc["sweep"] = {"tau_list": [float(t) for t in taus.split(",") if t]}
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        assert message in str(err.value)
        cfg = write_config(tmp_path, sine_doc(T=0.02))
        assert main(["limit-sweep", "--config", cfg, "--out", str(tmp_path),
                     "--tau", taus, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "tau_0").exists()  # rejected before any run

    def test_sweep_without_taus_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sine_doc(T=0.02))
        assert main(["limit-sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: sweep.tau_list")


class TestModuleEntryPoint:
    """``python -m thermoacoustic`` in a fresh interpreter, without --quiet."""

    def _run(self, *args):
        src = str(Path(thermoacoustic.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-m", "thermoacoustic", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_modes_prints_what_it_wrote_and_its_error(self, tmp_path):
        done = self._run("modes", "--config", str(CONFIG_DIR / "modes.json"),
                         "--out", str(tmp_path))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (f"wrote {tmp_path / 'modes.csv'}\n"
                               "modes: max |numeric - oracle| = 3.694e-03\n")

    def test_bad_tau_is_one_configuration_error(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"]["T"] = 0.02
        done = self._run("limit-sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--tau", "0.05,0.1")
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: --tau")
        assert "usage:" not in done.stderr


class TestExtremeInputs:
    """Inputs near the ends of the float range that once ended in exit 1 with
    a traceback, or in exit 0 with a numpy warning: each now exits 2 or 8
    with one stderr line, no warning and no output file."""

    def _run(self, tmp_path, capsys, recwarn, command, doc, *extra):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out), "--quiet", *extra])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or not list(out.iterdir())
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "limit-sweep"])
    def test_row_sum_overflow_is_not_a_vanishing_pivot(self, tmp_path, capsys, recwarn, command):
        # h = 4e306: the acoustic matrix's entries and pivots are finite,
        # but |l| + |d| + |u| of a row overflows; the pivot test scales each
        # entry first, so the run goes on until the field overflows.
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["speed_model"]["coeffs"] = [4e306]
        doc["time"]["T"] = 0.01
        assert self._run(tmp_path, capsys, recwarn, command, doc) == (8, (
            "non-finite values: NodeField contains non-finite entries (first at index 0)"
            " at step 1, t=0.001\n"))

    @pytest.mark.parametrize("dt", [1e300, 1.4e154])
    def test_dt_whose_square_overflows_exits_2(self, tmp_path, capsys, recwarn, dt):
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"].update(T=2 * dt, dt=dt)
        assert self._run(tmp_path, capsys, recwarn, "simulate", doc) == (2, (
            "configuration error: time.dt: too large: time.dt**2 must be a finite float\n"))

    def test_largest_dt_with_a_finite_square_is_accepted(self):
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["time"].update(T=2.6e154, dt=1.3e154)
        assert load_config(json.dumps(doc)).time.dt == 1.3e154

    def test_sweep_member_whose_constants_break_exits_2(self, tmp_path, capsys, recwarn):
        # tau*m = 1e310 at the first member, though the base tau*m is finite
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["params"]["rho_a"] = 1e10
        doc["sweep"]["tau_list"] = [1e300, 0.05]
        assert self._run(tmp_path, capsys, recwarn, "limit-sweep", doc) == (2, (
            "configuration error: sweep.tau_list[0]: tau*m must be finite and positive\n"))

    def test_tau_flag_member_whose_constants_break_exits_2(self, tmp_path, capsys, recwarn):
        doc = json.loads((CONFIG_DIR / "canonical.json").read_text())
        doc["params"]["rho_a"] = 1e10
        code, err = self._run(tmp_path, capsys, recwarn, "limit-sweep", doc, "--tau", "1e300,0.05")
        assert (code, err) == (2, (
            "configuration error: --tau 1e+300: tau*m must be finite and positive\n"))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"initial_data.amplitude_theta": 1.7e308, "time.T": 0},
             "modes column numeric contains non-finite entries at step 0, t=0"),
            ({"initial_data.amplitude_theta": 1.7e308, "time.T": 0.01},
             "modes column numeric contains non-finite entries at step 0, t=0"),
            ({"grid.L": 1e-150, "grid.N": 2, "params.tau": 1e12, "time.T": 2, "time.dt": 1},
             "modes column oracle contains non-finite entries at step 1, t=1"),
        ],
        ids=["amplitude_T0", "amplitude", "oracle_phase_overflows"],
    )
    def test_modes_overflow_exits_8(self, tmp_path, capsys, recwarn, changes, message):
        # The projection T0 of the amplitude overflows (it was written as the
        # t = 0 row, or warned before the step's own error), or the oracle's
        # frequency does (math.cos of an infinite phase raised).
        doc = json.loads((CONFIG_DIR / "modes.json").read_text())
        for key, value in changes.items():
            section, name = key.split(".")
            doc[section][name] = value
        code, err = self._run(tmp_path, capsys, recwarn, "modes", doc)
        assert (code, err) == (8, f"non-finite values: {message}\n")


class TestShippedConfigs:
    def test_canonical_config_matches_library_pin(self):
        from pathlib import Path

        from thermoacoustic.config import load_config_file
        from thermoacoustic.verification import canonical_config

        path = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
        assert load_config_file(path) == canonical_config()

    def test_all_shipped_configs_parse(self):
        from pathlib import Path

        from thermoacoustic.config import load_config_file

        config_dir = Path(__file__).resolve().parents[1] / "configs"
        names = sorted(p.name for p in config_dir.glob("*.json"))
        assert names == ["canonical.json", "lensing.json", "modes.json"]
        for p in config_dir.glob("*.json"):
            load_config_file(p)


class TestVerifySubcommand:
    def test_verify_writes_report_and_flags_known_red_checks(self, tmp_path):
        # The three deliberately red checks are intrinsic to the pinned
        # configurations (see the README known-limitations section), so the
        # verify subcommand honestly exits 5 on the shipped canonical config.
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
        code = main(["verify", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 5
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,passed,measured,threshold,detail"
        failed = {row.split(",")[0] for row in lines[1:] if row.split(",")[1] == "0"}
        assert failed == {
            "mode_amplitude_error",
            "acoustic_spatial_order",
            "sweep_p_ratio",
        }
        assert sha256_of(tmp_path / "verify.csv") == (
            "3d8fe4051cc90c41c993fd139cf6a2b19facd4134b63e15bbd403b4dce4a3f68"
        )
