"""Mutation fuzz of the command line.

One to three leaves of configs/canonical.json (shrunk to N = 8 and T = 5 ms)
are replaced by extreme, zero, negative, wrong-type or empty values and
unknown presets; every outcome must be a documented exit code, and a
non-zero exit prints exactly one line on stderr and no traceback.  A second
property draws whole configs (every preset, multi-term speed polynomials,
sweep ladders) whose sizes sit at the ends of the float range, and also
asks for no numpy warning on a successful run.  A third writes drawn bytes
as the config file: any bytes, and JSON texts nested deeper than the parser
recurses or holding an integer literal longer than int() reads.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoacoustic.cli import main

BASE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "canonical.json").read_text()
)
BASE["grid"]["N"] = 8
BASE["time"]["T"] = 0.005
BASE["time"]["snapshot_times"] = [0.0, 0.005]


def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


LEAVES = _leaves(BASE)
VALUES = [
    0, 0.0, -1, -0.5, 1e-300, 1e-160, 1e-12, 0.1, 7, 1e12, 1e160, 1e300, 10**400,
    -(10**400), float("nan"), "1.0", True, None, [], [1.0], {}, "zero", "sine",
    "gaussian", "raw", "lorentz",
]
EXIT_CODES = {0, 2, 3, 4, 6, 7, 8}


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _small(doc) -> bool:
    """N at most 16, at most 50 steps and 50 Picard iterates per step."""
    N, time, picard = doc["grid"]["N"], doc["time"], doc["picard"]
    if isinstance(N, int) and not isinstance(N, bool) and N > 16:
        return False
    if isinstance(picard["max_iter"], int) and picard["max_iter"] > 50:
        return False
    T, dt = time["T"], time["dt"]
    return not (_number(T) and _number(dt) and dt > 0 and T > 50 * dt)


@settings(max_examples=45, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(
    command=st.sampled_from(["simulate", "limit-sweep", "modes"]),
    mutations=st.lists(
        st.tuples(st.sampled_from(LEAVES), st.sampled_from(VALUES)), min_size=1, max_size=3
    ),
)
def test_mutated_config_exits_with_a_documented_code(command, mutations):
    doc = json.loads(json.dumps(BASE))
    for path, value in mutations:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    assume(_small(doc))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out"),
                         "--quiet"])
    assert code in EXIT_CODES, (code, err.getvalue())
    if code != 0:
        # a warning would print on stderr next to the message
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert len(lines) == 1 and "Traceback" not in lines[0], lines


def _exp10(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# Magnitudes log-uniform over the float range and within 17 decades of its ends.
_MAGNITUDES = st.one_of(
    st.sampled_from([1e-300, 1e-12, 0.05, 1.0, 1e12, 1.7e308]),
    _exp10(-307.0, 308.0), _exp10(-307.0, -290.0), _exp10(291.0, 308.0),
)
_SIGNED = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
_PARAM_KEYS = ["rho_a", "C_a", "rho_b", "C_b", "W", "kappa_a", "b", "rho", "beta_acous"]


@st.composite
def _extreme_documents(draw):
    """A config of N <= 16 and at most 50 steps whose grid length, medium,
    speed polynomial, initial data (any preset) and step size may sit at the
    ends of the float range, with a sweep ladder of extreme taus."""
    N = draw(st.integers(2, 16))
    doc = json.loads(json.dumps(BASE))
    # dx from the whole range the grid.L rule allows, 1.5e-154 < dx < 1.3e154
    dx = draw(st.one_of(st.just(1.0), _exp10(-153.8, 154.1), _exp10(-153.8, -145.0)))
    doc["grid"] = {"L": dx * (N + 1), "N": N}
    params = doc["params"]
    for key in draw(st.lists(st.sampled_from(_PARAM_KEYS), max_size=3, unique=True)):
        params[key] = draw(_MAGNITUDES)
    params["tau"] = draw(st.one_of(st.sampled_from([0.0, 0.05]), _MAGNITUDES))
    coeffs = [draw(_MAGNITUDES)] + draw(st.lists(_SIGNED, max_size=2))
    floor = coeffs[0] * draw(st.sampled_from([1.0, 0.5, 1e-12]))
    doc["speed_model"] = {"coeffs": coeffs, "h_floor": floor}
    preset = draw(st.sampled_from(["zero", "sine", "gaussian", "raw"]))
    init = {"preset": preset, "amplitude_p": draw(_SIGNED), "amplitude_theta": draw(_SIGNED),
            "mode_k": draw(st.integers(1, N))}
    if preset == "gaussian":
        init["width"] = draw(_MAGNITUDES)
        init["center"] = draw(_SIGNED)
    if preset == "raw":
        for key, size in (("p0", N), ("p1", N), ("theta0", N), ("q0", N + 1)):
            init[key] = draw(st.lists(_SIGNED, min_size=size, max_size=size))
    doc["initial_data"] = init
    dt = draw(st.one_of(st.sampled_from([1e-3, 1.0]), _MAGNITUDES, _exp10(150.0, 160.0)))
    doc["time"] = {"T": draw(st.integers(0, 50)) * dt, "dt": dt,
                   "output_stride": draw(st.integers(1, 3)), "snapshot_times": []}
    ladder = draw(st.lists(_MAGNITUDES, min_size=1, max_size=3, unique=True))
    doc["sweep"] = {"tau_list": sorted(ladder, reverse=True)}
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["simulate", "limit-sweep", "modes"]),
    doc=_extreme_documents(),
    taus=st.one_of(st.none(), st.lists(_MAGNITUDES, min_size=1, max_size=2, unique=True)),
)
def test_extreme_config_exits_with_a_documented_code(command, doc, taus):
    argv = [command, "--quiet"]
    if command == "limit-sweep" and taus is not None:
        argv += ["--tau", ",".join(repr(tau) for tau in sorted(taus, reverse=True))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in EXIT_CODES, (code, err.getvalue())
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) == (code != 0) and "Traceback" not in err.getvalue(), lines


def _log_uniform_int(hi: float):
    return st.floats(0.0, hi).map(lambda e: int(10.0**e))


_FILE_TEXTS = st.one_of(
    st.binary(max_size=64),
    _log_uniform_int(5.3).map(lambda n: ("[" * n + "]" * n).encode()),
    _log_uniform_int(5.3).map(lambda n: ('{"grid": ' + "[" * n + "]" * n + "}").encode()),
    _log_uniform_int(4.3).map(lambda n: ('{"seed": ' + "7" * n + "}").encode()),
    _log_uniform_int(4.3).map(lambda n: ("-" + "9" * n).encode()),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["simulate", "limit-sweep", "verify", "modes"]),
       content=_FILE_TEXTS)
def test_config_file_bytes_exit_with_a_documented_code(command, content):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(content)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out"),
                         "--quiet"])
    assert code in EXIT_CODES, (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0) and "Traceback" not in err.getvalue(), lines
