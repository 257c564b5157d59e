"""Mutation fuzz of the command line.

One to three leaves of configs/canonical.json (shrunk to N = 8 and T = 5 ms)
are replaced by extreme, zero, negative, wrong-type or empty values and
unknown presets; every outcome must be a documented exit code, and a
non-zero exit prints exactly one line on stderr and no traceback.
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
