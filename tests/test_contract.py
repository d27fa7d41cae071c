"""The CLI's exit-code contract under extreme float flags and map parameters.

Each subcommand that reads a float flag (all but degree) runs on one small
inline input (factor-linear also on a diagonal-only map) with each float
flag it reads set in turn to a subnormal, a tiny, a huge and an ordinary
value.  Map leaves (a grid's origin, pitch and one value, a
translation's v, a log-spiral's k and a blend's inner shift) are set in
turn to NaN, inf and 1e308, each on pl, degree, corona and shuffle (as
psi).  Whatever the value, the run must end with exit 0, 1 or 2 and a
report.json that is strict JSON, and an exit-2 report must say why in its
"error" field: no value may reach a traceback.

Each case runs in a forked child, one child at a time, with its address
space capped and an alarm set, so a run that would allocate or loop
without end fails its case alone.  A fork starts with the library already
imported, which keeps the 120 cases to a few seconds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import signal
import traceback

import pytest

from bilipfactor.cli import main

ADDRESS_SPACE = 2 << 30  # bytes
ALARM_S = 20
ESCAPED = 70  # the child's exit code when an exception escapes main

IDENTITY = {"type": "identity"}

# name -> (subcommand, input payload, the float flags the subcommand reads)
INPUTS = {
    "factor-linear": ("factor-linear", {
        "map": {"type": "affine", "matrix": [[1.1, 0.3], [-0.2, 0.9]], "b": [0.0, 0.0]},
        "cube": {"center": [0.0, 0.0], "side": 2.0},
    }, ("--epsilon",)),
    "factor-linear-diagonal": ("factor-linear", {
        "map": {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]},
        "cube": {"center": [0.0, 0.0], "side": 2.0},
    }, ("--epsilon",)),
    "factor-translate": ("factor-translate", {
        "cube": {"center": [0.0, 0.0], "side": 0.5},
        "path": [[0.0, 0.0], [1.0, 0.5]],
    }, ("--epsilon",)),
    "shuffle": ("shuffle", {
        "omega": {"psi": IDENTITY, "base_side": 4.0},
        "pairs": [{"r": {"center": [1.0, 1.0], "side": 0.5}, "s": {"center": [2.5, 1.0], "side": 0.5}}],
    }, ("--epsilon",)),
    "corona": ("corona", {"map": {"type": "logspiral", "k": 0.05}, "depth": 3}, ("--h", "--theta")),
    "multilevel": ("multilevel", {"map": {"type": "logspiral", "k": 0.05}, "depth": 3},
                   ("--h", "--theta", "--alpha")),
    "pl": ("pl", {"map": {"type": "logspiral", "k": 0.05}}, ("--epsilon", "--eta")),
    "sphere-factor": ("sphere-factor", {"kind": "scaling", "a": 4.0}, ("--epsilon",)),
}

VALUES = ("5e-324", "1e-300", "1e300", "3")

CASES = [pytest.param(name, flag, value, id=f"{name}{flag}={value}")
         for name, (_, _, flags) in INPUTS.items() for flag in flags for value in VALUES]

# The identity on [-1, 4]^2 as a 3x3 grid, which covers every point the map inputs sample.
GRID = {"type": "grid", "origin": [-1.0, -1.0], "pitch": 2.5, "extents": [3, 3],
        "values": [[-1.0 + 2.5 * i, -1.0 + 2.5 * j] for i in range(3) for j in range(3)]}
BLEND = {"type": "blend", "inner": {"type": "translation", "v": [0.01, 0.0]},
         "cube": {"center": [0.5, 0.5], "side": 0.25}, "lambda": 2.0}

# name -> (map, the path of the leaf set to each value)
LEAVES = {
    "grid-origin": (GRID, ("origin", 0)),
    "grid-pitch": (GRID, ("pitch",)),
    "grid-value": (GRID, ("values", 4, 0)),
    "translation-v": ({"type": "translation", "v": [0.1, 0.0]}, ("v", 0)),
    "logspiral-k": ({"type": "logspiral", "k": 0.05}, ("k",)),
    "blend-inner-v": (BLEND, ("inner", "v", 0)),
}

# subcommand -> (input payload around a map, flags)
MAP_INPUTS = {
    "pl": (lambda m: {"map": m}, []),
    "degree": (lambda m: {"map": m, "target": [0.5, 0.5], "cube": {"center": [0.5, 0.5], "side": 0.5}}, []),
    "corona": (lambda m: {"map": m, "depth": 2}, ["--h", "0.0625"]),
    "shuffle": (lambda m: {"omega": {"psi": m, "base_side": 4.0}, "pairs": INPUTS["shuffle"][1]["pairs"]}, []),
}

LEAF_VALUES = (math.nan, math.inf, 1e308)

LEAF_CASES = [pytest.param(sub, leaf, value, id=f"{sub}-{leaf}={value}")
              for sub in MAP_INPUTS for leaf in LEAVES for value in LEAF_VALUES]


def _not_json(name: str):
    raise ValueError(f"report.json holds {name}, which is not strict JSON")


def run_capped(argv: list[str]) -> int:
    """main(argv) in a forked child under the address-space cap and the alarm;
    its exit code, or -signal when a signal ended it."""
    pid = os.fork()
    if pid == 0:
        # The child ends in os._exit whatever happens: it never returns into the test runner.
        code = ESCAPED
        try:
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
            signal.alarm(ALARM_S)
            code = main(argv)
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def assert_contract(tmp_path, sub: str, payload: dict, flags: list[str]) -> None:
    """Run sub on payload with flags in a capped child: exit 0, 1 or 2, a strict-JSON
    report.json, and an error in it on exit 2."""
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = run_capped([sub, "--input", str(inp), "--out", str(out), *flags])
    assert code in (0, 1, 2), f"exit {code}"
    report = json.loads((out / "report.json").read_text(), parse_constant=_not_json)
    if code == 2:
        assert report["error"]


@pytest.mark.parametrize("name, flag, value", CASES)
def test_flag_value_keeps_the_contract(tmp_path, name, flag, value):
    sub, payload, _ = INPUTS[name]
    assert_contract(tmp_path, sub, payload, [flag, value])


@pytest.mark.parametrize("sub, leaf, value", LEAF_CASES)
def test_map_leaf_keeps_the_contract(tmp_path, sub, leaf, value):
    m, path = LEAVES[leaf]
    m = copy.deepcopy(m)
    node = m
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    payload, flags = MAP_INPUTS[sub]
    assert_contract(tmp_path, sub, payload(m), flags)
