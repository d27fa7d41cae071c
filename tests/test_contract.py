"""The CLI's exit-code contract under extreme float flags, map parameters,
ill-typed numeric leaves and deep nesting.

Each subcommand that reads a float flag (all but degree) runs on one small
inline input (factor-linear also on a diagonal-only map) with each float
flag it reads set in turn to a subnormal, a tiny, a huge and an ordinary
value.  Map leaves (a grid's origin, pitch and one value, a
translation's v, a log-spiral's k and a blend's inner shift) are set in
turn to NaN, inf and 1e308, each on pl, degree, corona and shuffle (as
psi).  Every numeric leaf of the inline inputs, and of a map of each kind
on pl (the first entry standing for each array), is set in turn to true,
the string "0.5" and an integer beyond the float range; a compose chain
and a target list are nested past what the JSON reader can recurse into;
and pl runs on two blends whose image simplices are too large to sweep.
Whatever the value, the run must end with exit 0, 1 or 2 and a
report.json that is strict JSON, and an exit-2 report must say why in its
"error" field: no value may reach a traceback.  A bool or a string must
end at parsing, with exit 2 and an error naming the leaf.

Each case that may compute runs in a forked child, one child at a time,
with its address space capped and an alarm set, so a run that would
allocate or loop without end fails its case alone.  A fork starts with the
library already imported, which keeps the forked cases to a few seconds.
The bool and string cases end at parsing and run in the test process.
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


# A map of each kind, run on pl for the number rule.
RULE_MAPS = {"grid": GRID, "translation": LEAVES["translation-v"][0], "scaling": {"type": "scaling", "a": 1.5},
             "blend": BLEND}

# name -> (subcommand, input payload) of every input whose numeric leaves take the RULE_VALUES
RULE_INPUTS = {
    **{name: (sub, payload) for name, (sub, payload, _) in INPUTS.items()},
    "sphere-factor-translation": ("sphere-factor", {"kind": "translation", "v": [0.5, 0.0]}),
    "degree": ("degree", MAP_INPUTS["degree"][0](IDENTITY)),
    **{f"pl-{kind}": ("pl", {"map": m}) for kind, m in RULE_MAPS.items()},
}

RULE_VALUES = {"true": True, "string": "0.5", "10**400": 10**400}


def numeric_leaves(obj, path: tuple = ()):
    """The paths of the numeric leaves of a JSON value; a list stands by its first entry."""
    if isinstance(obj, dict):
        for key, v in obj.items():
            yield from numeric_leaves(v, path + (key,))
    elif isinstance(obj, list):
        if obj:
            yield from numeric_leaves(obj[0], path + (0,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


RULE_CASES = [pytest.param(name, path, label, id=f"{name}-{'.'.join(map(str, path))}={label}")
              for name, (_, payload) in RULE_INPUTS.items() for path in numeric_leaves(payload)
              for label in RULE_VALUES]

# 600 levels of compose around the identity, as JSON text: json.dumps cannot write them either.
CHAIN = '{"type": "compose", "maps": [' * 600 + '{"type": "identity"}' + ']}' * 600
DEEP_TARGET = "[" * 1000 + "0.5" + "]" * 1000

NESTED = {
    "degree-compose-600": ("degree", '{"map": %s, "target": [0.4, 0.5], '
                           '"cube": {"center": [0.5, 0.5], "side": 0.5}}' % CHAIN, []),
    "corona-compose-600": ("corona", '{"map": %s, "depth": 2}' % CHAIN, ["--h", "0.0625"]),
    "degree-target-1000-deep": ("degree", '{"map": {"type": "identity"}, "target": %s, '
                                '"cube": {"center": [0.5, 0.5], "side": 0.5}}' % DEEP_TARGET, []),
}

# A blend whose shift sends a few image simplices far away: their boxes stay
# finite on average, so the degree sweep's candidate arrays outgrow the cap.
FAR_BLENDS = {
    "2d": {"map": {"type": "blend", "inner": {"type": "translation", "v": [1e300, 0.0]},
                   "cube": {"center": [0.5, 0.5], "side": 0.25}, "lambda": 2.0}},
    "3d": {"map": {"type": "blend", "inner": {"type": "translation", "v": [1e300, 0.0, 0.0]},
                   "cube": {"center": [0.5, 0.5, 0.5], "side": 0.25}, "lambda": 2.0}, "dim": 3, "eta": 0.5},
}


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


def assert_contract(tmp_path, sub: str, payload: dict | str, flags: list[str], run=run_capped) -> dict:
    """Run sub on payload (or JSON text) with flags, in a capped child by default: exit 0,
    1 or 2, a strict-JSON report.json, and an error in it on exit 2.  Returns the report."""
    inp = tmp_path / "input.json"
    inp.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out = tmp_path / "out"
    code = run([sub, "--input", str(inp), "--out", str(out), *flags])
    assert code in (0, 1, 2), f"exit {code}"
    report = json.loads((out / "report.json").read_text(), parse_constant=_not_json)
    if code == 2:
        assert report["error"]
    return report


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


@pytest.mark.parametrize("name, path, label", RULE_CASES)
def test_numeric_leaf_is_a_json_number(tmp_path, name, path, label):
    sub, payload = RULE_INPUTS[name]
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]] = RULE_VALUES[label]
    if label == "10**400":  # reads as inf, which may reach the computation
        assert_contract(tmp_path, sub, payload, [])
        return
    report = assert_contract(tmp_path, sub, payload, [], run=main)
    leaf = [key for key in path if isinstance(key, str)][-1]
    assert f"{leaf} must be" in report.get("error", ""), report
    assert f"got {value!r}" in report["error"]


@pytest.mark.parametrize("name", sorted(NESTED))
def test_deep_nesting_keeps_the_contract(tmp_path, name):
    sub, text, flags = NESTED[name]
    assert "error" in assert_contract(tmp_path, sub, text, flags)


@pytest.mark.parametrize("dim", sorted(FAR_BLENDS))
def test_far_blend_sweep_keeps_the_contract(tmp_path, dim):
    assert_contract(tmp_path, "pl", FAR_BLENDS[dim], [])


def test_far_blend_sweep_is_refused(tmp_path):
    # About 6,000 candidate simplices per target: the pass is refused before its arrays are gathered.
    report = assert_contract(tmp_path, "pl", FAR_BLENDS["2d"], [], run=main)
    assert "the degree sweep of" in report["error"] and "candidate simplices" in report["error"]


def test_infinite_blend_lambda_exits_2(tmp_path):
    # JSON reads 1e400 as inf, where every blend weight would be inf/inf = NaN.
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({"map": BLEND}).replace('"lambda": 2.0', '"lambda": 1e400'))
    assert main(["pl", "--input", str(inp), "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=_not_json)
    assert "blend lambda must be finite and > 1, got inf" in report["error"]
