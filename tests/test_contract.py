"""The CLI's exit-code contract under extreme float flags.

Each subcommand that reads a float flag (all but degree) runs on one small
inline input (factor-linear also on a diagonal-only map) with each float
flag it reads set in turn to a subnormal, a tiny, a huge and an ordinary
value.  Whatever the value, the run must end with exit 0, 1 or 2 and a
report.json that is strict JSON, and an exit-2 report must say why in its
"error" field: no value may reach a traceback.

Each case runs in a forked child, one child at a time, with its address
space capped and an alarm set, so a run that would allocate or loop
without end fails its case alone.  A fork starts with the library already
imported, which keeps the 48 cases to a few seconds.
"""

from __future__ import annotations

import json
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


@pytest.mark.parametrize("name, flag, value", CASES)
def test_flag_value_keeps_the_contract(tmp_path, name, flag, value):
    sub, payload, _ = INPUTS[name]
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = run_capped([sub, "--input", str(inp), "--out", str(out), flag, value])
    assert code in (0, 1, 2), f"exit {code}"
    report = json.loads((out / "report.json").read_text(), parse_constant=_not_json)
    if code == 2:
        assert report["error"]
