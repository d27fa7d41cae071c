from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bilipfactor
from bilipfactor import cli
from bilipfactor.cli import main
from bilipfactor.degree import DegreeError
from bilipfactor.jsonio import Rows
from bilipfactor.map_engine import Translation
from bilipfactor.sphere import spherical_distortion, translation_step_bound


def write_input(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _not_json(name: str):
    raise ValueError(f"report.json holds {name}, which is not valid JSON")


def load_report(out: Path) -> dict:
    """The run's report.json, parsed strictly: a NaN or an Infinity fails the test."""
    return json.loads((out / "report.json").read_text(), parse_constant=_not_json)


LINEAR = {
    "map": {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]},
    "cube": {"center": [0.0, 0.0], "side": 2.0},
    "C": 2.0,
}


class TestFactorLinear:
    def test_exit_zero_and_report(self, tmp_path):
        inp = write_input(tmp_path, "lin.json", LINEAR)
        out = tmp_path / "run"
        assert main(["factor-linear", "--input", inp, "--out", str(out), "--epsilon", "0.25"]) == 0
        rep = load_report(out)
        assert rep["passed"] is True
        assert rep["result"]["T"] > 0
        assert rep["result"]["max_certified"] <= 1.25 + 1e-12
        assert rep["version"]
        assert rep["config"]["epsilon"] == 0.25
        assert "tolerances" in rep

    def test_svg_frames(self, tmp_path):
        inp = write_input(tmp_path, "lin.json", LINEAR)
        out = tmp_path / "run"
        assert main(["factor-linear", "--input", inp, "--out", str(out), "--epsilon", "0.25", "--svg"]) == 0
        assert load_report(out)["passed"] is True
        frames = sorted(out.glob("factor_linear_*.svg"))
        assert len(frames) >= 2
        assert frames[0].read_text().startswith("<svg")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        inp = write_input(tmp_path, "lin.json", LINEAR)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["factor-linear", "--input", inp, "--out", str(out), "--epsilon", "0.25"])
            load_report(out)
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_report_independent_of_earlier_runs(self, tmp_path):
        # The shifted polyline has the same steps up to rounding; a
        # certificate kept from its run must not leak into the next report.
        polyline = [[0.0, 0.0], [0.7, 0.2], [1.1, 0.9]]
        shifted = {
            "cube": {"center": [0.1, 0.3], "side": 0.5},
            "path": [[x + 0.1, y + 0.3] for x, y in polyline],
        }
        plain = write_input(tmp_path, "plain.json", {"cube": {"center": [0.0, 0.0], "side": 0.5}, "path": polyline})
        first = write_input(tmp_path, "shifted.json", shifted)
        opts = ["--epsilon", "0.25"]
        assert main(["factor-translate", "--input", first, "--out", str(tmp_path / "shifted"), *opts]) == 0
        assert main(["factor-translate", "--input", plain, "--out", str(tmp_path / "second"), *opts]) == 0
        src = str(Path(bilipfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys; from bilipfactor.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = tmp_path / "fresh"
        subprocess.run(
            [sys.executable, "-c", code, "factor-translate", "--input", plain, "--out", str(fresh), *opts],
            env=env, check=True, timeout=300,
        )
        assert load_report(fresh)["passed"] is True
        assert (tmp_path / "second" / "report.json").read_bytes() == (fresh / "report.json").read_bytes()


class TestImports:
    def test_jobs_do_not_import_numpy_ma(self, tmp_path):
        # numpy.ma is not imported with numpy; its first import (np.unique
        # pulls it in) costs about 14 ms and 0.4 MB, which no job needs.
        shuffle = {
            "omega": {"psi": {"type": "identity"}, "base_side": 4.0},
            "pairs": [{"r": {"center": [1.0, 1.0], "side": 0.5}, "s": {"center": [2.5, 1.0], "side": 0.5}}],
            "mu": 1.5,
            "C1": 8.0,
        }
        jobs = [
            ["factor-linear", "--input", write_input(tmp_path, "lin.json", LINEAR), "--epsilon", "0.25"],
            ["shuffle", "--input", write_input(tmp_path, "sh.json", shuffle), "--epsilon", "0.25"],
            ["corona", "--input", write_input(tmp_path, "c.json", {"map": {"type": "logspiral", "k": 0.25},
                                                                  "depth": 3}), "--h", str(1 / 32)],
        ]
        for n, job in enumerate(jobs):
            job += ["--out", str(tmp_path / f"out{n}")]
        code = (
            "import json, sys; from bilipfactor.cli import main\n"
            "codes = [main(job) for job in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))"
        )
        src = str(Path(bilipfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(jobs)], env=env, check=True,
                              timeout=300, capture_output=True, text=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0], False]


def _sanitize(obj):
    """The copy a report used to go through before json.dumps, with NumPy
    bools as JSON booleans: json.dumps of it is the reference for the report
    encoder."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator),
                "value": float(obj)}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


class TestReportEncoding:
    def test_default_hook_gives_sanitized_bytes(self, tmp_path):
        payload = {
            "fractions": [Fraction(3, 7), (Fraction(-1, 2**70), {"z": Fraction(5)})],
            "numpy": {"f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(-7),
                      "bool": np.bool_(True), "nan": np.float64("nan"), "plain_nan": float("nan")},
            "arrays": (np.arange(6, dtype=np.float32).reshape(2, 3) / 7, np.array([True, False]),
                       np.array([], dtype=np.int64), [np.eye(2)]),
            "nested": {"b": [[1, (2.5, None)], {"a": "x"}], "a": True, "other": Path("p")},
        }
        path = tmp_path / "report.json"
        cli.write_json_atomic(path, payload)
        assert path.read_text() == json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"
        assert json.loads(path.read_text())["numpy"]["bool"] is True

    def test_numpy_comparison_is_a_json_boolean(self, tmp_path):
        path = tmp_path / "report.json"
        cli.write_json_atomic(path, {"b": np.float64(1.0) < 2})
        assert path.read_text() == '{\n  "b": true\n}\n'

    def test_generated_corpus_gives_sanitized_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        corpus = _corpus(np.random.default_rng(20261018), 300)
        for value in corpus + [dict(zip(map(str, range(len(corpus))), corpus))]:
            cli.write_json_atomic(path, value)
            assert path.read_text() == json.dumps(_sanitize(value), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_rows_give_sanitized_bytes(self, tmp_path, depth):
        # Each case nests a rows leaf depth levels deep, in a dict or a list,
        # and compares the writer with json.dumps of the records it stands for.
        path = tmp_path / "report.json"
        rng = np.random.default_rng(20261019 + depth)
        for _ in range(150):
            n = int(rng.choice([0, 1, 2, 5]))
            record = _rows_record(rng, n, 0)
            plain = [_row(record, i) for i in range(n if _has_array(record) else 0)]
            rows = Rows(record)
            for k in range(depth):
                rows, plain = ({"k%": rows, "a": k}, {"k%": plain, "a": k}) if k % 2 else ([rows, k], [plain, k])
            cli.write_json_atomic(path, rows)
            assert path.read_text() == json.dumps(_sanitize(plain), indent=2, sort_keys=True) + "\n"

    def test_rows_without_rows_or_columns(self, tmp_path):
        path = tmp_path / "report.json"
        cases = [(Rows({"a": np.zeros(0)}), []), (Rows(np.zeros((0, 3), dtype=np.int64)), []),
                 (Rows({"a": "x"}), []), (Rows([np.zeros((2, 0)), "%"]), [[[], "%"], [[], "%"]])]
        for rows, plain in cases:
            cli.write_json_atomic(path, {"r": rows})
            assert path.read_text() == json.dumps({"r": plain}, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("column", [np.array([True, False]), np.array([1, 2.5], dtype=object),
                                        np.array(["a", 1], dtype=object), np.array([None], dtype=object)],
                             ids=["bool", "int-float", "str-int", "none"])
    def test_rows_column_of_other_types_raises(self, tmp_path, column):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            cli.write_json_atomic(path, {"r": Rows({"x": column})})
        assert not path.exists()

    def test_rows_of_unequal_lengths_raise(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli.write_json_atomic(path, {"r": Rows([np.zeros(2), np.zeros((3, 0))])})
        assert not path.exists()

    @pytest.mark.parametrize("payload", [{1: "a"}, {"a": [{"b": 0, "c": {2.5: None}}]}])
    def test_non_string_key_raises(self, tmp_path, payload):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            cli.write_json_atomic(path, payload)
        assert not path.exists()


_TEXT = ["a", "Z", " ", "/", "\u00e9", "\u2603", "\U0001f600", "\u2028", "\ud800",
         '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f"]
_LEAVES = [
    0, -1, 2**64 + 1, -(2**70), 0.0, -0.0, 0.1, 1 / 3, 5e-324, 1e308, -1e308, float("nan"), float("inf"),
    float("-inf"), True, False, None, "", np.float32(0.1), np.float32("inf"), np.float64(-2.5),
    np.float64("nan"), np.int64(-7), np.int32(2**31 - 1), np.bool_(True), np.bool_(False), np.array(3.5),
    np.array(True), np.array([]), np.eye(2) / 3, np.arange(6, dtype=np.int64).reshape(2, 3),
    np.array([[np.nan, -0.0]]), Fraction(3, 7), Fraction(-1, 2**70), Fraction(2**65), Path("p/q.json"),
]


def _text(rng) -> str:
    return "".join(_TEXT[i] for i in rng.integers(len(_TEXT), size=rng.integers(0, 6)))


def _corpus_value(rng, depth: int):
    kind = int(rng.integers(5)) if depth < 4 else 0
    if kind == 0:
        return _LEAVES[rng.integers(len(_LEAVES))]
    if kind == 1:
        return _text(rng)
    items = [_corpus_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind == 2:
        return {_text(rng): v for v in items}
    return items if kind == 3 else tuple(items)


def _corpus(rng, n: int) -> list:
    """Nested dicts, lists and tuples with str keys, over every leaf kind a
    report may hold and keys and strings with non-ASCII text, quotes,
    backslashes and control characters."""
    return [_corpus_value(rng, 0) for _ in range(n)] + _LEAVES


# Fixed text of rows templates: % in every role a % format gives it, and non-ASCII.
_TEMPLATE_TEXT = ["%", "%s", "%r", "%0", "%%1", '"%2"', "%(a)s", "\u00e9%", "\u2603", "\U0001f600", "plain"]
_ROW_FLOATS = [0.0, -0.0, 0.1, 1 / 3, -2.5, 5e-324, 1e308, -1e308, 1e22, float("nan"), float("inf"), float("-inf")]
_ROW_INTS = [0, -1, 7, 2**63 - 1, -(2**63), 2**64 + 1, -(2**70), 10**30]


def _rows_column(rng, shape: tuple) -> np.ndarray:
    """An array leaf of a rows record: floats (with -0.0 and non-finite
    values), int64, ints beyond int64, or text with % and non-ASCII."""
    size = math.prod(shape)
    kind = int(rng.integers(4))
    if kind == 0:
        return np.array([_ROW_FLOATS[i] for i in rng.integers(len(_ROW_FLOATS), size=size)]).reshape(shape)
    if kind == 1:
        return rng.integers(-(2**62), 2**62, size=shape)
    values = _ROW_INTS if kind == 2 else _TEMPLATE_TEXT + _TEXT
    out = np.empty(size, dtype=object)
    out[:] = [values[i] for i in rng.integers(len(values), size=size)]
    return out.reshape(shape)


def _rows_record(rng, n: int, depth: int):
    kind = int(rng.integers(4)) if depth < 3 else int(rng.integers(2))
    if kind == 0:
        return _rows_column(rng, (n,) + tuple(rng.integers(0, 3, size=rng.integers(0, 3))))
    if kind == 1:
        fixed = [v for v in _LEAVES if not isinstance(v, np.ndarray)] + _TEMPLATE_TEXT
        return fixed[rng.integers(len(fixed))]
    items = [_rows_record(rng, n, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 2:
        return {_TEMPLATE_TEXT[rng.integers(len(_TEMPLATE_TEXT))] + _text(rng): v for v in items}
    return items


def _has_array(record) -> bool:
    if isinstance(record, dict):
        return any(map(_has_array, record.values()))
    return isinstance(record, np.ndarray) or isinstance(record, list) and any(map(_has_array, record))


def _row(record, i: int):
    """Row i of a rows record: every array leaf a replaced by a[i]."""
    if isinstance(record, np.ndarray):
        v = record[i]
        return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
    if isinstance(record, dict):
        return {k: _row(v, i) for k, v in record.items()}
    if isinstance(record, list):
        return [_row(v, i) for v in record]
    return record


IDENTITY = {"type": "identity"}
UNIT = {"center": [0.5, 0.5], "side": 1.0}
AFFINE_3D = {"type": "affine", "matrix": np.eye(3).tolist(), "b": [0.0, 0.0, 0.0]}


def shuffle_input(**params) -> dict:
    """One cube moved across the 4x4 square under the identity, with mu and C1 overridden."""
    pairs = [{"r": {"center": [1.0, 1.0], "side": 0.5}, "s": {"center": [2.5, 1.0], "side": 0.5}}]
    return {"omega": {"psi": IDENTITY, "base_side": 4.0}, "pairs": pairs, "mu": 1.5, "C1": 8.0, **params}


# (subcommand, input payload, text the error must contain)
MALFORMED = {
    "sphere-translation-v-not-numeric": ("sphere-factor", {"kind": "translation", "v": "abc"}, ""),
    "sphere-scaling-a-not-numeric": ("sphere-factor", {"kind": "scaling", "a": "x"}, ""),
    "sphere-translation-v-1d": (
        "sphere-factor", {"kind": "translation", "v": [10.0]}, "only 2-D and 3-D translations are supported"),
    "sphere-translation-v-4d": (
        "sphere-factor", {"kind": "translation", "v": [1.0, 0.0, 0.0, 0.0]},
        "only 2-D and 3-D translations are supported"),
    "translate-ragged-path": ("factor-translate", {"cube": UNIT, "path": [[0.5, 0.5], [1.0]]}, ""),
    "translate-path-length-overflows": (
        "factor-translate", {"cube": {"center": [0.0, 0.0], "side": 1.0}, "path": [[0.0, 0.0], [1e308, 1e308]]},
        "path length must be finite"),
    "sphere-translation-v-infinite": (
        "sphere-factor", {"kind": "translation", "v": [math.inf, 0.0]}, "translation length must be finite"),
    "sphere-translation-v-overflows": (
        "sphere-factor", {"kind": "translation", "v": [1e308, 1e308]}, "translation length must be finite"),
    "sphere-scaling-a-infinite": ("sphere-factor", {"kind": "scaling", "a": math.inf}, "scaling factor must be finite"),
    "corona-depth-not-integer": ("corona", {"map": IDENTITY, "depth": "x"}, ""),
    "pl-eta-not-numeric": ("pl", {"map": IDENTITY, "eta": "x"}, ""),
    "degree-target-not-numeric": ("degree", {"map": IDENTITY, "target": "a", "cube": UNIT}, ""),
    "shuffle-base-side-not-numeric": (
        "shuffle", {"omega": {"psi": IDENTITY, "base_side": "z"}, "pairs": []}, ""),
    "corona-payload-is-list": ("corona", [1, 2], ""),
    "corona-negative-depth": (
        "corona", {"map": {"type": "logspiral", "k": 0.2}, "depth": -1}, "depth must be non-negative"),
    "multilevel-negative-depth": (
        "multilevel", {"map": {"type": "logspiral", "k": 0.2}, "depth": -1}, "depth must be non-negative"),
    "corona-force-top-bad-string": (
        "corona", {"map": IDENTITY, "depth": 2, "force_top_bad": "false"}, "force_top_bad must be true or false"),
    "corona-depth-fractional": ("corona", {"map": IDENTITY, "depth": 2.7}, "depth must be an integer"),
    "corona-depth-bool": ("corona", {"map": IDENTITY, "depth": True}, "depth must be an integer"),
    "corona-depth-string": ("corona", {"map": IDENTITY, "depth": "2"}, "depth must be an integer"),
    "corona-dim-fractional": ("corona", {"map": IDENTITY, "depth": 2, "dim": 2.5}, "dim must be an integer"),
    "multilevel-depth-fractional": ("multilevel", {"map": IDENTITY, "depth": 2.7}, "depth must be an integer"),
    "multilevel-dim-bool": ("multilevel", {"map": IDENTITY, "depth": 2, "dim": True}, "dim must be an integer"),
    "pl-dim-fractional": ("pl", {"map": IDENTITY, "dim": 2.5}, "dim must be an integer"),
    "degree-3d-cube": (
        "degree", {"map": IDENTITY, "target": [0.4, 0.5, 0.5], "cube": {"center": [0.5, 0.5, 0.5], "side": 1.0}},
        "winding degree is planar only"),
    "degree-3d-target-2d-cube": (
        "degree", {"map": IDENTITY, "target": [0.4, 0.5, 0.5], "cube": UNIT}, "winding degree is planar only"),
    "corona-3d-map-dim-2": (
        "corona", {"map": AFFINE_3D, "depth": 2, "dim": 2},
        "map and unit cube dimensions differ: 3-D map, 2-D unit cube"),
    "corona-planar-map-dim-3": (
        "corona", {"map": {"type": "logspiral", "k": 0.2}, "depth": 1, "dim": 3},
        "map and unit cube dimensions differ: 2-D map, 3-D unit cube"),
    "multilevel-3d-map-dim-2": (
        "multilevel", {"map": AFFINE_3D, "depth": 2, "dim": 2},
        "map and unit cube dimensions differ: 3-D map, 2-D unit cube"),
    "pl-3d-map-dim-2": ("pl", {"map": AFFINE_3D, "dim": 2}, "map and box dimensions differ: 3-D map, 2-D box"),
    "pl-3d-box-dim-2": (
        "pl", {"map": IDENTITY, "dim": 2, "box": {"center": [0.5, 0.5, 0.5], "side": 1.0}},
        "box and dim differ: 3-D box, dim 2"),
    "pl-compose-parts-disagree": (
        "pl", {"map": {"type": "compose", "maps": [AFFINE_3D, {"type": "translation", "v": [0.1, 0.0]}]}},
        "compose parts act in different dimensions: [2, 3]"),
    "degree-3d-map-2d-cube": (
        "degree", {"map": AFFINE_3D, "target": [0.4, 0.5], "cube": UNIT},
        "map and cube dimensions differ: 3-D map, 2-D cube"),
    "shuffle-3d-psi": (
        "shuffle",
        {"omega": {"psi": AFFINE_3D, "base_side": 4.0},
         "pairs": [{"r": {"center": [1.0, 1.0], "side": 0.5}, "s": {"center": [3.0, 3.0], "side": 0.5}}]},
        "map and base square dimensions differ: 3-D map, 2-D base square"),
    "shuffle-c1-zero": ("shuffle", shuffle_input(C1=0), "C1 must be finite and positive, got 0"),
    "shuffle-c1-negative": ("shuffle", shuffle_input(C1=-3), "C1 must be finite and positive, got -3"),
    "shuffle-c1-nan": ("shuffle", shuffle_input(C1=math.nan), "C1 must be finite and positive, got nan"),
    "shuffle-c1-underflows": ("shuffle", shuffle_input(C1=1e-200), "C1 = 1e-200 puts the plan constants out of range"),
    "shuffle-c1-overflows": ("shuffle", shuffle_input(C1=1e200), "C1 = 1e+200 puts the plan constants out of range"),
    "shuffle-c1-c2-vanishes": ("shuffle", shuffle_input(C1=1e154), "C1 = 1e+154 gives c2 = 0.0"),
    "shuffle-mu-nan": ("shuffle", shuffle_input(mu=math.nan), "mu must be a finite number above 1, got nan"),
    "shuffle-mu-infinite": ("shuffle", shuffle_input(mu=math.inf), "mu must be a finite number above 1, got inf"),
    "degree-target-nan": (
        "degree", {"map": IDENTITY, "target": [math.nan, 0.5], "cube": UNIT}, "target must be finite"),
    "degree-target-infinite": (
        "degree", {"map": IDENTITY, "target": [math.inf, 0.5], "cube": UNIT}, "target must be finite"),
    "pl-eta-zero": ("pl", {"map": IDENTITY, "eta": 0}, "eta must be finite and positive, got 0.0"),
    "pl-eta-negative": ("pl", {"map": IDENTITY, "eta": -1}, "eta must be finite and positive, got -1.0"),
    "pl-eta-nan": ("pl", {"map": IDENTITY, "eta": math.nan}, "eta must be finite and positive, got nan"),
    "pl-eta-infinite": ("pl", {"map": IDENTITY, "eta": math.inf}, "eta must be finite and positive, got inf"),
    "pl-eta-bool": ("pl", {"map": IDENTITY, "eta": True}, "eta must be a number, got True"),
    "pl-eta-integer-overflows": ("pl", {"map": IDENTITY, "eta": 10**400}, "eta must be finite and positive, got inf"),
    **{f"shuffle-base-side-{name}": (
        "shuffle", {**shuffle_input(), "omega": {"psi": IDENTITY, "base_side": side}},
        f"base_side must be finite and positive, got {float(side)!r}")
       for name, side in [("zero", 0), ("negative", -4), ("nan", math.nan), ("infinite", math.inf)]},
    "linear-c-infinite": ("factor-linear", {**LINEAR, "C": math.inf}, "C must be finite and positive, got inf"),
    "linear-2d-map-on-3d-cube": (
        "factor-linear",
        {"map": {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]},
         "cube": {"center": [0.0, 0.0, 0.0], "side": 2.0}},
        "map and cube dimensions differ",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exit_two_with_report(self, tmp_path, case):
        sub, payload, needle = MALFORMED[case]
        inp = write_input(tmp_path, "x.json", payload)
        out = tmp_path / "o"
        assert main([sub, "--input", inp, "--out", str(out)]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["error"] and needle in rep["error"]
        assert "result" not in rep

    @pytest.mark.parametrize("payload", [{"kind": "translation", "v": [1.0, 0.0]}, {"kind": "scaling", "a": 2.0}],
                             ids=["translation", "scaling"])
    def test_sphere_factor_tiny_epsilon_exit_two(self, tmp_path, payload):
        # The step count is refused before any step is built: 1e300 steps, or about 1.8e12.
        inp = write_input(tmp_path, "s.json", payload)
        out = tmp_path / "o"
        assert main(["sphere-factor", "--input", inp, "--out", str(out), "--epsilon", "1e-300"]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["error"].startswith("epsilon 1e-300 needs ") and "steps, more than the" in rep["error"]
        assert "result" not in rep

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["degree", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read input JSON" in load_report(tmp_path / "o")["error"]

    def test_schema_violation_exit_two(self, tmp_path):
        inp = write_input(tmp_path, "x.json", {"map": {"type": "nope"}})
        assert main(["pl", "--input", inp, "--out", str(tmp_path / "o")]) == 2
        assert load_report(tmp_path / "o")["passed"] is False

    def test_failed_verdicts_exit_one(self, tmp_path):
        # A grid-sampled fold is not injective: the pl verdicts fail.
        n = 9
        xs = np.linspace(-1.0, 1.0, n)
        g = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        vals = g.copy()
        vals[..., 0] = np.abs(vals[..., 0])
        payload = {
            "map": {
                "type": "grid",
                "origin": [-1.0, -1.0],
                "pitch": 0.25,
                "extents": [n, n],
                "values": vals.reshape(-1, 2).tolist(),
            },
            "eta": 0.4,
            "box": {"center": [0.0, 0.0], "side": 1.6},
        }
        inp = write_input(tmp_path, "fold.json", payload)
        out = tmp_path / "o"
        assert main(["pl", "--input", inp, "--out", str(out), "--epsilon", "0.2"]) == 1
        rep = load_report(out)
        assert rep["passed"] is False


    def test_multilevel_shortfall_exit_one(self, tmp_path):
        # At depth 2 no good cube falls in the size window under the forced-bad
        # root, so the exact good measure is 0.
        inp = write_input(tmp_path, "m.json", {"map": IDENTITY, "depth": 2})
        out = tmp_path / "o"
        assert main(["multilevel", "--input", inp, "--out", str(out), "--h", "0.0625"]) == 1
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["result"]["good_measure_ok"] is False
        assert "error" not in rep and "certification_error" not in rep

    def test_grid_not_covering_unit_square_exit_two(self, tmp_path):
        # The grid spans [0, 0.5]^2; a coronization samples all of [0, 1]^2.
        xs = np.linspace(0.0, 0.5, 3)
        g = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        payload = {
            "map": {"type": "grid", "origin": [0.0, 0.0], "pitch": 0.25, "extents": [3, 3],
                    "values": g.reshape(-1, 2).tolist()},
            "depth": 2,
        }
        inp = write_input(tmp_path, "grid.json", payload)
        out = tmp_path / "o"
        assert main(["corona", "--input", inp, "--out", str(out), "--h", str(1 / 16)]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert "outside its hull" in rep["error"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_exit_two(self, tmp_path):
        # Vertex images overflow to inf, so the per-simplex SVD cannot converge.
        payload = {"map": {"type": "affine", "matrix": [[1e308, 1e308], [1e308, 1e308]],
                           "b": [0.0, 0.0]}, "eta": 0.2}
        inp = write_input(tmp_path, "big.json", payload)
        out = tmp_path / "o"
        assert main(["pl", "--input", inp, "--out", str(out)]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert "did not converge" in rep["error"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_affine_corona_exit_two(self, tmp_path):
        # The SVD of this affine map overflows to sigma = [inf, nan]; the
        # distortion estimate must fail instead of reporting L = Infinity.
        payload = {"map": {"type": "affine", "matrix": [[1e308, 1e308], [1e308, 1e308]],
                           "b": [0.0, 0.0]}, "depth": 2}
        inp = write_input(tmp_path, "big.json", payload)
        out = tmp_path / "o"
        assert main(["corona", "--input", inp, "--out", str(out), "--h", "0.0625"]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert "not bi-Lipschitz" in rep["error"]

    def test_strict_loader_rejects_non_finite_numbers(self, tmp_path):
        (tmp_path / "report.json").write_text('{"l_estimate": Infinity}')
        with pytest.raises(ValueError, match="Infinity"):
            load_report(tmp_path)

    def test_degree_error_outside_degree_exit_one(self, tmp_path, monkeypatch):
        # No input makes a subcommand other than `degree` raise DegreeError
        # today; a stand-in command checks where one would land.
        def fails(payload, args):
            raise DegreeError("non-regular value: target on a simplex face image")

        monkeypatch.setitem(cli.COMMANDS, "pl", fails)
        inp = write_input(tmp_path, "x.json", {})
        out = tmp_path / "o"
        assert main(["pl", "--input", inp, "--out", str(out)]) == 1
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["certification_error"].startswith("non-regular value")


class TestOtherSubcommands:
    def test_degree(self, tmp_path):
        payload = {
            "map": {"type": "identity"},
            "target": [0.4, 0.5],
            "cube": {"center": [0.5, 0.5], "side": 1.0},
        }
        inp = write_input(tmp_path, "deg.json", payload)
        out = tmp_path / "o"
        assert main(["degree", "--input", inp, "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["result"]["degree"] == 1

    def test_sphere_factor_near_step_ceiling(self, tmp_path):
        # 909,092 equal steps: the report holds the count and the one step,
        # which is checked once.
        inp = write_input(tmp_path, "s.json", {"kind": "translation", "v": [1.0, 0.0]})
        out = tmp_path / "o"
        assert main(["sphere-factor", "--input", inp, "--out", str(out), "--epsilon", "1.1e-6"]) == 0
        n = 909_092
        step = Translation((1.0 / n, 0.0))
        assert load_report(out)["result"] == {
            "kind": "translation",
            "count": n,
            "per_step": {"analytic_bound": translation_step_bound(1.0 / n), "sampled": spherical_distortion(step),
                         "map": {"type": "translation", "v": [1.0 / n, 0.0]}},
        }

    def test_sphere_factor_scaling(self, tmp_path):
        inp = write_input(tmp_path, "s.json", {"kind": "scaling", "a": 16.0})
        out = tmp_path / "o"
        assert main(["sphere-factor", "--input", inp, "--out", str(out), "--epsilon", "0.3"]) == 0
        rep = load_report(out)
        assert rep["result"]["count"] == 36

    def test_factor_translate(self, tmp_path):
        payload = {"cube": {"center": [0.0, 0.0], "side": 0.5}, "path": [[0.0, 0.0], [2.0, 0.0]]}
        inp = write_input(tmp_path, "t.json", payload)
        out = tmp_path / "o"
        assert main(["factor-translate", "--input", inp, "--out", str(out), "--epsilon", "0.2"]) == 0
        assert load_report(out)["result"]["check"]["support_ok"] is True

    def test_corona(self, tmp_path):
        payload = {"map": {"type": "logspiral", "k": 0.25}, "depth": 4}
        inp = write_input(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main(["corona", "--input", inp, "--out", str(out), "--h", str(1 / 64)]) == 0
        rep = load_report(out)
        assert rep["result"]["invariant_issues"] == []
        assert rep["result"]["counts"]["regions"] >= 1

    def test_multilevel(self, tmp_path):
        payload = {"map": {"type": "affine", "matrix": [[1.1, 0.0], [0.05, 0.95]], "b": [0.0, 0.0]},
                   "depth": 5}
        inp = write_input(tmp_path, "m.json", payload)
        out = tmp_path / "o"
        assert main(
            ["multilevel", "--input", inp, "--out", str(out), "--alpha", "0.5", "--h", str(1 / 64)]
        ) == 0
        rep = load_report(out)
        assert rep["result"]["good_measure_ok"] is True

    def test_multilevel_3d(self, tmp_path):
        payload = {"map": {"type": "affine", "b": [0.0, 0.0, 0.0],
                           "matrix": [[1.1, 0.0, 0.0], [0.05, 0.95, 0.0], [0.0, 0.1, 1.0]]},
                   "depth": 3, "dim": 3}
        inp = write_input(tmp_path, "m.json", payload)
        out = tmp_path / "o"
        assert main(["multilevel", "--input", inp, "--out", str(out), "--alpha", "0.9", "--h", str(1 / 16)]) == 0
        res = load_report(out)["result"]

        def exact(v: dict) -> Fraction:
            return Fraction(int(v["numerator"]), int(v["denominator"]))

        volumes = [exact(v) for lv in res["levels"] for v in lv["B_volumes"]]
        assert volumes
        assert exact(res["good_measure"]) == sum(volumes)

    @pytest.mark.parametrize("alpha, code", [("1e-5", 1), ("1e-12", 2)])
    def test_multilevel_small_alpha(self, tmp_path, alpha, code):
        # The level budget is closed-form, so a tiny alpha returns at once; one
        # that rounds to 0 at denominator 10^9 is refused with a report.
        payload = {"map": {"type": "logspiral", "k": 0.05}, "depth": 4}
        inp = write_input(tmp_path, "m.json", payload)
        out = tmp_path / "o"
        assert main(["multilevel", "--input", inp, "--out", str(out), "--alpha", alpha, "--h", str(1 / 64)]) == code
        rep = load_report(out)
        assert rep["passed"] is False
        if code == 1:
            assert rep["result"]["params"]["N_bound"] > 10**5
            assert rep["result"]["good_measure_ok"] is False
        else:
            assert rep["error"] == "alpha must be positive at denominator 10^9"

    def test_shuffle(self, tmp_path):
        payload = {
            "omega": {"psi": {"type": "identity"}, "base_side": 4.0},
            "pairs": [
                {"r": {"center": [1.0, 1.0], "side": 0.5}, "s": {"center": [2.5, 1.0], "side": 0.5}}
            ],
            "mu": 1.5,
            "C1": 8.0,
        }
        inp = write_input(tmp_path, "sh.json", payload)
        out = tmp_path / "o"
        assert main(["shuffle", "--input", inp, "--out", str(out), "--epsilon", "0.25", "--svg"]) == 0
        rep = load_report(out)
        assert rep["result"]["check"]["similarity_ok"] is True
        assert (out / "shuffle_stage_4.svg").exists()

    def test_negative_parameter_rejected(self, tmp_path):
        inp = write_input(tmp_path, "s.json", {"kind": "scaling", "a": 2.0})
        out = tmp_path / "o"
        assert main(["sphere-factor", "--input", inp, "--out", str(out), "--epsilon", "-1"]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["error"] == "--epsilon must be positive"
        assert rep["config"]["epsilon"] == -1.0


    @pytest.mark.parametrize("sub, flag, value", [("multilevel", "alpha", "inf"), ("corona", "theta", "inf"),
                                                  ("multilevel", "alpha", "nan"), ("pl", "epsilon", "inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, sub, flag, value):
        # The report is strict JSON: the config echoes the value as its string.
        inp = write_input(tmp_path, "c.json", {"map": {"type": "logspiral", "k": 0.25}, "depth": 2})
        out = tmp_path / "o"
        assert main([sub, "--input", inp, "--out", str(out), f"--{flag}", value]) == 2
        rep = load_report(out)
        assert rep["passed"] is False
        assert rep["error"] == f"--{flag} must be finite"
        assert rep["config"][flag] == value


class TestConfigEcho:
    def test_config_mirrors_parser(self, tmp_path):
        inp = write_input(tmp_path, "s.json", {"kind": "scaling", "a": 2.0})
        out = tmp_path / "o"
        assert main(["sphere-factor", "--input", inp, "--out", str(out)]) == 0
        options = {a.dest for a in cli.build_parser()._actions if a.option_strings} - {"help", "out"}
        assert set(load_report(out)["config"]) == {"subcommand", "input"} | options

    def test_seed_rejected(self, tmp_path):
        inp = write_input(tmp_path, "s.json", {"kind": "scaling", "a": 2.0})
        with pytest.raises(SystemExit) as exc:
            main(["sphere-factor", "--input", inp, "--out", str(tmp_path / "o"), "--seed", "0"])
        assert exc.value.code == 2
