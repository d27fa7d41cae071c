from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bilipfactor
from bilipfactor import cli
from bilipfactor.cli import main
from bilipfactor.degree import DegreeError


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


IDENTITY = {"type": "identity"}
UNIT = {"center": [0.5, 0.5], "side": 1.0}

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
    "corona-depth-not-integer": ("corona", {"map": IDENTITY, "depth": "x"}, ""),
    "pl-eta-not-numeric": ("pl", {"map": IDENTITY, "eta": "x"}, ""),
    "degree-target-not-numeric": ("degree", {"map": IDENTITY, "target": "a", "cube": UNIT}, ""),
    "shuffle-base-side-not-numeric": (
        "shuffle", {"omega": {"psi": IDENTITY, "base_side": "z"}, "pairs": []}, ""),
    "corona-payload-is-list": ("corona", [1, 2], ""),
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
