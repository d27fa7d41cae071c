"""Self-tests of the benchmark harness.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bilipfactor.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracer.PER_LAYER
    ]


def test_every_selectable_job_has_recorded_values():
    expected = json.loads(run.EXPECTED.read_text())
    for w in workloads.WORKLOADS:
        assert set(workloads.all_job_ids(w)) <= set(expected)
        assert workloads.select_jobs(w, 7) == workloads.select_jobs(w, 7)
        assert workloads.build_job(workloads.select_jobs(w, 7)[0]) == workloads.build_job(
            workloads.select_jobs(w, 7)[0]
        )


def _job(tmp_path: Path, name: str, sub: str, payload: dict, *flags: str) -> tuple:
    d = tmp_path / name
    d.mkdir()
    (d / "input.json").write_text(json.dumps(payload))
    argv = [sub, "--input", str(d / "input.json"), "--out", str(d / "out"), *flags]
    return (name, sub, argv, d / "out" / "report.json")


LINEAR = {
    "map": {"type": "affine", "matrix": [[1.3, 0.1], [0.0, 0.9]], "b": [0.0, 0.0]},
    "cube": {"center": [0.0, 0.0], "side": 2.0},
    "C": 2.0,
}


def test_tracer_sees_every_kernel_call(tmp_path):
    # factor-linear certifies every factor afresh (no certificate cache), so
    # each sampled-pairs certificate in its report is one kernel call; the
    # certificates are requested through factorization's own namespace.
    job = _job(tmp_path, "lin", "factor-linear", LINEAR, "--epsilon", "0.25")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert bilipfactor.cli.main(job[2]) == 0
    finally:
        tr.uninstall()
    report = json.loads(job[3].read_text())["result"]
    sampled = sum(c["method"] == "sampled-pairs" for c in report["sequence"]["certificates"])
    layers = tr.per_layer(compiled=False)
    assert sampled == report["T"] > 0
    assert layers["kernels.pairwise_distortion.calls"] == sampled
    assert layers["map_engine.estimate_distortion.sampled"] == sampled
    assert layers["factorization.factors_emitted"] == report["T"]
    assert layers["cli.main.calls"] == 1
    assert layers["cli.report_bytes"] == job[3].stat().st_size
    # uninstall restores every rebound name
    assert bilipfactor.cli.factor_linear_in_cube.__name__ == "factor_linear_in_cube"
    assert not hasattr(bilipfactor.cli.factor_linear_in_cube, "__wrapped__")


def test_escaped_exceptions_and_failed_verdicts_count_as_failed(tmp_path):
    fold = {  # a folded grid map: pl verdicts fail, exit 1, report written
        "map": {
            "type": "grid",
            "origin": [-1.0, -1.0],
            "pitch": 0.25,
            "extents": [9, 9],
            "values": [[abs(-1 + 0.25 * i), -1 + 0.25 * j] for i in range(9) for j in range(9)],
        },
        "eta": 0.4,
        "box": {"center": [0.0, 0.0], "side": 1.6},
    }
    jobs = [
        _job(tmp_path, "raises", "degree", {}),
        _job(tmp_path, "fold", "pl", fold, "--epsilon", "0.2"),
        _job(tmp_path, "lin", "factor-linear", LINEAR),
    ]

    def cli_main(argv):
        if "raises" in argv[2]:
            raise RuntimeError("escaped")  # stands in for any exception out of main
        return bilipfactor.cli.main(argv)

    runs, wall_s, probes = worker.run_jobs(jobs, cli_main)
    records = worker.collect(jobs, runs, probes)
    assert wall_s == sum(r[0] for r in runs) and len(probes) == len(jobs) + 1
    assert [run.job_failed(r) for r in records] == [True, True, False]
    assert records[0]["error"] == "RuntimeError: escaped" and "summary" not in records[0]
    assert records[1]["exit"] == 1 and records[1]["summary"]["passed"] is False
    assert records[2]["summary"]["T"] > 0


def test_traced_and_untraced_batches_pass_the_same_checks():
    record, lines = run.run("decompose", seed=3, seconds=0, trace=True)
    plain, traced = record["raw"]
    assert record["batches"] == 1 and record["traced_batches"] == 1
    assert record["correct"] and record["failed"] == 0
    assert {j["id"]: j["summary"] for j in plain["jobs"]} == {j["id"]: j["summary"] for j in traced["jobs"]}
    assert [j["id"] for j in record["reverse_batch"]["jobs"]] == record["jobs"][::-1]
    assert record["attempted"] == 3 * len(record["jobs"])
    layers = record["per_layer"]
    assert set(layers) == {m[0] for m in tracer.PER_LAYER}
    assert layers["kernels.pairwise_distortion.calls"] == layers["map_engine.estimate_distortion.sampled"]
    assert layers["corona.cubes_classified"] > 0 and layers["pl_approx.degree_targets"] > 0
    assert any(line.startswith("  trace.overhead_s") for line in lines)


def test_byte_mismatches_count_jobs_whose_bytes_change_with_order():
    def batch(**sha):
        return {"jobs": [{"id": jid, "sha256": h} for jid, h in sha.items()]}

    forward = [batch(a="1", b="2", c="3"), batch(a="1", b="2", c="9")]
    assert run.byte_mismatches(forward, batch(c="3", b="2", a="1")) == 1
    assert run.byte_mismatches(forward, batch(c="9", b="5", a="1")) == 2


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
