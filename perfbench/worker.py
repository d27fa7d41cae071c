"""One batch in a fresh interpreter: import, build inputs, run the jobs back to back.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py SPEC.json SPAWN_MONOTONIC

SPAWN_MONOTONIC is time.monotonic() in the parent just before it started
this interpreter (CLOCK_MONOTONIC is shared by all processes on Linux), so
setup_s covers interpreter start, the bilipfactor import and writing every
input file.  Each job is one bilipfactor.cli.main([...]) call with its own
output directory; reports are read only after the last job, and wall_s is
the sum of the job latencies, so it holds no benchmark work.

On a shared host, other tenants change how fast the CPU runs (a fixed loop
can take up to 2x longer, in stretches of tens of seconds).  So after setup
and after every job the worker times probe(), a fixed stretch of interpreter
and small-array NumPy work like the library's own; run.py scales setup_s
and each job's latency by the probes next to them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import bilipfactor.cli
import numpy
from bilipfactor import kernels

import checks
import workloads

_PROBE_POINTS = numpy.random.default_rng(0).random((81, 2))


def probe() -> float:
    """Seconds taken by a fixed piece of work (about 7 ms on an idle 2.1 GHz Xeon core)."""
    xs = _PROBE_POINTS
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        d = xs[i % 80 + 1 :] - xs[i % 80]
        acc += float(numpy.einsum("ij,ij->i", d, d).max())
        acc += sum(j * 0.5 for j in range(60))
    return time.perf_counter() - t0


def run_jobs(jobs: list[tuple], cli_main) -> tuple[list[tuple], float, list[float]]:
    """Run (id, subcommand, argv, report path) jobs back to back.

    Returns ((latency_s, exit code, error) per job, wall_s, probe times
    before the first job and after each job).  wall_s excludes the probes.
    An exception escaping the CLI is recorded as that job's failure; the
    batch goes on.
    """
    runs = []
    probe()  # warm-up
    probes = [probe()]
    for jid, _, argv, _ in jobs:
        t0 = time.perf_counter()
        error = None
        try:
            code = cli_main(argv)
        except (Exception, SystemExit) as e:
            code = None
            error = f"{type(e).__name__}: {e}"
            print(f"job {jid} raised:\n{traceback.format_exc()}", file=sys.stderr)
        runs.append((time.perf_counter() - t0, code, error))
        probes.append(probe())
    return runs, sum(r[0] for r in runs), probes


def collect(jobs: list[tuple], runs: list[tuple], probes: list[float]) -> list[dict]:
    """Per-job record: latency, the probes around it, exit, error and, when a
    report exists, its hash, size, structural summary and work totals."""
    results = []
    for n, ((jid, sub, _, report), (latency, code, error)) in enumerate(zip(jobs, runs)):
        entry = {
            "id": jid,
            "subcommand": sub,
            "latency_s": latency,
            "probe_s": [probes[n], probes[n + 1]],
            "exit": code,
            "error": error,
        }
        if report.is_file():
            blob = report.read_bytes()
            rep = json.loads(blob)
            entry.update(
                sha256=hashlib.sha256(blob).hexdigest(),
                bytes=len(blob),
                summary=checks.summarize(sub, rep),
                work=checks.work_done(sub, rep),
            )
        results.append(entry)
    return results


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(bilipfactor.cli.__file__).resolve().parents:
        print(f"bilipfactor imported from {bilipfactor.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    workdir = Path(spec["workdir"])
    jobs = []
    for n, jid in enumerate(spec["jobs"]):
        sub, flags, payload = workloads.build_job(jid)
        jobdir = workdir / f"job{n:02d}"
        jobdir.mkdir(parents=True)
        (jobdir / "input.json").write_text(json.dumps(payload))
        argv = [sub, "--input", str(jobdir / "input.json"), "--out", str(jobdir / "out"), *flags]
        jobs.append((jid, sub, argv, jobdir / "out" / "report.json"))
    setup_s = time.monotonic() - float(sys.argv[2])
    if spec["setup_only"]:
        probe()  # warm-up, as in run_jobs
        Path(spec["result"]).write_text(json.dumps({"setup_s": setup_s, "probe_s": [probe()]}))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    # Looked up after install, so a traced batch enters through the wrapper.
    runs, wall_s, probes = run_jobs(jobs, bilipfactor.cli.main)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "compiled_kernel": bool(kernels.HAVE_COMPILED),
        "numpy": numpy.__version__,
        "jobs": collect(jobs, runs, probes),
    }
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = tracer.per_layer(kernels.HAVE_COMPILED)
        out["self_time"] = {name: s[1] for name, s in tracer.spans.items()}
    shutil.rmtree(workdir, ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
