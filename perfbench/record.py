"""Record the expected structural values of every pool input into expected.json.

Usage (from the repository root):
    python3 perfbench/record.py

Each pool entry runs alone in a fresh interpreter, as a first-time CLI user
would run it, and expected.json is rewritten in full.  Re-record only when
the library's results are meant to change, and say why in the change that
commits the new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record_one(jid: str) -> dict:
    rundir = run.OUT / "record"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        job = run.run_batch([jid], False, rundir, "batch", run.CHILD_TIMEOUT_S)["jobs"][0]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if run.job_failed(job):
        print(f"{jid}: FAILED exit={job['exit']} error={job['error']}", file=sys.stderr)
    return {"exit": job["exit"], "summary": job.get("summary")}


def main() -> int:
    expected = {}
    for w in workloads.WORKLOADS:
        for jid in workloads.all_job_ids(w):
            expected[jid] = record_one(jid)
            print(jid, json.dumps(expected[jid]["summary"]), flush=True)
    run.EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
