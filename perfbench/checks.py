"""Output correctness: structural values of a report, compared with the record.

Exact values (counts, verdicts, dyadic Fractions as numerator/denominator
strings, exit codes) must match exactly.  Floats are compared at the
relative agreement tolerance pinned in tests/test_acceptance.py (1e-9),
never as bytes: reports are not byte-stable across run order.
"""

from __future__ import annotations

import math

FLOAT_REL_TOL = 1e-9


def _fraction(obj: dict) -> list[str]:
    return [obj["numerator"], obj["denominator"]]


def summarize(subcommand: str, report: dict) -> dict:
    """The structural values of one report.json that the benchmark checks."""
    out: dict = {"passed": report.get("passed")}
    if "result" not in report:
        out["error"] = report.get("error") or report.get("certification_error")
        return out
    r = report["result"]
    if subcommand in ("factor-linear", "factor-translate", "shuffle"):
        out["T"] = r["T"]
        if "internal_alpha" in r:
            out["internal_alpha"] = r["internal_alpha"]
    elif subcommand == "corona":
        out["counts"] = r["counts"]
        out["carleson_bad"] = _fraction(r["carleson"]["bad"])
        out["carleson_tops"] = _fraction(r["carleson"]["tops"])
        out["invariant_issues"] = len(r["invariant_issues"])
    elif subcommand == "multilevel":
        out["levels"] = len(r["levels"])
        out["good_measure"] = _fraction(r["good_measure"])
        out["carleson"] = _fraction(r["params"]["carleson"])
        out["K"] = r["params"]["K"]
        out["N_bound"] = r["params"]["N_bound"]
    elif subcommand == "pl":
        v = r["verdicts"]
        out["n_targets"] = v["n_targets"]
        out["n_unresolved"] = v["n_unresolved"]
        out["verdicts"] = [v["lipschitz_ok"], v["injective_ok"], v["surjective_spotcheck_ok"], r["sup_ok"]]
        out["simplices"] = r["simplices"]
        out["max_simplex_constant"] = v["max_simplex_constant"]
    elif subcommand == "degree":
        out["degree"] = r.get("degree")
    return out


def work_done(subcommand: str, report: dict) -> dict:
    """Work totals one job contributes to the throughput metrics."""
    r = report.get("result", {})
    if subcommand in ("factor-linear", "factor-translate", "shuffle"):
        return {"factors": r.get("T", 0)}
    if subcommand == "corona":
        return {"cubes": r["counts"]["good"] + r["counts"]["bad"]}
    if subcommand == "multilevel":
        # good + bad always cover every dyadic cube down to the depth.
        return {"cubes": sum(2 ** (r["dim"] * level) for level in range(r["depth"] + 1))}
    if subcommand == "pl":
        return {"degree_targets": r["verdicts"]["n_targets"]}
    return {}


def _equal(want, got) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return want is got
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(want, (int, float))
            and isinstance(got, (int, float))
            and math.isclose(want, got, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
        )
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(_equal(want[k], got[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(_equal(a, b) for a, b in zip(want, got))
    return want == got


def mismatches(want: dict, got: dict) -> list[str]:
    """Keys whose values differ between the record and this run."""
    keys = sorted(set(want) | set(got))
    return [k for k in keys if k not in want or k not in got or not _equal(want[k], got[k])]
