"""Batch front-end: read a map/problem description from JSON, dispatch to the
library, and write a deterministic report.json (plus optional SVG frames).

Exit codes: 0 when every certification in the run passed, 1 on a
certification failure (the report is still written), 2 on malformed input,
including a map that cannot be evaluated where the run needs it or whose
values break the linear algebra (the report carries the error).
Reports embed the tool version, the full configuration echo, and every
tolerance used, and repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .corona import (
    build_coronization,
    carleson_constant,
    check_coronization,
    multilevel_decomposition,
)
from .degree import DegreeError, degree_winding_2d
from .factorization import (
    FactorSequence,
    check_factor_sequence,
    factor_linear_in_cube,
    factor_translation_along_path,
)
from .geometry_core import Cube, GeometryError
from .jsonio import (
    SchemaError,
    certificate_to_json,
    cube_from_json,
    map_from_json,
    map_to_json,
)
from .map_engine import CertificationError, DomainError, affine_part, sup_distance
from .pl_approx import complexity_count, freudenthal, pl_interpolate, verify_pl
from .shuffle import PlanError, check_shuffle, execute_shuffle, plan_shuffle
from .sphere import factor_scaling_sphere, factor_translation_sphere
from .svg import SvgCanvas, square_boundary

MAX_FACTOR_JSON = 2000  # above this, reports carry certificate summaries only
MAX_SVG_FRAMES = 48

TOLERANCES = {
    "agreement_rel": 1e-9,
    "support_identity": 1e-12,
    "certificate_slack": 1e-12,
    "similarity_residual": 1e-9,
    "sphere_step_slack": 1e-6,
}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator),
                "value": float(obj)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-svg-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sequence_report(fs: FactorSequence, epsilon: float) -> dict:
    check = check_factor_sequence(fs, epsilon)
    out = {
        "T": fs.T,
        "check": check,
        "max_certified": fs.max_certified(),
        "certificates_summary": {
            "count": len(fs.certificates),
            "max_L_lo": fs.max_certified(),
        },
    }
    if "alpha" in fs.meta:
        out["internal_alpha"] = fs.meta["alpha"]
    if fs.T <= MAX_FACTOR_JSON:
        from .jsonio import factor_sequence_to_json

        out["sequence"] = factor_sequence_to_json(fs)
    else:
        out["certificates"] = [certificate_to_json(c) for c in fs.certificates[:8]]
    return out


def _sequence_frames(fs: FactorSequence, outdir: Path, prefix: str) -> None:
    frame_cube = fs.support if fs.support is not None else fs.region
    stride = max(1, math.ceil(fs.T / MAX_SVG_FRAMES))
    ring = square_boundary(fs.region)
    canvas = SvgCanvas(frame_cube)
    canvas.rect(frame_cube, stroke="#999999")
    canvas.polyline(ring, closed=True)
    write_text_atomic(outdir / f"{prefix}_{0:04d}.svg", canvas.to_string())
    stops = [k for k in range(1, fs.T + 1) if k % stride == 0 or k == fs.T]
    for idx, (k, current) in enumerate(zip(stops, fs.factors.walk(ring, stops)), start=1):
        canvas = SvgCanvas(frame_cube)
        canvas.rect(frame_cube, stroke="#999999")
        canvas.polyline(current, closed=True)
        canvas.text(frame_cube.lo() + 0.02 * frame_cube.side, f"prefix {k}/{fs.T}")
        write_text_atomic(outdir / f"{prefix}_{idx:04d}.svg", canvas.to_string())


def _load_input(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read input JSON: {e}") from e


def cmd_factor_linear(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    aff = affine_part(m, 2 if "cube" not in payload else cube_from_json(payload["cube"]).dim)
    if aff is None:
        raise SchemaError("factor-linear expects an affine map")
    cube = cube_from_json(payload["cube"]) if "cube" in payload else Cube((0.0,) * aff.dim, 2.0)
    c_support = float(payload.get("C", 2.0))
    fs = factor_linear_in_cube(aff, cube, c_support, args.epsilon)
    rep = _sequence_report(fs, args.epsilon)
    ok = rep["check"]["agreement_ok"] and rep["check"].get("support_ok", True) and rep["check"]["certificates_ok"]
    if args.svg and cube.dim == 2:
        _sequence_frames(fs, Path(args.out), "factor_linear")
    return rep, ok


def cmd_factor_translate(payload: dict, args) -> tuple[dict, bool]:
    cube = cube_from_json(payload["cube"])
    path = np.asarray(payload["path"], dtype=float)
    fs = factor_translation_along_path(cube, path, args.epsilon)
    rep = _sequence_report(fs, args.epsilon)
    ok = rep["check"]["agreement_ok"] and rep["check"]["certificates_ok"]
    if args.svg and cube.dim == 2:
        _sequence_frames(fs, Path(args.out), "factor_translate")
    return rep, ok


def cmd_shuffle(payload: dict, args) -> tuple[dict, bool]:
    psi = map_from_json(payload["omega"]["psi"])
    side = float(payload["omega"]["base_side"])
    pairs = [(cube_from_json(p["r"]), cube_from_json(p["s"])) for p in payload["pairs"]]
    plan = plan_shuffle((psi, side), pairs, float(payload.get("mu", 1.5)), float(payload.get("C1", 8.0)))
    result = execute_shuffle(plan, args.epsilon)
    check = check_shuffle(result)
    rep = {
        "T": result.T,
        "stage_offsets": result.stage_offsets,
        "constants": {
            "L": plan.l_bound,
            "c1": plan.c1_const,
            "c2": plan.c2_const,
            "clearance": plan.clearance,
        },
        "count_ceiling": result.count_ceiling,
        "max_certified": result.max_certified(),
        "check": check,
    }
    ok = (
        check["similarity_ok"]
        and check["outside_ok"]
        and check["disjoint_ok"]
        and result.max_certified() <= 1.0 + args.epsilon + TOLERANCES["certificate_slack"]
    )
    if args.svg:
        _shuffle_frames(result, Path(args.out))
    return rep, ok


def _shuffle_frames(result, outdir: Path) -> None:
    plan = result.plan
    lo = plan.boundary.min(axis=0)
    hi = plan.boundary.max(axis=0)
    frame = Cube(tuple((lo + hi) / 2.0), float(np.max(hi - lo)))
    rings = [square_boundary(r, 16) for r, _ in plan.pairs]
    sizes = [r.shape[0] for r in rings]
    merged = np.vstack(rings) if rings else np.empty((0, 2))
    bounds = result.stage_offsets + [result.T]

    def emit(idx: int, pts: np.ndarray):
        canvas = SvgCanvas(frame)
        canvas.polyline(plan.boundary, stroke="#999999")
        off = 0
        for j, n in enumerate(sizes):
            canvas.polyline(pts[off : off + n], closed=True, stroke="#1f77b4")
            canvas.rect(plan.pairs[j][1], stroke="#2ca02c")
            off += n
        canvas.text(frame.lo() + 0.02 * frame.side, f"stage {idx}")
        write_text_atomic(outdir / f"shuffle_stage_{idx}.svg", canvas.to_string())

    emit(0, merged)
    for s, cur in enumerate(result.walk(merged, bounds[1:]), start=1):
        emit(s, cur)


def cmd_corona(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    depth = int(payload.get("depth", 5))
    dim = int(payload.get("dim", 2))
    force = bool(payload.get("force_top_bad", False))
    c = build_coronization(m, dim, depth, eta=args.eta, theta=args.theta, h=args.h,
                           force_top_bad=force)
    issues = check_coronization(c)
    c_bad, c_tops = carleson_constant(c)
    by_level: dict[int, dict] = {}
    for q in sorted(c.good | c.bad, key=lambda q: (q.level, q.coords)):
        lv = by_level.setdefault(q.level, {"good": [], "bad": []})
        lv["good" if q in c.good else "bad"].append(list(q.coords))
    rep = {
        "depth": depth,
        "dim": dim,
        "params": c.params,
        "counts": {"good": len(c.good), "bad": len(c.bad), "regions": len(c.regions)},
        "carleson": {"bad": c_bad, "tops": c_tops},
        "invariant_issues": issues,
        "levels": {str(k): v for k, v in by_level.items()},
        "regions": [
            {
                "top": {"level": s.top.level, "coords": list(s.top.coords)},
                "members": len(s.members),
                "fit": {"matrix": s.fit.matrix.tolist(), "b": s.fit.shift.tolist()},
                "residual": s.residual,
            }
            for s in c.regions
        ],
    }
    return rep, not issues


def cmd_multilevel(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    depth = int(payload.get("depth", 5))
    dim = int(payload.get("dim", 2))
    c = build_coronization(m, dim, depth, eta=args.eta, theta=args.theta, h=args.h,
                           force_top_bad=True)
    ml = multilevel_decomposition(c, args.alpha)
    rep = {
        "depth": depth,
        "dim": dim,
        "params": {
            "alpha": args.alpha,
            "K": ml.k_param,
            "N_bound": ml.n_bound,
            "zeta_log2": ml.zeta_log2,
            "lambda": ml.lam,
            "carleson": ml.carleson,
        },
        "levels": [
            {
                "R": [[r.level, list(r.coords)] for r in lv.r_cubes],
                "Q": [[q.level, list(q.coords)] for q in lv.q_cubes],
                "B_volumes": [b.volume for b in lv.b_sets],
            }
            for lv in ml.levels
        ],
        "good_measure": ml.good_measure,
        "good_measure_ok": ml.good_measure >= 1 - Fraction(args.alpha).limit_denominator(10**9),
    }
    return rep, bool(rep["good_measure_ok"])


def cmd_pl(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    eta = float(payload.get("eta", args.eta))
    dim = int(payload.get("dim", 2))
    box = cube_from_json(payload["box"]) if "box" in payload else Cube((0.5,) * dim, 1.0)
    pitch = eta / (4.0 * math.sqrt(dim))
    tri = freudenthal(dim, pitch, box.dilate(1.0 + 4.0 * pitch / box.side))
    pl = pl_interpolate(m, tri)
    verdicts = verify_pl(pl, args.epsilon)
    sup_err = sup_distance(pl.as_map(), m, box, pitch / 2.0)
    rep = {
        "eta": eta,
        "pitch": pitch,
        "simplices": tri.n_simplices,
        "complexity_unit_box": complexity_count(pl, box),
        "sup_error": sup_err,
        "sup_ok": sup_err <= eta,
        "verdicts": {
            "lipschitz_ok": verdicts.lipschitz_ok,
            "injective_ok": verdicts.injective_ok,
            "surjective_spotcheck_ok": verdicts.surjective_spotcheck_ok,
            "n_targets": verdicts.n_targets,
            "n_unresolved": verdicts.n_unresolved,
            "max_simplex_constant": verdicts.max_simplex_constant,
        },
    }
    ok = bool(
        rep["sup_ok"]
        and verdicts.lipschitz_ok
        and verdicts.injective_ok
        and verdicts.surjective_spotcheck_ok
    )
    if args.svg and dim == 2:
        _pl_frame(pl, box, Path(args.out))
    return rep, ok


def _pl_frame(pl, box: Cube, outdir: Path) -> None:
    from .pl_approx import _image_simplices_all

    sims = _image_simplices_all(pl)
    lo = sims.reshape(-1, 2).min(axis=0)
    hi = sims.reshape(-1, 2).max(axis=0)
    frame = Cube(tuple((lo + hi) / 2.0), float(np.max(hi - lo)))
    canvas = SvgCanvas(frame)
    for i in range(sims.shape[0]):
        color = "#1f77b4" if pl.orientations[i] > 0 else "#d62728"
        canvas.polyline(sims[i], closed=True, stroke=color, width=0.4)
    write_text_atomic(outdir / "pl_image.svg", canvas.to_string())


def cmd_sphere_factor(payload: dict, args) -> tuple[dict, bool]:
    kind = payload.get("kind")
    if kind == "translation":
        report = factor_translation_sphere(np.asarray(payload["v"], dtype=float), args.epsilon)
    elif kind == "scaling":
        report = factor_scaling_sphere(float(payload["a"]), args.epsilon)
    else:
        raise SchemaError("sphere-factor kind must be 'translation' or 'scaling'")
    steps = report.steps
    rep = {
        "kind": kind,
        "count": report.count,
        "per_step": {
            "analytic_bound": steps[0].analytic_bound if steps else 1.0,
            "sampled": steps[0].sampled if steps else 1.0,
            "map": map_to_json(steps[0].map) if steps else None,
        },
    }
    ok = all(
        s.analytic_bound <= 1.0 + args.epsilon + 1e-12
        and s.sampled <= 1.0 + args.epsilon + TOLERANCES["sphere_step_slack"]
        for s in steps
    )
    return rep, ok


def cmd_degree(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    target = np.asarray(payload["target"], dtype=float)
    cube = cube_from_json(payload["cube"])
    ring = cube.vertices()[[0, 1, 3, 2, 0]]
    try:
        deg = degree_winding_2d(m, target, ring)
    except DegreeError as e:
        return {"error": str(e)}, False
    return {"degree": deg, "method": "winding-2d"}, True


COMMANDS = {
    "factor-linear": cmd_factor_linear,
    "factor-translate": cmd_factor_translate,
    "shuffle": cmd_shuffle,
    "corona": cmd_corona,
    "multilevel": cmd_multilevel,
    "pl": cmd_pl,
    "sphere-factor": cmd_sphere_factor,
    "degree": cmd_degree,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bilipfactor",
        description="Certified factorization and decomposition of bi-Lipschitz maps",
    )
    p.add_argument("subcommand", choices=sorted(COMMANDS))
    p.add_argument("--input", required=True, help="input problem JSON")
    p.add_argument("--out", default=".", help="output directory for report.json and SVG")
    p.add_argument("--h", type=float, default=1.0 / 256.0, help="sampling resolution")
    p.add_argument("--epsilon", type=float, default=0.25, help="distortion budget per factor")
    p.add_argument("--eta", type=float, default=0.1, help="approximation error budget")
    p.add_argument("--theta", type=float, default=0.05, help="corona fit tolerance")
    p.add_argument("--alpha", type=float, default=0.5, help="allowed bad-measure fraction")
    p.add_argument("--svg", action="store_true", help="emit SVG diagnostics")
    p.add_argument("--seed", type=int, default=0, help="seed for optional randomized pair augmentation")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in (("h", args.h), ("epsilon", args.epsilon), ("eta", args.eta),
                        ("theta", args.theta), ("alpha", args.alpha)):
        if not value > 0:
            print(f"error: --{name} must be positive", file=sys.stderr)
            return 2
    outdir = Path(args.out)
    report_path = outdir / "report.json"
    config = {
        "subcommand": args.subcommand,
        "input": os.path.basename(args.input),
        "h": args.h,
        "epsilon": args.epsilon,
        "eta": args.eta,
        "theta": args.theta,
        "alpha": args.alpha,
        "svg": bool(args.svg),
        "seed": args.seed,
    }
    try:
        payload = _load_input(args.input)
        body, ok = COMMANDS[args.subcommand](payload, args)
    except (SchemaError, KeyError, GeometryError, PlanError, DomainError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        write_json_atomic(
            report_path,
            {"tool": "bilipfactor", "version": __version__, "config": config,
             "tolerances": TOLERANCES, "error": str(e), "passed": False},
        )
        return 2
    except (CertificationError, DegreeError) as e:
        write_json_atomic(
            report_path,
            {"tool": "bilipfactor", "version": __version__, "config": config,
             "tolerances": TOLERANCES, "certification_error": str(e), "passed": False},
        )
        return 1
    report = {
        "tool": "bilipfactor",
        "version": __version__,
        "config": config,
        "tolerances": TOLERANCES,
        "passed": bool(ok),
        "result": body,
    }
    write_json_atomic(report_path, report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
