"""Batch front-end: read a map/problem description from JSON, dispatch to the
library, and write a deterministic report.json (plus optional SVG frames).

Every run writes one report.json, failures included.  Exit codes: 0 when
every certification in the run passed, 1 on a certification failure (the
report carries a "certification_error" when the run stopped early), 2 on
malformed input (the report carries an "error"): a non-positive or
non-finite flag value, unreadable or ill-typed JSON (every numeric leaf must
be a JSON number; an integer beyond the float range reads as +-inf), input
nested too deep to read or evaluate, a run out of memory, a map that cannot
be evaluated where the run needs it or whose values break the linear
algebra, and geometry the command cannot use.  Reports embed the tool
version, the configuration echo (every flag but --out), and every
tolerance used, and repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
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
from .geometry_core import TOLERANCES, Cube, check_points
from .jsonio import (
    Rows,
    SchemaError,
    boolean,
    certificates_to_json,
    cube_from_json,
    factor_sequence_to_json,
    integer,
    map_from_json,
    map_to_json,
    number,
    numbers,
    positive,
)
from .map_engine import CertificationError, affine_part, map_dim, sup_distance
from .pl_approx import complexity_count, freudenthal, pl_interpolate, verify_pl
from .shuffle import check_shuffle, execute_shuffle, plan_shuffle
from .sphere import factor_scaling_sphere, factor_translation_sphere
from .svg import SvgCanvas, square_boundary

MAX_FACTOR_JSON = 2000  # above this, reports carry certificate summaries only
MAX_SVG_FRAMES = 48


def _json_default(obj):
    """Fractions, NumPy numbers, bools and arrays as JSON values; anything else
    _encode cannot write itself as its str()."""
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator),
                "value": float(obj)}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


_encode_str = json.encoder.encode_basestring_ascii
# A non-finite float is written as its str in a JSON string, so every report is strict JSON.
_FLOAT_TOKENS = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _encode_float(o: float) -> str:
    r = float.__repr__(o)
    return _FLOAT_TOKENS.get(r, r)


def _encode(o, ind: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True, default=_json_default)
    writes it at indentation ind, in one pass: json skips its C encoder
    whenever indent is set."""
    out = []
    _put(o, ind, out)
    return "".join(out)


def _put(o, ind: str, out: list[str]) -> None:
    """Append the pieces of _encode(o, ind) to out.  A container's children
    go into the same list, so a report is one list of pieces, joined or
    written once, and no text is copied per nesting level.  Exact types
    first, then json's isinstance order; a key that is not a str raises
    TypeError."""
    t = type(o)
    if t is float:
        out.append(_encode_float(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is str:
        out.append(_encode_str(o))
    elif t is dict:
        _put_dict(o, ind, out)
    elif t is list or t is tuple:
        _put_list(o, ind, out)
    elif t is Rows:
        out.append(_encode_rows(o, ind))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, str):
        out.append(_encode_str(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_encode_float(o))
    elif isinstance(o, (list, tuple)):
        _put_list(o, ind, out)
    elif isinstance(o, dict):
        _put_dict(o, ind, out)
    else:
        _put(_json_default(o), ind, out)


def _put_dict(o: dict, ind: str, out: list[str]) -> None:
    if not o:
        out.append("{}")
        return
    inner = ind + "  "
    sep = "{\n" + inner
    for k, v in sorted(o.items()):
        out.append(sep + _encode_str(k) + ": ")
        _put(v, inner, out)
        sep = ",\n" + inner
    out.append("\n" + ind + "}")


def _put_list(o, ind: str, out: list[str]) -> None:
    if not o:
        out.append("[]")
        return
    inner = ind + "  "
    sep = "[\n" + inner
    for v in o:
        out.append(sep)
        _put(v, inner, out)
        sep = ",\n" + inner
    out.append("\n" + ind + "]")


_SLOT = re.compile(r'"%(\d+)"')


def _encode_rows(o: Rows, ind: str) -> str:
    """The list o stands for, as _encode writes it: the row template is
    encoded once, each "%j" in it becomes column j's conversion, and each
    row is one % format."""
    inner = ind + "  "
    blocks = []
    template = _encode(_row_template(o.record, blocks), inner)
    lengths = {len(b) for b in blocks}
    if len(lengths) > 1:
        raise ValueError(f"rows of arrays of {sorted(lengths)} rows")
    n = lengths.pop() if lengths else 0
    if not n:
        return "[]"
    columns = [col for b in blocks for col in b.T]
    cols = []

    def slot(m) -> str:
        vals, spec = _column(columns[int(m.group(1))])
        cols.append(vals)
        return spec

    template = _SLOT.sub(slot, template)
    rows = [template % row for row in zip(*cols)] if cols else [template % ()] * n
    return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + ind + "]"


def _row_template(o, blocks: list[np.ndarray]):
    """A rows record with % doubled in its keys and strs and each array
    leaf a replaced by the "%j" names of its columns, a reshaped to
    (rows, columns) and appended to blocks."""
    t = type(o)
    if t is str:
        return o.replace("%", "%%")
    if t is dict:
        return {str.replace(k, "%", "%%"): _row_template(v, blocks) for k, v in o.items()}
    if t is list or t is tuple:
        return [_row_template(v, blocks) for v in o]
    if t is not np.ndarray:
        return o
    j, k = sum(b.shape[1] for b in blocks), math.prod(o.shape[1:])
    blocks.append(o.reshape(len(o), k))
    return np.array([f"%{i}" for i in range(j, j + k)], dtype=object).reshape(o.shape[1:]).tolist()


def _column(col: np.ndarray) -> tuple[list, str]:
    """A rows column of floats, ints or strs (one type) and its conversion:
    %r writes ints and finite floats as int.__repr__ and float.__repr__ do;
    strs, and floats where one is not finite, are written as tokens.  A float
    column with at most half as many runs of equal bits as values is written
    as tokens converted once per run."""
    if col.dtype == np.float64:
        bits = col.view(np.int64)
        heads = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if 2 * (heads.size + 1) <= col.size:
            starts = np.concatenate(([0], heads))
            tokens = np.array([_encode_float(v) for v in col[starts].tolist()], dtype=object)
            return np.repeat(tokens, np.diff(starts, append=col.size)).tolist(), "%s"
    vals = col.tolist()
    kinds = set(map(type, vals))
    if kinds == {int} or kinds == {float} and all(map(math.isfinite, vals)):
        return vals, "%r"
    if kinds == {float}:
        return [_encode_float(v) for v in vals], "%s"
    if kinds == {str}:
        return list(map(_encode_str, vals)), "%s"
    raise TypeError(f"a rows column holds {sorted(k.__name__ for k in kinds)}, not one of float, int, str")


def write_json_atomic(path: Path, payload: dict) -> None:
    pieces = []
    _put(payload, "", pieces)
    pieces.append("\n")
    _write_atomic(path, pieces)


def _write_atomic(path: Path, pieces: list[str]) -> None:
    """Write the pieces to path through a temporary file in its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sequence_report(fs: FactorSequence, epsilon: float) -> tuple[dict, bool]:
    """The report of a factor sequence, and whether agreement, support and bounds all pass."""
    check = check_factor_sequence(fs, epsilon)
    out = {
        "T": fs.T,
        "check": check,
        "max_certified": fs.max_certified(),
        "certificates_summary": {
            "count": fs.T,
            "max_L_lo": fs.max_certified(),
        },
    }
    if "alpha" in fs.meta:
        out["internal_alpha"] = fs.meta["alpha"]
    if fs.T <= MAX_FACTOR_JSON:
        out["sequence"] = factor_sequence_to_json(fs)
    else:
        out["certificates"] = certificates_to_json(fs.factors[:8], fs.L_lo[:8])
    return out, check["agreement_ok"] and check["support_ok"] and check["certificates_ok"]


def _sequence_frames(fs: FactorSequence, outdir: Path, prefix: str) -> None:
    frame_cube = fs.support
    stride = max(1, math.ceil(fs.T / MAX_SVG_FRAMES))
    ring = square_boundary(fs.region)
    canvas = SvgCanvas(frame_cube)
    canvas.rect(frame_cube, stroke="#999999")
    canvas.polyline(ring, closed=True)
    _write_atomic(outdir / f"{prefix}_{0:04d}.svg", [canvas.to_string()])
    stops = [k for k in range(1, fs.T + 1) if k % stride == 0 or k == fs.T]
    for idx, (k, current) in enumerate(zip(stops, fs.factors.walk(ring, stops)), start=1):
        canvas = SvgCanvas(frame_cube)
        canvas.rect(frame_cube, stroke="#999999")
        canvas.polyline(current, closed=True)
        canvas.text(frame_cube.lo() + 0.02 * frame_cube.side, f"prefix {k}/{fs.T}")
        _write_atomic(outdir / f"{prefix}_{idx:04d}.svg", [canvas.to_string()])


def _load_input(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read input JSON: {e}") from e


def _check_dim(m, dim: int, where: str) -> None:
    """Refuse, before any sampling, a map that does not send dim-D points to
    dim-D points."""
    d = map_dim(m)
    if d is not None and d != dim:
        raise SchemaError(f"map and {where} dimensions differ: {d}-D map, {dim}-D {where}")


def cmd_factor_linear(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    cube = cube_from_json(payload["cube"]) if "cube" in payload else None
    aff = affine_part(m, 2 if cube is None else cube.dim)
    if aff is None:
        raise SchemaError("factor-linear expects an affine map")
    cube = Cube((0.0,) * aff.dim, 2.0) if cube is None else cube
    c_support = positive(payload.get("C", 2.0), "C")
    fs = factor_linear_in_cube(aff, cube, c_support, args.epsilon)
    rep, ok = _sequence_report(fs, args.epsilon)
    if args.svg and cube.dim == 2:
        _sequence_frames(fs, Path(args.out), "factor_linear")
    return rep, ok


def cmd_factor_translate(payload: dict, args) -> tuple[dict, bool]:
    cube = cube_from_json(payload["cube"])
    path = numbers(payload["path"], "path")
    fs = factor_translation_along_path(cube, path, args.epsilon)
    rep, ok = _sequence_report(fs, args.epsilon)
    if args.svg and cube.dim == 2:
        _sequence_frames(fs, Path(args.out), "factor_translate")
    return rep, ok


def cmd_shuffle(payload: dict, args) -> tuple[dict, bool]:
    psi = map_from_json(payload["omega"]["psi"])
    _check_dim(psi, 2, "base square")
    side = positive(payload["omega"]["base_side"], "base_side")
    pairs = [(cube_from_json(p["r"]), cube_from_json(p["s"])) for p in payload["pairs"]]
    mu, c1 = number(payload.get("mu", 1.5), "mu"), number(payload.get("C1", 8.0), "C1")
    plan = plan_shuffle((psi, side), pairs, mu, c1)
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
    merged = np.vstack(rings)
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
        _write_atomic(outdir / f"shuffle_stage_{idx}.svg", [canvas.to_string()])

    emit(0, merged)
    for s, cur in enumerate(result.walk(merged, bounds[1:]), start=1):
        emit(s, cur)


def cmd_corona(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    depth = integer(payload.get("depth", 5), "depth")
    dim = integer(payload.get("dim", 2), "dim")
    _check_dim(m, dim, "unit cube")
    force = boolean(payload.get("force_top_bad", False), "force_top_bad")
    c = build_coronization(m, dim, depth, theta=args.theta, h=args.h, force_top_bad=force)
    issues = check_coronization(c)
    c_bad, c_tops = carleson_constant(c)
    labels = np.concatenate([lab.ravel() for lab in c.labels])
    members = np.bincount(labels[labels >= 0], minlength=len(c.tops))
    rep = {
        "depth": depth,
        "dim": dim,
        "params": c.params,
        "counts": {"good": int(members.sum()), "bad": int(np.count_nonzero(labels == -1)),
                   "regions": len(c.tops)},
        "carleson": {"bad": c_bad, "tops": c_tops},
        "invariant_issues": issues,
        "levels": {str(level): {"good": Rows(np.argwhere(lab >= 0)), "bad": Rows(np.argwhere(lab == -1))}
                   for level, lab in enumerate(c.labels)},
        "regions": Rows({
            "top": {"level": c.tops[:, 0], "coords": c.tops[:, 1:]},
            "members": members,
            "fit": {"matrix": c.lin.transpose(0, 2, 1), "b": c.shift},
            "residual": c.residual,
        }),
    }
    return rep, not issues


def cmd_multilevel(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    depth = integer(payload.get("depth", 5), "depth")
    dim = integer(payload.get("dim", 2), "dim")
    _check_dim(m, dim, "unit cube")
    c = build_coronization(m, dim, depth, theta=args.theta, h=args.h, force_top_bad=True)
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
                "R": Rows([lv.r_rows[:, 0], lv.r_rows[:, 1:]]),
                "Q": Rows([lv.q_rows[:, 0], lv.q_rows[:, 1:]]),
                "B_volumes": lv.b_volumes,
            }
            for lv in ml.levels
        ],
        "good_measure": ml.good_measure,
        "good_measure_ok": ml.good_measure >= 1 - ml.alpha,
    }
    return rep, bool(rep["good_measure_ok"])


def cmd_pl(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    eta = positive(payload.get("eta", args.eta), "eta")
    dim = integer(payload.get("dim", 2), "dim")
    _check_dim(m, dim, "box")
    box = cube_from_json(payload["box"]) if "box" in payload else Cube((0.5,) * dim, 1.0)
    if box.dim != dim:
        raise SchemaError(f"box and dim differ: {box.dim}-D box, dim {dim}")
    pitch = eta / (4.0 * math.sqrt(dim))
    # verify_pl's sweep, the largest point set, has at most 3 side / pitch + 4 targets per axis.
    check_points(math.prod([12.0 * math.sqrt(dim) * box.side / eta + 4.0] * dim), f"eta {eta}", "sweep targets")
    tri = freudenthal(pitch, box.dilate(1.0 + 4.0 * pitch / box.side))
    pl = pl_interpolate(m, tri)
    verdicts = verify_pl(pl, args.epsilon)
    sup_err = sup_distance(pl, m, box, pitch / 2.0)
    rep = {
        "eta": eta,
        "pitch": pitch,
        "simplices": tri.n_simplices,
        "complexity_unit_box": complexity_count(tri, box),
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
    sims, signs = pl.simplices, pl.orientations
    lo = sims.reshape(-1, 2).min(axis=0)
    hi = sims.reshape(-1, 2).max(axis=0)
    frame = Cube(tuple((lo + hi) / 2.0), float(np.max(hi - lo)))
    canvas = SvgCanvas(frame)
    for i in range(sims.shape[0]):
        color = "#1f77b4" if signs[i] > 0 else "#d62728"
        canvas.polyline(sims[i], closed=True, stroke=color, width=0.4)
    _write_atomic(outdir / "pl_image.svg", [canvas.to_string()])


def cmd_sphere_factor(payload: dict, args) -> tuple[dict, bool]:
    kind = payload.get("kind")
    if kind == "translation":
        report = factor_translation_sphere(numbers(payload["v"], "v"), args.epsilon)
    elif kind == "scaling":
        report = factor_scaling_sphere(number(payload["a"], "a"), args.epsilon)
    else:
        raise SchemaError("sphere-factor kind must be 'translation' or 'scaling'")
    step = report.step
    rep = {
        "kind": kind,
        "count": report.count,
        "per_step": {
            "analytic_bound": step.analytic_bound if step else 1.0,
            "sampled": step.sampled if step else 1.0,
            "map": map_to_json(step.map) if step else None,
        },
    }
    ok = step is None or (
        step.analytic_bound <= 1.0 + args.epsilon + TOLERANCES["certificate_slack"]
        and step.sampled <= 1.0 + args.epsilon + TOLERANCES["sphere_step_slack"]
    )
    return rep, ok


def cmd_degree(payload: dict, args) -> tuple[dict, bool]:
    m = map_from_json(payload["map"])
    target = numbers(payload["target"], "target")
    cube = cube_from_json(payload["cube"])
    if target.shape != (2,) or cube.dim != 2:
        raise SchemaError("winding degree is planar only: target and cube must be 2-D")
    if not np.all(np.isfinite(target)):
        raise SchemaError(f"target must be finite, got {target.tolist()}")
    _check_dim(m, 2, "cube")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later main calls."""
    p = argparse.ArgumentParser(
        prog="bilipfactor",
        description="Certified factorization and decomposition of bi-Lipschitz maps",
    )
    p.add_argument("subcommand", choices=sorted(COMMANDS))
    p.add_argument("--input", required=True, help="input problem JSON")
    p.add_argument("--out", default=".", help="output directory for report.json and SVG")
    p.add_argument("--h", type=float, default=1.0 / 256.0, help="sampling resolution (corona, multilevel)")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="distortion budget per factor (factor-*, shuffle, sphere-factor, pl)")
    p.add_argument("--eta", type=float, default=0.1, help="approximation error budget (pl)")
    p.add_argument("--theta", type=float, default=0.05, help="corona fit tolerance (corona, multilevel)")
    p.add_argument("--alpha", type=float, default=0.5, help="allowed bad-measure fraction (multilevel)")
    p.add_argument("--svg", action="store_true", help="emit SVG diagnostics")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k != "out"}
    config["input"] = os.path.basename(args.input)
    envelope = {"tool": "bilipfactor", "version": __version__, "config": config, "tolerances": TOLERANCES}
    report_path = Path(args.out) / "report.json"
    try:
        for name in ("h", "epsilon", "eta", "theta", "alpha"):
            if not math.isfinite(getattr(args, name)):
                raise ValueError(f"--{name} must be finite")
            if not getattr(args, name) > 0:
                raise ValueError(f"--{name} must be positive")
        payload = _load_input(args.input)
        body, ok = COMMANDS[args.subcommand](payload, args)
    except (ValueError, KeyError, TypeError, RecursionError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        # A MemoryError raised outside NumPy has no message.
        write_json_atomic(report_path, {**envelope, "error": str(e) or repr(e), "passed": False})
        return 2
    except CertificationError as e:
        write_json_atomic(report_path, {**envelope, "certification_error": str(e), "passed": False})
        return 1
    write_json_atomic(report_path, {**envelope, "passed": bool(ok), "result": body})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
