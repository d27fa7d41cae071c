"""JSON encoding/decoding of map expressions, cubes, and factor sequences,
and the readers every numeric input leaf goes through."""

from __future__ import annotations

import math

import numpy as np

from .factorization import cert_pitch, sweep_method
from .geometry_core import AffineMapData, Cube
from .map_engine import (
    Affine,
    Blend,
    BlendRun,
    Compose,
    Grid,
    Identity,
    LogSpiral,
    MapExpr,
    Scaling,
    Translation,
)


class SchemaError(ValueError):
    pass


def number(v, what: str) -> float:
    """v as a float: a JSON number, not a bool; an integer beyond the float range reads as +-inf."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def numbers(v, what: str) -> np.ndarray:
    """v, a JSON number or nested lists of them, as a float array; each leaf is read by number."""
    def leaves(e):
        return [leaves(x) for x in e] if isinstance(e, list) else number(e, what)
    return np.array(leaves(v), dtype=float)


def positive(v, what: str) -> float:
    """number(v, what), refused unless finite and positive."""
    v = number(v, what)
    if not 0.0 < v < math.inf:  # NaN fails too
        raise SchemaError(f"{what} must be finite and positive, got {v!r}")
    return v


def integer(v, what: str) -> int:
    """v as an int: a JSON integer or an integral float, not a bool."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    return int(v)


def boolean(v, what: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(f"{what} must be true or false, got {v!r}")
    return v


class Rows:
    """A JSON list of records of one shape, held as columns.

    record is one row's shape: dicts, lists and fixed leaves, plus arrays
    whose first axis runs over the rows, so that row i holds a[i] (as
    .tolist() gives it) wherever the record holds an array a.  Each array
    holds floats, ints or strs, one type per array; a record without arrays
    stands for no rows.  The report encoder (cli.write_json_atomic) writes
    the list with one % format per row."""

    __slots__ = ("record",)

    def __init__(self, record):
        self.record = record


def cube_to_json(c: Cube) -> dict:
    return {"center": list(c.center), "side": c.side}


def cube_from_json(obj) -> Cube:
    try:
        return Cube(tuple(number(v, "cube center") for v in obj["center"]), number(obj["side"], "cube side"))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad cube object: {e}") from e


def map_to_json(m: MapExpr) -> dict:
    if isinstance(m, Identity):
        return {"type": "identity"}
    if isinstance(m, Translation):
        return {"type": "translation", "v": list(m.v)}
    if isinstance(m, Scaling):
        return {"type": "scaling", "a": m.a}
    if isinstance(m, Affine):
        return {
            "type": "affine",
            "matrix": m.map.matrix.tolist(),
            "b": m.map.shift.tolist(),
        }
    if isinstance(m, LogSpiral):
        return {"type": "logspiral", "k": m.k}
    if isinstance(m, Grid):
        return {
            "type": "grid",
            "origin": m.origin.tolist(),
            "pitch": m.pitch,
            "extents": list(m.extents),
            "values": m.values.reshape(-1, m.origin.shape[0]).tolist(),
        }
    if isinstance(m, Blend):
        return {
            "type": "blend",
            "inner": map_to_json(m.inner),
            "cube": cube_to_json(m.cube),
            "lambda": m.lam,
        }
    if isinstance(m, Compose):
        return {"type": "compose", "maps": [map_to_json(f) for f in m.maps]}
    raise SchemaError(f"map expression {type(m).__name__} has no JSON form")


def map_from_json(obj) -> MapExpr:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("map object must carry a 'type' field")
    t = obj["type"]
    try:
        if t == "identity":
            return Identity()
        if t == "translation":
            return Translation(tuple(number(v, "translation v") for v in obj["v"]))
        if t == "scaling":
            return Scaling(number(obj["a"], "scaling a"))
        if t == "affine":
            return Affine(AffineMapData(numbers(obj["matrix"], "affine matrix"),
                                        numbers(obj["b"], "affine b")))
        if t == "logspiral":
            return LogSpiral(number(obj["k"], "logspiral k"))
        if t == "grid":
            origin = numbers(obj["origin"], "grid origin")
            extents = tuple(integer(e, "grid extents") for e in obj["extents"])
            values = numbers(obj["values"], "grid values").reshape(extents + (origin.shape[0],))
            return Grid(origin, number(obj["pitch"], "grid pitch"), extents, values)
        if t == "blend":
            return Blend(
                map_from_json(obj["inner"]), cube_from_json(obj["cube"]), number(obj["lambda"], "blend lambda")
            )
        if t == "compose":
            maps = tuple(map_from_json(o) for o in obj["maps"])
            return Compose(maps)
    except SchemaError:
        raise
    except (LookupError, TypeError, ValueError) as e:  # IndexError: a grid origin with no axis
        raise SchemaError(f"bad '{t}' map object: {e}") from e
    raise SchemaError(f"unknown map type {t!r}")


def factor_sequence_to_json(fs) -> dict:
    return {
        "target": map_to_json(fs.target),
        "factors": _blend_run_to_json(fs.factors),
        "region": cube_to_json(fs.region),
        "support": cube_to_json(fs.support),
        "certificates": certificates_to_json(fs.factors, fs.L_lo),
        "T": fs.T,
    }


def _blend_run_to_json(run: BlendRun) -> Rows:
    """map_to_json of every run[i], as rows of the run's arrays."""
    if run.matrices is None:
        inner = {"type": "translation", "v": run.shifts}
    else:
        inner = {"type": "affine", "matrix": run.matrices, "b": run.shifts}
    return Rows({"type": "blend", "inner": inner, "cube": {"center": run.centers, "side": run.sides},
                 "lambda": run.lams})


def certificates_to_json(run: BlendRun, L_lo: np.ndarray) -> Rows:
    """The certificate of every run[i], with bound L_lo[i], as rows: a
    sampled-pairs sweep over its support cube at cert_pitch."""
    d = run.centers.shape[1]
    supports = run.lams * run.sides
    method, pairs = sweep_method(d)
    return Rows({
        "region": {"center": run.centers, "side": supports},
        "h": cert_pitch(supports, d),
        "L_lo": L_lo,
        "method": method,
        "pair_count": pairs,
    })
