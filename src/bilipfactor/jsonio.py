"""JSON encoding/decoding of map expressions, cubes, and factor sequences."""

from __future__ import annotations

import numpy as np

from .factorization import RunCertificates, cert_pitch, sweep_method
from .geometry_core import AffineMapData, Cube
from .map_engine import (
    Affine,
    Blend,
    BlendRun,
    Compose,
    DistortionCertificate,
    Grid,
    Identity,
    LogSpiral,
    MapExpr,
    Scaling,
    Translation,
)


class SchemaError(ValueError):
    pass


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
        return Cube(tuple(float(v) for v in obj["center"]), float(obj["side"]))
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
            return Translation(tuple(float(v) for v in obj["v"]))
        if t == "scaling":
            return Scaling(float(obj["a"]))
        if t == "affine":
            return Affine(
                AffineMapData(np.asarray(obj["matrix"], dtype=float),
                              np.asarray(obj["b"], dtype=float))
            )
        if t == "logspiral":
            return LogSpiral(float(obj["k"]))
        if t == "grid":
            origin = np.asarray(obj["origin"], dtype=float)
            extents = tuple(int(e) for e in obj["extents"])
            values = np.asarray(obj["values"], dtype=float).reshape(extents + (origin.shape[0],))
            return Grid(origin, float(obj["pitch"]), extents, values)
        if t == "blend":
            return Blend(
                map_from_json(obj["inner"]), cube_from_json(obj["cube"]), float(obj["lambda"])
            )
        if t == "compose":
            maps = tuple(map_from_json(o) for o in obj["maps"])
            return Compose(maps)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad '{t}' map object: {e}") from e
    raise SchemaError(f"unknown map type {t!r}")


def certificate_to_json(c: DistortionCertificate) -> dict:
    return {
        "region": cube_to_json(c.region),
        "h": c.h,
        "L_lo": c.L_lo,
        "method": c.method,
        "pair_count": c.pair_count,
    }


def factor_sequence_to_json(fs) -> dict:
    if isinstance(fs.factors, BlendRun) and isinstance(fs.certificates, RunCertificates):
        factors = _blend_run_to_json(fs.factors)
        certificates = _run_certificates_to_json(fs.certificates)
    else:
        factors = [map_to_json(f) for f in fs.factors]
        certificates = [certificate_to_json(c) for c in fs.certificates]
    return {
        "target": map_to_json(fs.target),
        "factors": factors,
        "region": cube_to_json(fs.region),
        "support": cube_to_json(fs.support) if fs.support is not None else None,
        "certificates": certificates,
        "T": fs.T,
    }


def _blend_run_to_json(run: BlendRun) -> Rows:
    """map_to_json of every run[i], as rows of the run's arrays."""
    if run.kind == "translation":
        inner = {"type": "translation", "v": run.shifts}
    else:
        inner = {"type": "affine", "matrix": run.matrices, "b": run.shifts}
    return Rows({"type": "blend", "inner": inner, "cube": {"center": run.centers, "side": run.sides},
                 "lambda": run.lams})


def _run_certificates_to_json(certs: RunCertificates) -> Rows:
    """certificate_to_json of every certs[i], as rows of the run's arrays
    and the bounds."""
    run = certs.run
    d = run.centers.shape[1]
    supports = run.lams * run.sides
    method, pairs = sweep_method(d)
    return Rows({
        "region": {"center": run.centers, "side": supports},
        "h": cert_pitch(supports, d),
        "L_lo": certs.L_lo,
        "method": method,
        "pair_count": pairs,
    })
