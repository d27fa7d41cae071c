"""Seeded batch workloads: which jobs a run executes and how their inputs look.

A workload is a fixed list of job *slots*.  Every slot has a pool of
POOL_SIZE candidate inputs, each drawn from its own fixed generator stream,
so every input the benchmark can ever run has recorded expected values in
expected.json.  The run seed picks one pool entry per slot; jobs run in slot
order, so the same slot always finds the certificate cache cold.  Each slot draws the parameters that set its cost (distortion,
rotation angles, path lengths, depth) from a narrow band, and the slots of a
workload spread those bands over a wider range.  That keeps the work of a
batch close to constant across seeds while every seed runs other inputs.

This module needs only NumPy: the library under test receives nothing but
the JSON payloads built here.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

POOL_SIZE = 12
EPSILON = 0.25  # the CLI default, passed explicitly so reports echo it

# Linear slots: (L, |V angle|, |U angle|) centres for 2-D, (L, angle) for
# 3-D.  T grows with L and with the rotation angles the library's SVD
# recovers, so each slot draws from a narrow band around its centre, with
# random signs, rotation axes and (well separated) lesser singular values.
_LIN2 = ((1.4, 0.3, 0.7), (1.6, 0.6, 0.6), (1.8, 0.5, 1.0), (2.0, 0.9, 1.1), (2.2, 1.2, 1.0), (2.9, 1.1, 1.3))
_LIN3 = ((1.35, 0.4), (1.5, 0.55))


def _rng(workload: str, slot: str, index: int) -> np.random.Generator:
    key = zlib.crc32(f"{workload}/{slot}".encode())
    return np.random.default_rng([key, index])


def _band(rng: np.random.Generator, lo: float, hi: float) -> float:
    return lo + rng.random() * (hi - lo)


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_3d(rng: np.random.Generator, theta: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _signed(rng: np.random.Generator, theta: float) -> float:
    theta += rng.uniform(-0.05, 0.05)
    return theta if rng.random() < 0.5 else -theta


def _cube(center, side: float) -> dict:
    return {"center": [float(c) for c in center], "side": float(side)}


def _linear_payload(mat: np.ndarray) -> dict:
    d = mat.shape[0]
    return {
        "map": {"type": "affine", "matrix": mat.tolist(), "b": [0.0] * d},
        "cube": _cube([0.0] * d, 2.0),
        "C": 2.0,
    }


def _lin2(rng: np.random.Generator, i: int) -> dict:
    l_center, phi_v, phi_u = _LIN2[i]
    l_bound = l_center * rng.uniform(0.97, 1.03)
    sigma = [l_bound, l_bound ** rng.uniform(-1.0, 0.4)]
    mat = _rotation_2d(_signed(rng, phi_u)) @ np.diag(sigma) @ _rotation_2d(_signed(rng, phi_v))
    return _linear_payload(mat)


def _lin3(rng: np.random.Generator, i: int) -> dict:
    l_center, theta = _LIN3[i]
    l_bound = l_center * rng.uniform(0.97, 1.03)
    sigma = [l_bound, l_bound ** rng.uniform(-0.3, 0.3), l_bound ** rng.uniform(-1.0, -0.6)]
    mat = _rotation_3d(rng, _signed(rng, theta)) @ np.diag(sigma) @ _rotation_3d(rng, _signed(rng, theta))
    return _linear_payload(mat)


def _polyline(rng: np.random.Generator, d: int, length: float, legs: int) -> list[list[float]]:
    """Polyline from the origin with the given total length, random turns."""
    pts = [np.zeros(d)]
    for _ in range(legs):
        step = rng.normal(size=d)
        pts.append(pts[-1] + step / np.linalg.norm(step) * (length / legs))
    return [p.tolist() for p in pts]


def _translate(rng: np.random.Generator, d: int) -> dict:
    side = _band(rng, 0.4, 0.6)
    return {"cube": _cube([0.0] * d, side), "path": _polyline(rng, d, _band(rng, 1.5, 2.5), 3)}


# --- shuffle: cube permutations inside the identity chart on [0, 4]^2 -------

_SHUFFLE_SIDE = 4.0
_SHUFFLE_MU = 1.5
_CUBE_SIDE = 0.5
# Centres keep the mu-enlarged cube strictly inside the square.
_LO = _CUBE_SIDE * _SHUFFLE_MU / 2.0 + 0.05
_HI = _SHUFFLE_SIDE - _LO


def _place(rng: np.random.Generator, offsets: np.ndarray) -> np.ndarray:
    """Rotate a centred point pattern at random and translate it into the square."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    pts = offsets @ _rotation_2d(a).T
    lo = _LO - pts.min(axis=0)
    hi = _HI - pts.max(axis=0)
    return pts + lo + rng.random(2) * (hi - lo)


def _shuffle_payload(sources: np.ndarray, targets: np.ndarray) -> dict:
    return {
        "omega": {"psi": {"type": "identity"}, "base_side": _SHUFFLE_SIDE},
        "pairs": [
            {"r": _cube(r, _CUBE_SIDE), "s": _cube(s, _CUBE_SIDE)} for r, s in zip(sources, targets)
        ],
        "mu": _SHUFFLE_MU,
        "C1": 8.0,
    }


def _move1(rng: np.random.Generator) -> dict:
    dist = _band(rng, 1.4, 1.8)
    pts = _place(rng, np.array([[-dist / 2, 0.0], [dist / 2, 0.0]]))
    return _shuffle_payload(pts[:1], pts[1:])


def _swap2(rng: np.random.Generator) -> dict:
    dist = _band(rng, 1.4, 1.8)
    pts = _place(rng, np.array([[-dist / 2, 0.0], [dist / 2, 0.0]]))
    return _shuffle_payload(pts, pts[::-1])


def _cycle3(rng: np.random.Generator) -> dict:
    radius = _band(rng, 0.9, 1.0)
    ang = np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
    pts = _place(rng, radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    return _shuffle_payload(pts, np.roll(pts, -1, axis=0))


# --- decompose: coronization, multilevel, PL and degree jobs ---------------


def _logspiral(rng: np.random.Generator) -> dict:
    return {"type": "logspiral", "k": _band(rng, 0.05, 0.06)}


def _corona(rng: np.random.Generator) -> dict:
    return {"map": _logspiral(rng), "depth": 7, "dim": 2}


def _multilevel(rng: np.random.Generator) -> dict:
    return {"map": _logspiral(rng), "depth": 6, "dim": 2}


def _pl(rng: np.random.Generator) -> dict:
    center = 1.0 + rng.uniform(-0.1, 0.1, size=2)
    return {"map": _logspiral(rng), "eta": 0.2, "dim": 2, "box": _cube(center, 1.0)}


def _degree(rng: np.random.Generator) -> dict:
    side = _band(rng, 0.4, 0.8)
    center = rng.uniform(side / 2, 1.0 - side / 2, size=2) + 0.5
    source = np.asarray(center) + rng.uniform(-0.3, 0.3, size=2) * side
    m = _logspiral(rng)
    r = math.hypot(*source)
    ang = m["k"] * math.log(r)
    c, s = math.cos(ang), math.sin(ang)
    target = [c * source[0] - s * source[1], s * source[0] + c * source[1]]
    return {"map": m, "target": target, "cube": _cube(center, side)}


# slot name -> (subcommand, extra CLI flags, payload builder)
_EPS = ["--epsilon", str(EPSILON)]
SLOTS: dict[str, dict[str, tuple]] = {
    "certify": {
        **{f"lin2.{i}": ("factor-linear", _EPS, lambda rng, i=i: _lin2(rng, i)) for i in range(len(_LIN2))},
        **{f"lin3.{i}": ("factor-linear", _EPS, lambda rng, i=i: _lin3(rng, i)) for i in range(len(_LIN3))},
        "translate2": ("factor-translate", _EPS, lambda rng: _translate(rng, 2)),
        "translate3": ("factor-translate", _EPS, lambda rng: _translate(rng, 3)),
    },
    # cycle3 runs first and fills the certificate cache the others reuse.
    "shuffle": {
        "cycle3": ("shuffle", _EPS, _cycle3),
        "swap2": ("shuffle", _EPS, _swap2),
        "move1": ("shuffle", _EPS, _move1),
    },
    "decompose": {
        "corona": ("corona", [], _corona),
        "multilevel": ("multilevel", [], _multilevel),
        "pl": ("pl", [], _pl),
        **{f"degree.{i}": ("degree", [], _degree) for i in range(2)},
    },
}

WORKLOADS = tuple(SLOTS)


def job_id(workload: str, slot: str, index: int) -> str:
    return f"{workload}/{slot}/{index:02d}"


def parse_job_id(jid: str) -> tuple[str, str, int]:
    workload, slot, index = jid.split("/")
    return workload, slot, int(index)


def all_job_ids(workload: str) -> list[str]:
    return [job_id(workload, s, i) for s in SLOTS[workload] for i in range(POOL_SIZE)]


def select_jobs(workload: str, seed: int) -> list[str]:
    """The batch a run executes: one seeded pool entry per slot, in slot order."""
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
    return [job_id(workload, s, int(rng.integers(POOL_SIZE))) for s in SLOTS[workload]]


def build_job(jid: str) -> tuple[str, list[str], dict]:
    """(subcommand, extra CLI flags, input payload) of one pool entry."""
    workload, slot, index = parse_job_id(jid)
    sub, flags, make = SLOTS[workload][slot]
    return sub, list(flags), make(_rng(workload, slot, index))
