"""Exact small-dimension linear algebra, cubes, dyadic cube coords, polylines, report tolerances.

Everything here is a plain value: matrices and vectors are small NumPy
arrays, cubes are frozen dataclasses, and every operation is a pure
function.  Dimensions are restricted to 2 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SVD_TOL = 1e-12

# The slack of each report verdict: echoed in every report, read by the checks as they run.
TOLERANCES = {
    "agreement_rel": 1e-9,
    "support_identity": 1e-12,
    "certificate_slack": 1e-12,
    "similarity_residual": 1e-9,
    "sphere_step_slack": 1e-6,
}


class GeometryError(ValueError):
    """Raised on contract violations (singular matrices, bad dimensions...)."""


MAX_STEPS = 10**6  # most equal steps a factorization along a path or a sphere may take
MAX_POINTS = 1 << 19  # most lattice points, PL sweep targets or dyadic label cells one array may hold


def step_count(num: float, den: float, what: str) -> int:
    """ceil(num / den) up to float noise, refused when not finite or above MAX_STEPS;
    a den that is not > 0 (a step size that rounded to 0) is infinitely many steps."""
    ratio = num / den if den > 0.0 else math.inf
    if not ratio - 1e-12 <= MAX_STEPS:  # inf and NaN fail too
        raise GeometryError(f"{what} needs {ratio - 1e-12:.4g} steps, more than the {MAX_STEPS} allowed")
    return math.ceil(ratio - 1e-12)


def check_points(count: float, what: str, items: str, limit: int = MAX_POINTS) -> None:
    """Refuse count items above limit before they are allocated; a float count that overflowed is inf."""
    if not count <= limit:
        raise GeometryError(f"{what} needs {count:.4g} {items}, more than the {limit} allowed")


def check_matrix(m: np.ndarray | list) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3):
        raise GeometryError(f"expected a 2x2 or 3x3 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False, slots=True)
class AffineMapData:
    """x -> matrix @ x + shift.  The carrier for factors, fits and certificates."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_matrix(self.matrix))
        s = np.asarray(self.shift, dtype=float).reshape(-1)
        if s.shape[0] != self.matrix.shape[0] or not np.all(np.isfinite(s)):
            raise GeometryError("shift must be a finite vector matching the matrix")
        object.__setattr__(self, "shift", s)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.matrix.T + self.shift

    def compose(self, other: AffineMapData) -> AffineMapData:
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return AffineMapData(self.matrix @ other.matrix, self.matrix @ other.shift + self.shift)

    def inverse(self) -> AffineMapData:
        inv = np.linalg.inv(self.matrix)
        return AffineMapData(inv, -inv @ self.shift)

    @staticmethod
    def identity(dim: int) -> AffineMapData:
        return AffineMapData(np.eye(dim), np.zeros(dim))


@dataclass(frozen=True, eq=False, slots=True)
class SVDecomposition:
    """m == u @ diag(sigma) @ v_t with orthogonal u, v_t and sigma non-increasing."""

    u: np.ndarray
    sigma: np.ndarray
    v_t: np.ndarray


def sigma_2d(e: float, f: float, g: float, h: float) -> tuple[float, float]:
    """Singular values q + r and q - r (signed as det) of [[e + f, g - h], [g + h, e - f]]."""
    q, r = math.hypot(e, h), math.hypot(f, g)  # np.hypot differs in the last bit on some inputs
    return q + r, q - r


def _svd2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Closed form for 2x2: rotate-scale-rotate angles from the symmetric /
    # antisymmetric split of the matrix.
    a, b = m[0]
    c, d = m[1]
    e = (a + d) / 2.0
    f = (a - d) / 2.0
    g = (c + b) / 2.0
    h = (c - b) / 2.0
    sx, sy = sigma_2d(e, f, g, h)
    a1 = math.atan2(g, f)
    a2 = math.atan2(h, e)
    theta = (a2 - a1) / 2.0
    phi = (a2 + a1) / 2.0
    # m == R(phi) @ diag(sx, sy) @ R(theta); sy carries the sign of det(m).
    u = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    v_t = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return u, np.array([sx, sy]), v_t


def _svd3_jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # One-sided Jacobi: orthogonalize the columns of b = m @ v by plane
    # rotations; column norms become the singular values.
    b = m.astype(float).copy()
    v = np.eye(3)
    for _ in range(60):
        off = 0.0
        for p in range(2):
            for q in range(p + 1, 3):
                alpha = float(b[:, p] @ b[:, p])
                beta = float(b[:, q] @ b[:, q])
                gamma = float(b[:, p] @ b[:, q])
                if alpha * beta == 0.0 or abs(gamma) <= 1e-30:
                    continue
                off = max(off, abs(gamma) / math.sqrt(alpha * beta))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                bp = b[:, p].copy()
                b[:, p] = cs * bp - sn * b[:, q]
                b[:, q] = sn * bp + cs * b[:, q]
                vp = v[:, p].copy()
                v[:, p] = cs * vp - sn * v[:, q]
                v[:, q] = sn * vp + cs * v[:, q]
        if off < 1e-15:
            break
    sigma = np.sqrt(np.sum(b * b, axis=0))
    u = np.zeros((3, 3))
    scale = sigma.max() if sigma.max() > 0 else 1.0
    for j in range(3):
        if sigma[j] > SVD_TOL * scale:
            u[:, j] = b[:, j] / sigma[j]
        else:
            # Null column: complete to an orthonormal basis.
            prev = [u[:, k] for k in range(j) if np.any(u[:, k])]
            if len(prev) == 2:
                u[:, j] = np.cross(prev[0], prev[1])
            else:
                cand = np.eye(3)[np.argmin(np.abs(b).sum(axis=1))]
                for w in prev:
                    cand = cand - (cand @ w) * w
                n = np.linalg.norm(cand)
                u[:, j] = cand / n if n > 0 else np.eye(3)[j]
    return u, sigma, v.T


def svd(m: np.ndarray | list) -> SVDecomposition:
    """Singular value decomposition with fixed sign conventions.

    sigma is non-increasing and non-negative.  det(u) == det(v_t) == +1
    when det(m) > 0; for det(m) < 0 the reflection is folded into u so that
    det(v_t) == +1 still holds.
    """
    m = check_matrix(m)
    if m.shape[0] == 2:
        u, sigma, v_t = _svd2(m)
    else:
        u, sigma, v_t = _svd3_jacobi(m)

    # Non-negative singular values: fold signs into u.
    for j in range(len(sigma)):
        if sigma[j] < 0:
            sigma[j] = -sigma[j]
            u[:, j] = -u[:, j]
    # Sort non-increasing (swap u columns / v_t rows in step).
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]
    v_t = v_t[order, :]
    # All reflection goes to u; v_t is always a rotation.
    if np.linalg.det(v_t) < 0:
        v_t[-1, :] = -v_t[-1, :]
        u[:, -1] = -u[:, -1]
    if np.linalg.det(m) > 0 and np.linalg.det(u) < 0:
        # Possible only through accumulated roundoff in the 3x3 path with a
        # (near-)degenerate sigma; flip the null direction.
        u[:, -1] = -u[:, -1]
        sigma = sigma.copy()
    return SVDecomposition(u=u, sigma=sigma, v_t=v_t)


def bilip_constant(a: AffineMapData | np.ndarray | list) -> float:
    """Minimal L with L^-1 |x-y| <= |f(x)-f(y)| <= L |x-y|: max(s_max, 1/s_min)."""
    m = a.matrix if isinstance(a, AffineMapData) else check_matrix(a)
    lip = float(bilip_constants(m[None])[0])
    if math.isnan(lip):
        # Entries near the float limit overflow the SVD: not a singular matrix, nor L = inf.
        kind = "singular matrix" if np.isfinite(svd(m).sigma).all() else "singular values overflow"
        raise GeometryError(f"not bi-Lipschitz: {kind}")
    return lip


def bilip_constants(ms: np.ndarray) -> np.ndarray:
    """bilip_constant of each finite matrix of a (k, d, d) stack, NaN where it raises.
    svd sorts inf first and NaN last, so the extremes show any overflow."""
    if ms.shape[1] == 3:
        s_max, s_min = np.array([svd(m).sigma[[0, -1]] for m in ms]).reshape(-1, 2).T
    else:
        a, b, c, d = ms.reshape(-1, 4).T
        efgh = [v.tolist() for v in ((a + d) / 2.0, (a - d) / 2.0, (c + b) / 2.0, (c - b) / 2.0)]
        s_max, s_min = np.abs(np.array([sigma_2d(*x) for x in zip(*efgh)]).reshape(-1, 2)).T
    ok = np.isfinite(s_max) & np.isfinite(s_min) & (s_min > SVD_TOL * np.where(s_max > 0, s_max, 1.0))
    return np.where(ok, np.maximum(s_max, 1.0 / np.where(ok, s_min, 1.0)), np.nan)


@dataclass(frozen=True, slots=True)
class Cube:
    """Axis-parallel cube: center x(Q) and side length l(Q) > 0."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        c = tuple(float(v) for v in self.center)
        if len(c) not in (2, 3) or not all(math.isfinite(v) for v in c):
            raise GeometryError("cube center must be a finite 2- or 3-vector")
        if not (self.side > 0 and math.isfinite(self.side)):
            raise GeometryError("cube side must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "side", float(self.side))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def diam(self) -> float:
        return self.side * math.sqrt(self.dim)

    def dilate(self, lam: float) -> Cube:
        return Cube(self.center, lam * self.side)

    def lo(self) -> np.ndarray:
        return np.asarray(self.center) - self.side / 2.0

    def hi(self) -> np.ndarray:
        return np.asarray(self.center) + self.side / 2.0

    def contains(self, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts >= self.lo() - tol) & (pts <= self.hi() + tol), axis=1)

    def vertices(self) -> np.ndarray:
        h = self.side / 2.0
        c = np.asarray(self.center)
        corners = np.array(
            [[(1 if (i >> k) & 1 else -1) for k in range(self.dim)] for i in range(2**self.dim)],
            dtype=float,
        )
        return c + h * corners

    def overlaps(self, other: Cube, tol: float = 0.0) -> bool:
        """True when the interiors intersect."""
        return bool(np.all(self.lo() < other.hi() - tol) and np.all(other.lo() < self.hi() - tol))


def cube_lattice(cube: Cube, h: float) -> tuple[np.ndarray, float]:
    """Regular lattice spanning the cube at pitch <= h; returns (points, pitch)."""
    if not (h > 0):
        raise GeometryError("lattice pitch must be positive")
    n = max(2, int(math.ceil(cube.side / h - 1e-12)) + 1)
    return cube_lattices(np.asarray([cube.center]), np.asarray([cube.side]), n)[0], cube.side / (n - 1)


def cube_lattices(centers: np.ndarray, sides: np.ndarray, n: int) -> np.ndarray:
    """Lattices of n points per axis spanning the cubes C(centers[i], sides[i]):
    (k, n^d, d), points in meshgrid "ij" order, each with its own linspace's bits."""
    k, d = centers.shape
    half = sides[:, None] / 2.0  # Cube.lo() and Cube.hi() per row
    axes = np.linspace(centers - half, centers + half, n, axis=-1)  # (k, d, n)
    pts = np.empty((k,) + (n,) * d + (d,))
    for a in range(d):
        pts[..., a] = axes[:, a].reshape((k,) + (1,) * a + (n,) + (1,) * (d - 1 - a))
    return pts.reshape(k, n**d, d)


def box_lattice(lo: np.ndarray, hi: np.ndarray, h: float) -> np.ndarray:
    """Lattice over an axis box [lo, hi] at pitch <= h (at least 2 points/axis)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = []
    for k in range(lo.shape[0]):
        span = hi[k] - lo[k]
        n = max(2, int(math.ceil(span / h - 1e-12)) + 1)
        axes.append(np.linspace(lo[k], hi[k], n))
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def unit_cube_dyadics(dim: int, level: int) -> np.ndarray:
    """The int64 corner coords j of all 2^(level*dim) dyadic cubes [j 2^-level, (j+1) 2^-level]
    of [0,1]^dim, one row each, in C order: shape (2^(level*dim), dim)."""
    return np.indices((1 << level,) * dim, dtype=np.int64).reshape(dim, -1).T


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of v (..., d), d < 8: np.linalg.norm(v, axis=-1)
    bit for bit, since NumPy adds fewer than 8 squares in order, as this loop does."""
    v = np.asarray(v, dtype=float)
    s = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        s += v[..., k] * v[..., k]
    return np.sqrt(s, out=s)


def polyline_length(path: np.ndarray) -> float:
    """Arc length of the polyline: the sum of its segment lengths."""
    return float(row_norms(np.diff(path, axis=0)).sum())


def resample_polyline(path: np.ndarray, count: int) -> np.ndarray:
    """count points spread uniformly in arc length along the polyline."""
    path = np.asarray(path, dtype=float)
    seg = row_norms(np.diff(path, axis=0))
    total = float(seg.sum())
    if total == 0:
        return np.repeat(path[:1], count, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, total, count)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[idx]) / np.maximum(seg[idx], 1e-300)
    return path[idx] + t[:, None] * (path[idx + 1] - path[idx])


def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_3d(axis: np.ndarray, theta: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(theta) * k + (1 - math.cos(theta)) * (k @ k)
