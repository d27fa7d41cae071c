"""Minimal SVG emission for planar diagnostics (no dependencies)."""

from __future__ import annotations

import numpy as np

from .geometry_core import Cube


PIXELS = 640  # width and height of every drawing


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Collects shapes and serializes a standalone SVG document.

    The viewBox is fixed from a cube padded by 10%; the y axis is flipped
    so drawings appear in the usual mathematical orientation.
    """

    def __init__(self, frame: Cube):
        pad = 0.1 * frame.side
        self.x0 = frame.lo()[0] - pad
        self.y0 = frame.lo()[1] - pad
        self.span = frame.side + 2 * pad
        self.elements: list[str] = []

    def _pt(self, p) -> tuple[float, float]:
        sx = (p[0] - self.x0) / self.span * PIXELS
        sy = (1.0 - (p[1] - self.y0) / self.span) * PIXELS
        return sx, sy

    def polyline(self, pts: np.ndarray, stroke: str = "#1f77b4", width: float = 1.5,
                 closed: bool = False):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self._pt(p) for p in pts))
        tag = "polygon" if closed else "polyline"
        self.elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def rect(self, cube: Cube, stroke: str = "#d62728"):
        lo = cube.lo()
        x, y = self._pt((lo[0], cube.hi()[1]))
        s = cube.side / self.span * PIXELS
        self.elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(s)}" height="{_fmt(s)}" '
            f'fill="none" stroke="{stroke}" stroke-width="1"/>'
        )

    def text(self, anchor, label: str):
        x, y = self._pt(anchor)
        self.elements.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" fill="#444444">{label}</text>')

    def to_string(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {PIXELS} {PIXELS}" '
            f'width="{PIXELS}" height="{PIXELS}">\n{body}\n</svg>\n'
        )


def square_boundary(cube: Cube, points_per_side: int = 32) -> np.ndarray:
    """Closed sampling of a square's boundary, counter-clockwise."""
    v = cube.vertices()[[0, 1, 3, 2]]
    segs = []
    for i in range(4):
        a, b = v[i], v[(i + 1) % 4]
        t = np.linspace(0.0, 1.0, points_per_side, endpoint=False)[:, None]
        segs.append(a + t * (b - a))
    ring = np.vstack(segs)
    return np.vstack([ring, ring[:1]])
