"""SVG rendering of 2D descriptors — publication-grade Figure 1 panels.

No plotting library is available offline, but SVG is just text: these
functions emit self-contained ``.svg`` files showing a labelled point
set and its leaf-region rectangles, colour-coded per partition. 3D
point sets can be projected with :func:`project_2d` first.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.dtree.descriptors import leaf_regions
from repro.dtree.tree import DecisionTree

PathLike = Union[str, Path]

# colour-blind-safe categorical palette (Okabe–Ito)
PALETTE = (
    "#0072B2", "#E69F00", "#009E73", "#CC79A7",
    "#56B4E9", "#D55E00", "#F0E442", "#000000",
)

_MARKERS = "circle", "square", "triangle", "diamond"


def project_2d(points: np.ndarray) -> np.ndarray:
    """Project a point set onto its two widest axes (for 3D inputs)."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] <= 2:
        return points
    spread = points.max(axis=0) - points.min(axis=0)
    dims = sorted(np.argsort(spread)[::-1][:2])
    return points[:, dims]


def _marker_svg(kind: str, x: float, y: float, r: float, color: str) -> str:
    if kind == "circle":
        return (
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
            f'fill="{color}"/>'
        )
    if kind == "square":
        return (
            f'<rect x="{x - r:.2f}" y="{y - r:.2f}" width="{2 * r:.2f}" '
            f'height="{2 * r:.2f}" fill="{color}"/>'
        )
    if kind == "triangle":
        pts = (
            f"{x:.2f},{y - r:.2f} {x - r:.2f},{y + r:.2f} "
            f"{x + r:.2f},{y + r:.2f}"
        )
        return f'<polygon points="{pts}" fill="{color}"/>'
    # diamond
    pts = (
        f"{x:.2f},{y - r:.2f} {x + r:.2f},{y:.2f} "
        f"{x:.2f},{y + r:.2f} {x - r:.2f},{y:.2f}"
    )
    return f'<polygon points="{pts}" fill="{color}"/>'


def descriptors_svg(
    tree: DecisionTree,
    points: np.ndarray,
    labels: np.ndarray,
    width: int = 640,
    height: int = 480,
    title: Optional[str] = None,
) -> str:
    """Figure-1(b)-style SVG: leaf regions + partition-coloured points.

    Returns the SVG document as a string; see :func:`save_descriptors_svg`
    to write it to disk.
    """
    points = project_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels lengths differ")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 28
    top = 34 if title else 12

    def sx(x: np.ndarray) -> np.ndarray:
        return pad + (x - lo[0]) / span[0] * (width - 2 * pad)

    def sy(y: np.ndarray) -> np.ndarray:
        return (height - pad) - (y - lo[1]) / span[1] * (
            height - pad - top
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    # leaf regions (computed over the projected bounding box)
    domain = np.stack((lo, hi))
    leaf_ids, regions = leaf_regions(tree, domain)
    x0, y0 = sx(regions[:, 0, 0]), sy(regions[:, 1, 1])
    rects = zip(
        x0.tolist(), y0.tolist(), (sx(regions[:, 1, 0]) - x0).tolist(),
        (sy(regions[:, 0, 1]) - y0).tolist(), tree.label[leaf_ids].tolist(),
    )
    for x, y, w, h, label in rects:
        color = PALETTE[label % len(PALETTE)]
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
            f'height="{h:.2f}" fill="{color}" fill-opacity="0.12" '
            f'stroke="{color}" stroke-width="1.2"/>'
        )

    # points
    for x, y, lab in zip(
        sx(points[:, 0]).tolist(), sy(points[:, 1]).tolist(), labels.tolist()
    ):
        color = PALETTE[lab % len(PALETTE)]
        marker = _MARKERS[lab % len(_MARKERS)]
        parts.append(_marker_svg(marker, x, y, 3.2, color))

    parts.append("</svg>")
    return "\n".join(parts)


def save_descriptors_svg(
    path: PathLike,
    tree: DecisionTree,
    points: np.ndarray,
    labels: np.ndarray,
    **kwargs,
) -> None:
    """Write :func:`descriptors_svg` output to ``path``."""
    Path(path).write_text(
        descriptors_svg(tree, points, labels, **kwargs)
    )
