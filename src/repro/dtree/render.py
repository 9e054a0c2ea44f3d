"""Terminal rendering of 2D decision-tree descriptors (Figure 1).

No plotting dependency is available offline, so the paper's Figure 1
panels are reproduced as character grids: points drawn with one glyph
per partition, leaf-region borders drawn with box characters, and the
tree itself pretty-printed with its decision hyperplanes. Meant for
examples and debugging, not precision graphics.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.dtree.descriptors import leaf_regions
from repro.dtree.tree import DecisionTree, TreeNode

_GLYPHS = np.array(list("o^#*+x%@"))


def _cells(
    xy: np.ndarray, lo: np.ndarray, span: np.ndarray, width: int, height: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid ``(row, column)`` of each 2D point, clipped to the grid; row
    0 is the top."""
    last = np.array([width - 1, height - 1])
    col, up = np.clip((xy - lo) / span * last, 0, last).astype(np.int64).T
    return height - 1 - up, col


def _draw_points(
    grid: np.ndarray,
    points: np.ndarray,
    labels: np.ndarray,
    lo: np.ndarray,
    span: np.ndarray,
) -> None:
    """Each point's partition glyph into its cell; of the points that
    share a cell, the last one shows."""
    height, width = grid.shape
    row, col = _cells(points, lo, span, width, height)
    cell = row * width + col
    _, last = np.unique(cell[::-1], return_index=True)
    last = len(cell) - 1 - last
    grid.flat[cell[last]] = _GLYPHS[labels[last] % len(_GLYPHS)]


def render_points(
    points: np.ndarray,
    labels: np.ndarray,
    width: int = 60,
    height: int = 24,
) -> str:
    """Scatter-plot a labelled 2D point set as text."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != 2:
        raise ValueError("render_points is 2D-only")
    lo = points.min(axis=0)
    span = np.maximum(points.max(axis=0) - lo, 1e-12)
    grid = np.full((height, width), " ")
    _draw_points(grid, points, np.asarray(labels, dtype=np.int64), lo, span)
    return "\n".join("".join(row) for row in grid.tolist())


def render_descriptors(
    tree: DecisionTree,
    points: np.ndarray,
    labels: np.ndarray,
    width: int = 60,
    height: int = 24,
) -> str:
    """Figure 1(b): points plus leaf-region borders.

    Region borders are drawn with ``|`` and ``-``; points keep their
    partition glyphs and overwrite borders where they collide.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1] != 2:
        raise ValueError("render_descriptors is 2D-only")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)

    grid = np.full((height, width), " ")
    _, regions = leaf_regions(tree, np.stack((lo, hi)))
    # corners: (x lo, y hi) is the top left, (x hi, y lo) the bottom right
    r0, c0 = _cells(regions[:, [0, 1], [0, 1]], lo, span, width, height)
    r1, c1 = _cells(regions[:, [1, 0], [0, 1]], lo, span, width, height)
    for r0, c0, r1, c1 in zip(r0.tolist(), c0.tolist(), r1.tolist(),
                              c1.tolist()):
        cols = slice(min(c0, c1), max(c0, c1) + 1)
        rows = slice(min(r0, r1), max(r0, r1) + 1)
        grid[r0, cols] = grid[r1, cols] = "-"
        grid[rows, c0] = grid[rows, c1] = "|"
    _draw_points(grid, points, np.asarray(labels, dtype=np.int64), lo, span)
    return "\n".join("".join(row) for row in grid.tolist())


def render_tree(tree: DecisionTree, dims: Sequence[str] = ("x", "y", "z")) -> str:
    """Figure 1(c): the decision tree with its hyperplane tests."""
    n_points, label, is_pure, dim, threshold, left, right = (
        getattr(tree, name).tolist() for name in TreeNode._fields
    )
    lines: List[str] = []

    def walk(nid: int, lead: str, indent: str) -> None:
        if left[nid] < 0:
            purity = "" if is_pure[nid] else " (impure)"
            lines.append(
                f"{lead}leaf: partition {label[nid]}, "
                f"{n_points[nid]} pts{purity}"
            )
            return
        name = dims[dim[nid]] if dim[nid] < len(dims) else str(dim[nid])
        lines.append(f"{lead}{name} <= {threshold[nid]:.3g}?")
        walk(left[nid], indent + "|- ", indent + "|  ")
        walk(right[nid], indent + "`- ", indent + "   ")

    walk(0, "", "")
    return "\n".join(lines)
