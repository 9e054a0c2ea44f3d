"""Recursive coordinate bisection of weighted points.

The geometric partitioner ML+RCB applies to the contact points
(Plimpton et al. [27], Brown et al. [2]). Two entry points:

* :func:`rcb_partition` — build an RCB decomposition into ``k`` parts,
  returning both labels and the cut tree.
* :meth:`RCBTree.update` — re-fit the *existing* tree to moved points:
  every node keeps its splitting dimension and target fraction but
  re-solves its threshold on the points that now reach it. This is the
  paper's "follow-up partitionings computed by modifying the previous
  RCB partitioning" (§3); the number of points whose label changes is
  the **UpdComm** metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_array


@dataclass
class _Node:
    """RCB tree node. Leaves carry ``label >= 0``; interior nodes carry
    the split ``(dim, threshold)`` and the weight fraction routed left."""

    label: int = -1
    dim: int = -1
    threshold: float = 0.0
    frac_left: float = 0.5
    left: int = -1
    right: int = -1


@dataclass
class RCBTree:
    """Cut tree produced by :func:`rcb_partition`."""

    nodes: List[_Node]
    k: int
    root: int = 0

    # ------------------------------------------------------------------
    def assign(self, points: np.ndarray) -> np.ndarray:
        """Label ``points`` using the *current* thresholds (no re-fit)."""
        points = np.asarray(points, dtype=float)
        labels = np.empty(len(points), dtype=np.int64)
        self._assign_rec(self.root, np.arange(len(points)), points, labels)
        return labels

    def _assign_rec(
        self, nid: int, idx: np.ndarray, points: np.ndarray, out: np.ndarray
    ) -> None:
        node = self.nodes[nid]
        if node.label >= 0:
            out[idx] = node.label
            return
        go_left = points[idx, node.dim] <= node.threshold
        self._assign_rec(node.left, idx[go_left], points, out)
        self._assign_rec(node.right, idx[~go_left], points, out)

    # ------------------------------------------------------------------
    def update(
        self, points: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Re-fit thresholds to moved ``points`` and return new labels.

        Structure (split dimensions, leaf labels, fractions) is kept;
        only thresholds move, so successive decompositions stay highly
        correlated and data movement stays small.
        """
        points = np.asarray(points, dtype=float)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
        labels = np.empty(len(points), dtype=np.int64)
        self._update_rec(
            self.root, np.arange(len(points)), points, weights, labels
        )
        return labels

    def _update_rec(
        self,
        nid: int,
        idx: np.ndarray,
        points: np.ndarray,
        weights: Optional[np.ndarray],
        out: np.ndarray,
    ) -> None:
        node = self.nodes[nid]
        if node.label >= 0:
            out[idx] = node.label
            return
        if len(idx) == 0:
            self._update_rec(node.left, idx, points, weights, out)
            return
        coords = points[idx, node.dim]
        node.threshold = _weighted_quantile(
            coords, None if weights is None else weights[idx], node.frac_left
        )
        go_left = coords <= node.threshold
        self._update_rec(node.left, idx[go_left], points, weights, out)
        self._update_rec(node.right, idx[~go_left], points, weights, out)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count of the cut tree."""
        return len(self.nodes)


def _weighted_quantile(
    values: np.ndarray, weights: Optional[np.ndarray], q: float
) -> float:
    """Threshold t such that points with ``value <= t`` carry ~``q`` of
    the total weight. Chooses a midpoint between adjacent values so the
    cut avoids sitting exactly on a point where possible.

    ``weights=None`` means unit weights: the cumulative weights are
    then ``1..n``, so the cut position is the count of them below
    ``q·n`` and the two order statistics it needs come from one
    ``np.partition`` instead of a full sort — the same threshold.
    """
    n = len(values)
    if weights is None:
        pos = min(max(math.ceil(q * n) - 1, 0), n - 1)
        v = np.partition(values, (pos, pos + 1) if pos + 1 < n else pos)
    else:
        order = np.argsort(values, kind="stable")
        v, w = values[order], weights[order]
        cum = np.cumsum(w)
        total = cum[-1]
        if total <= 0:
            return float(v[n // 2])
        pos = min(int(np.searchsorted(cum, q * total, side="left")), n - 1)
    if pos + 1 < n:
        return float(0.5 * (v[pos] + v[pos + 1]))
    return float(v[pos])


def rcb_partition(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, RCBTree]:
    """Recursive coordinate bisection into ``k`` parts.

    Splits along the longest extent of each region at the weighted
    quantile giving proportional sizes for non-power-of-two ``k``.
    Returns ``(labels, tree)``.
    """
    points = check_array("points", np.asarray(points, dtype=float), ndim=2)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)

    nodes: List[_Node] = []
    labels = np.empty(len(points), dtype=np.int64)

    def build(idx: np.ndarray, kk: int, label_offset: int) -> int:
        nid = len(nodes)
        nodes.append(_Node())
        if kk == 1:
            nodes[nid].label = label_offset
            labels[idx] = label_offset
            return nid
        k0 = (kk + 1) // 2
        frac = k0 / kk
        sub = points[idx]
        extents = sub.max(axis=0) - sub.min(axis=0)
        dim = int(np.argmax(extents))
        thr = _weighted_quantile(
            sub[:, dim], None if weights is None else weights[idx], frac
        )
        go_left = sub[:, dim] <= thr
        # guard: degenerate coordinates can put everything on one side
        if go_left.all() or (~go_left).all():
            order = np.argsort(sub[:, dim], kind="stable")
            n_left = max(1, min(len(idx) - 1, int(round(frac * len(idx)))))
            go_left = np.zeros(len(idx), dtype=bool)
            go_left[order[:n_left]] = True
            thr = float(sub[order[n_left - 1], dim])
        node = nodes[nid]
        node.dim, node.threshold, node.frac_left = dim, thr, frac
        node.left = build(idx[go_left], k0, label_offset)
        node.right = build(idx[~go_left], kk - k0, label_offset + k0)
        return nid

    build(np.arange(len(points)), k, 0)
    return labels, RCBTree(nodes=nodes, k=k)
