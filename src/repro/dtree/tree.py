"""Decision-tree data structure.

A tree is seven node arrays indexed by node id, the root at id 0, so
queries run as array-driven frontier sweeps instead of per-point
recursion. Leaves carry the majority partition ``label``, the point
count and the ``is_pure`` flag; interior nodes carry the ``(dim,
threshold)`` hyperplane and their children. The *yes* branch
(``coord <= threshold``) is ``left``, matching the paper's Figure 1(c)
convention; ``left`` and ``right`` are -1 on a leaf.

The arrays are read-only: the induction's :class:`SubtreeMemo` grafts
the next tree from the arrays it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple

import numpy as np


class TreeNode(NamedTuple):
    """One node's fields: the record type of :attr:`DecisionTree.nodes`."""

    n_points: int
    label: int
    is_pure: bool
    dim: int
    threshold: float
    left: int
    right: int


_DTYPES = (np.int64, np.int64, bool, np.int64, float, np.int64, np.int64)


def _read_only(values: object, dtype: type) -> np.ndarray:
    """``values`` as a read-only ``dtype`` view (the caller's array, if
    it is one, stays writeable)."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Flat-array decision tree over a labelled point set.

    ``k`` is the number of partition labels the tree discriminates.
    Each field is converted to its dtype and stored as a read-only
    view.
    """

    n_points: np.ndarray
    label: np.ndarray
    is_pure: np.ndarray
    dim: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    k: int

    def __post_init__(self) -> None:
        for name, dtype in zip(TreeNode._fields, _DTYPES):
            object.__setattr__(
                self, name, _read_only(getattr(self, name), dtype)
            )

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[TreeNode]:
        """The nodes as records, built from the arrays on every call.

        Kept only for ``benchmarks/spine/probes.py``, which reads
        ``[nd.label for nd in tree.nodes]``; everything else reads the
        arrays."""
        fields = (getattr(self, name).tolist() for name in TreeNode._fields)
        return [TreeNode(*row) for row in zip(*fields)]

    @property
    def n_nodes(self) -> int:
        """Total node count — the paper's **NTNodes** metric."""
        return len(self.n_points)

    @property
    def is_leaf(self) -> np.ndarray:
        """Per node, whether it has no children."""
        return self.left < 0

    @property
    def n_leaves(self) -> int:
        """Number of leaves (= rectangles/boxes in the descriptors)."""
        return int(np.count_nonzero(self.is_leaf))

    def leaf_ids(self) -> np.ndarray:
        """Ids of all leaf nodes, ascending."""
        return np.flatnonzero(self.is_leaf)

    def leaf_labels(self) -> np.ndarray:
        """Majority partition label of each leaf, aligned with
        :meth:`leaf_ids`."""
        return self.label[self.is_leaf]

    def _levels(self) -> Iterator[np.ndarray]:
        """The node ids of each depth, from the root's down; a split
        node's children are adjacent, left first."""
        children = np.stack((self.left, self.right), axis=1)
        level = np.zeros(1, dtype=np.int64)
        while len(level):
            yield level
            level = children[level[self.left[level] >= 0]].ravel()

    def depth(self) -> int:
        """Maximum root-to-leaf edge count (0 for a single-leaf tree)."""
        return sum(1 for _ in self._levels()) - 1

    def validate(self) -> None:
        """Structural sanity checks (tests/debugging)."""
        n = self.n_nodes
        if any(len(getattr(self, f)) != n for f in TreeNode._fields):
            raise ValueError("node arrays differ in length")
        inner = ~self.is_leaf
        if (self.right[self.is_leaf] >= 0).any():
            raise ValueError("a leaf has a right child")
        if (self.right[inner] < 0).any():
            raise ValueError("an interior node is missing a child")
        if (np.maximum(self.left, self.right) >= n).any():
            raise ValueError("child id out of range")
        if (self.dim[inner] < 0).any():
            raise ValueError("an interior node has no split dim")
        bad = (self.label < 0) | (self.label >= max(self.k, 1))
        bad &= self.is_leaf
        if bad.any():
            raise ValueError(f"leaf {np.argmax(bad)} label out of range")
        children_pts = self.n_points[self.left] + self.n_points[self.right]
        bad = inner & (children_pts != self.n_points)
        if bad.any():
            raise ValueError(f"node {np.argmax(bad)} point count mismatch")
        seen = np.zeros(n, dtype=np.int64)
        for level in self._levels():
            np.add.at(seen, level, 1)
            if seen[level].max() > 1:
                raise ValueError("a node is reachable twice (cycle?)")
        if not seen.all():
            raise ValueError("unreachable nodes present")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionTree(nodes={self.n_nodes}, leaves={self.n_leaves}, "
            f"k={self.k})"
        )
