"""Subdomain geometric descriptors (paper §4.1, Figure 1(b)).

A pure decision tree over the contact points partitions the domain into
axis-parallel rectangles/boxes, each owned by one partition. The
descriptor of subdomain ``p`` is the set of leaf regions labelled
``p`` — the paper's replacement for the single bounding box per
subdomain. The leaf *regions* (split-bounded, covering the whole
domain) differ from the leaf points' bounding boxes; both are exposed
because the regions define the search semantics while the tight boxes
are useful for visualisation and volume statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.dtree.tree import DecisionTree
from repro.geometry.bbox import box_volume


def leaf_regions(
    tree: DecisionTree, domain_box: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute each leaf's region box within ``domain_box``.

    Returns ``(leaf_ids, regions)`` with ``regions`` of shape
    ``(n_leaves, 2, d)``; region bounds come from the splits along the
    root-to-leaf path, clipped to the domain box. One level of the tree
    is swept at a time. The leaves are listed by descending id, which
    on an induced tree (ids in preorder) is right to left.
    """
    domain_box = np.asarray(domain_box, dtype=float)
    d = domain_box.shape[1]
    leaf_ids = tree.leaf_ids()[::-1]
    # a leaf's row in ``regions``: the number of leaves after it
    row_of = np.cumsum(tree.is_leaf[::-1])[::-1] - 1
    regions = np.empty((len(leaf_ids),) + domain_box.shape)
    children = np.stack((tree.left, tree.right), axis=1)
    node = np.zeros(1, dtype=np.int64)
    box = domain_box[None]
    while len(node):
        leaf = tree.left[node] < 0
        regions[row_of[node[leaf]]] = box[leaf]
        node, box = node[~leaf], box[~leaf]
        # both children start from the parent's box, clipped at its cut
        pair = box.repeat(2, axis=0).reshape(len(node), 2, 2, d)
        rows, dim = np.arange(len(node)), tree.dim[node]
        t = tree.threshold[node]
        pair[rows, 0, 1, dim] = np.minimum(pair[rows, 0, 1, dim], t)
        pair[rows, 1, 0, dim] = np.maximum(pair[rows, 1, 0, dim], t)
        node = children[node].ravel()
        box = pair.reshape(-1, 2, d)
    return leaf_ids, regions


@dataclass
class SubdomainDescriptors:
    """Per-partition sets of axis-parallel regions.

    Built from a pure search tree; ``regions_of[p]`` is a
    ``(n_p, 2, d)`` array of the regions describing subdomain ``p``.
    """

    tree: DecisionTree
    domain_box: np.ndarray
    regions_of: Dict[int, np.ndarray]

    @classmethod
    def from_tree(
        cls, tree: DecisionTree, domain_box: np.ndarray
    ) -> "SubdomainDescriptors":
        """Group leaf regions by their partition label."""
        leaf_ids, regions = leaf_regions(tree, domain_box)
        labels = tree.label[leaf_ids]
        order = labels.argsort(kind="stable")
        parts, first = np.unique(labels[order], return_index=True)
        regions_of: Dict[int, np.ndarray] = dict(
            zip(parts.tolist(), np.split(regions[order], first[1:]))
        )
        return cls(tree=tree, domain_box=np.asarray(domain_box, float),
                   regions_of=regions_of)

    def volume_of(self, p: int) -> float:
        """Total volume of subdomain ``p``'s descriptor regions."""
        regions = self.regions_of.get(p)
        if regions is None:
            return 0.0
        return float(sum(box_volume(r) for r in regions))

    def total_overlap_volume(self) -> float:
        """Pairwise overlap volume across *different* subdomains.

        Leaf regions are disjoint by construction, so this is exactly 0
        — exposed as a checkable invariant contrasting with the
        bounding-box filter, whose overlaps cause false positives.
        """
        total = 0.0
        parts = sorted(self.regions_of)
        for i, p in enumerate(parts):
            for q in parts[i + 1 :]:
                for a in self.regions_of[p]:
                    for b in self.regions_of[q]:
                        lo = np.maximum(a[0], b[0])
                        hi = np.minimum(a[1], b[1])
                        if (hi > lo).all():
                            total += float(np.prod(hi - lo))
        return total
