"""Decision-tree induction over partitioned point sets (paper §4.1).

C4.5-style axis-parallel tree induction using the paper's modified
gini splitting index (Eq. 1), with two termination modes:

* *pure* trees — recurse until every leaf holds points of one
  partition; the leaves are the subdomain geometric descriptors used
  by the MCML+DT global contact search.
* *bounded* trees — recurse while (pure and ``n >= max_p``) or
  (impure and ``n >= max_i``); used to reshape the multi-constraint
  partition into one with piecewise axis-parallel boundaries (§4.2).
"""

from repro.dtree.splitter import SplitResult, best_split, median_split
from repro.dtree.tree import DecisionTree
from repro.dtree.induction import (
    SubtreeMemo,
    induce_bounded_tree,
    induce_pure_tree,
)
from repro.dtree.query import (
    assign_points,
    box_query_pairs,
    tree_filter_search,
)
from repro.dtree.descriptors import SubdomainDescriptors, leaf_regions

__all__ = [
    "SplitResult",
    "best_split",
    "median_split",
    "DecisionTree",
    "induce_pure_tree",
    "induce_bounded_tree",
    "SubtreeMemo",
    "assign_points",
    "box_query_pairs",
    "tree_filter_search",
    "SubdomainDescriptors",
    "leaf_regions",
]
