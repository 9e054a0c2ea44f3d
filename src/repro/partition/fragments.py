"""Fragment absorption: reconnecting disconnected partition pieces.

Multi-constraint refinement (and the rebalancer's capacity-driven
"teleport" moves) can leave a partition split into several connected
components. Every extra fragment adds interface area — and therefore
communication volume — without helping balance, so after refinement we
absorb each partition's non-dominant fragments into the neighbouring
partition they touch most, whenever the move keeps (or improves)
balance. This mirrors the connected-components cleanup multilevel
partitioners such as METIS perform.

Note: on inherently disconnected graphs (separate contact bodies) a
partition may legitimately span several bodies; fragments with no
foreign neighbours are left alone.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import partition_weights
from repro.graph.ops import label_components
from repro.partition.balance import BalanceTracker, equal_targets
from repro.partition.config import PartitionOptions

#: sweeps over the k partitions; absorbing can strand new fragments
_MAX_PASSES = 3
#: a fragment weighing at most this share of the mean target in every
#: constraint moves even into a destination it overloads
_FORCE_LIMIT = 0.5


def _fragments_of(
    graph: CSRGraph, part: np.ndarray, p: int
) -> Tuple[np.ndarray, list]:
    """Vertices of partition ``p`` and their connected components
    (list of index arrays into the *global* vertex space), largest
    first.

    Reads only the partition's own adjacency (``incident_edges``), so
    a pass over all ``k`` partitions touches each edge once; one stable
    argsort of the component ids splits the groups.
    """
    verts = np.nonzero(part == p)[0]
    if len(verts) == 0:
        return verts, []
    owner, edges = graph.incident_edges(verts)
    far = graph.adjncy[edges]
    inside = part[far] == p
    comp = label_components(
        len(verts), owner[inside], np.searchsorted(verts, far[inside])
    )
    n_comp = int(comp.max()) + 1
    if n_comp == 1:
        return verts, [verts]
    order = np.argsort(comp, kind="stable")
    bounds = np.cumsum(np.bincount(comp, minlength=n_comp))[:-1]
    groups = np.split(verts[order], bounds)
    groups.sort(key=len, reverse=True)
    return verts, groups


def absorb_fragments(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
) -> Tuple[np.ndarray, int]:
    """Merge non-dominant partition fragments into their best
    neighbouring partition.

    A fragment moves to the foreign partition it shares the most edge
    weight with, preferring destinations within the balance bounds.
    As in METIS's EliminateComponents, a fragment weighing at most half
    the mean partition target in every constraint (with a nonzero
    target) is moved to its most-connected neighbour *even when that
    overloads it* — eliminating the fragment is worth a temporary
    imbalance that the caller's subsequent rebalancing sweep repairs
    with cheap single-vertex moves. A heavier fragment with no destination that
    fits moves only when that lowers the violation. Returns ``(part,
    n_vertices_moved)``.
    """
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    targets = equal_targets(graph.total_vwgt, k)
    mean_target = targets.mean(axis=0)
    tracker = BalanceTracker(
        partition_weights(graph, part, k), targets, options.ubfactor
    )

    total_moved = 0
    for _pass in range(_MAX_PASSES):
        moved_this_pass = 0
        for p in range(k):
            verts, groups = _fragments_of(graph, part, p)
            if len(groups) <= 1:
                continue
            for frag in groups[1:]:
                # edge weight from the fragment into each foreign
                # partition, heaviest first; ties keep the order in
                # which the fragment's adjacency meets the partitions
                _, edges = graph.incident_edges(frag)
                edges = edges[part[graph.adjncy[edges]] != p]
                if len(edges) == 0:
                    continue  # body-isolated fragment; nothing adjacent
                nbr_part = part[graph.adjncy[edges]]
                conn = np.bincount(nbr_part, weights=graph.adjwgt[edges])
                met, first_met = np.unique(nbr_part, return_index=True)
                ranked = met[np.lexsort((first_met, -conn[met]))].tolist()
                frag_w = graph.vwgts[frag].sum(axis=0)
                chosen = None
                for dst in ranked:
                    if tracker.fits(dst, frag_w.tolist()):
                        chosen = dst
                        break
                if chosen is None:
                    small = True
                    for j in range(graph.ncon):
                        if mean_target[j] > 0 and (
                            frag_w[j] > _FORCE_LIMIT * mean_target[j]
                        ):
                            small = False
                            break
                    if small:
                        chosen = ranked[0]
                if chosen is None:
                    dst = ranked[0]
                    if tracker.delta_move(p, dst, frag_w.tolist()) < -1e-12:
                        chosen = dst
                if chosen is None:
                    continue
                part[frag] = chosen
                tracker.apply_move(p, chosen, frag_w.tolist())
                moved_this_pass += len(frag)
        total_moved += moved_this_pass
        if moved_this_pass == 0:
            break
    return part, total_moved


def count_fragments(graph: CSRGraph, part: np.ndarray, k: int) -> int:
    """Total connected components across all partitions (diagnostic;
    equals k plus the number of excess fragments on a connected
    graph)."""
    total = 0
    for p in range(k):
        _, groups = _fragments_of(graph, part, p)
        total += len(groups)
    return total
