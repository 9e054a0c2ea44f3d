"""The two-constraint contact graph model (paper §4.2).

Vertex weights: ``w1(v) = 1`` for every node used by a live element
(the FE-phase work) and 0 for orphaned nodes left behind by erosion;
``w2(v) = 1`` for contact nodes (the search-phase work), else 0. Edge
weights: ``contact_edge_weight`` (5 in the paper's experiments) between
two contact nodes — cutting such an edge costs communication in *both*
phases — and 1 otherwise.

:func:`build_contact_graph` is the pure function. A caller walking a
snapshot sequence holds a :class:`ContactGraphBuilder` instead: the
graph depends on the connectivity and the contact-node set only — not
on coordinates — and those change in a minority of steps (erosion), so
the builder hands back the previous graph when both are unchanged and
calls the pure function otherwise. See ``docs/ALGORITHMS.md``,
"Carrying the graph and the descriptor tree across snapshots".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import load_imbalance
from repro.mesh.nodal_graph import nodal_graph
from repro.metrics.comm import fe_comm
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.sim.sequence import ContactSnapshot


def build_contact_graph(
    snapshot: ContactSnapshot,
    contact_edge_weight: int = 5,
    fe_work: Optional[np.ndarray] = None,
    search_work: Optional[np.ndarray] = None,
) -> CSRGraph:
    """Build the weighted nodal graph of a snapshot.

    ``fe_work`` / ``search_work`` override the unit weights for the
    general non-uniform-cost case the paper describes; the defaults
    reproduce its experimental setting (all ones).
    """
    if contact_edge_weight < 1:
        raise ValueError("contact_edge_weight must be >= 1")
    mesh = snapshot.mesh
    n = mesh.num_nodes
    graph = nodal_graph(mesh)

    is_contact = np.zeros(n, dtype=bool)
    is_contact[snapshot.contact_nodes] = True
    used = np.zeros(n, dtype=bool)
    used[mesh.used_nodes()] = True

    vwgts = np.zeros((n, 2), dtype=np.int64)
    if fe_work is None:
        vwgts[used, 0] = 1
    else:
        fe_work = np.asarray(fe_work, dtype=np.int64)
        if len(fe_work) != n:
            raise ValueError("fe_work must have one entry per node")
        vwgts[:, 0] = np.where(used, fe_work, 0)
    if search_work is None:
        vwgts[is_contact, 1] = 1
    else:
        search_work = np.asarray(search_work, dtype=np.int64)
        if len(search_work) != n:
            raise ValueError("search_work must have one entry per node")
        vwgts[:, 1] = np.where(is_contact, search_work, 0)

    # contact-contact edges get the heavier weight
    both_contact = is_contact[graph.row_index] & is_contact[graph.adjncy]
    adjwgt = np.where(
        both_contact, np.int64(contact_edge_weight), np.int64(1)
    )
    return CSRGraph(graph.xadj, graph.adjncy, adjwgt, vwgts)


class ContactGraphBuilder:
    """:func:`build_contact_graph` over a snapshot sequence.

    Remembers one graph and what it was built from — node count,
    element type, ``mesh.elements``, ``contact_nodes`` and the contact
    edge weight, compared by content. Any difference is a miss, so
    erosion, refinement, a restored checkpoint or snapshots out of
    order need no invalidation; what is returned always equals
    ``build_contact_graph(snapshot, contact_edge_weight)`` array for
    array. The remembered graph's arrays are read-only: it is handed
    out again next step, and a stage that edits it in place must fail
    there rather than corrupt a later step.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._graph: Optional[CSRGraph] = None
        self._measured: Optional[tuple] = None

    def build(
        self,
        snapshot: ContactSnapshot,
        contact_edge_weight: int = 5,
        tracer: Optional[TracerBase] = None,
    ) -> CSRGraph:
        """The snapshot's contact graph; counter ``graph_reused`` says
        whether it is the previous call's."""
        mesh = snapshot.mesh
        key = (
            mesh.num_nodes, mesh.elem_type, contact_edge_weight,
            mesh.elements, snapshot.contact_nodes,
        )
        reused = self._key is not None and all(
            map(np.array_equal, self._key, key)
        )
        if not reused:
            graph = build_contact_graph(snapshot, contact_edge_weight)
            for array in (graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgts):
                array.setflags(write=False)
            # copies: a caller may refill its own buffers between steps
            self._key = tuple(np.array(part) for part in key)
            self._graph = graph
            self._measured = None
        ensure_tracer(tracer).count("graph_reused", int(reused))
        return self._graph

    def measure(self, part: np.ndarray, k: int) -> Tuple[int, np.ndarray]:
        """``(fe_comm, load_imbalance)`` of the current graph under
        ``part``; recounted only when the graph or the labels differ
        from the ones last measured."""
        graph = self._graph
        if graph is None:
            raise RuntimeError("call build() before measure()")
        last = self._measured
        if last is None or last[0] != k or not np.array_equal(last[1], part):
            last = self._measured = (
                k, part.copy(), fe_comm(graph, part),
                load_imbalance(graph, part, k),
            )
        _, _, comm, imbalance = last
        return comm, imbalance.copy()
