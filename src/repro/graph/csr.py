"""Compressed-sparse-row graph with multi-constraint vertex weights.

This is the METIS data model: ``xadj``/``adjncy`` adjacency arrays with
both directions of every undirected edge stored, integer edge weights
``adjwgt``, and an ``(n, ncon)`` matrix of vertex weights where each
column is one balance constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.utils.validation import check_array


class AdjacencyLists(NamedTuple):
    """The four CSR arrays as flat Python lists (:attr:`CSRGraph.lists`).

    Neighbour ``i`` of vertex ``v``, for ``i`` in
    ``range(start[v], start[v + 1])``, is ``nbr[i]`` over an edge of
    weight ``wgt[i]``; ``vwgt`` is the vertex-weight matrix row by row.
    Every element is a Python ``int``. Flat on purpose: per-vertex rows
    are tens of thousands of containers for the garbage collector to
    walk, which made building them 4× dearer than reading them saves.
    """

    start: List[int]
    nbr: List[int]
    wgt: List[int]
    vwgt: List[int]
    ncon: int

    def weights(self, v: int) -> List[int]:
        """Vertex ``v``'s weight row (one entry per constraint)."""
        return self.vwgt[v * self.ncon : (v + 1) * self.ncon]


@dataclass
class CSRGraph:
    """Undirected weighted graph in CSR form.

    Attributes
    ----------
    xadj:
        ``int64[n+1]`` — adjacency offsets; neighbours of vertex ``v``
        are ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        ``int64[2m]`` — neighbour ids; every undirected edge appears in
        both endpoints' lists.
    adjwgt:
        ``int64[2m]`` — edge weights, symmetric across the two copies.
    vwgts:
        ``int64[n, ncon]`` — vertex weight matrix; column ``j`` is the
        ``j``-th balance constraint.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgts: np.ndarray

    def __post_init__(self) -> None:
        self.xadj = np.ascontiguousarray(self.xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(self.adjncy, dtype=np.int64)
        self.adjwgt = np.ascontiguousarray(self.adjwgt, dtype=np.int64)
        vw = np.asarray(self.vwgts)
        if vw.ndim == 1:
            vw = vw[:, None]
        self.vwgts = np.ascontiguousarray(vw, dtype=np.int64)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (each stored twice)."""
        return len(self.adjncy) // 2

    @property
    def ncon(self) -> int:
        """Number of balance constraints (columns of ``vwgts``)."""
        return self.vwgts.shape[1]

    @property
    def total_vwgt(self) -> np.ndarray:
        """Per-constraint total vertex weight, shape ``(ncon,)``."""
        return self.vwgts.sum(axis=0)

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees."""
        return np.diff(self.xadj)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v`` (a CSR view, do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        """Weights of the edges incident to ``v``, aligned with
        :meth:`neighbors`."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    @cached_property
    def lists(self) -> AdjacencyLists:
        """List twin of the arrays, for the partitioner's move loops.

        A scalar loop that visits one neighbourhood per move pays for a
        fresh array view and ``np.int64`` boxing on every element it
        reads from the arrays; over lists of Python ints the same visit
        is 3–4× cheaper. Built by four ``tolist()`` calls on first use
        and kept for the life of the instance: the arrays are never
        written in place, and :meth:`with_vwgts` / :meth:`with_adjwgt`
        / :meth:`copy` build new instances that start without it. Not a
        field: not compared, not ``repr``-ed, not pickled.
        """
        return AdjacencyLists(
            self.xadj.tolist(),
            self.adjncy.tolist(),
            self.adjwgt.tolist(),
            self.vwgts.ravel().tolist(),
            self.ncon,
        )

    @cached_property
    def row_index(self) -> np.ndarray:
        """``int64[2m]`` — the vertex whose row holds each adjacency
        entry: ``row_index[i] == v`` for ``xadj[v] <= i < xadj[v+1]``.

        The CSR row expansion every whole-graph edge mask starts from,
        built once per instance and read-only. Cached and dropped like
        :attr:`lists`: not a field, not pickled, and derived graphs
        start without it.
        """
        rows = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees()
        )
        rows.setflags(write=False)
        return rows

    def __getstate__(self) -> Dict[str, np.ndarray]:
        state = dict(self.__dict__)
        # derived: rebuilt on demand after loading
        state.pop("lists", None)
        state.pop("row_index", None)
        return state

    def incident_edges(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`neighbors` for a vertex set.

        Returns ``(owner, edges)``: ``edges`` indexes ``adjncy`` /
        ``adjwgt`` and lists every adjacency entry of ``vertices[0]``,
        then of ``vertices[1]``, … (CSR order within a vertex);
        ``owner[e]`` is the position in ``vertices`` that entry
        ``edges[e]`` belongs to.
        """
        starts = self.xadj[vertices]
        degs = self.xadj[vertices + 1] - starts
        owner = np.repeat(np.arange(len(vertices), dtype=np.int64), degs)
        # entry e of vertex i sits at starts[i] + (e - first entry of i)
        first = np.cumsum(degs) - degs
        edges = np.arange(len(owner), dtype=np.int64) + (starts - first)[owner]
        return owner, edges

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``.

        Deliberately lazy (debug/export helper); hot paths must use the
        vectorised :meth:`edge_array` instead.
        """
        for u in range(self.num_vertices):
            # lazy by design, not a hot path
            for idx in range(self.xadj[u], self.xadj[u + 1]):  # repro-lint: disable=LOOP001
                v = self.adjncy[idx]
                if u < v:
                    yield u, int(v), int(self.adjwgt[idx])

    def edge_array(self) -> np.ndarray:
        """All undirected edges once, as an ``(m, 3)`` array of
        ``(u, v, w)`` rows with ``u < v``. Vectorised counterpart of
        :meth:`iter_edges`."""
        src = self.row_index
        mask = src < self.adjncy
        return np.column_stack(
            (src[mask], self.adjncy[mask], self.adjwgt[mask])
        )

    # ------------------------------------------------------------------
    # consistency
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on breakage.

        Verifies monotone offsets, in-range neighbour ids, absence of
        self-loops, symmetry of the adjacency structure, and matching
        ``vwgts`` length. Intended for tests and debugging (O(m log m)).
        """
        n = self.num_vertices
        check_array("xadj", self.xadj, ndim=1)
        if n < 0 or self.xadj[0] != 0:
            raise ValueError("xadj must start at 0")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        if self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj[-1] must equal len(adjncy)")
        if len(self.adjwgt) != len(self.adjncy):
            raise ValueError("adjwgt and adjncy lengths differ")
        if self.vwgts.shape[0] != n:
            raise ValueError(
                f"vwgts has {self.vwgts.shape[0]} rows for {n} vertices"
            )
        if len(self.adjncy):
            if self.adjncy.min() < 0 or self.adjncy.max() >= n:
                raise ValueError("adjncy contains out-of-range vertex ids")
        src = self.row_index
        if np.any(src == self.adjncy):
            raise ValueError("graph contains self-loops")
        # symmetry: the multiset of (u,v,w) equals the multiset of (v,u,w)
        fwd = np.lexsort((self.adjwgt, self.adjncy, src))
        rev = np.lexsort((self.adjwgt, src, self.adjncy))
        if not (
            np.array_equal(src[fwd], self.adjncy[rev])
            and np.array_equal(self.adjncy[fwd], src[rev])
            and np.array_equal(self.adjwgt[fwd], self.adjwgt[rev])
        ):
            raise ValueError("adjacency structure is not symmetric")

    # ------------------------------------------------------------------
    # conversions / misc
    # ------------------------------------------------------------------
    def with_vwgts(self, vwgts: np.ndarray) -> "CSRGraph":
        """Return a graph sharing this adjacency but with new vertex
        weights (used to re-weight the nodal graph per §4.2)."""
        return CSRGraph(self.xadj, self.adjncy, self.adjwgt, vwgts)

    def with_adjwgt(self, adjwgt: np.ndarray) -> "CSRGraph":
        """Return a graph sharing this adjacency but with new edge weights."""
        adjwgt = np.asarray(adjwgt, dtype=np.int64)
        if len(adjwgt) != len(self.adjncy):
            raise ValueError("adjwgt length must match adjncy")
        return CSRGraph(self.xadj, self.adjncy, adjwgt, self.vwgts)

    def copy(self) -> "CSRGraph":
        """Deep copy."""
        return CSRGraph(
            self.xadj.copy(),
            self.adjncy.copy(),
            self.adjwgt.copy(),
            self.vwgts.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"ncon={self.ncon})"
        )
