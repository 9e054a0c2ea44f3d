"""Global contact search: serial reference and parallel execution.

Detection semantics follow the paper's global search: a contact *node*
``x`` is a candidate for surface element ``e`` when ``x`` lies inside
``e``'s (padded) bounding box and ``x`` is not one of ``e``'s own
nodes. The serial routine is the ground truth; the parallel routine
ships elements per a :class:`~repro.geometry.boxsearch.SearchPlan`
through the SPMD runtime and unions the per-rank results — tests
assert the two sets are identical for both the bbox and the
decision-tree filters (completeness of the filters), on every
execution backend.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.geometry.boxsearch import SearchPlan, candidate_pairs
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.runtime.backends import SpmdContext, resolve_backend
from repro.runtime.backends.base import BackendLike
from repro.runtime.ledger import CommLedger


def row_majority(labels: np.ndarray) -> np.ndarray:
    """Majority value of each row of an integer matrix (ties → smaller
    value). Vectorised over rows via a sorted run-length scan."""
    s = np.sort(np.asarray(labels, dtype=np.int64), axis=1)
    n, w = s.shape
    best_val = s[:, 0].copy()
    best_cnt = np.ones(n, dtype=np.int64)
    cur_cnt = np.ones(n, dtype=np.int64)
    for j in range(1, w):
        same = s[:, j] == s[:, j - 1]
        cur_cnt = np.where(same, cur_cnt + 1, 1)
        upd = cur_cnt > best_cnt
        best_cnt[upd] = cur_cnt[upd]
        best_val[upd] = s[upd, j]
    return best_val


def face_owner_partition(part: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Partition owning each surface element: the majority partition of
    its nodes (the processor that stores most of the element)."""
    return row_majority(np.asarray(part)[np.asarray(faces, dtype=np.int64)])


def _drop_own_nodes(
    element_faces: np.ndarray,
    elem_idx: np.ndarray,
    node_ids: np.ndarray,
) -> Set[Tuple[int, int]]:
    """Pair set from parallel (element, node id) arrays, excluding
    pairs where the node is one of the element's own nodes — one batch
    comparison per connectivity column."""
    if len(elem_idx) == 0:
        return set()
    keep = np.ones(len(elem_idx), dtype=bool)
    for col in range(element_faces.shape[1]):
        keep &= element_faces[:, col][elem_idx] != node_ids
    return set(
        zip(elem_idx[keep].tolist(), node_ids[keep].tolist())
    )


def serial_candidate_pairs(
    element_boxes: np.ndarray,
    element_faces: np.ndarray,
    contact_points: np.ndarray,
    contact_ids: np.ndarray,
) -> Set[Tuple[int, int]]:
    """Ground-truth candidate set: all (element index, contact node id)
    with the node in the element's box, excluding the element's own
    nodes."""
    element_boxes = np.asarray(element_boxes, dtype=float)
    element_faces = np.asarray(element_faces, dtype=np.int64)
    b_idx, node_ids = candidate_pairs(
        element_boxes, np.asarray(contact_points, float),
        np.asarray(contact_ids, np.int64),
    )
    return _drop_own_nodes(element_faces, b_idx, node_ids)


# ----------------------------------------------------------------------
# the two supersteps of the parallel search (module-level so they are
# picklable and execute on the process backend's worker pool; the big
# arrays arrive through ctx.shared, shipped once per session)
# ----------------------------------------------------------------------


def _exchange_step(ctx: SpmdContext, _arg: object) -> None:
    """Superstep 1: ship each owned surface element to the remote
    ranks the search plan selected (phase ``contact-exchange``)."""
    with ctx.span("exchange"):
        owner = ctx.shared["owner"]
        mine = np.nonzero(owner == ctx.rank)[0]
        ctx.state["elems"] = mine
        ctx.state["points"] = np.nonzero(
            ctx.shared["point_partition"] == ctx.rank
        )[0]
        if len(mine) == 0:
            return
        sends = ctx.shared["send_matrix"][mine]  # (m_local, k)
        for dst in range(ctx.size):
            sel = mine[sends[:, dst]]
            if len(sel):
                ctx.send(dst, sel, phase="contact-exchange",
                         items=len(sel))


def _search_step(ctx: SpmdContext, _arg: object) -> Set[Tuple[int, int]]:
    """Superstep 2: search local contact points against the owned plus
    received elements; return the local candidate pairs."""
    with ctx.span("search"):
        local_elems = [ctx.state["elems"]]
        for _src, payload in ctx.inbox():
            local_elems.append(payload)
        elems = (
            np.concatenate(local_elems)
            if local_elems
            else np.empty(0, np.int64)
        )
        pts_idx = ctx.state["points"]
        if len(elems) == 0 or len(pts_idx) == 0:
            return set()
        element_boxes = ctx.shared["element_boxes"]
        element_faces = ctx.shared["element_faces"]
        local_b, node_ids = candidate_pairs(
            element_boxes[elems],
            ctx.shared["contact_points"][pts_idx],
            ctx.shared["contact_ids"][pts_idx],
        )
        return _drop_own_nodes(element_faces, elems[local_b], node_ids)


def parallel_contact_search(
    plan: SearchPlan,
    element_boxes: np.ndarray,
    element_faces: np.ndarray,
    contact_points: np.ndarray,
    contact_ids: np.ndarray,
    point_partition: np.ndarray,
    k: int,
    ledger: Optional[CommLedger] = None,
    tracer: Optional[TracerBase] = None,
    backend: BackendLike = None,
) -> Tuple[Set[Tuple[int, int]], CommLedger]:
    """Execute the two-superstep parallel global search.

    Superstep 1: every rank ships each of its surface elements to the
    remote ranks ``plan`` selected (ledger phase ``contact-exchange``).
    Superstep 2: every rank searches its *local* contact points against
    its own plus the received elements. Returns the union of per-rank
    candidate pairs and the ledger.

    ``backend`` selects where the ranks execute (see
    :func:`repro.runtime.backends.resolve_backend`); results are
    bit-identical across backends. With a recording ``tracer`` the run
    opens a ``global-search`` span whose ``exchange``/``search``
    children accumulate the per-rank superstep times (``n_calls`` =
    ranks).
    """
    ledger = ledger if ledger is not None else CommLedger()
    tracer = ensure_tracer(tracer)
    shared = {
        "element_boxes": np.asarray(element_boxes, dtype=float),
        "element_faces": np.asarray(element_faces, dtype=np.int64),
        "contact_points": np.asarray(contact_points, dtype=float),
        "contact_ids": np.asarray(contact_ids, dtype=np.int64),
        "point_partition": np.asarray(point_partition, dtype=np.int64),
        "owner": np.asarray(plan.owner, dtype=np.int64),
        "send_matrix": np.asarray(plan.send_matrix, dtype=bool),
    }
    resolved = resolve_backend(backend)
    with tracer.span("global-search"):
        with resolved.open_session(
            k, ledger=ledger, tracer=tracer, shared=shared
        ) as session:
            session.step(_exchange_step)
            rank_sets = session.step(_search_step)
        union: Set[Tuple[int, int]] = set()
        for rank_pairs in rank_sets:
            union |= rank_pairs
        tracer.count("candidates", len(union))
    return union, ledger
