"""Local contact search: exact node-vs-surface-element tests.

The paper deliberately scopes local search out ("the exact details of
the local search phase do not affect the approach used to perform the
global search") — but a production contact code needs one, and having
it lets the examples run the *complete* detection pipeline: global
search filters candidate (element, node) pairs, local search resolves
each candidate to a closest-point projection, gap distance, and
penetration flag.

Implemented as the standard master-slave node-on-segment/facet test:

* 2D (edge faces): project the node onto the segment, clamp to it.
* 3D (quad faces): decompose the bilinear facet into two triangles and
  take the closer closest-point projection; penetration is signed
  against the facet normal (outward per the mesh's face orientation).

All routines are vectorised across candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class ContactResolution:
    """Outcome of local search over a candidate set.

    Arrays are aligned with the input pair list: ``gap[i]`` is the
    signed distance of node ``pairs[i][1]`` to element ``pairs[i][0]``
    (negative = penetrating), ``point[i]`` the closest point on the
    element surface.
    """

    pairs: List[Tuple[int, int]]
    gap: np.ndarray
    point: np.ndarray

    @property
    def penetrating(self) -> np.ndarray:
        """Boolean mask of pairs with negative gap."""
        return self.gap < 0.0

    def worst_penetration(self) -> float:
        """Deepest penetration (0 when none)."""
        return float(min(0.0, self.gap.min())) if len(self.gap) else 0.0


def _closest_point_on_segments(
    p: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Closest points on segments [a, b] to points p (row-aligned)."""
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom <= 0, 1.0, denom)
    t = np.einsum("ij,ij->i", p - a, ab) / denom
    t = np.clip(t, 0.0, 1.0)
    return a + t[:, None] * ab


def _closest_point_on_triangles(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Closest points on triangles (a, b, c) to points p (row-aligned).

    Ericson's method, vectorised: classify against the six Voronoi
    regions of the triangle and blend.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        nonlocal done
        mask = mask & ~done
        out[mask] = value[mask]
        done |= mask

    settle((d1 <= 0) & (d2 <= 0), a)  # vertex A
    settle((d3 >= 0) & (d4 <= d3), b)  # vertex B
    settle((d6 >= 0) & (d5 <= d6), c)  # vertex C

    vc = d1 * d4 - d3 * d2
    v_ab = np.divide(d1, d1 - d3, out=np.zeros_like(d1),
                     where=(d1 - d3) != 0)
    settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab[:, None] * ab)

    vb = d5 * d2 - d1 * d6
    w_ac = np.divide(d2, d2 - d6, out=np.zeros_like(d2),
                     where=(d2 - d6) != 0)
    settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w_ac[:, None] * ac)

    va = d3 * d6 - d5 * d4
    w_bc = np.divide(
        d4 - d3, (d4 - d3) + (d5 - d6),
        out=np.zeros_like(d4), where=((d4 - d3) + (d5 - d6)) != 0,
    )
    settle(
        (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0),
        b + w_bc[:, None] * (c - b),
    )

    denom = va + vb + vc
    denom = np.where(denom == 0, 1.0, denom)
    v = vb / denom
    w = vc / denom
    interior = a + v[:, None] * ab + w[:, None] * ac
    out[~done] = interior[~done]
    return out


def resolve_candidates(
    nodes: np.ndarray,
    faces: np.ndarray,
    candidate_pairs: Sequence[Tuple[int, int]],
) -> ContactResolution:
    """Run local search over global-search candidates.

    ``candidate_pairs`` holds (face index, node id) pairs — the output
    of :func:`repro.core.contact_search.serial_candidate_pairs` or the
    parallel search. Gap sign comes from the face normal (2D: left
    normal of the edge; 3D: bilinear facet normal), so penetration
    means the node is behind the surface's outward side.
    """
    nodes = np.asarray(nodes, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    pairs = list(candidate_pairs)
    if not pairs:
        return ContactResolution(
            pairs=[], gap=np.empty(0), point=np.empty((0, nodes.shape[1]))
        )
    f_idx = np.array([p[0] for p in pairs], dtype=np.int64)
    n_idx = np.array([p[1] for p in pairs], dtype=np.int64)
    p = nodes[n_idx]
    corners = nodes[faces[f_idx]]  # (m, npf, d)
    d = nodes.shape[1]

    if d == 2:
        a, b = corners[:, 0], corners[:, 1]
        closest = _closest_point_on_segments(p, a, b)
        edge = b - a
        normal = np.column_stack((-edge[:, 1], edge[:, 0]))
    elif d == 3:
        if corners.shape[1] == 3:
            tri_sets = [(0, 1, 2)]
        else:  # quad facet → two triangles
            tri_sets = [(0, 1, 2), (0, 2, 3)]
        best = None
        best_d2 = None
        for (i, j, k) in tri_sets:
            cand = _closest_point_on_triangles(
                p, corners[:, i], corners[:, j], corners[:, k]
            )
            d2 = ((p - cand) ** 2).sum(axis=1)
            if best is None:
                best, best_d2 = cand, d2
            else:
                better = d2 < best_d2
                best[better] = cand[better]
                best_d2[better] = d2[better]
        closest = best
        normal = np.cross(
            corners[:, 1] - corners[:, 0], corners[:, -1] - corners[:, 0]
        )
    else:
        raise ValueError(f"unsupported dimension {d}")

    norm_len = np.linalg.norm(normal, axis=1)
    norm_len = np.where(norm_len <= 0, 1.0, norm_len)
    normal = normal / norm_len[:, None]
    offset = p - closest
    dist = np.linalg.norm(offset, axis=1)
    side = np.sign(np.einsum("ij,ij->i", offset, normal))
    side = np.where(side == 0, 1.0, side)
    gap = dist * side
    return ContactResolution(pairs=pairs, gap=gap, point=closest)


def penetration_summary(
    resolution: ContactResolution,
) -> Dict[str, float]:
    """Aggregate statistics for reporting."""
    pen = resolution.penetrating
    return {
        "candidates": float(len(resolution.pairs)),
        "penetrating": float(int(pen.sum())),
        "worst_penetration": resolution.worst_penetration(),
        "mean_gap": float(resolution.gap.mean())
        if len(resolution.gap)
        else 0.0,
    }
