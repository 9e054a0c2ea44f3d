"""Multi-constraint balance bookkeeping shared by the refinement code.

A k-way partitioning with ``ncon`` constraints is *feasible* when every
partition's weight in every constraint stays below
``ubfactor * target`` (paper §2: ``LoadImbalance(P, j) <= 1 + eps``).
``violation`` quantifies infeasibility as the summed relative excess,
which gives the refinement loops a scalar to descend when a partition
starts out unbalanced (exactly the situation after the paper's P→P'
leaf-majority reassignment).
"""

from __future__ import annotations

import numpy as np


def target_weights(
    total_vwgt: np.ndarray, fracs: np.ndarray
) -> np.ndarray:
    """Per-partition per-constraint target weights, shape ``(k, ncon)``.

    ``fracs`` are the desired fractions per partition (summing to 1);
    recursive bisection uses uneven fractions like (3/5, 2/5) when k is
    not a power of two.
    """
    fracs = np.asarray(fracs, dtype=float)
    if not np.isclose(fracs.sum(), 1.0):
        raise ValueError(f"fracs must sum to 1, got {fracs.sum()}")
    return np.outer(fracs, np.asarray(total_vwgt, dtype=float))


def equal_targets(total_vwgt: np.ndarray, k: int) -> np.ndarray:
    """The targets of ``k`` equal shares (paper §2: ``total / k``) that
    every k-way stage balances to, computed through ``1 / k``
    fractions as :func:`target_weights`."""
    return target_weights(total_vwgt, np.full(k, 1.0 / k, dtype=np.float64))


def max_allowed(targets: np.ndarray, ubfactor: float) -> np.ndarray:
    """Upper weight bounds: ``ubfactor * target`` (zero targets stay 0
    but are never binding — see :func:`violation`)."""
    return targets * ubfactor


def violation(
    pwgts: np.ndarray, targets: np.ndarray, ubfactor: float
) -> float:
    """Summed relative excess over the allowed bounds (0 ⇔ feasible).

    Excess in constraint ``j`` is normalised by that constraint's mean
    target so constraints with different magnitudes contribute
    comparably. Constraints whose total weight is zero are skipped.
    """
    pwgts = np.asarray(pwgts, dtype=float)
    allowed = max_allowed(targets, ubfactor)
    scale = targets.mean(axis=0)
    total = 0.0
    for j in range(targets.shape[1]):
        if scale[j] <= 0:
            continue
        excess = np.maximum(0.0, pwgts[:, j] - allowed[:, j])
        total += float(excess.sum() / scale[j])
    return total


def violation_delta(
    pwgts: np.ndarray,
    vwgt: np.ndarray,
    src: int,
    dst: int,
    targets: np.ndarray,
    ubfactor: float,
) -> float:
    """Change in :func:`violation` caused by moving ``vwgt`` from
    ``src`` to ``dst`` (negative = improves balance)."""
    before = violation(pwgts[[src, dst]], targets[[src, dst]], ubfactor)
    after_pw = np.vstack((pwgts[src] - vwgt, pwgts[dst] + vwgt))
    after = violation(after_pw, targets[[src, dst]], ubfactor)
    return after - before


class BalanceTracker:
    """Incremental violation bookkeeping for the refinement inner loops.

    The naive :func:`violation_delta` allocates arrays per call, which
    dominates k-way refinement cost. This tracker holds partition
    weights and bounds as plain Python lists (ncon is 1–2 in practice)
    and answers move queries in O(ncon) with no allocation. Semantics
    match :func:`violation` exactly (asserted by tests).

    The ``*_many`` queries answer the same questions for a whole batch
    of vertex weights against every destination at once. They perform
    the scalar methods' floating-point operations in the scalar
    methods' order, so ``delta_move_many(src, w)[i, d] ==
    delta_move(src, d, w[i])`` holds with ``==``: a caller may switch
    between the two forms without changing which move wins a tie.
    """

    def __init__(
        self, pwgts: np.ndarray, targets: np.ndarray, ubfactor: float
    ) -> None:
        pwgts = np.asarray(pwgts, dtype=float)
        targets = np.asarray(targets, dtype=float)
        self.k, self.ncon = targets.shape
        allowed = max_allowed(targets, ubfactor)
        scale = targets.mean(axis=0)
        # constraints with zero total weight never contribute
        self._inv_scale = [
            (1.0 / s) if s > 0 else 0.0 for s in scale.tolist()
        ]
        #: the constraints a bound can bind (nonzero total weight)
        self.binding = [
            j for j, inv in enumerate(self._inv_scale) if inv > 0.0
        ]
        self.pw = [row[:] for row in pwgts.tolist()]
        self.allowed = [row[:] for row in allowed.tolist()]
        # immutable array twin of the bounds for the *_many queries
        self._allowed_arr = allowed
        self.resync()

    def resync(self) -> None:
        """Re-derive the violation rows and ``total`` from ``pw``.

        For a loop that writes ``pw`` in place instead of calling
        :meth:`apply_move` per move: the rows come out as
        :meth:`apply_move` would have left them (each is a function of
        its weights only); ``total`` as a fresh tracker's, without the
        running sum's drift.
        """
        self._viol = [self._violation_row(p) for p in range(self.k)]
        self.total = sum(self._viol)

    def _violation_row(self, p: int) -> float:
        pw, al, inv = self.pw[p], self.allowed[p], self._inv_scale
        total = 0.0
        for j in range(self.ncon):
            excess = pw[j] - al[j]
            if excess > 0.0 and inv[j] > 0.0:
                total += excess * inv[j]
        return total

    def violation_of(self, p: int) -> float:
        """Current violation contribution of partition ``p``."""
        return self._viol[p]

    def worst(self):
        """``(partition, constraint)`` with the largest relative excess,
        or ``None`` when feasible."""
        best, best_val = None, 0.0
        for p in range(self.k):
            if self._viol[p] <= 0.0:
                continue
            pw, al, inv = self.pw[p], self.allowed[p], self._inv_scale
            for j in range(self.ncon):
                excess = (pw[j] - al[j]) * inv[j]
                if excess > best_val:
                    best_val, best = excess, (p, j)
        return best

    def delta_move(self, src: int, dst: int, vwgt) -> float:
        """Violation change if a vertex of weight ``vwgt`` moved
        ``src → dst`` (no allocation, state unchanged)."""
        inv = self._inv_scale
        pw_s, al_s = self.pw[src], self.allowed[src]
        pw_d, al_d = self.pw[dst], self.allowed[dst]
        before = self._viol[src] + self._viol[dst]
        after = 0.0
        for j in range(self.ncon):
            if inv[j] <= 0.0:
                continue
            e_s = pw_s[j] - vwgt[j] - al_s[j]
            if e_s > 0.0:
                after += e_s * inv[j]
            e_d = pw_d[j] + vwgt[j] - al_d[j]
            if e_d > 0.0:
                after += e_d * inv[j]
        return after - before

    def fits(self, dst: int, vwgt) -> bool:
        """Would adding ``vwgt`` keep ``dst`` within every bound?"""
        pw_d, al_d = self.pw[dst], self.allowed[dst]
        for j in self.binding:
            if pw_d[j] + vwgt[j] > al_d[j]:
                return False
        return True

    def fits_many(self, vwgts: np.ndarray) -> np.ndarray:
        """:meth:`fits` for every row of ``vwgts`` (shape ``(m, ncon)``)
        against every destination: boolean ``(m, k)``."""
        pw, allowed = self.pwgts_array(), self._allowed_arr
        over = np.zeros((len(vwgts), self.k), dtype=bool)
        for j in self.binding:
            over |= pw[:, j] + vwgts[:, j, None] > allowed[:, j]
        return ~over

    def fits_each(self, dsts: np.ndarray, vwgts: np.ndarray) -> np.ndarray:
        """:meth:`fits` for row ``i`` of ``vwgts`` (shape ``(m, ncon)``)
        into partition ``dsts[i]`` only: boolean ``(m,)``."""
        pw, allowed = self.pwgts_array(), self._allowed_arr
        over = np.zeros(len(dsts), dtype=bool)
        for j in self.binding:
            over |= pw[dsts, j] + vwgts[:, j] > allowed[dsts, j]
        return ~over

    def has_slack(self, j: int) -> np.ndarray:
        """Which partitions sit strictly below their bound in
        constraint ``j``: boolean ``(k,)``."""
        return self.pwgts_array()[:, j] < self._allowed_arr[:, j]

    def delta_move_many(self, src: int, vwgts: np.ndarray) -> np.ndarray:
        """:meth:`delta_move` out of ``src`` for every row of ``vwgts``
        (shape ``(m, ncon)``) into every destination: float ``(m, k)``.

        A term the scalar sum skips (excess ≤ 0) is added as zero
        here, which leaves a non-negative running sum bit-for-bit
        unchanged.
        """
        pw, allowed = self.pwgts_array(), self._allowed_arr
        viol = np.asarray(self._viol)
        after = np.zeros((len(vwgts), self.k), dtype=np.float64)
        for j, inv in enumerate(self._inv_scale):
            if inv <= 0.0:
                continue
            w = vwgts[:, j]
            e_s = pw[src, j] - w - allowed[src, j]
            after += (np.maximum(e_s, 0.0) * inv)[:, None]
            e_d = pw[:, j] + w[:, None] - allowed[:, j]
            after += np.maximum(e_d, 0.0) * inv
        return after - (viol[src] + viol)

    def apply_move(self, src: int, dst: int, vwgt) -> None:
        """Commit a move and update cached violations."""
        pw_s, pw_d = self.pw[src], self.pw[dst]
        for j in range(self.ncon):
            pw_s[j] -= vwgt[j]
            pw_d[j] += vwgt[j]
        for p in (src, dst):
            old = self._viol[p]
            new = self._violation_row(p)
            self._viol[p] = new
            self.total += new - old

    def pwgts_array(self) -> np.ndarray:
        """Current partition weights as an ``(k, ncon)`` array."""
        return np.asarray(self.pw, dtype=float)
