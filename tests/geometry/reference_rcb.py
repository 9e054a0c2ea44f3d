"""RCB's threshold solve before unit weights took order statistics,
kept verbatim as a differential oracle.

Every cut sorted its coordinates, summed the weights (``np.ones(n)``
when the caller gave none) and searched the cumulative sum.
``tests/geometry/test_weighted_quantile.py`` demands the same threshold
from :func:`repro.geometry.rcb._weighted_quantile`, and
``tests/geometry/test_rcb.py`` the same labels and node thresholds from
:func:`~repro.geometry.rcb.rcb_partition` and
:meth:`~repro.geometry.rcb.RCBTree.update`.
"""

from __future__ import annotations

import numpy as np


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Threshold t such that points with ``value <= t`` carry ~``q`` of
    the total weight. Chooses a midpoint between adjacent values so the
    cut avoids sitting exactly on a point where possible."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    if total <= 0:
        return float(v[len(v) // 2])
    pos = int(np.searchsorted(cum, q * total, side="left"))
    pos = min(pos, len(v) - 1)
    if pos + 1 < len(v):
        return float(0.5 * (v[pos] + v[pos + 1]))
    return float(v[pos])


def unit_or_weighted_quantile(values, weights, q):
    """The oracle behind the library's signature: ``weights=None`` is
    materialised as ``np.ones(n)``, as the library used to do."""
    if weights is None:
        weights = np.ones(len(values))
    return _weighted_quantile(values, weights, q)
