"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (matching order, initial
partition seeds, synthetic workload generation) accepts a ``seed``
argument that is normalised here, so whole experiments are reproducible
from a single integer.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a fresh nondeterministic generator, an ``int`` a
    seeded one, and an existing generator is passed through unchanged so
    callers can thread one generator through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from ``seed``.

    Used when a driver fans work out to components that must not share
    a random stream (e.g. per-bisection seeds in recursive bisection).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = as_rng(seed)
    seq = np.random.SeedSequence(root.integers(0, 2**63 - 1))
    return [np.random.default_rng(s) for s in seq.spawn(n)]
