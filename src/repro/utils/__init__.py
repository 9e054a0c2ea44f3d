"""Shared low-level utilities: seeded RNG, validation, array helpers."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_array,
    check_csr_arrays,
    check_in_range,
    check_labels,
    check_positive,
)
from repro.utils.arrays import (
    counts_per_label,
    relabel_contiguous,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_array",
    "check_csr_arrays",
    "check_in_range",
    "check_labels",
    "check_positive",
    "counts_per_label",
    "relabel_contiguous",
]
