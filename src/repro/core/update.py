"""Update strategies across a snapshot sequence (paper §4.3).

Three ways to keep the decomposition current as nodes move and elements
erode:

* ``DESCRIPTOR_ONLY`` — partition fixed; only the search tree is
  re-induced each step (fast, no redistribution; tree may grow as the
  boundary geometry drifts away from axis-parallel).
* ``REPARTITION`` — multi-constraint diffusion repartitioning every
  step (balance stays tight; vertices migrate).
* ``HYBRID`` — repartition every ``period`` steps, descriptor-only in
  between (the paper's suggested optimum).

:func:`repartition_due` is the policy;
:class:`~repro.core.driver.ContactStepDriver` is the one loop that
applies it, and :func:`~repro.core.pipeline.evaluate_mcml_dt` runs the
driver over a sequence under any of the three strategies
(``repro-contact ablation-update`` compares them).
"""

from __future__ import annotations

import enum


class UpdateStrategy(enum.Enum):
    """How the decomposition tracks the evolving mesh."""

    DESCRIPTOR_ONLY = "descriptor-only"
    REPARTITION = "repartition"
    HYBRID = "hybrid"


def repartition_due(
    strategy: UpdateStrategy, steps_since_repartition: int, period: int
) -> bool:
    """Whether the §4.3 policy repartitions on the current step.

    ``steps_since_repartition`` counts the current step: with
    ``period = 10`` HYBRID repartitions on the tenth step after the
    last repartition (or the fit), i.e. at steps 9, 19, … of a
    0-based sequence.  The first step of a run never repartitions —
    the driver checks that itself (there is nothing to diffuse from).
    """
    return strategy is UpdateStrategy.REPARTITION or (
        strategy is UpdateStrategy.HYBRID
        and steps_since_repartition >= period
    )
