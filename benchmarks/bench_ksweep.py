"""k-sweep: how the MCML+DT vs ML+RCB balance shifts with partition
count.

The paper reports two k values; this sweep fills in the curve on the
default-resolution scene. Its check is the k-trend of
:meth:`repro.core.pipeline.Table1.claims` — the FE-side ratio
(ML+RCB / MCML+DT) non-increasing in k and above 1 at the smallest k,
the paper's 72 % → 29 % trend — beside the per-k §5.2 claims.
"""

from __future__ import annotations

import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.ml_rcb import MLRCBParams
from repro.core.pipeline import table1

from .conftest import strong_options

KS = (4, 8, 16)


def test_ksweep(benchmark, short_sequence, capsys):
    strong = strong_options()
    result = benchmark.pedantic(
        table1,
        (short_sequence, KS, MCMLDTParams(options=strong),
         MLRCBParams(options=strong)),
        rounds=1,
        iterations=1,
    )
    claims = result.claims()
    with capsys.disabled():
        print("\n" + result.render())
        print("\n".join(map(str, claims)))
    assert all(c.held for c in claims), [str(c) for c in claims]
