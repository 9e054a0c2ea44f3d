"""Table 1: MCML+DT vs ML+RCB over a snapshot sequence.

Two scenes through the same :func:`repro.core.pipeline.table1` and
:meth:`~repro.core.pipeline.Table1.claims`: the paper-scale sequence at
k = 8 and 25 (``repro-contact table1 --scale paper`` prints the same
table), and a k-sweep on the default-resolution scene that fills in
the curve between the paper's two k. The last claim of each is the
k-trend — the FE-side ratio (ML+RCB / MCML+DT) non-increasing in k and
above 1 at the smallest k, the paper's 72 % → 29 % trend.
"""

from __future__ import annotations

import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.ml_rcb import MLRCBParams
from repro.core.pipeline import table1

from .conftest import BENCH_KS, show, strong_options


@pytest.mark.parametrize(
    "scene, ks",
    [("bench_sequence", BENCH_KS), ("short_sequence", (4, 8, 16))],
    ids=["paper", "ksweep"],
)
def test_table1(request, capsys, scene, ks):
    strong = strong_options()
    result = table1(
        request.getfixturevalue(scene), ks,
        MCMLDTParams(options=strong), MLRCBParams(options=strong),
    )
    claims = result.claims()
    show(capsys, result.render(), *claims)
    assert all(c.held for c in claims), [str(c) for c in claims]
