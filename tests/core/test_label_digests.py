"""Pinned label digests: both partitioners on the default-scale scene.

Recorded at the commit before ``rebalance_kway`` became incremental
and batch-scored (PR 13); a speed-up of the partitioning layers must
leave every label where it was. A deliberate quality change updates
these values in the same commit and says so.
"""

import pytest

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.graph.digest import digest_arrays
from repro.partition.config import PartitionOptions

MCML_DT = {
    8: "7f52692a5d5c972281d0cf649c376785385aa7bc762e4edb4d0f6f95b72ac93f",
    25: "2171e703fea2b7f57ea897d56302873d8a61b06fb62d945b253fb7fd6f35bb08",
}
ML_RCB = {
    8: "e7ab0cc72bd24813e348a42e527c0a3ed67d6715b40a7dd28b19e7997154e90b",
    25: "4c333a9d8379f353d424e31ec4db603a36882ac208cbb1dc720fd731c5eb0cab",
}


@pytest.mark.parametrize("k", sorted(MCML_DT))
def test_mcml_dt_labels_unchanged(mid_sequence, k):
    params = MCMLDTParams(options=PartitionOptions(seed=0))
    result = MCMLDTPartitioner(k, params).fit(mid_sequence[0])
    assert digest_arrays({"labels": result.labels}) == MCML_DT[k]


@pytest.mark.parametrize("k", sorted(ML_RCB))
def test_ml_rcb_labels_unchanged(mid_sequence, k):
    # single-constraint (ncon=1) path through the same repair layers
    params = MLRCBParams(options=PartitionOptions(seed=0))
    result = MLRCBPartitioner(k, params).fit(mid_sequence[0])
    assert digest_arrays({"labels": result.labels}) == ML_RCB[k]
