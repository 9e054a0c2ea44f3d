"""Pinned label digests at paper scale (17,983 nodes), the scene the
bench spine fits: snapshot 0 of ``ImpactConfig.paper_scale()``,
``PartitionOptions(seed=0)``, pad 0.1.

The spine only checks a run against itself ("every rep yields the same
labels"); these values were recorded at the commit before the
partitioner's move loops moved onto Python ints (PR 20), next to the
default-scale ones in ``test_label_digests.py``. Paper scale matters
separately: it is where tie order in the FM rebalancer's unstable
``argsort`` decides labels (see ``refine_fm._rebalance``), so a digest
that moves here while the default-scale ones hold points at a sort, not
at a loop. A deliberate quality change updates these values in the same
commit and says so.
"""

import pytest

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.graph.digest import digest_arrays
from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact

#: k -> (label digest, final edge cut)
MCML_DT = {
    8: ("8097af99151f5e925a2feca1d2a5d4cb81febe2c740c8f4370bb6742aaea1059", 3656),
    25: ("9389c931a7855b0a8698b180031ee2c80c921b5a8614f18a00a35d408554dae5", 7045),
}
ML_RCB_25 = "e08826b914e4b46fba7c452d6a8d032f10e2f8f24d2a6fe75b9b5dc8c3d9bfc0"


@pytest.fixture(scope="module")
def paper_snapshot():
    return simulate_impact(ImpactConfig.paper_scale(), 1)[0]


@pytest.mark.parametrize("k", sorted(MCML_DT))
def test_mcml_dt_paper_labels_unchanged(paper_snapshot, k):
    params = MCMLDTParams(pad=0.1, options=PartitionOptions(seed=0))
    result = MCMLDTPartitioner(k, params).fit(paper_snapshot)
    digest, cut = MCML_DT[k]
    assert result.diagnostics["edge_cut_final"] == cut
    assert digest_arrays({"labels": result.labels}) == digest


def test_ml_rcb_paper_labels_unchanged(paper_snapshot):
    # single-constraint (ncon=1) path through the same loops
    params = MLRCBParams(pad=0.1, options=PartitionOptions(seed=0))
    result = MLRCBPartitioner(25, params).fit(paper_snapshot)
    assert digest_arrays({"labels": result.labels}) == ML_RCB_25
