"""Tests for the unified Partitioner protocol and PartitionResult.

The contract under test: every partitioning strategy implements one
``fit(snapshot, tracer=, ledger=) -> PartitionResult`` API, and the
result is a plain record — the legacy chained style
(``Partitioner(k).fit(snap).part``) is gone, not proxied.
"""

import numpy as np
import pytest

from repro.core import (
    AprioriPartitioner,
    MCMLDTPartitioner,
    MLRCBPartitioner,
    PartitionDiagnostics,
    Partitioner,
    PartitionResult,
)
from repro.obs.tracer import Tracer
from repro.runtime.ledger import CommLedger

K = 4

ALL_PARTITIONERS = [MCMLDTPartitioner, MLRCBPartitioner, AprioriPartitioner]


@pytest.fixture(scope="module")
def snap(small_sequence):
    return small_sequence[0]


@pytest.mark.parametrize("cls", ALL_PARTITIONERS)
class TestProtocol:
    def test_isinstance(self, cls, snap):
        assert isinstance(cls(K), Partitioner)

    def test_fit_returns_result(self, cls, snap):
        pt = cls(K)
        result = pt.fit(snap)
        assert isinstance(result, PartitionResult)
        assert result.method == cls.method
        assert result.k == K
        assert len(result.labels) == snap.mesh.num_nodes
        assert result.labels.min() >= 0 and result.labels.max() < K
        assert isinstance(result.diagnostics, PartitionDiagnostics)
        assert "edge_cut_final" in result.diagnostics
        assert isinstance(result.ledger, CommLedger)

    def test_fit_uses_caller_ledger_and_tracer(self, cls, snap):
        tracer = Tracer()
        ledger = CommLedger()
        result = cls(K).fit(snap, tracer=tracer, ledger=ledger)
        assert result.ledger is ledger
        assert result.spans is not None and result.spans.name == "fit"
        root = tracer.finish()
        assert root.find("fit") is not None

    def test_labels_are_the_source_partition(self, cls, snap):
        pt = cls(K)
        result = pt.fit(snap)
        src_labels = pt.part_fe if cls is MLRCBPartitioner else pt.part
        assert result.labels is src_labels


class TestDiagnostics:
    def test_mapping_and_attribute_access_agree(self, snap):
        diag = MCMLDTPartitioner(K).fit(snap).diagnostics
        assert diag["edge_cut_final"] == diag.edge_cut_final
        assert set(diag) >= {"edge_cut_initial", "edge_cut_final"}
        assert len(diag) == len(dict(diag))

    def test_unknown_key_lists_available(self, snap):
        diag = AprioriPartitioner(K).fit(snap).diagnostics
        with pytest.raises(AttributeError, match="available"):
            diag.no_such_diagnostic
        with pytest.raises(KeyError):
            diag["no_such_diagnostic"]


class TestDeprecationShim:
    """The attribute proxy to the source partitioner is gone; these pin
    that a result is a plain record (class name kept for stable ids)."""

    def test_result_fields_never_warn(self, snap, recwarn):
        result = AprioriPartitioner(K).fit(snap)
        result.labels, result.method, result.k
        result.diagnostics, result.ledger, result.spans
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_unknown_attribute_raises(self, snap):
        result = MCMLDTPartitioner(K).fit(snap)
        with pytest.raises(AttributeError, match="no attribute"):
            result.definitely_not_an_attr

    def test_detached_result_has_no_proxy(self):
        bare = PartitionResult(
            method="x", k=2, labels=np.zeros(4, dtype=np.int64),
            diagnostics=PartitionDiagnostics({}),
        )
        with pytest.raises(AttributeError):
            bare.part
