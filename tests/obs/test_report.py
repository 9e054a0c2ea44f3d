"""Tests for RunReport rendering, serialization, and the JSON schema."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    RunReport,
    Tracer,
    validate_report,
)
from repro.runtime.ledger import CommLedger
from repro.utils.schema import SchemaError


def _sample_report() -> RunReport:
    tracer = Tracer()
    with tracer.span("fit"):
        with tracer.span("partition"):
            tracer.count("trials", 4)
        with tracer.span("dtree-induce"):
            tracer.count("tree_nodes", 17)
    ledger = CommLedger()
    ledger.record("contact-exchange", 0, 1, 12)
    ledger.record("repartition", 1, 0, 3)
    return RunReport.from_run(tracer, ledger, k=4, seed=0)


class TestRunReport:
    def test_from_run_merges_ledger(self):
        report = _sample_report()
        assert report.comm["contact-exchange"] == (1, 12)
        assert report.comm_items("repartition") == 3
        assert report.comm_total_items() == 15
        assert report.meta == {"k": 4, "seed": 0}

    def test_save_load_round_trip(self, tmp_path):
        report = _sample_report()
        path = tmp_path / "report.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.comm == report.comm
        assert loaded.meta == report.meta

    def test_render_contains_spans_counters_comm(self):
        text = _sample_report().render()
        assert "Trace spans" in text
        assert "dtree-induce" in text
        assert "tree_nodes=17" in text
        assert "contact-exchange" in text
        assert "k=4" in text

    def test_span_table_disambiguates_duplicate_names(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("build-graph"):
                pass
        with tracer.span("step"):
            with tracer.span("build-graph"):
                pass
        table = RunReport.from_run(tracer).span_table()
        rows = list(table.rows)
        assert any("fit/build-graph" in r or "build-graph" == r.strip()
                   for r in rows)
        assert len(rows) == len(set(rows))  # no silent row collisions

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            RunReport.load(path)


class TestSchema:
    """Golden-schema tests: the emitted JSON document is exactly the
    shape documented in docs/OBSERVABILITY.md."""

    def test_emitted_document_validates(self):
        document = _sample_report().to_dict()
        assert validate_report(document) is document

    def test_golden_top_level_shape(self):
        document = _sample_report().to_dict()
        assert set(document) == {"schema", "meta", "spans", "comm"}
        assert document["schema"] == SCHEMA_VERSION == "repro.run-report/1"
        assert set(document["spans"]) == {
            "name", "n_calls", "total_s", "self_s", "counters", "children",
        }
        for phase, totals in document["comm"].items():
            assert isinstance(phase, str)
            assert set(totals) == {"n_messages", "n_items"}

    def test_golden_json_is_stable(self):
        """Serialization is deterministic apart from wall times."""
        a = json.loads(_sample_report().to_json())
        b = json.loads(_sample_report().to_json())

        def strip_times(span):
            span["total_s"] = 0.0
            span["self_s"] = 0.0
            for child in span["children"]:
                strip_times(child)

        strip_times(a["spans"])
        strip_times(b["spans"])
        assert a == b

    @pytest.mark.parametrize(
        "mutate, path_hint",
        [
            (lambda d: d.pop("schema"), "schema"),
            (lambda d: d.update(schema="v999"), "schema"),
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d["meta"].update(bad=[1]), "meta"),
            (lambda d: d["spans"].pop("name"), "name"),
            (lambda d: d["spans"].update(n_calls=-1), "n_calls"),
            (lambda d: d["spans"].update(total_s="x"), "total_s"),
            (lambda d: d["spans"]["counters"].update(c=[]), "counters"),
            (lambda d: d["comm"].update(p={"n_messages": 1}), "n_items"),
            (lambda d: d["comm"].update(p={"n_messages": -1,
                                           "n_items": 0}), "n_messages"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate, path_hint):
        document = _sample_report().to_dict()
        mutate(document)
        with pytest.raises(SchemaError) as err:
            validate_report(document)
        assert path_hint in str(err.value)

    def test_duplicate_sibling_span_names_rejected(self):
        document = _sample_report().to_dict()
        child = {
            "name": "dup", "n_calls": 1, "total_s": 0.0,
            "counters": {}, "children": [],
        }
        document["spans"]["children"] = [child, dict(child)]
        with pytest.raises(SchemaError, match="dup"):
            validate_report(document)

    def test_to_json_refuses_invalid_report(self):
        report = _sample_report()
        report.meta["bad"] = [1, 2]  # not a scalar: schema must refuse
        with pytest.raises(SchemaError):
            report.to_json()
