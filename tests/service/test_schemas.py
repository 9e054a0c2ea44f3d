"""Tests for the repro.service-job/3 schemas and validators."""

import pytest

from repro.service.schemas import (
    CONFIG_KEYS,
    JOB_KINDS,
    OPTIONS_KEYS,
    PARTITIONER_NAMES,
    SCHEMA_VERSION,
    canonical_request_text,
    validate_job_record,
    validate_job_request,
    validate_result,
)
from repro.utils.schema import SchemaError


def request(**overrides):
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "partition",
        "k": 4,
        "source": {"kind": "impact", "n_steps": 3},
    }
    doc.update(overrides)
    return doc


class TestJobRequest:
    def test_defaults_filled(self):
        out = validate_job_request(request())
        assert out["partitioner"] == "mcml-dt"
        assert out["config"] == {}
        assert out["steps"] == 1
        assert out["client"] == "anonymous"
        assert out["deadline_s"] is None
        assert out["cache"] is True
        assert out["source"] == {
            "kind": "impact",
            "n_steps": 3,
            "refine": 1.0,
            "snapshot": 0,
        }

    def test_schema_tag_required(self):
        with pytest.raises(SchemaError, match=r"\$\.schema"):
            validate_job_request(request(schema="repro.service-job/9"))

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="JSON object"):
            validate_job_request([1, 2, 3])

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_job_request(request(surprise=1))

    def test_kind_and_k_checked(self):
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            validate_job_request(request(kind="laplace"))
        with pytest.raises(SchemaError, match=r"\$\.k"):
            validate_job_request(request(k=0))
        with pytest.raises(SchemaError, match=r"\$\.k"):
            validate_job_request(request(k=True))

    @pytest.mark.parametrize("name", PARTITIONER_NAMES)
    def test_config_whitelist_accepts_known_keys(self, name):
        config = {key: 1 for key in CONFIG_KEYS[name][:2]}
        out = validate_job_request(
            request(partitioner=name, config=config)
        )
        assert out["config"] == config

    def test_config_rejects_foreign_knob(self):
        # a valid mcml-dt knob is not a valid ml-rcb knob
        with pytest.raises(SchemaError, match="max_p"):
            validate_job_request(
                request(partitioner="ml-rcb", config={"max_p": 3})
            )

    def test_config_rejects_non_scalars(self):
        with pytest.raises(SchemaError, match="scalar"):
            validate_job_request(request(config={"seed": [1, 2]}))

    def test_options_keys_shared_by_all_methods(self):
        for name in PARTITIONER_NAMES:
            for key in OPTIONS_KEYS:
                assert key in CONFIG_KEYS[name]

    def test_impact_source_bounds(self):
        with pytest.raises(SchemaError, match=r"\$\.source\.n_steps"):
            validate_job_request(
                request(source={"kind": "impact", "n_steps": 0})
            )
        with pytest.raises(SchemaError, match=r"\$\.source\.refine"):
            validate_job_request(
                request(source={"kind": "impact", "refine": 0})
            )
        with pytest.raises(
            SchemaError, match=r"\$\.source\.snapshot"
        ):
            validate_job_request(
                request(
                    source={"kind": "impact", "n_steps": 3, "snapshot": 3}
                )
            )

    def test_mesh_source(self):
        out = validate_job_request(
            request(source={"kind": "mesh", "path": "scene.npz"})
        )
        assert out["source"] == {
            "kind": "mesh",
            "path": "scene.npz",
            "capture_radius": 3.0,
        }
        with pytest.raises(SchemaError, match=r"\$\.source\.path"):
            validate_job_request(request(source={"kind": "mesh"}))

    def test_contact_step_requires_mcml(self):
        with pytest.raises(SchemaError, match="mcml-dt"):
            validate_job_request(
                request(kind="contact-step", partitioner="ml-rcb")
            )

    def test_contact_step_steps_bounded_by_source(self):
        with pytest.raises(SchemaError, match=r"\$\.steps"):
            validate_job_request(request(kind="contact-step", steps=5))
        out = validate_job_request(request(kind="contact-step", steps=3))
        assert out["steps"] == 3

    def test_deadline_and_cache_checked(self):
        with pytest.raises(SchemaError, match=r"\$\.deadline_s"):
            validate_job_request(request(deadline_s=0))
        with pytest.raises(SchemaError, match=r"\$\.cache"):
            validate_job_request(request(cache="yes"))
        out = validate_job_request(request(deadline_s=2.5, cache=False))
        assert out["deadline_s"] == 2.5
        assert out["cache"] is False

    def test_number_past_float_range_is_a_schema_error(self):
        # a JSON integer literal json.loads accepts; it was an
        # OverflowError (an HTTP 500) when normalised to a float
        with pytest.raises(SchemaError) as info:
            validate_job_request(
                request(source={"kind": "impact", "refine": 10**400})
            )
        assert info.value.path == "$.source.refine"


class TestCanonicalRequestText:
    def test_policy_fields_stripped(self):
        a = validate_job_request(request(client="alice", deadline_s=1.0))
        b = validate_job_request(
            request(client="bob", deadline_s=9.0, cache=False)
        )
        assert canonical_request_text(a) == canonical_request_text(b)

    def test_work_fields_distinguish(self):
        a = validate_job_request(request(k=4))
        b = validate_job_request(request(k=5))
        assert canonical_request_text(a) != canonical_request_text(b)

    def test_spelling_invariant(self):
        # explicit defaults and omitted defaults canonicalise equal
        a = validate_job_request(request())
        b = validate_job_request(
            request(
                partitioner="mcml-dt",
                config={},
                steps=1,
                source={
                    "kind": "impact",
                    "n_steps": 3,
                    "refine": 1.0,
                    "snapshot": 0,
                },
            )
        )
        assert canonical_request_text(a) == canonical_request_text(b)


def record(**overrides):
    doc = {
        "schema": SCHEMA_VERSION,
        "id": "job-000001",
        "state": "done",
        "kind": "partition",
        "client": "anonymous",
        "cache": "miss",
        "coalesced": False,
        "error": None,
        "submitted_s": 1.0,
        "started_s": 1.1,
        "finished_s": 1.5,
        "request": validate_job_request(request()),
    }
    doc.update(overrides)
    return doc


class TestJobRecord:
    def test_valid_record_passes(self):
        assert validate_job_record(record())["id"] == "job-000001"

    def test_state_and_cache_vocabulary(self):
        with pytest.raises(SchemaError, match=r"\$\.state"):
            validate_job_record(record(state="sleeping"))
        with pytest.raises(SchemaError, match=r"\$\.cache"):
            validate_job_record(record(cache="warm"))
        assert validate_job_record(record(cache=None))

    def test_embedded_request_validated(self):
        bad = record()
        bad["request"] = {"schema": SCHEMA_VERSION}
        with pytest.raises(SchemaError, match=r"\$\.request\.kind"):
            validate_job_record(bad)

    def test_retries_and_timestamps(self):
        """A job runs once: a ``/2`` record's ``retries`` member is an
        unknown key in ``/3``."""
        with pytest.raises(SchemaError, match=r"unknown keys \['retries'\]"):
            validate_job_record(record(retries=0))
        assert validate_job_record(
            record(started_s=None, finished_s=None, state="queued")
        )


class TestResult:
    def partition_result(self, **overrides):
        doc = {
            "schema": SCHEMA_VERSION,
            "id": "job-000001",
            "kind": "partition",
            "method": "mcml-dt",
            "k": 4,
            "cache": "miss",
            "content_key": "ab" * 32,
            "labels": [0, 1, 2, 3],
            "diagnostics": {
                "edge_cut_final": 12,
                "imbalance_final": [1.0, 1.02],
                "note": None,
            },
        }
        doc.update(overrides)
        return doc

    def test_partition_result_passes(self):
        assert validate_result(self.partition_result())

    def test_labels_must_be_ints(self):
        with pytest.raises(SchemaError, match=r"\$\.labels\[1\]"):
            validate_result(self.partition_result(labels=[0, "x"]))

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    @pytest.mark.parametrize("where", [0, 2500, 4999])
    def test_first_non_int_label_is_named(self, bad, where):
        """The type scan lets nothing but exact ints through; the error
        names the first offender, as the per-element check always did."""
        labels = list(range(5000))
        labels[where] = bad
        if where < 4999:
            labels[-1] = "a later offender"
        with pytest.raises(SchemaError) as info:
            validate_result(self.partition_result(labels=labels))
        assert info.value.path == f"$.labels[{where}]"
        assert str(info.value) == f"$.labels[{where}]: must be an integer"

    def test_empty_labels_and_int_subclasses_pass(self):
        class Label(int):
            pass

        assert validate_result(self.partition_result(labels=[]))
        labels = [0, Label(1), 2]
        assert validate_result(self.partition_result(labels=labels))

    def test_diagnostics_scalar_or_number_array(self):
        with pytest.raises(SchemaError, match="diagnostics"):
            validate_result(
                self.partition_result(diagnostics={"bad": {"deep": 1}})
            )

    def test_contact_step_result(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "id": "job-000002",
            "kind": "contact-step",
            "k": 4,
            "steps": 3,
            "n_candidates": 17,
            "labels_digest": "cd" * 32,
            "comm": {
                "fe-halo": {"n_messages": 4, "n_items": 120},
            },
        }
        assert validate_result(doc)
        doc["comm"]["fe-halo"] = {"n_messages": 4}
        with pytest.raises(SchemaError, match="n_items"):
            validate_result(doc)

    def test_kind_vocabulary_closed(self):
        assert set(JOB_KINDS) == {"partition", "contact-step"}
