"""The service-job JSON documents (``repro.service-job/3``: version 1
plus the record's ``result``, less its ``retries``), declared as
:data:`REQUEST`, :data:`RECORD` and :data:`RESULT`; ``docs/SERVICE.md``
has the grammar.
:func:`validate_job_request` returns a *normalised copy* with defaults
filled in, so downstream code never branches on missing keys.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Tuple, cast

from repro.obs.schema import COMM
from repro.utils.schema import SchemaError, Spec, array, boolean, choice
from repro.utils.schema import const, integer, mapping, nullable, number, obj
from repro.utils.schema import scalar, string, tagged, validate

SCHEMA_VERSION = "repro.service-job/3"

JOB_KINDS = ("partition", "contact-step")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "expired")
PARTITIONER_NAMES = ("mcml-dt", "ml-rcb", "apriori")
CACHE_STATES = ("hit", "miss", "coalesced")

#: configuration knobs accepted per partitioner: the scalar fields of
#: the method's params dataclass plus the shared
#: :class:`~repro.partition.config.PartitionOptions` fields
OPTIONS_KEYS = (
    "ubfactor", "coarsen_to", "min_coarsen_ratio", "n_init_trials",
    "fm_passes", "fm_neg_moves", "kway_passes", "matching_rounds", "seed",
)
CONFIG_KEYS: Dict[str, Tuple[str, ...]] = {
    "mcml-dt": ("contact_edge_weight", "max_p", "max_i", "margin_weight",
                "pad", "reshape") + OPTIONS_KEYS,
    "ml-rcb": ("pad",) + OPTIONS_KEYS,
    "apriori": ("prediction_radius", "contact_edge_weight",
                "virtual_edge_weight", "pad") + OPTIONS_KEYS,
}

_TAG = const(SCHEMA_VERSION)
_POSITIVE = number(0.0, exclusive=True)


def _snapshot_in_range(source: Dict[str, Any], path: str) -> None:
    if source["snapshot"] >= source["n_steps"]:
        raise SchemaError(
            f"{path}.snapshot", f"must be < n_steps ({source['n_steps']})"
        )


def _request_rules(request: Dict[str, Any], path: str) -> None:
    partitioner = request["partitioner"]
    allowed = CONFIG_KEYS[partitioner]
    for key in request["config"]:
        if key not in allowed:
            raise SchemaError(
                f"{path}.config[{key!r}]",
                f"unknown {partitioner} option; allowed: {sorted(allowed)}",
            )
    if request["kind"] != "contact-step":
        return
    if partitioner != "mcml-dt":
        raise SchemaError(
            f"{path}.partitioner",
            "contact-step jobs run the MCML+DT driver; "
            "partitioner must be 'mcml-dt'",
        )
    source = request["source"]
    if source["kind"] == "impact" and request["steps"] > source["n_steps"]:
        raise SchemaError(
            f"{path}.steps", f"must be <= source.n_steps ({source['n_steps']})"
        )


REQUEST = obj(
    {
        "schema": _TAG, "kind": choice(*JOB_KINDS), "k": integer(1),
        "partitioner": choice(*PARTITIONER_NAMES),
        "config": mapping(scalar()),
        "source": tagged({
            "impact": obj(
                {"kind": const("impact"), "n_steps": integer(1),
                 "refine": _POSITIVE, "snapshot": integer(0)},
                defaults={"n_steps": 1, "refine": 1.0, "snapshot": 0},
                check=_snapshot_in_range,
            ),
            "mesh": obj(
                {"kind": const("mesh"), "path": string(),
                 "capture_radius": _POSITIVE},
                defaults={"capture_radius": 3.0},
            ),
        }),
        "steps": integer(1), "client": string(),
        "deadline_s": nullable(_POSITIVE), "cache": boolean(),
    },
    defaults={
        "partitioner": "mcml-dt", "config": {}, "source": {"kind": "impact"},
        "steps": 1, "client": "anonymous", "deadline_s": None, "cache": True,
    },
    check=_request_rules,
)


def validate_job_request(document: object) -> Dict[str, Any]:
    """Check a job request; return a normalised copy with defaults.
    Raises :class:`~repro.utils.schema.SchemaError`."""
    request: Dict[str, Any] = validate(REQUEST, document)
    return request


def canonical_request_text(request: Mapping[str, Any]) -> str:
    """The canonical JSON form used for single-flight identity.

    Two submissions describe *the same work* iff this text matches:
    the client identity, the deadline, and the cache opt-out are
    stripped (they affect policy, not the computed answer).
    """
    doc = {
        key: value
        for key, value in request.items()
        if key not in ("client", "deadline_s", "cache")
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_NUMBERS, _SCALAR = array(number()), scalar()

#: a fit's diagnostics by name: scalars and arrays of numbers
DIAGNOSTICS = mapping(Spec(lambda value, path: (
    _NUMBERS if isinstance(value, list) else _SCALAR).walk(value, path)))

RESULT = tagged({
    "partition": obj({
        "schema": _TAG, "id": string(), "kind": const("partition"),
        "method": string(), "k": integer(1), "cache": choice(*CACHE_STATES),
        "content_key": string(), "labels": array(integer()),
        "diagnostics": DIAGNOSTICS,
    }),
    "contact-step": obj({
        "schema": _TAG, "id": string(), "kind": const("contact-step"),
        "k": integer(1), "steps": integer(1), "n_candidates": integer(0),
        "labels_digest": string(), "comm": COMM,
    }),
})


def _own_result(record: Dict[str, Any], path: str) -> None:
    result = record.get("result")
    if result is not None and (
        record["state"] != "done" or result["id"] != record["id"]
    ):
        raise SchemaError(
            f"{path}.result", "only a done job carries its own result"
        )


RECORD = obj(
    {
        "schema": _TAG, "id": string(), "state": choice(*JOB_STATES),
        "kind": choice(*JOB_KINDS), "client": string(),
        "cache": nullable(choice(*CACHE_STATES)), "coalesced": boolean(),
        "error": nullable(string()),
        "submitted_s": number(), "started_s": nullable(number()),
        "finished_s": nullable(number()), "request": REQUEST,
        "result": RESULT,
    },
    optional=("result",),
    check=_own_result,
)


def validate_job_record(document: object) -> Dict[str, Any]:
    """Check a job record and return it; raises
    :class:`~repro.utils.schema.SchemaError`."""
    validate(RECORD, document)
    return cast("Dict[str, Any]", document)


def validate_result(document: object) -> Dict[str, Any]:
    """Check a result document (either kind) and return it; raises
    :class:`~repro.utils.schema.SchemaError`."""
    validate(RESULT, document)
    return cast("Dict[str, Any]", document)
