"""The versioned service-job JSON schemas and their validators.

Every document the service accepts or emits carries the schema tag
``repro.service-job/1``.  Three document shapes share the tag, told
apart by context (request body, job record, result body):

.. code-block:: text

    <request> = {
      "schema":      "repro.service-job/1",
      "kind":        "partition" | "contact-step",
      "k":           int >= 1,
      "partitioner": "mcml-dt" | "ml-rcb" | "apriori",   # default mcml-dt
      "config":      { <whitelisted scalar knobs> },      # default {}
      "source":      {"kind": "impact", "n_steps": int, "refine": num,
                      "snapshot": int}
                   | {"kind": "mesh", "path": str, "capture_radius": num},
      "steps":       int >= 1,          # contact-step only, default 1
      "client":      str,               # rate-limit key, default "anonymous"
      "deadline_s":  number > 0 | null, # default null (no deadline)
      "cache":       bool               # default true
    }

    <record> = {
      "schema": "repro.service-job/1", "id": str, "state": <state>,
      "kind": ..., "client": ..., "cache": "hit"|"miss"|"coalesced"|null,
      "coalesced": bool, "retries": int >= 0, "error": str|null,
      "submitted_s": number, "started_s": number|null,
      "finished_s": number|null, "request": <request>,
      "result": <result>                # optional: the job was done when
    }                                   # its POST was answered

    <result:partition> = {
      "schema": ..., "id": str, "kind": "partition", "method": str,
      "k": int, "cache": "hit"|"miss"|"coalesced",
      "content_key": str, "labels": [int, ...],
      "diagnostics": { str: scalar | [number, ...] }
    }

    <result:contact-step> = {
      "schema": ..., "id": str, "kind": "contact-step", "k": int,
      "steps": int, "n_candidates": int, "labels_digest": str,
      "comm": { <phase>: {"n_messages": int, "n_items": int} }
    }

The validators are hand-rolled in the ``repro.obs.schema`` style (no
``jsonschema`` dependency): each raises :class:`ServiceSchemaError`
carrying the JSON path of the first violation, and returns a
*normalised copy* with defaults filled in so downstream code never
branches on missing keys.  Documented in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

SCHEMA_VERSION = "repro.service-job/1"

JOB_KINDS = ("partition", "contact-step")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "expired")
PARTITIONER_NAMES = ("mcml-dt", "ml-rcb", "apriori")
SOURCE_KINDS = ("impact", "mesh")
CACHE_STATES = ("hit", "miss", "coalesced")

#: configuration knobs accepted per partitioner: the scalar fields of
#: the method's params dataclass plus the shared
#: :class:`~repro.partition.config.PartitionOptions` fields
OPTIONS_KEYS = (
    "ubfactor",
    "coarsen_to",
    "min_coarsen_ratio",
    "n_init_trials",
    "fm_passes",
    "fm_neg_moves",
    "kway_passes",
    "matching_rounds",
    "seed",
)
CONFIG_KEYS: Dict[str, Tuple[str, ...]] = {
    "mcml-dt": (
        "contact_edge_weight",
        "max_p",
        "max_i",
        "margin_weight",
        "pad",
        "reshape",
    )
    + OPTIONS_KEYS,
    "ml-rcb": ("pad",) + OPTIONS_KEYS,
    "apriori": (
        "prediction_radius",
        "contact_edge_weight",
        "virtual_edge_weight",
        "pad",
    )
    + OPTIONS_KEYS,
}

_SCALARS = (str, int, float, bool, type(None))


class ServiceSchemaError(ValueError):
    """A service document violates the schema.

    ``path`` locates the offending element, e.g.
    ``$.source.refine``.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


# ----------------------------------------------------------------------
# shared primitives
# ----------------------------------------------------------------------


def _require_object(value: object, path: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ServiceSchemaError(path, "must be a JSON object")
    return value


def _require_int(
    value: object, path: str, minimum: Optional[int] = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceSchemaError(path, "must be an integer")
    if minimum is not None and value < minimum:
        raise ServiceSchemaError(path, f"must be >= {minimum}")
    return value


def _require_number(
    value: object, path: str, minimum: Optional[float] = None,
    exclusive: bool = False,
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceSchemaError(path, "must be a number")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ServiceSchemaError(path, f"must be > {minimum:g}")
        if not exclusive and value < minimum:
            raise ServiceSchemaError(path, f"must be >= {minimum:g}")
    return float(value)


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ServiceSchemaError(path, "must be a non-empty string")
    return value


def _require_choice(
    value: object, path: str, choices: Tuple[str, ...]
) -> str:
    if value not in choices:
        raise ServiceSchemaError(
            path, f"must be one of {list(choices)}, got {value!r}"
        )
    return str(value)


def _require_schema(doc: Dict[str, Any], path: str) -> None:
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ServiceSchemaError(
            f"{path}.schema",
            f"expected {SCHEMA_VERSION!r}, got {schema!r}",
        )


def _reject_unknown(
    doc: Mapping[str, Any], known: Tuple[str, ...], path: str
) -> None:
    extra = set(doc) - set(known)
    if extra:
        raise ServiceSchemaError(path, f"unknown keys {sorted(extra)}")


# ----------------------------------------------------------------------
# request
# ----------------------------------------------------------------------


def _validate_source(value: object, path: str) -> Dict[str, Any]:
    source = _require_object(value, path)
    kind = _require_choice(source.get("kind"), f"{path}.kind", SOURCE_KINDS)
    if kind == "mesh":
        _reject_unknown(source, ("kind", "path", "capture_radius"), path)
        return {
            "kind": "mesh",
            "path": _require_str(source.get("path"), f"{path}.path"),
            "capture_radius": _require_number(
                source.get("capture_radius", 3.0),
                f"{path}.capture_radius",
                minimum=0.0,
                exclusive=True,
            ),
        }
    _reject_unknown(source, ("kind", "n_steps", "refine", "snapshot"), path)
    n_steps = _require_int(
        source.get("n_steps", 1), f"{path}.n_steps", minimum=1
    )
    refine = _require_number(
        source.get("refine", 1.0), f"{path}.refine", minimum=0.0,
        exclusive=True,
    )
    snapshot = _require_int(
        source.get("snapshot", 0), f"{path}.snapshot", minimum=0
    )
    if snapshot >= n_steps:
        raise ServiceSchemaError(
            f"{path}.snapshot", f"must be < n_steps ({n_steps})"
        )
    return {
        "kind": "impact",
        "n_steps": n_steps,
        "refine": refine,
        "snapshot": snapshot,
    }


def _validate_config(
    value: object, partitioner: str, path: str
) -> Dict[str, Any]:
    config = _require_object(value, path)
    allowed = CONFIG_KEYS[partitioner]
    out: Dict[str, Any] = {}
    for key in config:
        if not isinstance(key, str):
            raise ServiceSchemaError(path, "keys must be strings")
        if key not in allowed:
            raise ServiceSchemaError(
                f"{path}[{key!r}]",
                f"unknown {partitioner} option; allowed: {sorted(allowed)}",
            )
        item = config[key]
        if not isinstance(item, _SCALARS):
            raise ServiceSchemaError(
                f"{path}[{key!r}]",
                "must be a scalar (str/number/bool/null)",
            )
        out[key] = item
    return out


_REQUEST_KEYS = (
    "schema",
    "kind",
    "k",
    "partitioner",
    "config",
    "source",
    "steps",
    "client",
    "deadline_s",
    "cache",
)


def validate_job_request(document: object) -> Dict[str, Any]:
    """Check a job request; return a normalised copy with defaults.

    Raises :class:`ServiceSchemaError` at the first violation.
    """
    doc = _require_object(document, "$")
    _reject_unknown(doc, _REQUEST_KEYS, "$")
    _require_schema(doc, "$")
    kind = _require_choice(doc.get("kind"), "$.kind", JOB_KINDS)
    k = _require_int(doc.get("k"), "$.k", minimum=1)
    partitioner = _require_choice(
        doc.get("partitioner", "mcml-dt"), "$.partitioner",
        PARTITIONER_NAMES,
    )
    config = _validate_config(
        doc.get("config", {}), partitioner, "$.config"
    )
    source = _validate_source(
        doc.get("source", {"kind": "impact"}), "$.source"
    )
    steps = _require_int(doc.get("steps", 1), "$.steps", minimum=1)
    if kind == "contact-step":
        if partitioner != "mcml-dt":
            raise ServiceSchemaError(
                "$.partitioner",
                "contact-step jobs run the MCML+DT driver; "
                "partitioner must be 'mcml-dt'",
            )
        if source["kind"] == "impact" and steps > source["n_steps"]:
            raise ServiceSchemaError(
                "$.steps",
                f"must be <= source.n_steps ({source['n_steps']})",
            )
    client = _require_str(doc.get("client", "anonymous"), "$.client")
    deadline = doc.get("deadline_s")
    if deadline is not None:
        deadline = _require_number(
            deadline, "$.deadline_s", minimum=0.0, exclusive=True
        )
    cache = doc.get("cache", True)
    if not isinstance(cache, bool):
        raise ServiceSchemaError("$.cache", "must be a boolean")
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "k": k,
        "partitioner": partitioner,
        "config": config,
        "source": source,
        "steps": steps,
        "client": client,
        "deadline_s": deadline,
        "cache": cache,
    }


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


# ----------------------------------------------------------------------
# job record
# ----------------------------------------------------------------------

_RECORD_KEYS = (
    "schema",
    "id",
    "state",
    "kind",
    "client",
    "cache",
    "coalesced",
    "retries",
    "error",
    "submitted_s",
    "started_s",
    "finished_s",
    "request",
    "result",
)


def validate_job_record(document: object) -> Dict[str, Any]:
    """Check a job record; raises :class:`ServiceSchemaError`."""
    doc = _require_object(document, "$")
    _reject_unknown(doc, _RECORD_KEYS, "$")
    _require_schema(doc, "$")
    _require_str(doc.get("id"), "$.id")
    _require_choice(doc.get("state"), "$.state", JOB_STATES)
    _require_choice(doc.get("kind"), "$.kind", JOB_KINDS)
    _require_str(doc.get("client"), "$.client")
    cache = doc.get("cache")
    if cache is not None:
        _require_choice(cache, "$.cache", CACHE_STATES)
    if not isinstance(doc.get("coalesced"), bool):
        raise ServiceSchemaError("$.coalesced", "must be a boolean")
    _require_int(doc.get("retries"), "$.retries", minimum=0)
    error = doc.get("error")
    if error is not None and not isinstance(error, str):
        raise ServiceSchemaError("$.error", "must be a string or null")
    _require_number(doc.get("submitted_s"), "$.submitted_s")
    for key in ("started_s", "finished_s"):
        value = doc.get(key)
        if value is not None:
            _require_number(value, f"$.{key}")
    validate_job_request(doc.get("request"))
    if "result" in doc:
        result = validate_result(doc["result"], "$.result")
        if doc["state"] != "done" or result["id"] != doc["id"]:
            raise ServiceSchemaError(
                "$.result", "only a done job carries its own result"
            )
    return doc


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def _validate_diagnostics(value: object, path: str) -> None:
    diag = _require_object(value, path)
    for key, item in diag.items():
        if not isinstance(key, str):
            raise ServiceSchemaError(path, "keys must be strings")
        item_path = f"{path}[{key!r}]"
        if isinstance(item, list):
            for i, element in enumerate(item):
                _require_number(element, f"{item_path}[{i}]")
        elif not isinstance(item, _SCALARS):
            raise ServiceSchemaError(
                item_path, "must be a scalar or an array of numbers"
            )


def _validate_comm(value: object, path: str) -> None:
    comm = _require_object(value, path)
    for phase, totals in comm.items():
        if not isinstance(phase, str) or not phase:
            raise ServiceSchemaError(path, "phase names must be strings")
        phase_path = f"{path}[{phase!r}]"
        totals_obj = _require_object(totals, phase_path)
        if set(totals_obj) != {"n_messages", "n_items"}:
            raise ServiceSchemaError(
                phase_path, "must have exactly n_messages and n_items"
            )
        for key in ("n_messages", "n_items"):
            _require_int(totals_obj[key], f"{phase_path}.{key}", minimum=0)


_PARTITION_RESULT_KEYS = (
    "schema",
    "id",
    "kind",
    "method",
    "k",
    "cache",
    "content_key",
    "labels",
    "diagnostics",
)

_CONTACT_RESULT_KEYS = (
    "schema",
    "id",
    "kind",
    "k",
    "steps",
    "n_candidates",
    "labels_digest",
    "comm",
)


def validate_result(document: object, path: str = "$") -> Dict[str, Any]:
    """Check a result document (either kind) found at ``path``; raises
    :class:`ServiceSchemaError`."""
    doc = _require_object(document, path)
    _require_schema(doc, path)
    kind = _require_choice(doc.get("kind"), f"{path}.kind", JOB_KINDS)
    _require_str(doc.get("id"), f"{path}.id")
    _require_int(doc.get("k"), f"{path}.k", minimum=1)
    if kind == "partition":
        _reject_unknown(doc, _PARTITION_RESULT_KEYS, path)
        _require_str(doc.get("method"), f"{path}.method")
        _require_choice(doc.get("cache"), f"{path}.cache", CACHE_STATES)
        _require_str(doc.get("content_key"), f"{path}.content_key")
        labels = doc.get("labels")
        if not isinstance(labels, list):
            raise ServiceSchemaError(f"{path}.labels", "must be an array")
        # one C-level type scan (``bool`` is its own type, so it fails
        # it); only a list that fails pays for the per-element check,
        # which names the first offender
        if not set(map(type, labels)) <= {int}:
            for i, value in enumerate(labels):
                _require_int(value, f"{path}.labels[{i}]")
        _validate_diagnostics(doc.get("diagnostics"), f"{path}.diagnostics")
        return doc
    _reject_unknown(doc, _CONTACT_RESULT_KEYS, path)
    _require_int(doc.get("steps"), f"{path}.steps", minimum=1)
    _require_int(doc.get("n_candidates"), f"{path}.n_candidates", minimum=0)
    _require_str(doc.get("labels_digest"), f"{path}.labels_digest")
    _validate_comm(doc.get("comm"), f"{path}.comm")
    return doc
