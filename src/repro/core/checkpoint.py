"""Checkpoint/restart for long contact runs.

Production contact codes run for days; the decomposition state must
survive restarts. A checkpoint stores everything that is expensive or
stateful — the partition vector, the driver's update-strategy phase,
and the accumulated communication totals — as a plain ``.npz`` (no
pickled code, so checkpoints are portable across library versions that
keep the schema).

Targets may be paths or binary file objects (:func:`dump_driver_bytes`
writes bytes). The driver writes no checkpoint itself: a caller that
wants one per step calls :func:`save_driver` after each ``step``.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path
from typing import Any, BinaryIO, Dict, Tuple, Union

import numpy as np

from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams
from repro.core.update import UpdateStrategy
from repro.graph.digest import digest_arrays
from repro.partition.config import PartitionOptions
from repro.runtime.backends.base import BackendLike
from repro.runtime.ledger import CommLedger, PhaseTotals
from repro.utils.npz import read_npz
from repro.utils.schema import SchemaError, array, boolean, choice, integer
from repro.utils.schema import mapping, nullable, number, obj, scalar, string
from repro.utils.schema import validate

PathLike = Union[str, Path]
Target = Union[str, Path, BinaryIO]


def _coerce_target(target: Target) -> Union[Path, BinaryIO]:
    """Paths stay paths; open binary files pass through untouched."""
    if hasattr(target, "read") or hasattr(target, "write"):
        return target  # type: ignore[return-value]
    return Path(target)  # type: ignore[arg-type]

# v1 stored per-phase totals only; v2 adds the per-rank sent/received
# breakdown so a restarted run continues the full accounting, plus the
# execution-backend name for provenance. v1 checkpoints still load
# (their per-rank totals start empty). v2 checkpoints written since
# the content-digest helper exists additionally carry ``part_digest``
# — the canonical :func:`repro.graph.digest.digest_arrays` of the
# partition vector — which is verified on load so silent corruption
# of the payload is caught instead of resumed from.
_SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)

# every PartitionOptions field is stored next to ``ubfactor`` in
# ``meta["params"]``; checkpoints written before that hold ``ubfactor``
# alone and restore the rest from the defaults, as they always did
_OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(PartitionOptions))


def _options_to_meta(options: PartitionOptions) -> Dict[str, Any]:
    meta = {name: getattr(options, name) for name in _OPTION_FIELDS}
    seed = meta["seed"]
    if isinstance(seed, (int, np.integer)):
        meta["seed"] = int(seed)
    elif seed is not None:
        # a live Generator has no JSON form; name it, so load_driver
        # refuses the checkpoint instead of resuming from another seed
        meta["seed"] = type(seed).__name__
    return meta


def _options_from_meta(pm: Dict[str, Any]) -> PartitionOptions:
    fields = {name: pm[name] for name in _OPTION_FIELDS if name in pm}
    seed = fields.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ValueError(
            f"checkpoint records seed {seed!r}, not an int: the run "
            f"drew from a live generator, which a file cannot carry, "
            f"so it cannot be resumed bit-identically"
        )
    return PartitionOptions(**fields)


def _options_valid(params: Dict[str, Any], path: str) -> None:
    try:
        _options_from_meta(params)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


_RANK_ITEMS = array(array((string(), integer(0), integer(0))))

#: the ``meta`` member of a checkpoint; ``part`` sits beside it. What
#: v1 and earlier v2 files lack is optional.
_META = obj(
    {
        "schema": choice(*_READABLE_SCHEMAS),
        "k": integer(1),
        "strategy": choice(*(s.value for s in UpdateStrategy)),
        "repartition_period": integer(1),
        "resolve_local": boolean(),
        "steps_since_repartition": integer(0),
        "steps_completed": integer(0),
        "params": obj(
            {
                "contact_edge_weight": number(),
                "max_p": nullable(integer(1)),
                "max_i": nullable(integer(1)),
                "margin_weight": number(),
                "pad": number(),
                "reshape": boolean(),
                # the PartitionOptions fields, typed by their defaults
                **{
                    name: integer() if type(value) is int else number()
                    for name, value in dataclasses.asdict(
                        PartitionOptions()
                    ).items()
                },
                "seed": nullable(scalar()),
            },
            optional=_OPTION_FIELDS,
            check=_options_valid,
        ),
        "ledger": mapping(array((integer(0), integer(0)))),
        "ledger_ranks": obj({"sent": _RANK_ITEMS, "received": _RANK_ITEMS}),
        "backend": string(),
        "part_digest": string(),
    },
    optional=("ledger_ranks", "backend", "part_digest"),
)


def save_driver(path: Target, driver: ContactStepDriver) -> None:
    """Write a restartable snapshot of ``driver`` to ``path`` (a path
    or a writable binary file object)."""
    if driver.partitioner.part is None:
        raise ValueError("driver is not initialized; nothing to checkpoint")
    p = driver.params
    meta = {
        "schema": _SCHEMA_VERSION,
        "k": driver.k,
        "strategy": driver.strategy.value,
        "repartition_period": driver.repartition_period,
        "resolve_local": driver.resolve_local,
        "steps_since_repartition": driver._steps_since_repartition,
        "steps_completed": len(driver.history),
        "params": {
            "contact_edge_weight": p.contact_edge_weight,
            "max_p": p.max_p,
            "max_i": p.max_i,
            "margin_weight": p.margin_weight,
            "pad": p.pad,
            "reshape": p.reshape,
            **_options_to_meta(p.options),
        },
        "ledger": {
            phase: [t.n_messages, t.n_items]
            for phase, t in driver.ledger.phases.items()
        },
        "ledger_ranks": {
            "sent": [
                [phase, rank, items]
                for (phase, rank), items in sorted(
                    driver.ledger.sent_by_rank.items()
                )
            ],
            "received": [
                [phase, rank, items]
                for (phase, rank), items in sorted(
                    driver.ledger.received_by_rank.items()
                )
            ],
        },
        "backend": driver.backend.name,
        "part_digest": digest_arrays({"part": driver.partitioner.part}),
    }
    np.savez_compressed(
        _coerce_target(path),
        part=driver.partitioner.part,
        meta=np.array(json.dumps(meta)),
    )


def dump_driver_bytes(driver: ContactStepDriver) -> bytes:
    """Serialize ``driver`` to checkpoint bytes (same schema as
    :func:`save_driver`, no filesystem round-trip)."""
    buf = io.BytesIO()
    save_driver(buf, driver)
    return buf.getvalue()


def _read_checkpoint(source: Target) -> Tuple[Dict[str, Any], np.ndarray]:
    """Load and schema-check a checkpoint; returns ``(meta, part)``.

    An archive that cannot be read (empty, truncated, a member missing,
    a meta that is not JSON) raises
    :class:`~repro.utils.schema.SchemaError` at ``$`` naming the cause,
    and a malformed meta one naming its path; the checked meta is
    returned as written (its numbers keep their JSON types).
    """
    try:
        data = read_npz(_coerce_target(source), required=("meta", "part"))
        meta = json.loads(str(data["meta"]))
    except ValueError as exc:
        raise SchemaError("$", f"cannot read checkpoint: {exc}") from None
    part = data["part"]
    validate(_META, meta)
    expected = meta.get("part_digest")
    if expected is not None:
        actual = digest_arrays({"part": part})
        if actual != expected:
            raise SchemaError(
                "$.part_digest",
                "checkpoint partition vector is corrupt: content "
                f"digest {actual} does not match the recorded "
                f"{expected}",
            )
    return meta, part


def _ledger_from_meta(meta: Dict[str, Any]) -> CommLedger:
    """Rebuild the communication ledger a checkpoint recorded."""
    ledger = CommLedger()
    for phase, (n_msg, n_items) in meta["ledger"].items():
        ledger.phases[phase] = PhaseTotals(
            n_messages=n_msg, n_items=n_items
        )
    ranks = meta.get("ledger_ranks", {})
    for phase, rank, items in ranks.get("sent", []):
        ledger.sent_by_rank[(phase, rank)] = items
    for phase, rank, items in ranks.get("received", []):
        ledger.received_by_rank[(phase, rank)] = items
    return ledger


def restore_driver_state(
    driver: ContactStepDriver, source: Target
) -> ContactStepDriver:
    """Roll a *live* driver back to a checkpoint, in place.

    Restores the partition vector, the accumulated ledger totals and
    the update-strategy phase. Configuration (``k``, params, backend,
    tracer) and step history are left alone.
    """
    meta, part = _read_checkpoint(source)
    if meta["k"] != driver.k:
        raise ValueError(
            f"checkpoint was taken at k={meta['k']}, driver has "
            f"k={driver.k}"
        )
    ledger = _ledger_from_meta(meta)
    driver._set_state(part, ledger, meta["steps_since_repartition"])
    return driver


def load_driver(
    path: Target, backend: "BackendLike" = None
) -> ContactStepDriver:
    """Reconstruct a driver from a checkpoint.

    The returned driver is initialized (its partition is restored) and
    ready for ``step``; per-step history is not replayed (only ledger
    totals carry over), matching what a restarted production run needs.
    ``backend`` selects the restarted run's execution backend (default:
    the usual resolution — checkpoints restore state, not placement).
    """
    meta, part = _read_checkpoint(path)
    pm = meta["params"]
    params = MCMLDTParams(
        contact_edge_weight=pm["contact_edge_weight"],
        max_p=pm["max_p"],
        max_i=pm["max_i"],
        margin_weight=pm["margin_weight"],
        pad=pm["pad"],
        reshape=pm["reshape"],
        options=_options_from_meta(pm),
    )
    driver = ContactStepDriver(
        meta["k"],
        params,
        strategy=UpdateStrategy(meta["strategy"]),
        repartition_period=meta["repartition_period"],
        resolve_local=meta["resolve_local"],
        backend=backend,
    )
    ledger = _ledger_from_meta(meta)
    driver._set_state(part, ledger, meta["steps_since_repartition"])
    return driver
