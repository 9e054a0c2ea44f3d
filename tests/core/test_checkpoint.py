"""Tests for checkpoint/restart."""

import io

import numpy as np
import pytest

from repro.core.checkpoint import (
    dump_driver_bytes,
    load_driver,
    save_driver,
)
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams
from repro.core.update import UpdateStrategy
from repro.partition.config import PartitionOptions
from repro.utils.schema import SchemaError

K = 4


def params():
    return MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))


class TestCheckpoint:
    def test_roundtrip_restores_partition(self, small_sequence, tmp_path):
        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        driver.step(small_sequence[0])
        path = tmp_path / "ck.npz"
        save_driver(path, driver)
        restored = load_driver(path)
        assert np.array_equal(
            restored.partitioner.part, driver.partitioner.part
        )
        assert restored.k == K

    def test_restored_driver_continues(self, small_sequence, tmp_path):
        """A restarted driver steps on and produces the same metrics as
        an uninterrupted one."""
        a = ContactStepDriver(K, params())
        a.initialize(small_sequence[0])
        for snap in small_sequence.snapshots[:4]:
            a.step(snap)
        path = tmp_path / "mid.npz"
        save_driver(path, a)
        b = load_driver(path)
        ra = [a.step(s) for s in small_sequence.snapshots[4:8]]
        rb = [b.step(s) for s in small_sequence.snapshots[4:8]]
        for x, y in zip(ra, rb):
            assert x.nt_nodes == y.nt_nodes
            assert x.n_remote == y.n_remote
            assert x.fe_comm == y.fe_comm

    def test_ledger_totals_carried(self, small_sequence, tmp_path):
        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        for snap in small_sequence.snapshots[:3]:
            driver.step(snap)
        before = driver.total_exchanged()
        path = tmp_path / "led.npz"
        save_driver(path, driver)
        restored = load_driver(path)
        assert restored.total_exchanged() == before

    def test_strategy_and_phase_preserved(self, small_sequence, tmp_path):
        driver = ContactStepDriver(
            K, params(), strategy=UpdateStrategy.HYBRID,
            repartition_period=5,
        )
        driver.initialize(small_sequence[0])
        for snap in small_sequence.snapshots[:3]:
            driver.step(snap)
        path = tmp_path / "strategy.npz"
        save_driver(path, driver)
        restored = load_driver(path)
        assert restored.strategy is UpdateStrategy.HYBRID
        assert restored.repartition_period == 5
        assert (
            restored._steps_since_repartition
            == driver._steps_since_repartition
        )

    def test_per_rank_totals_carried(self, small_sequence, tmp_path):
        """Schema v2: the per-rank sent/received breakdown survives the
        round-trip, not just per-phase totals."""
        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        for snap in small_sequence.snapshots[:3]:
            driver.step(snap)
        assert driver.ledger.sent_by_rank  # scene produces traffic
        path = tmp_path / "ranks.npz"
        save_driver(path, driver)
        restored = load_driver(path)
        assert dict(restored.ledger.sent_by_rank) == dict(
            driver.ledger.sent_by_rank
        )
        assert dict(restored.ledger.received_by_rank) == dict(
            driver.ledger.received_by_rank
        )

    def test_v1_checkpoint_still_loads(self, small_sequence, tmp_path):
        import json

        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        driver.step(small_sequence[0])
        path = tmp_path / "v1.npz"
        save_driver(path, driver)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            part = data["part"]
        meta["schema"] = 1
        del meta["ledger_ranks"]
        del meta["backend"]
        np.savez_compressed(
            path, part=part, meta=np.array(json.dumps(meta))
        )
        restored = load_driver(path)
        assert restored.total_exchanged() == driver.total_exchanged()
        assert not restored.ledger.sent_by_rank  # v1 never stored these

    def test_restart_equivalence_across_backends(
        self, small_sequence, tmp_path, spmd_backend
    ):
        """Checkpoint on the serial backend, restart on each backend:
        the continued run's candidates and ledger deltas are identical
        — restart + backend switch changes nothing observable."""
        a = ContactStepDriver(K, params())
        a.initialize(small_sequence[0])
        for snap in small_sequence.snapshots[:3]:
            a.step(snap)
        path = tmp_path / "switch.npz"
        save_driver(path, a)
        b = load_driver(path, backend=spmd_backend)
        ra = [a.step(s) for s in small_sequence.snapshots[3:6]]
        rb = [b.step(s) for s in small_sequence.snapshots[3:6]]
        for x, y in zip(ra, rb):
            assert x.candidates == y.candidates
            assert x.n_remote == y.n_remote
        assert a.ledger.summary() == b.ledger.summary()
        assert dict(a.ledger.sent_by_rank) == dict(b.ledger.sent_by_rank)

    def test_uninitialized_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not initialized"):
            save_driver(tmp_path / "x.npz", ContactStepDriver(K, params()))

    def test_schema_checked(self, small_sequence, tmp_path):
        import json

        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        path = tmp_path / "bad.npz"
        save_driver(path, driver)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            part = data["part"]
        meta["schema"] = 99
        np.savez_compressed(
            path, part=part, meta=np.array(json.dumps(meta))
        )
        with pytest.raises(ValueError, match="schema"):
            load_driver(path)

    def test_part_digest_recorded_and_verified(
        self, small_sequence, tmp_path
    ):
        """Checkpoints carry the canonical content digest of the
        partition vector, and a tampered payload refuses to load."""
        import json

        from repro.graph.digest import digest_arrays

        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        path = tmp_path / "dig.npz"
        save_driver(path, driver)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            part = data["part"]
        assert meta["part_digest"] == digest_arrays({"part": part})

        corrupt = part.copy()
        corrupt[0] = (corrupt[0] + 1) % K
        np.savez_compressed(
            path, part=corrupt, meta=np.array(json.dumps(meta))
        )
        with pytest.raises(ValueError, match="corrupt"):
            load_driver(path)

    def test_digestless_checkpoint_still_loads(
        self, small_sequence, tmp_path
    ):
        """Checkpoints written before the digest existed (no
        ``part_digest`` key) load without verification."""
        import json

        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        path = tmp_path / "old.npz"
        save_driver(path, driver)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            part = data["part"]
        del meta["part_digest"]
        np.savez_compressed(
            path, part=part, meta=np.array(json.dumps(meta))
        )
        restored = load_driver(path)
        assert np.array_equal(restored.partitioner.part, part)


def _with_meta(blob, edit):
    """Checkpoint bytes whose meta was passed through ``edit``."""
    import json

    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        part = data["part"]
    edit(meta)
    out = io.BytesIO()
    np.savez_compressed(out, part=part, meta=np.array(json.dumps(meta)))
    return io.BytesIO(out.getvalue())


class TestMalformedMeta:
    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda meta: meta.pop("k"), "$.k"),
            (lambda meta: meta.update(params=3), "$.params"),
            (lambda meta: meta.update(ledger=[1]), "$.ledger"),
            (lambda meta: meta.update(k="4"), "$.k"),
        ],
        ids=["k-missing", "params-number", "ledger-array", "k-string"],
    )
    def test_fails_typed_at_its_path(self, small_sequence, edit, path):
        """A malformed meta is a SchemaError naming the member, not a
        KeyError, TypeError or AttributeError from deep in the loader."""
        driver = ContactStepDriver(K, params())
        driver.initialize(small_sequence[0])
        blob = dump_driver_bytes(driver)
        with pytest.raises(SchemaError) as info:
            load_driver(_with_meta(blob, edit))
        assert info.value.path == path


def _members(**arrays):
    out = io.BytesIO()
    np.savez_compressed(out, **arrays)
    return out.getvalue()


class TestUnreadableArchive:
    @pytest.mark.parametrize(
        "blob, cause",
        [
            (b"", "EOFError"),
            (b"PK\x03\x04" + bytes(60), "BadZipFile"),
            (_members(part=np.zeros(3, dtype=np.int64)), "'meta'"),
            (_members(meta=np.array("{}")), "'part'"),
            (
                _members(
                    meta=np.array("{not json"),
                    part=np.zeros(3, dtype=np.int64),
                ),
                "JSON|Expecting",
            ),
        ],
        ids=["empty", "truncated", "no-meta", "no-part", "meta-not-json"],
    )
    def test_fails_typed_at_the_root(self, blob, cause):
        """An archive that cannot be read is a SchemaError at ``$``
        naming the cause, not an EOFError, BadZipFile or KeyError."""
        with pytest.raises(SchemaError, match=cause) as info:
            load_driver(io.BytesIO(blob))
        assert info.value.path == "$"


class TestCheckpointContentPinned:
    def test_contents_after_repartition_steps_unchanged(self, small_sequence):
        """A checkpoint carries labels and counters, never the graph or
        its cached list view: after six repartition steps its contents
        are what they were before the partitioner's loops moved onto
        Python ints (recorded at the parent of PR 20; the content is
        hashed rather than the file so the pin does not depend on the
        zlib build)."""
        import hashlib

        driver = ContactStepDriver(
            K,
            params(),
            strategy=UpdateStrategy.REPARTITION,
            repartition_period=3,
            backend="serial",
        )
        driver.initialize(small_sequence[0])
        results = [driver.step(s) for s in small_sequence.snapshots[:7]]
        assert sum(r.repartitioned for r in results) == 6
        with np.load(io.BytesIO(dump_driver_bytes(driver))) as data:
            content = data["part"].tobytes() + str(data["meta"]).encode()
        assert hashlib.sha256(content).hexdigest() == (
            "312b1ed5876b782d3b71e9b4d94dbe24"
            "000fbfd1a8034dd14f123478f706f4a4"
        )


    def test_cached_graph_views_do_not_reach_the_checkpoint(
        self, small_sequence
    ):
        """The driver's graph carries cached derived views
        (``row_index``, ``lists``); a checkpoint is the same with or
        without them."""
        driver = ContactStepDriver(K, params(), backend="serial")
        driver.initialize(small_sequence[0])
        driver.step(small_sequence[1])

        def content():
            with np.load(io.BytesIO(dump_driver_bytes(driver))) as data:
                return data["part"].tobytes() + str(data["meta"]).encode()

        graph = driver.graphs._graph
        for view in ("row_index", "lists"):
            vars(graph).pop(view, None)
        bare = content()
        graph.row_index
        graph.lists
        assert content() == bare


class TestPartitionOptionsSurvive:
    """A restored driver repartitions with the options of the run it
    resumes, not with the defaults."""

    OPTIONS = PartitionOptions(
        ubfactor=1.02, coarsen_to=90, fm_passes=3, kway_passes=5, seed=11
    )

    def test_every_option_field_round_trips(self, small_sequence):
        driver = ContactStepDriver(
            K, MCMLDTParams(pad=0.2, options=self.OPTIONS)
        )
        driver.initialize(small_sequence[0])
        restored = load_driver(io.BytesIO(dump_driver_bytes(driver)))
        assert restored.params.options == self.OPTIONS

    def test_resumed_repartition_run_is_bit_identical(self):
        """12 steps straight == 6 steps, checkpoint, restore, 6 steps,
        when every step repartitions with a non-default seed."""
        from repro.sim.projectile import ImpactConfig
        from repro.sim.sequence import simulate_impact

        seq = simulate_impact(ImpactConfig(), 12)

        def fresh():
            driver = ContactStepDriver(
                K,
                MCMLDTParams(
                    pad=0.1,
                    options=PartitionOptions(ubfactor=1.02, seed=11),
                ),
                strategy=UpdateStrategy.REPARTITION,
                resolve_local=False,
                backend="serial",
            )
            driver.initialize(seq[0])
            return driver

        straight = fresh()
        for snap in seq.snapshots:
            straight.step(snap)
        first_half = fresh()
        for snap in seq.snapshots[:6]:
            first_half.step(snap)
        resumed = load_driver(
            io.BytesIO(dump_driver_bytes(first_half)), backend="serial"
        )
        for snap in seq.snapshots[6:]:
            resumed.step(snap)
        assert np.array_equal(
            resumed.partitioner.part, straight.partitioner.part
        )

    def test_checkpoint_without_option_keys_loads_with_defaults(
        self, small_sequence, tmp_path
    ):
        """What a checkpoint written before the options were stored
        looks like: ``ubfactor`` alone."""
        import json

        driver = ContactStepDriver(
            K, MCMLDTParams(pad=0.2, options=self.OPTIONS)
        )
        driver.initialize(small_sequence[0])
        path = tmp_path / "old.npz"
        save_driver(path, driver)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            part = data["part"]
        for name in vars(self.OPTIONS):
            if name != "ubfactor":
                del meta["params"][name]
        np.savez_compressed(
            path, part=part, meta=np.array(json.dumps(meta))
        )
        assert load_driver(path).params.options == PartitionOptions(
            ubfactor=1.02
        )

    def test_generator_seed_is_refused_on_load_not_replaced(
        self, small_sequence
    ):
        driver = ContactStepDriver(
            K,
            MCMLDTParams(
                pad=0.2,
                options=PartitionOptions(seed=np.random.default_rng(3)),
            ),
        )
        driver.initialize(small_sequence[0])
        blob = dump_driver_bytes(driver)  # in-memory recovery still works
        with pytest.raises(ValueError, match="seed 'Generator'"):
            load_driver(io.BytesIO(blob))
