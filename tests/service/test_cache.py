"""Tests for the content-addressed result cache."""

import numpy as np
import pytest

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.partition.config import PartitionOptions
from repro.service.cache import CacheStats, ResultCache, result_cache_key

K = 4


@pytest.fixture(scope="module")
def snapshot(small_sequence):
    return small_sequence[0]


@pytest.fixture(scope="module")
def fitted(snapshot):
    part = MCMLDTPartitioner(
        K, MCMLDTParams(options=PartitionOptions(seed=0))
    )
    return part.fit(snapshot)


class TestResultCacheKey:
    def test_deterministic(self, snapshot):
        a = result_cache_key(snapshot, "mcml-dt", K, {"seed": 0})
        b = result_cache_key(snapshot, "mcml-dt", K, {"seed": 0})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_config_and_k_and_method_bound(self, snapshot):
        base = result_cache_key(snapshot, "mcml-dt", K, {"seed": 0})
        assert base != result_cache_key(snapshot, "mcml-dt", K + 1, {"seed": 0})
        assert base != result_cache_key(snapshot, "ml-rcb", K, {"seed": 0})
        assert base != result_cache_key(snapshot, "mcml-dt", K, {"seed": 1})

    def test_snapshot_content_bound(self, small_sequence):
        a = result_cache_key(small_sequence[0], "mcml-dt", K, {})
        b = result_cache_key(small_sequence[5], "mcml-dt", K, {})
        assert a != b

    def test_config_spelling_irrelevant(self, snapshot):
        a = result_cache_key(snapshot, "mcml-dt", K, {"seed": 0, "pad": 0.1})
        b = result_cache_key(snapshot, "mcml-dt", K, {"pad": 0.1, "seed": 0})
        assert a == b


class TestResultCacheMemory:
    def test_miss_then_hit_bit_identical(self, snapshot, fitted):
        cache = ResultCache(capacity=4)
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        assert cache.get(key) is None
        stored = cache.put(key, fitted)
        hit = cache.get(key)
        assert hit is stored
        assert np.array_equal(hit.labels, fitted.labels)
        assert hit.method == fitted.method
        assert hit.k == fitted.k
        assert dict(hit.diagnostics).keys() == dict(fitted.diagnostics).keys()
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "evictions": 0,
            "disk_hits": 0,
            "disk_corrupt": 0,
            "disk_write_errors": 0,
        }

    def test_detached_from_source(self, snapshot, fitted):
        """The cached copy shares nothing mutable with the caller's
        result — and its labels are frozen."""
        cache = ResultCache(capacity=4)
        stored = cache.put("k1", fitted)
        assert stored.labels is not fitted.labels
        with pytest.raises(ValueError):
            stored.labels[0] = 99

    def test_lru_eviction(self, fitted):
        cache = ResultCache(capacity=2)
        cache.put("a", fitted)
        cache.put("b", fitted)
        assert cache.get("a") is not None  # refreshes 'a'
        cache.put("c", fitted)  # evicts 'b', the LRU tail
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2


class TestResultCacheDisk:
    def test_survives_process_restart(self, snapshot, fitted, tmp_path):
        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        first = ResultCache(capacity=4, disk_dir=disk)
        first.put(key, fitted)
        # a fresh cache over the same directory: memory cold, disk warm
        second = ResultCache(capacity=4, disk_dir=disk)
        hit = second.get(key)
        assert hit is not None
        assert np.array_equal(hit.labels, fitted.labels)
        assert second.stats.disk_hits == 1
        # diagnostics round-trip: scalars and arrays both survive
        for name, value in fitted.diagnostics.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(hit.diagnostics[name], value)
            else:
                assert hit.diagnostics[name] == value

    def test_memory_eviction_backed_by_disk(self, fitted, tmp_path):
        cache = ResultCache(capacity=1, disk_dir=str(tmp_path / "c"))
        cache.put("a", fitted)
        cache.put("b", fitted)  # evicts 'a' from memory
        assert cache.stats.evictions == 1
        hit = cache.get("a")  # promoted back from disk
        assert hit is not None
        assert cache.stats.disk_hits == 1

    def test_corrupt_entry_recomputes_not_crashes(
        self, snapshot, fitted, tmp_path
    ):
        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        cache = ResultCache(capacity=4, disk_dir=disk)
        cache.put(key, fitted)
        cache.clear()  # force the next get through the disk tier
        path = tmp_path / "cache" / f"{key}.npz"
        path.write_bytes(b"this is not an npz archive")
        assert cache.get(key) is None  # a miss, not an exception
        assert cache.stats.disk_corrupt == 1
        assert not path.exists()  # the bad entry was removed
        # and the slot is usable again
        cache.put(key, fitted)
        cache.clear()
        assert cache.get(key) is not None

    @pytest.mark.parametrize(
        "blob", [b"PK\x03\x04" + bytes(60), b""], ids=["truncated", "empty"]
    )
    def test_unreadable_archive_is_corrupt_not_a_crash(
        self, snapshot, tmp_path, blob
    ):
        """A truncated or empty entry is a counted, removed miss, and
        the next ``get`` is a plain miss rather than the same error."""
        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        cache = ResultCache(capacity=4, disk_dir=disk)
        path = tmp_path / "cache" / f"{key}.npz"
        path.write_bytes(blob)
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1
        assert not path.exists()
        assert cache.get(key) is None
        assert (cache.stats.disk_corrupt, cache.stats.misses) == (1, 2)

    def test_disk_write_failure_keeps_memory_entry(
        self, fitted, tmp_path, monkeypatch
    ):
        """A failed disk-tier write (disk full, read-only) is counted
        but does not fail the put — the in-memory result stays valid."""
        cache = ResultCache(capacity=4, disk_dir=str(tmp_path / "c"))

        def broken_write(key, entry):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_write_disk", broken_write)
        stored = cache.put("k1", fitted)
        assert np.array_equal(stored.labels, fitted.labels)
        assert cache.stats.disk_write_errors == 1
        assert cache.get("k1") is stored  # memory tier unaffected

    def test_tampered_payload_detected(self, snapshot, fitted, tmp_path):
        """A structurally-valid entry whose labels were altered fails
        the recorded digest and is treated as corrupt."""
        import json

        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        cache = ResultCache(capacity=4, disk_dir=disk)
        cache.put(key, fitted)
        cache.clear()
        path = tmp_path / "cache" / f"{key}.npz"
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
            meta = json.loads(str(arrays.pop("meta")))
        labels = arrays["labels"].copy()
        labels[0] = (labels[0] + 1) % K
        arrays["labels"] = labels
        np.savez_compressed(
            path, meta=np.array(json.dumps(meta)), **arrays
        )
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1

    def test_lost_diagnostics_array_is_corrupt(
        self, snapshot, fitted, tmp_path
    ):
        """An entry rewritten without one ``diag_*`` member fails the
        digest over every array it holds: a counted miss, the file
        removed, never a hit with part of its diagnostics."""
        import json

        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        ResultCache(capacity=4, disk_dir=disk).put(key, fitted)
        path = tmp_path / "cache" / f"{key}.npz"
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
            meta = json.loads(str(arrays.pop("meta")))
        assert "diag_imbalance_final" in arrays
        del arrays["diag_imbalance_final"]
        np.savez_compressed(
            path, meta=np.array(json.dumps(meta)), **arrays
        )
        cache = ResultCache(capacity=4, disk_dir=disk)
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1
        assert not path.exists()

    def test_entry_of_the_old_layout_is_a_counted_miss(
        self, snapshot, fitted, tmp_path
    ):
        """A schema-1 entry (its digest covered ``labels`` only) is not
        read: it is counted as corrupt and removed."""
        import json

        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        ResultCache(capacity=4, disk_dir=disk).put(key, fitted)
        path = tmp_path / "cache" / f"{key}.npz"
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
            meta = json.loads(str(arrays.pop("meta")))
        meta["schema"] = 1
        np.savez_compressed(
            path, meta=np.array(json.dumps(meta)), **arrays
        )
        cache = ResultCache(capacity=4, disk_dir=disk)
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "member",
        [{"diag_scalars": 5}, {"diag_scalars": [1, 2]}, {"k": [1]}],
        ids=["diag-scalars-number", "diag-scalars-array", "k-array"],
    )
    def test_malformed_meta_is_corrupt_not_a_crash(
        self, snapshot, fitted, tmp_path, member
    ):
        """A meta member of the wrong type is a corrupt entry: counted,
        removed and recomputed, never an exception out of ``get``."""
        import json

        disk = str(tmp_path / "cache")
        key = result_cache_key(snapshot, "mcml-dt", K, {})
        cache = ResultCache(capacity=4, disk_dir=disk)
        cache.put(key, fitted)
        cache.clear()
        path = tmp_path / "cache" / f"{key}.npz"
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
            meta = json.loads(str(arrays.pop("meta")))
        meta.update(member)
        np.savez_compressed(
            path, meta=np.array(json.dumps(meta)), **arrays
        )
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1
        assert not path.exists()
        cache.put(key, fitted)
        cache.clear()
        assert cache.get(key) is not None


class TestCacheStats:
    def test_as_dict_is_plain(self):
        stats = CacheStats(hits=3, misses=1)
        out = stats.as_dict()
        assert out["hits"] == 3 and out["misses"] == 1
        assert all(isinstance(v, int) for v in out.values())
