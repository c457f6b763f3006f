"""Sharded store tests: layout, index, sealing, migration."""

from __future__ import annotations

import json
import struct

import pytest

from repro import obs
from repro.engine import (
    ShardedGenerationCache,
    ShardedResultCache,
    open_generation_cache,
    open_result_cache,
)
from repro.engine import cache as cache_module
from repro.engine.gencache import generation_record
from repro.engine.store import (
    ENTRY_DTYPE,
    INDEX_HEADER,
    INDEX_VERSION,
    ShardedStore,
)
from tests.engine.test_store_corruption_property import _reference_recovery
from tests.legacy_jsonl import legacy_line, result_line


def meas(i, n=3, aggregator="min"):
    return {
        "experiment_tsc": [float(100 + i + j) for j in range(n)],
        "repetitions": 4.0,
        "loop_iterations": 8.0,
        "aggregator": aggregator,
    }


@pytest.fixture()
def small(tmp_path):
    """One shard, tiny segments: every put path and sealing exercised."""
    return ShardedResultCache(tmp_path, shards=1, segment_records=5)


class TestRoundTrip:
    def test_put_then_get(self, small):
        small.put("abc", [meas(1)], kernel="k", mode="sequential")
        assert small.get("abc") == [meas(1)]
        assert "abc" in small and "nope" not in small
        assert len(small) == 1

    def test_miss_returns_none(self, small):
        assert small.get("nope") is None

    def test_persists_across_instances(self, tmp_path, small):
        small.put("j1", [meas(2)])
        reopened = ShardedResultCache(tmp_path)
        assert reopened.get("j1") == [meas(2)]
        assert "j1" in reopened
        assert len(reopened) == 1

    def test_later_write_wins(self, tmp_path, small):
        for i in range(12):  # spill across segments
            small.put(f"j{i}", [meas(i)])
        small.put("j3", [meas(77)])
        assert small.get("j3") == [meas(77)]
        assert ShardedResultCache(tmp_path).get("j3") == [meas(77)]
        assert len(ShardedResultCache(tmp_path)) == 12

    def test_geometry_comes_from_store_json(self, tmp_path, small):
        small.put("j1", [meas(1)])
        # Different constructor defaults must not re-shard existing data.
        reopened = ShardedResultCache(tmp_path, shards=16, segment_records=9)
        assert reopened.store.shards == 1
        assert reopened.store.segment_records == 5
        assert reopened.get("j1") == [meas(1)]


class TestSegments:
    def test_records_spread_across_shards(self, tmp_path):
        cache = ShardedResultCache(tmp_path, shards=4, segment_records=1000)
        for i in range(64):
            cache.put(f"j{i:03d}", [meas(i)])
        used = {p.name[4:6] for p in tmp_path.glob("results.shards/seg-*.jsonl")}
        assert len(used) > 1, "all keys hashed into one shard"
        for i in range(64):
            assert cache.get(f"j{i:03d}") == [meas(i)]

    def test_segment_rolls_over_at_capacity(self, tmp_path, small):
        for i in range(12):
            small.put(f"j{i}", [meas(i)])
        segments = sorted(tmp_path.glob("results.shards/seg-*.jsonl"))
        assert len(segments) == 3  # 5 + 5 + 2
        for seg in segments[:-1]:
            lines = [l for l in seg.read_bytes().split(b"\n") if l]
            assert len(lines) == 5

    def test_sealing_does_not_parse_payloads(self, tmp_path, small, monkeypatch):
        """Sealing only closes the full segment: its records were just
        written, so nothing re-reads or re-parses them."""
        for i in range(5):
            small.put(f"j{i}", [meas(i)])

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("sealing parsed JSON")

        monkeypatch.setattr(json, "loads", forbidden)
        small.put("j5", [meas(5)])  # segment 0 is full: this put seals it
        monkeypatch.undo()
        segments = sorted(tmp_path.glob("results.shards/seg-*.jsonl"))
        assert len(segments) == 2
        assert small.get("j5") == [meas(5)]

    def test_membership_does_not_parse_payloads(self, tmp_path, small):
        for i in range(12):
            small.put(f"j{i}", [meas(i)])
        reopened = ShardedResultCache(tmp_path)
        original = json.loads

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("membership test parsed JSON")

        try:
            json.loads = forbidden
            assert "j3" in reopened
            assert "absent" not in reopened
            assert len(reopened) == 12
        finally:
            json.loads = original


class TestIndexRecovery:
    def fill(self, tmp_path):
        cache = ShardedResultCache(tmp_path, shards=2, segment_records=4)
        for i in range(11):
            cache.put(f"j{i}", [meas(i)])
        return cache

    def test_deleted_index_rebuilt(self, tmp_path):
        self.fill(tmp_path)
        (tmp_path / "results.shards" / "index.bin").unlink()
        reopened = ShardedResultCache(tmp_path)
        assert len(reopened) == 11
        assert reopened.get("j7") == [meas(7)]
        assert (tmp_path / "results.shards" / "index.bin").exists()

    def test_torn_index_tail_truncated(self, tmp_path):
        self.fill(tmp_path)
        index = tmp_path / "results.shards" / "index.bin"
        index.write_bytes(index.read_bytes() + b"\x07\x07\x07")
        reopened = ShardedResultCache(tmp_path)
        assert len(reopened) == 11
        assert reopened.get("j10") == [meas(10)]

    def test_flipped_index_byte_detected_by_crc(self, tmp_path):
        self.fill(tmp_path)
        index = tmp_path / "results.shards" / "index.bin"
        blob = bytearray(index.read_bytes())
        blob[40] ^= 0xFF  # inside the first entry
        index.write_bytes(bytes(blob))
        reopened = ShardedResultCache(tmp_path)
        assert len(reopened) == 11
        for i in range(11):
            assert reopened.get(f"j{i}") == [meas(i)]

    def test_torn_data_tail_recovered_on_next_open(self, tmp_path):
        self.fill(tmp_path)
        segments = sorted(tmp_path.glob("results.shards/seg-*.jsonl"))
        target = segments[-1]
        target.write_bytes(target.read_bytes()[:-1])  # drop the newline
        reopened = ShardedResultCache(tmp_path)
        assert len(reopened) == 11
        reopened.put("fresh", [meas(50)])
        again = ShardedResultCache(tmp_path)
        assert again.get("fresh") == [meas(50)]
        assert len(again) == 12

    def test_tampered_record_rejected_and_repaired(self, tmp_path):
        self.fill(tmp_path)
        segments = sorted(tmp_path.glob("results.shards/seg-*.jsonl"))
        blob = segments[0].read_bytes()
        pos = blob.index(b'"experiment_tsc"') + len(b'"experiment_tsc": [1')
        segments[0].write_bytes(blob[:pos] + b"9" + blob[pos + 1 :])
        reopened = ShardedResultCache(tmp_path)
        damaged = [i for i in range(11) if reopened.get(f"j{i}") is None]
        assert len(damaged) == 1  # exactly the tampered line dropped
        reopened.put("fresh", [meas(50)])
        healed = ShardedResultCache(tmp_path)
        assert healed.corrupt_lines == 0
        assert healed.get("fresh") == [meas(50)]
        for i in range(11):
            if i not in damaged:
                assert healed.get(f"j{i}") == [meas(i)]

    def test_record_without_check_rejected(self, tmp_path):
        """The store checksums every put, so a segment line with no
        ``check`` is damage: an altered payload whose checksum field was
        also removed must not be served."""
        cache = ShardedResultCache(tmp_path, shards=1)
        cache.put("j0", [meas(0)])
        (segment,) = tmp_path.glob("results.shards/seg-*.jsonl")
        record = json.loads(segment.read_bytes())
        del record["check"]
        record["measurements"][0]["experiment_tsc"][0] = 999.0
        segment.write_text(json.dumps(record) + "\n")
        (tmp_path / "results.shards" / "index.bin").unlink()
        reopened = ShardedResultCache(tmp_path)
        assert reopened.corrupt_lines == 1
        assert reopened.get("j0") is None


    def test_indexed_get_skips_record_check(self, tmp_path, monkeypatch):
        """An index entry's line digest vouches for the bytes the store
        wrote: indexed gets hash the line instead of re-checksumming the
        record, from the overlay, from index.bin and in the gen cache."""
        written = self.fill(tmp_path)  # served from the overlay
        reopened = ShardedResultCache(tmp_path)  # served from index.bin
        gen = ShardedGenerationCache(tmp_path, shards=1)
        gen.put("sd", "od", "spec", [_FakeKernel(i) for i in range(3)])
        gen = ShardedGenerationCache(tmp_path)
        calls = []
        real = cache_module.record_check
        monkeypatch.setattr(
            cache_module,
            "record_check",
            lambda record: calls.append(record) or real(record),
        )
        for i in range(11):
            assert written.get(f"j{i}") == [meas(i)]
            assert reopened.get(f"j{i}") == [meas(i)]
        assert [v.variant_id for v in gen.get("sd", "od")] == [0, 1, 2]
        assert calls == []

    def test_version_1_index_rebuilt_once(self, tmp_path):
        self.fill(tmp_path)
        index = tmp_path / "results.shards" / "index.bin"
        blob = bytearray(index.read_bytes())
        struct.pack_into("<H", blob, 8, 1)  # the header's version field
        index.write_bytes(bytes(blob))
        reopened = ShardedResultCache(tmp_path)
        assert len(reopened) == 11
        for i in range(11):
            assert reopened.get(f"j{i}") == [meas(i)]
        data = index.read_bytes()
        version = INDEX_HEADER.unpack_from(data)[1]
        assert version == INDEX_VERSION == 2
        entries = len(data) - INDEX_HEADER.size
        assert entries == 11 * ENTRY_DTYPE.itemsize

    def test_reformatted_line_falls_back_to_scan(self, tmp_path):
        """Same-length whitespace damage still parses to a record whose
        checksum holds, but no longer matches the line digest: the get
        is an index miss, answered by the shard scan."""
        self.fill(tmp_path)
        segment = sorted(tmp_path.glob("results.shards/seg-*.jsonl"))[0]
        blob = segment.read_bytes()
        segment.write_bytes(blob.replace(b'": ', b'":\t', 1))
        key = json.loads(blob.split(b"\n")[0])["job_id"]
        expected = _reference_recovery(tmp_path / "results.shards")[key]
        reopened = ShardedResultCache(tmp_path)
        obs.enable()
        try:
            assert reopened.get(key) == expected
            counters = obs.metrics_snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["store.index_miss"] == 1


class TestMigration:
    def _legacy_results(self, tmp_path, n=9):
        (tmp_path / "results.jsonl").write_text(
            "".join(
                result_line(f"m{i}", [meas(i)], kernel=f"k{i}", mode="sequential")
                for i in range(n)
            )
        )

    def test_legacy_results_migrated_once(self, tmp_path):
        self._legacy_results(tmp_path)
        cache = open_result_cache(tmp_path)
        assert isinstance(cache, ShardedResultCache)
        assert len(cache) == 9
        assert cache.get("m4") == [meas(4)]
        assert not (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.jsonl.migrated").exists()
        # Second open: already sharded, the .migrated file is left alone.
        again = open_result_cache(tmp_path)
        assert len(again) == 9

    def test_legacy_records_without_check_migrated(self, tmp_path):
        """Legacy lines from before checksums existed still migrate, and
        the store writes them back checksummed."""
        (tmp_path / "results.jsonl").write_text(
            "".join(
                json.dumps({"job_id": f"m{i}", "measurements": [meas(i)]}) + "\n"
                for i in range(3)
            )
        )
        cache = open_result_cache(tmp_path)
        assert len(cache) == 3 and cache.get("m1") == [meas(1)]
        (tmp_path / "results.shards" / "index.bin").unlink()
        reopened = ShardedResultCache(tmp_path)
        assert reopened.corrupt_lines == 0
        assert reopened.get("m2") == [meas(2)]

    def test_legacy_gencache_migrated(self, tmp_path):
        record = generation_record("sd", "od", "spec", [_FakeKernel(0), _FakeKernel(1)])
        (tmp_path / "gencache.jsonl").write_text(legacy_line(record))
        cache = open_generation_cache(tmp_path)
        assert isinstance(cache, ShardedGenerationCache)
        variants = cache.get("sd", "od")
        assert [v.name for v in variants] == ["v0000", "v0001"]
        assert (tmp_path / "gencache.jsonl.migrated").exists()

    def test_interrupted_migration_resumes_on_reopen(self, tmp_path, monkeypatch):
        """A migration killed part-way is redone by the next open: the
        ``.migrated`` rename is its commit point, so no legacy record is
        stranded."""
        self._legacy_results(tmp_path)
        real_put = ShardedStore.put_record
        calls = 0

        def dying_put(self, key, record, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 4:
                raise _Killed
            return real_put(self, key, record, **kwargs)

        monkeypatch.setattr(ShardedStore, "put_record", dying_put)
        with pytest.raises(_Killed):
            open_result_cache(tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "results.jsonl").exists()
        cache = open_result_cache(tmp_path)
        assert len(cache) == 9
        for i in range(9):
            assert cache.get(f"m{i}") == [meas(i)]
        assert not (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.jsonl.migrated").exists()


class _Killed(Exception):
    pass


class _FakeKernel:
    def __init__(self, i):
        self.variant_id = i
        self.name = f"v{i:04d}"
        self.metadata = {"unroll": i + 1, "opcodes": ("movaps",)}
        self._text = f".text\nv{i}\n"

    def asm_text(self, *, full_file=False):
        return self._text

    def instructions(self):
        return []


class TestGenerationStore:
    def test_round_trip_and_persistence(self, tmp_path):
        cache = ShardedGenerationCache(tmp_path, shards=1, segment_records=2)
        for s in range(5):
            cache.put(f"spec{s}", "opts", f"name{s}", [_FakeKernel(i) for i in range(3)])
        assert len(cache) == 5
        obs.enable()
        try:
            got = cache.get("spec2", "opts")
            assert cache.get("specX", "opts") is None
            counters = obs.metrics_snapshot()["counters"]
        finally:
            obs.disable()
        assert [v.variant_id for v in got] == [0, 1, 2]
        assert counters["gencache.hit"] == 1 and counters["gencache.miss"] == 1
        reopened = ShardedGenerationCache(tmp_path)
        assert len(reopened) == 5
        assert reopened.get("spec4", "opts")[0].metadata["opcodes"] == ("movaps",)

    def test_variants_parse_lazily_from_text(self, tmp_path):
        cache = ShardedGenerationCache(tmp_path)
        cache.put("sd", "od", "spec", [_FakeKernel(7)])
        variant = ShardedGenerationCache(tmp_path).get("sd", "od")[0]
        assert variant.asm_text(full_file=True) == ".text\nv7\n"
