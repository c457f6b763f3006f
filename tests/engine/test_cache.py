"""Result-cache tests: round trip, accounting, legacy input, repair.

A cache directory opens as the sharded store.  A legacy single-file
``results.jsonl`` found there is migrated into it, so the damage
tolerance of that layout is checked as "migrates exactly the valid
records".
"""

import json

import repro.engine.store as store_module
from repro.engine import ShardedResultCache, open_result_cache
from repro.engine.store import ShardedStore
from tests.legacy_jsonl import result_line


def rows(n=1):
    return [{"cycles": float(i)} for i in range(n)]


def migrated(tmp_path, text):
    """Write ``text`` as a legacy ``results.jsonl`` and open the directory."""
    (tmp_path / "results.jsonl").write_text(text)
    cache = open_result_cache(tmp_path)
    assert not (tmp_path / "results.jsonl").exists()
    assert (tmp_path / "results.jsonl.migrated").exists()
    return cache


def segment_lines(tmp_path):
    return [
        line
        for path in sorted(tmp_path.glob("results.shards/seg-*.jsonl"))
        for line in path.read_text().splitlines()
    ]


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = open_result_cache(tmp_path)
        cache.put("abc123", rows(3), kernel="k", mode="sequential")
        assert cache.get("abc123") == rows(3)

    def test_miss_returns_none(self, tmp_path):
        cache = open_result_cache(tmp_path)
        assert cache.get("nope") is None

    def test_persists_across_instances(self, tmp_path):
        open_result_cache(tmp_path).put("j1", rows(2))
        reopened = open_result_cache(tmp_path)
        assert reopened.get("j1") == rows(2)
        assert "j1" in reopened
        assert len(reopened) == 1

    def test_later_write_wins(self, tmp_path):
        cache = open_result_cache(tmp_path)
        cache.put("j1", rows(1))
        cache.put("j1", rows(4))
        assert open_result_cache(tmp_path).get("j1") == rows(4)


class TestDamageTolerance:
    def test_torn_last_line_ignored(self, tmp_path):
        torn = '{"job_id": "j2", "measurements": [{"trunc'
        cache = migrated(tmp_path, result_line("j1", rows()) + torn)
        assert cache.get("j1") == rows()
        assert cache.get("j2") is None
        assert len(cache) == 1

    def test_blank_lines_skipped(self, tmp_path):
        cache = migrated(tmp_path, "\n\n" + result_line("j1", rows()) + "\n\n")
        assert cache.get("j1") == rows()

    def test_corrupt_lines_counted(self, tmp_path):
        """A line truncated mid-record is dropped; only valid records
        reach the store, which opens clean."""
        first = result_line("j1", rows()).rstrip("\n")
        cache = migrated(
            tmp_path, first[: len(first) // 2] + "\n" + result_line("j2", rows())
        )
        assert cache.get("j1") is None
        assert cache.get("j2") == rows()
        assert len(cache) == 1
        assert open_result_cache(tmp_path).corrupt_lines == 0

    def test_put_repairs_damaged_file(self, tmp_path):
        """Damage in the legacy file never reaches the store."""
        cache = migrated(
            tmp_path,
            result_line("j1", rows())
            + result_line("j2", rows())
            + "not json at all\n",
        )
        assert cache.corrupt_lines == 0
        cache.put("j3", rows())
        healed = open_result_cache(tmp_path)
        assert healed.corrupt_lines == 0
        assert sorted(
            json.loads(line)["job_id"] for line in segment_lines(tmp_path)
        ) == ["j1", "j2", "j3"]

    def test_tampered_line_rejected_by_checksum(self, tmp_path):
        line = result_line("j1", [{"cycles": 4.0}])
        tampered = migrated(tmp_path, line.replace('"cycles": 4.0', '"cycles": 9.0'))
        assert tampered.get("j1") is None  # parses fine, but the digest broke

    def test_legacy_record_without_check_accepted(self, tmp_path):
        cache = migrated(
            tmp_path,
            json.dumps({"job_id": "old", "measurements": [{"cycles": 1.0}]}) + "\n",
        )
        assert cache.get("old") == [{"cycles": 1.0}]

    def test_append_after_torn_tail_keeps_both_records(self, tmp_path):
        cache = migrated(tmp_path, result_line("j1", rows()).rstrip("\n"))
        cache.put("j2", rows())
        again = open_result_cache(tmp_path)
        assert again.get("j1") == rows()
        assert again.get("j2") == rows()

    def test_tail_probed_once_per_lifetime(self, tmp_path, monkeypatch):
        """The newline probe runs once per active segment at load, not
        once per put.

        ``put`` runs once per completed job, so a per-put probe would put
        a redundant filesystem read on the campaign hot path; the tail
        state is tracked in memory instead and only measured while
        loading.
        """
        ShardedResultCache(tmp_path, shards=1).put("seed", rows())
        probes = 0
        real = ShardedStore._ends_with_newline

        def counting(self, path, size):
            nonlocal probes
            probes += 1
            return real(self, path, size)

        monkeypatch.setattr(ShardedStore, "_ends_with_newline", counting)
        cache = ShardedResultCache(tmp_path)
        assert probes == 1  # the load-time probe
        for i in range(20):
            cache.put(f"j{i}", rows())
        assert probes == 1

    def test_get_returns_a_copy(self, tmp_path):
        """Mutating a returned payload must never touch the stored record."""
        cache = open_result_cache(tmp_path)
        cache.put("j1", [{"cycles": 4.0}])
        got = cache.get("j1")
        got[0]["cycles"] = -1.0
        got.append({"injected": True})
        assert cache.get("j1") == [{"cycles": 4.0}]

    def test_mutated_payload_never_persists_through_repair(self, tmp_path):
        open_result_cache(tmp_path).put("j1", [{"cycles": 4.0}])
        (segment,) = tmp_path.glob("results.shards/seg-*.jsonl")
        segment.write_text(segment.read_text() + "garbage\n")
        damaged = open_result_cache(tmp_path)
        damaged.get("j1")[0]["cycles"] = -1.0  # caller misbehaves
        damaged.put("j2", rows())  # triggers the repair rewrite
        assert open_result_cache(tmp_path).get("j1") == [{"cycles": 4.0}]

    def test_repair_rewrite_is_fsynced(self, tmp_path, monkeypatch):
        """Every file a repair replaces is durable before the replace — a
        crash mid-repair must not be able to swap in a half-written
        file."""
        cache = ShardedResultCache(tmp_path, shards=1)
        cache.put("j1", rows())
        (segment,) = tmp_path.glob("results.shards/seg-*.jsonl")
        segment.write_text(segment.read_text() + "not json\n")
        events = []
        real_fsync = store_module.os.fsync
        real_replace = store_module.Path.replace
        monkeypatch.setattr(
            store_module.os,
            "fsync",
            lambda fd: events.append("fsync") or real_fsync(fd),
        )
        monkeypatch.setattr(
            store_module.Path,
            "replace",
            lambda self, target: events.append("replace")
            or real_replace(self, target),
        )
        damaged = ShardedResultCache(tmp_path)
        damaged.put("j2", rows())
        assert "replace" in events, "the damaged segment was not rewritten"
        for i, event in enumerate(events):
            if event == "replace":
                assert events[i - 1] == "fsync", "replaced without fsync"
        assert ShardedResultCache(tmp_path).corrupt_lines == 0

    def test_lines_are_valid_json_records(self, tmp_path):
        open_result_cache(tmp_path).put("j1", rows(2), kernel="k", mode="forked")
        (line,) = segment_lines(tmp_path)
        record = json.loads(line)
        assert record["job_id"] == "j1"
        assert record["kernel"] == "k"
        assert record["mode"] == "forked"
        assert record["measurements"] == rows(2)

