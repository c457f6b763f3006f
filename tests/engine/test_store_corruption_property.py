"""Property test: the sharded store under arbitrary on-disk corruption.

Whatever happens to the files — truncated or bit-flipped segments, torn
tails, garbage in ``index.bin``, a deleted index — loading must never
raise, and the store must degrade to exactly the *JSONL-equivalent
recovery set*: for every key, ``get`` returns what line-by-line JSONL
parsing of the damaged segment bytes (checksums and all) would recover,
or ``None`` when that record's bytes no longer validate.  That includes
a record whose own bytes are intact but whose delimiting newline was
destroyed: the line scan sees it welded to a neighbour, so the store
must not serve it from its indexed byte range either.  The first
``put`` afterwards must repair the store completely.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ShardedResultCache
from repro.engine.cache import valid_result_record
from repro.engine.store import ShardedStore

_PAYLOADS = {
    f"job{i:02d}": [{"cycles": float(i), "rep": r} for r in range(2)]
    for i in range(10)
}


def _fresh_store(tmp_path):
    cache = ShardedResultCache(tmp_path, shards=2, segment_records=3)
    for job_id, measurements in _PAYLOADS.items():
        cache.put(job_id, [dict(m) for m in measurements])
    return cache


def _reference_recovery(store_dir) -> dict:
    """What the JSONL discipline recovers from the damaged segment bytes:
    parse every line of every segment, keep checksum-valid records,
    later occurrences winning."""
    recovered: dict[str, list[dict]] = {}
    scratch = ShardedStore.__new__(ShardedStore)  # reuse the line walker
    scratch.key_field = "job_id"
    scratch._valid = valid_result_record
    for path in sorted(store_dir.glob("seg-*.jsonl")):
        scan = scratch._scan_bytes(path.read_bytes(), keep=True)
        for (key, _off, _len), record in zip(scan.valids, scan.records):
            recovered[key] = record["measurements"]
    return recovered


@st.composite
def corruptions(draw):
    """(target, kind, position, payload): one mutation of one store file."""
    target = draw(
        st.sampled_from(["segment-first", "segment-last", "index"])
    )
    kind = draw(
        st.sampled_from(["truncate", "insert", "substitute", "delete"])
    )
    pos = draw(st.integers(min_value=0, max_value=2_000))
    blob = draw(st.binary(min_size=1, max_size=40))
    return target, kind, pos, blob


def _apply(store_dir, target, kind, pos, blob) -> None:
    segments = sorted(store_dir.glob("seg-*.jsonl"))
    if target == "index":
        path = store_dir / "index.bin"
    elif target == "segment-first":
        path = segments[0]
    else:
        path = segments[-1]
    if kind == "delete":
        path.unlink(missing_ok=True)
        return
    data = path.read_bytes() if path.exists() else b""
    pos = min(pos, len(data))
    if kind == "truncate":
        data = data[:pos]
    elif kind == "insert":
        data = data[:pos] + blob + data[pos:]
    else:
        data = data[:pos] + blob + data[pos + len(blob) :]
    path.write_bytes(data)


@settings(max_examples=50, deadline=None)
@given(damage=st.lists(corruptions(), min_size=1, max_size=3))
# NULs over the newline after the first record (146), and over the second
# record's tail and newline (291): each welds an intact record to its
# neighbour, so the line scan loses it.
@example(damage=[("segment-first", "substitute", 146, b"\x00")])
@example(damage=[("segment-first", "substitute", 291, b"\x00" * 3)])
def test_corrupted_store_degrades_to_jsonl_recovery(tmp_path_factory, damage):
    tmp_path = tmp_path_factory.mktemp("store")
    _fresh_store(tmp_path)
    store_dir = tmp_path / "results.shards"
    for target, kind, pos, blob in damage:
        _apply(store_dir, target, kind, pos, blob)
    reference = _reference_recovery(store_dir)

    # 1. Loading never raises, whatever the bytes are.
    cache = ShardedResultCache(tmp_path)

    # 2. Every key recovers exactly the JSONL-equivalent set: the last
    #    checksum-valid occurrence in the segment bytes, or nothing.
    for job_id in _PAYLOADS:
        assert cache.get(job_id) == reference.get(job_id)

    # 3. The next put() heals the store: a reopen sees no corruption and
    #    both the fresh record and every survivor are intact.
    cache.put("fresh", [{"cycles": 1.0}])
    repaired = ShardedResultCache(tmp_path)
    assert repaired.corrupt_lines == 0
    assert repaired.get("fresh") == [{"cycles": 1.0}]
    for job_id in _PAYLOADS:
        assert repaired.get(job_id) == reference.get(job_id)
