"""Store crash consistency under a real process exit.

A forked child writes one whole ``put_many`` batch, then dies by
``os._exit`` partway through a second batch, once some of that batch's
segment bytes have reached the OS: inside a 256-row batch, or at the
index append of a small batch that sealed a segment.  The parent then
checks the files the child left: no index entry points past the segment
bytes on disk, a reopen adopts the index without a full rescan, and
every record the index names — and every whole line on disk — reads
back.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import ShardedResultCache
from repro.engine import store as store_module
from repro.engine.store import ENTRY_DTYPE, INDEX_HEADER, ShardedStore

BATCH = 256
#: Rows of the second batch whose index entries are built before the exit.
KILL_AT = 250

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def _measurements(i: int) -> list[dict]:
    """One measurement shaped like a real sweep row (~800-byte line)."""
    return [
        {
            "kernel_name": f"movss_loadstore_v{i % 64:04d}",
            "label": "",
            "trip_count": 16384,
            "repetitions": 8,
            "loop_iterations": 16384,
            "elements_per_iteration": 1,
            "n_memory_instructions": 1,
            "experiment_tsc": [517433.47758550243 + i + j for j in range(4)],
            "freq_ghz": 1.86,
            "tsc_ghz": 2.67,
            "aggregator": "min",
            "alignments": [],
            "core": 0,
            "n_cores": 1,
            "bottleneck": "branch_cost",
            "metadata": {
                "opcodes": ["movss"],
                "unroll": 1 + i % 8,
                "mix": "L",
                "iteration_counter": True,
                "n_loads": 1,
                "n_stores": 0,
            },
        }
    ]


def _job_id(i: int) -> str:
    return f"{i:016x}"


def _rows(start: int, stop: int) -> list[tuple[str, list[dict], str, str]]:
    return [
        (_job_id(i), _measurements(i), "movss_loadstore", "sequential")
        for i in range(start, stop)
    ]


def _die_in_second_batch(
    directory, first: int, second: int, *, kill_at: int, **geometry
) -> None:
    """In a forked child: rows ``[0, first)`` as one whole batch, then
    rows ``[first, first + second)`` as a batch during which the child
    ``os._exit``s once ``kill_at`` of its rows have had index entries
    built.  ``geometry`` goes to :class:`ShardedResultCache`."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            cache = ShardedResultCache(directory, **geometry)
            cache.put_many(_rows(0, first))
            real_crc = store_module._entry_crc
            built = 0

            def dying_crc(entries):
                nonlocal built
                built += len(entries)
                if built >= kill_at:
                    os._exit(0)
                return real_crc(entries)

            store_module._entry_crc = dying_crc
            cache.put_many(_rows(first, first + second))
        finally:
            os._exit(1)  # the hook never fired
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:  # pragma: no cover - hung child
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the writer child did not exit within 60 s")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def _index_entries(store_dir) -> np.ndarray:
    body = (store_dir / "index.bin").read_bytes()[INDEX_HEADER.size :]
    whole = len(body) // ENTRY_DTYPE.itemsize * ENTRY_DTYPE.itemsize
    return np.frombuffer(body[:whole], dtype=ENTRY_DTYPE)


def _lines_per_segment(store_dir) -> list[int]:
    return [
        path.read_bytes().count(b"\n")
        for path in sorted(store_dir.glob("seg-*.jsonl"))
    ]


def _lines_on_disk(store_dir) -> list[dict]:
    records = []
    for path in sorted(store_dir.glob("seg-*.jsonl")):
        data = path.read_bytes()
        whole = data[: data.rfind(b"\n") + 1]
        records.extend(json.loads(line) for line in whole.splitlines())
    return records


def _reopen_without_full_scan(monkeypatch, directory, **geometry):
    def no_full_scan(self, *, heal):  # pragma: no cover - guard
        raise AssertionError("reopen rebuilt the index with a full scan")

    monkeypatch.setattr(ShardedStore, "_full_scan", no_full_scan)
    try:
        return ShardedResultCache(directory, **geometry)
    finally:
        monkeypatch.undo()


def test_killed_batch_never_indexes_past_segment_bytes(tmp_path, monkeypatch):
    _die_in_second_batch(tmp_path, BATCH, BATCH, kill_at=KILL_AT)
    store_dir = tmp_path / ShardedResultCache.DIRNAME

    on_disk = _lines_on_disk(store_dir)
    assert len(on_disk) > BATCH, "no byte of the killed batch reached the OS"

    entries = _index_entries(store_dir)
    sizes = {
        (int(name[4:6]), int(name[7:13])): (store_dir / name).stat().st_size
        for name in (p.name for p in store_dir.glob("seg-*.jsonl"))
    }
    dangling = [
        e
        for e in entries
        if int(e["offset"]) + int(e["length"]) + 1
        > sizes.get((int(e["shard"]), int(e["segment"])), 0)
    ]
    assert not dangling, (
        f"{len(dangling)} of {len(entries)} index entries point past the "
        "segment bytes on disk"
    )

    cache = _reopen_without_full_scan(monkeypatch, tmp_path)

    ids = {store_module.key64(_job_id(i)): i for i in range(2 * BATCH)}
    for k in entries["key"]:
        i = ids[int(k)]
        assert cache.get(_job_id(i)) == _measurements(i)
    for record in on_disk:
        i = int(record["job_id"], 16)
        assert cache.get(record["job_id"]) == _measurements(i)
    assert len(cache) == len({r["job_id"] for r in on_disk})


def test_killed_seal_crossing_batch_reopens_without_full_scan(
    tmp_path, monkeypatch
):
    """3 indexed rows, then a 6-row batch that fills segment 0 and seals
    it into segment 1 dies at its index append: both segments end in
    unindexed tails."""
    geometry = {"shards": 1, "segment_records": 5}
    _die_in_second_batch(tmp_path, 3, 6, kill_at=1, **geometry)
    store_dir = tmp_path / ShardedResultCache.DIRNAME
    assert len(_index_entries(store_dir)) == 3
    assert _lines_per_segment(store_dir) == [5, 4]

    cache = _reopen_without_full_scan(monkeypatch, tmp_path, **geometry)
    assert cache.corrupt_lines == 0
    assert len(cache) == 9
    for i in range(9):
        assert cache.get(_job_id(i)) == _measurements(i)

    # The sealed segment's rescanned rows do not count towards the
    # active segment: it takes one more row before the next seal.
    cache.put_many(_rows(9, 11))
    assert _lines_per_segment(store_dir) == [5, 5, 1]
    reopened = _reopen_without_full_scan(monkeypatch, tmp_path, **geometry)
    assert len(reopened) == 11
    for i in range(11):
        assert reopened.get(_job_id(i)) == _measurements(i)
