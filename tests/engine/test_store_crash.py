"""Store crash consistency under a real process exit.

A forked child writes one whole ``put_many`` batch, then dies by
``os._exit`` partway through a second 256-row batch, once some of that
batch's segment bytes have reached the OS.  The parent then checks the
files the child left: no index entry points past the segment bytes on
disk, a reopen adopts the index without a full rescan, and every record
the index names — and every whole line on disk — reads back.
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


def _batch(start: int) -> list[tuple[str, list[dict], str, str]]:
    return [
        (_job_id(i), _measurements(i), "movss_loadstore", "sequential")
        for i in range(start, start + BATCH)
    ]


def _die_mid_second_batch(directory) -> None:
    """In a forked child: one whole batch, then ``os._exit`` once
    ``KILL_AT`` rows of the second batch have had index entries built."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            cache = ShardedResultCache(directory)
            cache.put_many(_batch(0))
            real_crc = store_module._entry_crc
            built = 0

            def dying_crc(entries):
                nonlocal built
                built += len(entries)
                if built >= KILL_AT:
                    os._exit(0)
                return real_crc(entries)

            store_module._entry_crc = dying_crc
            cache.put_many(_batch(BATCH))
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


def _lines_on_disk(store_dir) -> list[dict]:
    records = []
    for path in sorted(store_dir.glob("seg-*.jsonl")):
        data = path.read_bytes()
        whole = data[: data.rfind(b"\n") + 1]
        records.extend(json.loads(line) for line in whole.splitlines())
    return records


def test_killed_batch_never_indexes_past_segment_bytes(tmp_path, monkeypatch):
    _die_mid_second_batch(tmp_path)
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

    def no_full_scan(self, *, heal):  # pragma: no cover - guard
        raise AssertionError("reopen rebuilt the index with a full scan")

    monkeypatch.setattr(ShardedStore, "_full_scan", no_full_scan)
    cache = ShardedResultCache(tmp_path)
    monkeypatch.undo()

    ids = {store_module.key64(_job_id(i)): i for i in range(2 * BATCH)}
    for k in entries["key"]:
        i = ids[int(k)]
        assert cache.get(_job_id(i)) == _measurements(i)
    for record in on_disk:
        i = int(record["job_id"], 16)
        assert cache.get(record["job_id"]) == _measurements(i)
    assert len(cache) == len({r["job_id"] for r in on_disk})
