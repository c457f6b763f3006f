"""The result and generation stores: indexed resume over sharded segments.

Both caches live in sharded segment stores, laid out so membership
tests and resume scans never parse payloads they do not need:

``<cache_dir>/results.shards/`` (resp. ``gencache.shards/``)::

    store.json                  {"format": 1, "shards": 8,
                                 "segment_records": 4096}
    index.bin                   header + packed (key64, shard, segment,
                                offset, length, line, crc) entries
    seg-SS-NNNNNN.jsonl         fixed-size JSONL segments, shard SS

Records are written in batches (:meth:`ShardedStore.put_records`): each
record goes to the active segment of shard ``key64(key) % shards``,
every segment the batch touched gets its lines in one write and is
flushed, and only then are the batch's index entries appended as one
array and flushed.  So an index entry never points at segment bytes the
OS has not got, and an intact index answers "is this job cached?" with
one ``searchsorted`` over a memory-mapped-sized array — no JSON touched.
Each entry also carries ``line``, a 64-bit digest of the record's line
bytes, so an indexed read verifies the bytes the store wrote with one
hash instead of re-canonicalising the record.  An index written before
the digest existed (version 1) is rebuilt from the segments on open.
When a segment reaches ``segment_records`` records it is *sealed*:
later records go to the next segment.

Every record carries a whole-record checksum
(:func:`~repro.engine.cache.record_check`), checked wherever no index
entry vouches for the bytes (puts, tail rescans, full scans, migration),
and damage degrades to exactly what line-by-line parsing of the segment
bytes recovers: a torn data tail is re-scanned from the index's coverage
point; a torn index tail is truncated to whole entries; a record whose
bytes no longer match their line digest or lost a delimiting newline is
not served from its indexed range, and the key's shard is re-scanned; a
flipped byte in the index fails the per-entry CRC and the index is
rebuilt from the segments; a deleted ``index.bin`` is likewise rebuilt.
The first write after damage was observed repairs the store atomically.

A cache directory still holding a single-file JSONL cache from an
earlier release (``results.jsonl``, ``gencache.jsonl``) is migrated on
open by :func:`open_result_cache` / :func:`open_generation_cache`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.engine.cache import (
    load_legacy_jsonl,
    record_check,
    valid_result_record,
)
from repro.engine.gencache import (
    CachedVariant,
    generation_record,
    key_for,
    valid_generation_record,
    variants_from_record,
)

INDEX_MAGIC = b"RPROIDX1"
INDEX_VERSION = 2
#: Index file header: magic, version, shards, segment_records.
INDEX_HEADER = struct.Struct("<8sHHI")

#: One index entry.  ``key`` is the first 8 bytes of sha256(record key);
#: ``length`` excludes the trailing newline; ``line`` is
#: :func:`line_digest` of the record's line; ``crc`` covers the other
#: fields so a flipped byte anywhere in the index is detected at load.
ENTRY_DTYPE = np.dtype(
    [
        ("key", "<u8"),
        ("shard", "<u2"),
        ("segment", "<u4"),
        ("offset", "<u8"),
        ("length", "<u4"),
        ("line", "<u8"),
        ("crc", "<u4"),
    ]
)

_SEGMENT_RE = re.compile(r"^seg-(\d{2})-(\d{6})\.jsonl$")

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX3 = np.uint64(0x165667B19E3779F9)


def key64(key: str) -> int:
    """The 64-bit index key for a record key (sha256 prefix)."""
    return int.from_bytes(
        hashlib.sha256(key.encode(errors="replace")).digest()[:8], "little"
    )


def line_digest(line: bytes) -> int:
    """The 64-bit digest of a record's line bytes (no newline): the first
    8 bytes of sha256, as strong a check as the record's own ``check``."""
    return int.from_bytes(hashlib.sha256(line).digest()[:8], "little")


def _entry_crc(entries: np.ndarray) -> np.ndarray:
    """Vectorized per-entry CRC over every field except ``crc`` itself."""
    x = entries["key"] * _MIX1
    x = x ^ (entries["shard"].astype(np.uint64) + np.uint64(1)) * _MIX2
    x = x ^ (entries["segment"].astype(np.uint64) + np.uint64(3)) * _MIX3
    x = x ^ entries["offset"].astype(np.uint64) * _MIX2
    x = x ^ entries["length"].astype(np.uint64) * _MIX3
    x = x ^ (entries["line"] + np.uint64(7)) * _MIX1
    x = x ^ (x >> np.uint64(29))
    return (x & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def _entries_array(
    rows: Sequence[tuple[int, int, int, int, int, int]],
) -> np.ndarray:
    """Index entries for ``(key64, shard, segment, offset, length, line)``
    rows, filled and CRC'd column by column."""
    entries = np.zeros(len(rows), dtype=ENTRY_DTYPE)
    for name, column in zip(ENTRY_DTYPE.names, zip(*rows)):
        entries[name] = column
    entries["crc"] = _entry_crc(entries)
    return entries


@dataclass(slots=True)
class _Shard:
    """Mutable per-shard write state (active segment only)."""

    segment: int = 0
    size: int = 0
    records: int = 0
    torn: bool = False


@dataclass(slots=True)
class _SegmentScan:
    """One segment's scan result: valid locations, damage accounting."""

    valids: list = field(default_factory=list)  # (key, offset, length)
    digests: list = field(default_factory=list)  # line_digest per valid
    records: list | None = None  # parsed records when keep=True
    raws: list | None = None  # raw valid lines when keep=True
    corrupt: int = 0
    torn: bool = False
    size: int = 0


class ShardedStore:
    """Generic sharded segment store; see the module docstring.

    The record shape is supplied by the caller: ``key_field`` names the
    primary-key field and ``valid_record`` is the structural+integrity
    predicate (the same one the legacy loader applies, so migration
    accepts exactly the records the store would).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        key_field: str,
        valid_record: Callable[[object], bool],
        shards: int = 8,
        segment_records: int = 4096,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key_field = key_field
        self._valid = valid_record
        self.shards = shards
        self.segment_records = segment_records
        self._keys = np.empty(0, dtype="<u8")
        self._locs = np.empty(0, dtype=ENTRY_DTYPE)
        # key -> (shard, segment, offset, length, line digest)
        self._overlay: dict[str, tuple[int, int, int, int, int]] = {}
        # Rows a tail rescan located, for the next index append.
        self._unindexed: list[tuple[int, int, int, int, int, int]] = []
        self._shard_state: dict[int, _Shard] = {}
        self._n = 0
        self._corrupt = 0
        self._dirty = False
        self._readers: dict[tuple[int, int], object] = {}
        self._appenders: dict[int, tuple[int, object]] = {}
        self._index_fh = None
        self._load()

    # -- paths ---------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.directory / "store.json"

    @property
    def index_path(self) -> Path:
        return self.directory / "index.bin"

    def _segment_path(self, shard: int, segment: int) -> Path:
        return self.directory / f"seg-{shard:02d}-{segment:06d}.jsonl"

    def _segment_files(self) -> list[tuple[int, int, Path]]:
        found = []
        for path in self.directory.iterdir():
            m = _SEGMENT_RE.match(path.name)
            if m:
                found.append((int(m.group(1)), int(m.group(2)), path))
        return sorted(found)

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, key: str) -> bool:
        return key in self._overlay or self._find(key64(key)) >= 0

    def _find(self, k: int) -> int:
        """Position of index key ``k`` in the lookup arrays, or -1."""
        # np.uint64 keeps searchsorted on the u8 fast path: probing with a
        # Python int below 2**63 would promote the whole array per call.
        # The method form skips np.searchsorted's dispatch (~1.3 us).
        i = int(self._keys.searchsorted(np.uint64(k)))
        return i if i < len(self._keys) and int(self._keys[i]) == k else -1

    @property
    def corrupt_lines(self) -> int:
        """Damaged lines detected at load time (0 after a repair)."""
        return self._corrupt

    # -- load ----------------------------------------------------------

    def _load(self) -> None:
        meta_ok = self._read_meta()
        segments = self._segment_files()
        if not segments:
            # Fresh store (or its segments deleted): establish the layout.
            # Any leftover index entries point at segments that no longer
            # exist, so reset the index to empty as well.
            self._write_meta()
            stale = self._read_index()
            if stale is None or len(stale):
                self._write_index(np.empty(0, dtype=ENTRY_DTYPE))
            return
        entries = self._read_index() if meta_ok else None
        if entries is None or not self._adopt_index(entries, segments):
            self._full_scan(heal=False)
            if not meta_ok:
                self._write_meta()

    def _read_meta(self) -> bool:
        try:
            meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        if not isinstance(meta, dict) or meta.get("format") != 1:
            return False
        shards = meta.get("shards")
        segment_records = meta.get("segment_records")
        if not isinstance(shards, int) or not isinstance(segment_records, int):
            return False
        if shards < 1 or segment_records < 1:
            return False
        # An existing store's geometry wins over constructor defaults:
        # the key->shard mapping is baked into the files on disk.
        self.shards = shards
        self.segment_records = segment_records
        return True

    def _write_meta(self) -> None:
        self.meta_path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "shards": self.shards,
                    "segment_records": self.segment_records,
                }
            )
            + "\n",
            encoding="utf-8",
        )

    def _read_index(self) -> np.ndarray | None:
        try:
            data = self.index_path.read_bytes()
        except OSError:
            return None
        if len(data) < INDEX_HEADER.size:
            return None
        magic, version, shards, segment_records = INDEX_HEADER.unpack_from(data)
        if (
            magic != INDEX_MAGIC
            or version != INDEX_VERSION
            or shards != self.shards
            or segment_records != self.segment_records
        ):
            return None
        body = data[INDEX_HEADER.size :]
        # A torn index append leaves a partial trailing entry; whole
        # entries before it are still good.
        n = len(body) // ENTRY_DTYPE.itemsize
        entries = np.frombuffer(
            body[: n * ENTRY_DTYPE.itemsize], dtype=ENTRY_DTYPE
        )
        if len(entries) and not bool(
            np.all(_entry_crc(entries) == entries["crc"])
        ):
            return None
        return entries

    def _adopt_index(
        self, entries: np.ndarray, segments: list[tuple[int, int, Path]]
    ) -> bool:
        """Accept the on-disk index if it exactly covers the segments.

        Sealed segments must be covered byte-for-byte; the active segment
        of each shard may extend past the index (a crash between a data
        append and its index append), in which case the uncovered tail is
        re-scanned.  Any other mismatch means the index can no longer be
        trusted and the caller rebuilds it from the segments.
        """
        sizes = {(sh, seg): path.stat().st_size for sh, seg, path in segments}
        active = {}
        for sh, seg, _path in segments:
            active[sh] = max(active.get(sh, seg), seg)
        if len(entries) and int(entries["shard"].max()) >= self.shards:
            return False
        ends = entries["offset"] + entries["length"] + 1
        code = entries["shard"].astype(np.int64) * 10**7 + entries[
            "segment"
        ].astype(np.int64)
        uniq, inverse = np.unique(code, return_inverse=True)
        max_end = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(max_end, inverse, ends.astype(np.int64))
        counts = np.bincount(inverse, minlength=len(uniq))
        coverage: dict[tuple[int, int], tuple[int, int]] = {}
        for i, c in enumerate(uniq):
            pair = (int(c) // 10**7, int(c) % 10**7)
            if pair not in sizes:
                return False  # index points at a segment that is gone
            coverage[pair] = (int(max_end[i]), int(counts[i]))
        tails = []
        for (sh, seg), size in sizes.items():
            covered, n_records = coverage.get((sh, seg), (0, 0))
            sealed = seg < active[sh]
            if covered > size:
                return False  # index ahead of data: not ours
            if sealed and covered != size:
                return False  # sealed segments must match exactly
            if not sealed:
                state = self._shard_state.setdefault(sh, _Shard())
                state.segment = seg
                state.size = size
                state.records = n_records
                state.torn = not self._ends_with_newline(
                    self._segment_path(sh, seg), size
                )
                if covered < size:
                    tails.append((sh, seg, covered))
        self._build_lookup(entries)
        for sh, seg, covered in tails:
            self._rescan_tail(sh, seg, covered)
        return True

    def _ends_with_newline(self, path: Path, size: int) -> bool:
        if size == 0:
            return True
        with path.open("rb") as fh:
            fh.seek(-1, 2)
            return fh.read(1) == b"\n"

    def _rescan_tail(self, shard: int, segment: int, start: int) -> None:
        """Recover records appended after the index's last entry.

        Valid tail records go into the overlay *and* straight back into
        the index file (an empty :meth:`put_records` batch), restoring
        the covered-exactly invariant before the segment can seal.
        Damaged tail bytes count as corruption and schedule a repair.
        """
        path = self._segment_path(shard, segment)
        with path.open("rb") as fh:
            fh.seek(start)
            data = fh.read()
        scan = self._scan_bytes(data, base=start)
        state = self._shard_state.setdefault(shard, _Shard())
        for (key, offset, length), line in zip(scan.valids, scan.digests):
            if key not in self:
                self._n += 1
            self._overlay[key] = (shard, segment, offset, length, line)
            self._unindexed.append(
                (key64(key), shard, segment, offset, length, line)
            )
        state.records += len(scan.valids)
        self.put_records(())
        if scan.corrupt:
            self._corrupt += scan.corrupt
            self._dirty = True

    def _build_lookup(self, entries: np.ndarray) -> None:
        """Sorted-key lookup arrays, later entries winning duplicate keys."""
        if not len(entries):
            self._keys = np.empty(0, dtype="<u8")
            self._locs = np.empty(0, dtype=ENTRY_DTYPE)
            self._n = 0
            return
        order = np.argsort(entries["key"], kind="stable")
        ranked = entries[order]
        keys = ranked["key"]
        last_of_run = np.append(keys[1:] != keys[:-1], True)
        self._locs = ranked[last_of_run].copy()
        self._keys = self._locs["key"].copy()
        self._n = len(self._keys)

    # -- scanning / rebuild --------------------------------------------

    def _scan_bytes(
        self, data: bytes, *, base: int = 0, keep: bool = False
    ) -> _SegmentScan:
        scan = _SegmentScan(size=base + len(data))
        scan.torn = bool(data) and not data.endswith(b"\n")
        if keep:
            scan.records = []
            scan.raws = []
        pos = base
        for raw in data.split(b"\n"):
            offset = pos
            pos += len(raw) + 1
            if not raw.strip():
                continue  # blank separators are noise, not damage
            try:
                record = json.loads(raw)
            except ValueError:  # JSONDecodeError and UnicodeDecodeError
                record = None
            if (
                record is None
                or not self._valid(record)
                or not isinstance(record.get(self.key_field), str)
            ):
                scan.corrupt += 1
                continue
            scan.valids.append((record[self.key_field], offset, len(raw)))
            scan.digests.append(line_digest(raw))
            if keep:
                scan.records.append(record)
                scan.raws.append(raw)
        return scan

    def _scan_segment(self, path: Path, *, keep: bool = False) -> _SegmentScan:
        return self._scan_bytes(path.read_bytes(), keep=keep)

    def _full_scan(self, *, heal: bool) -> None:
        """Rebuild all state from the segment bytes alone.

        ``heal=False`` (the load path) only observes: damaged lines are
        counted and the store marked dirty.
        ``heal=True`` (the repair path) rewrites every damaged or torn
        segment to exactly its valid lines — durably, via a fsynced tmp
        file — and writes a fresh index.
        """
        self._close_handles()
        self._overlay = {}
        self._shard_state = {}
        segments = self._segment_files()
        active: dict[int, int] = {}
        for sh, seg, _path in segments:
            active[sh] = max(active.get(sh, seg), seg)
        entry_rows: list[tuple[int, int, int, int, int, int]] = []
        total_corrupt = 0
        for sh, seg, path in segments:
            scan = self._scan_segment(path, keep=heal)
            sealed = seg < active[sh]
            if heal and (scan.corrupt or scan.torn):
                scan = self._rewrite_segment(path, scan)
            total_corrupt += scan.corrupt
            entry_rows.extend(
                (key64(key), sh, seg, off, length, line)
                for (key, off, length), line in zip(scan.valids, scan.digests)
            )
            if not sealed:
                self._shard_state[sh] = _Shard(
                    segment=seg,
                    size=scan.size,
                    records=len(scan.valids),
                    torn=scan.torn,
                )
        entries = _entries_array(entry_rows)
        self._build_lookup(entries)
        self._corrupt = total_corrupt
        self._dirty = total_corrupt > 0
        if not self._dirty:
            self._write_index(entries)

    def _rewrite_segment(self, path: Path, scan: _SegmentScan) -> _SegmentScan:
        """Atomically compact one segment to its valid lines (durable)."""
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as fh:
            for raw in scan.raws or []:
                fh.write(raw + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        healed = _SegmentScan(digests=scan.digests)
        offset = 0
        for key, _off, length in scan.valids:
            healed.valids.append((key, offset, length))
            offset += length + 1
        healed.size = offset
        return healed

    # -- index file ----------------------------------------------------

    def _write_index(self, entries: np.ndarray) -> None:
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None
        tmp = self.index_path.with_name(self.index_path.name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(
                INDEX_HEADER.pack(
                    INDEX_MAGIC,
                    INDEX_VERSION,
                    self.shards,
                    self.segment_records,
                )
            )
            fh.write(entries.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.index_path)

    # -- read path -----------------------------------------------------

    def get_record(self, key: str) -> dict | None:
        """The stored record for ``key``, or ``None``.

        The index resolves the record's exact byte range and vouches for
        its bytes with their line digest, so a lookup hashes and parses
        one line (``store.index_hit``) without re-checksumming the record;
        only a record whose bytes no longer match falls back to scanning
        the key's own shard (``store.index_miss``), which recovers exactly
        what line-by-line parsing of the segments would.  A key absent
        from both overlay and index is simply absent — membership stays
        O(log n).
        """
        loc = self._overlay.get(key)
        if loc is None:
            i = self._find(key64(key))
            if i < 0:
                return None
            _k, shard, segment, offset, length, line, _crc = self._locs.item(i)
            loc = (shard, segment, offset, length, line)
        record = self._read_at(loc, key)
        if record is not None:
            obs.count("store.index_hit")
            return record
        obs.count("store.index_miss")
        self._dirty = True
        return self._scan_for(key)

    def _reader(self, shard: int, segment: int):
        handle = self._readers.get((shard, segment))
        if handle is None:
            if len(self._readers) >= 32:
                _, old = self._readers.popitem()
                old.close()
            handle = self._segment_path(shard, segment).open("rb")
            self._readers[(shard, segment)] = handle
        return handle

    def _read_at(
        self, loc: tuple[int, int, int, int, int], key: str
    ) -> dict | None:
        shard, segment, offset, length, line = loc
        # Read one byte either side: the record is only still a line of
        # its own if newlines delimit it (the file start before it; EOF
        # after it while a torn tail awaits its newline).  Damage that
        # destroyed a delimiter welded it to a neighbour, and a line scan
        # would no longer recover it.
        lead = 1 if offset else 0
        try:
            fh = self._reader(shard, segment)
            fh.seek(offset - lead)
            raw = fh.read(length + lead + 1)
        except OSError:
            return None
        if lead and raw[:1] != b"\n":
            return None
        if raw[lead + length :] not in (b"", b"\n"):
            return None
        body = raw[lead : lead + length]
        # Indexed bytes are the bytes the store wrote after checksumming
        # (or validated on a scan), so an equal digest vouches for them.
        if line_digest(body) != line:
            return None
        record = json.loads(body)
        if record.get(self.key_field) != key:
            return None
        return record

    def _scan_for(self, key: str) -> dict | None:
        """Last valid occurrence of ``key`` in its shard's segments."""
        shard = key64(key) % self.shards
        best: dict | None = None
        for sh, seg, path in self._segment_files():
            if sh != shard:
                continue
            scan = self._scan_segment(path, keep=True)
            for (k, _off, _len), record in zip(
                scan.valids, scan.records or []
            ):
                if k == key:
                    best = record
        return best

    # -- write path ----------------------------------------------------

    def put_records(self, items: Sequence[tuple[str, dict]]) -> None:
        """Checksum, append and index a batch of ``(key, record)`` pairs
        (repairing first if damage was observed).

        Each record's ``check`` is stamped and its line placed at the end
        of its shard's active segment, sealing a full segment first;
        later records win duplicate keys, within a batch as across
        batches.  Then every segment the batch touched receives its lines
        in one write and is flushed, and only after that are the batch's
        index entries appended as one array and flushed — so a process
        killed anywhere in here never leaves an index entry pointing past
        the segment bytes the OS has.
        """
        # An empty batch only indexes rows a tail rescan located; the
        # load that found them observes damage, it does not repair it.
        if self._dirty and items:
            self._repair()
        rows, self._unindexed = self._unindexed, []
        lines: dict[tuple[int, int], list[bytes]] = {}
        for key, record in items:
            record = dict(record)
            record.pop("check", None)
            record["check"] = record_check(record)
            body = json.dumps(record).encode()
            k = key64(key)
            if key not in self._overlay and self._find(k) < 0:
                self._n += 1
            shard = k % self.shards
            state = self._shard_state.setdefault(shard, _Shard())
            if state.records >= self.segment_records:
                state = self._seal(shard)
            pending = lines.setdefault((shard, state.segment), [])
            if state.torn:
                # A torn write left a valid final line with no newline;
                # appending straight onto it would weld two records.
                pending.append(b"\n")
                state.size += 1
                state.torn = False
            pending.append(body + b"\n")
            loc = (
                shard, state.segment, state.size, len(body), line_digest(body)
            )
            self._overlay[key] = loc
            rows.append((k, *loc))
            state.size += len(body) + 1
            state.records += 1
        for (shard, segment), pending in lines.items():
            fh = self._appender(shard, segment)
            fh.write(b"".join(pending))
            fh.flush()
        if rows:
            if self._index_fh is None:
                if not self.index_path.exists():
                    self._write_index(np.empty(0, dtype=ENTRY_DTYPE))
                self._index_fh = self.index_path.open("ab")
            self._index_fh.write(_entries_array(rows).tobytes())
            self._index_fh.flush()

    def _appender(self, shard: int, segment: int):
        cached = self._appenders.get(shard)
        if cached is not None and cached[0] == segment:
            return cached[1]
        if cached is not None:
            cached[1].close()
        fh = self._segment_path(shard, segment).open("ab")
        self._appenders[shard] = (segment, fh)
        return fh

    def _seal(self, shard: int) -> _Shard:
        """Advance the shard to a fresh segment; the full one's appender
        is replaced when the next segment is first written."""
        state = self._shard_state[shard]
        with obs.span(
            "store.seal", metric="store.seal_ms", shard=shard,
            segment=state.segment,
        ):
            state = _Shard(segment=state.segment + 1)
            self._shard_state[shard] = state
        obs.count("store.seal")
        return state

    def _repair(self) -> None:
        with obs.span("store.repair"):
            self._full_scan(heal=True)

    # -- lifecycle -----------------------------------------------------

    def _close_handles(self) -> None:
        for handle in self._readers.values():
            handle.close()
        self._readers = {}
        for _seg, handle in self._appenders.values():
            handle.close()
        self._appenders = {}
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None

    def close(self) -> None:
        self._close_handles()


# -- cache-compatible wrappers -----------------------------------------


class ShardedResultCache:
    """Measurement dicts by job ID, stored in ``<dir>/results.shards/``."""

    DIRNAME = "results.shards"
    SEGMENT_RECORDS = 4096

    def __init__(
        self,
        directory: str | Path,
        *,
        shards: int = 8,
        segment_records: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._store = ShardedStore(
            self.directory / self.DIRNAME,
            key_field="job_id",
            valid_record=valid_result_record,
            shards=shards,
            segment_records=segment_records or self.SEGMENT_RECORDS,
        )

    @property
    def store(self) -> ShardedStore:
        return self._store

    @property
    def corrupt_lines(self) -> int:
        return self._store.corrupt_lines

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._store

    def get(self, job_id: str) -> list[dict] | None:
        """Stored measurement dicts for ``job_id``, or ``None``.

        Records parse fresh from the segment bytes, so the returned
        dicts are the caller's to mutate.
        """
        record = self._store.get_record(job_id)
        if record is None:
            return None
        return record["measurements"]

    def put(
        self,
        job_id: str,
        measurements: list[dict],
        *,
        kernel: str = "",
        mode: str = "",
    ) -> None:
        """Store one job's measurements (a batch of one)."""
        self.put_many([(job_id, measurements, kernel, mode)])

    def put_many(
        self, entries: list[tuple[str, list[dict], str, str]]
    ) -> None:
        """Store a chunk's results — ``(job_id, measurements, kernel,
        mode)`` tuples — as one :meth:`ShardedStore.put_records` batch."""
        self._store.put_records(
            [
                (
                    job_id,
                    {
                        "job_id": job_id,
                        "kernel": kernel,
                        "mode": mode,
                        "measurements": measurements,
                    },
                )
                for job_id, measurements, kernel, mode in entries
            ]
        )


class ShardedGenerationCache:
    """Rendered variants by ``(spec, creator options)``, stored in
    ``<dir>/gencache.shards/`` (see :mod:`repro.engine.gencache`).

    Generation records are few but large (every rendered variant of an
    expansion), so segments are small — the win here is indexed
    membership and torn-tail isolation per segment.
    """

    DIRNAME = "gencache.shards"
    SEGMENT_RECORDS = 32

    def __init__(
        self,
        directory: str | Path,
        *,
        shards: int = 4,
        segment_records: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._store = ShardedStore(
            self.directory / self.DIRNAME,
            key_field="key",
            valid_record=valid_generation_record,
            shards=shards,
            segment_records=segment_records or self.SEGMENT_RECORDS,
        )

    @property
    def store(self) -> ShardedStore:
        return self._store

    @property
    def corrupt_lines(self) -> int:
        return self._store.corrupt_lines

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, spec_dig: str, opts_dig: str) -> list[CachedVariant] | None:
        """The stored expansion for this spec + options, or ``None``."""
        record = self._store.get_record(key_for(spec_dig, opts_dig))
        if record is None:
            obs.count("gencache.miss")
            return None
        obs.count("gencache.hit")
        return variants_from_record(record)

    def put(
        self,
        spec_dig: str,
        opts_dig: str,
        spec_name: str,
        variants: Sequence[object],
    ) -> None:
        """Store one complete expansion (every variant, pre-filter)."""
        record = generation_record(spec_dig, opts_dig, spec_name, variants)
        self._store.put_records([(record["key"], record)])


# -- factories + migration ---------------------------------------------


def _migrate(legacy: Path, store: ShardedStore, what: str) -> None:
    """Move a legacy JSONL cache file's valid records into ``store``, as
    one batch.

    The rename to ``.migrated`` is the commit point: until it happens the
    legacy file stays where it is, so a migration interrupted part-way is
    simply redone on the next open.  Records it already appended are
    appended again, harmlessly, because the later record wins.
    """
    if not legacy.exists():
        return
    records = load_legacy_jsonl(legacy, store.key_field, store._valid)
    with obs.span("store.migrate", what=what, records=len(records)):
        store.put_records(list(records.items()))
        legacy.rename(legacy.with_name(legacy.name + ".migrated"))
    obs.count("store.migrate")


def open_result_cache(directory: str | Path) -> ShardedResultCache:
    """The result cache over ``directory``, migrating a legacy
    ``results.jsonl`` into it if one is still there."""
    cache = ShardedResultCache(directory)
    _migrate(cache.directory / "results.jsonl", cache.store, "results")
    return cache


def open_generation_cache(directory: str | Path) -> ShardedGenerationCache:
    """The generation cache over ``directory``, migrating a legacy
    ``gencache.jsonl`` into it if one is still there."""
    cache = ShardedGenerationCache(directory)
    _migrate(cache.directory / "gencache.jsonl", cache.store, "generation")
    return cache
