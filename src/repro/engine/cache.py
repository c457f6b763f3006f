"""Record integrity for the stores, and the legacy JSONL loader.

Every stored record carries ``check``, a digest over the whole record's
canonical JSON, so a line whose bytes were altered but still parse is
caught on read.  The result-record shape::

    {"job_id": "6fb0...", "kernel": "...", "mode": "sequential",
     "measurements": [{...}, ...], "check": "9c41..."}

The stores themselves live in :mod:`repro.engine.store`.  Earlier
releases kept each cache in one JSONL file (``results.jsonl``,
``gencache.jsonl``); nothing writes that layout any more, and
:func:`load_legacy_jsonl` reads it only so the store can migrate it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable


def record_check(record: dict) -> str:
    """Digest over the whole record (minus ``check`` itself).

    Covering every key means any parse-surviving byte alteration — a
    flipped value, a mangled field name, an injected extra key — breaks
    the digest and the line is treated as corrupt.
    """
    body = {k: v for k, v in record.items() if k != "check"}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode(errors="replace")).hexdigest()[:16]


def check_passes(record: dict) -> bool:
    """Checksum validation shared by every record shape.

    The store writes ``check`` on every put, so a record without one is
    damage and fails; anything else must digest to its stored value.
    """
    return record.get("check") == record_check(record)


#: Exactly the keys :meth:`~repro.engine.store.ShardedResultCache.put`
#: writes.  Closed-world: damage that mangles the ``check`` key itself
#: yields a parseable record with an unknown key, which a legacy file
#: (where a missing checksum is allowed) could not otherwise reject.
_RESULT_RECORD_KEYS = frozenset(
    {"job_id", "kernel", "mode", "measurements", "check"}
)


def valid_result_record(record: object) -> bool:
    """Structural + integrity validation of one result-cache record.

    The record shape is the storage contract, not a property of any one
    file layout: the store and the legacy loader validate with this same
    predicate.
    """
    if not isinstance(record, dict):
        return False
    if not set(record) <= _RESULT_RECORD_KEYS:
        return False
    job_id = record.get("job_id")
    measurements = record.get("measurements")
    if not isinstance(job_id, str) or not isinstance(measurements, list):
        return False
    if not all(isinstance(m, dict) for m in measurements):
        return False
    return check_passes(record)


def load_legacy_jsonl(
    path: Path, key_field: str, valid_record: Callable[[object], bool]
) -> dict[str, dict]:
    """The valid records of a legacy JSONL cache file, by key.

    Loading never raises on damage: blank lines are skipped, and torn,
    unparseable, non-UTF-8 or checksum-failing lines are dropped.  When a
    key appears twice the later line wins, which is what a forced
    re-measure wrote.  Lines written before checksums existed carry no
    ``check``; they are stamped with one before validation, so only
    their structure is checked (the store re-checksums every record it
    migrates).
    """
    records: dict[str, dict] = {}
    # errors="replace": damage can leave bytes that are not UTF-8; the
    # mangled line then fails JSON or checksum validation below instead
    # of killing the load.
    with path.open(encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "check" not in record:
                record["check"] = record_check(record)
            if valid_record(record):
                records[record[key_field]] = record
    return records
