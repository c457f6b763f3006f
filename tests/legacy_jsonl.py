"""Cache directories in the single-file JSONL layout of earlier releases.

Nothing in the package writes that layout any more; these helpers
produce it so tests can check what the store migrates on open.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.engine import ShardedGenerationCache, ShardedResultCache
from repro.engine.cache import record_check

#: Store class -> the legacy file it replaced in the same directory,
#: and the record field that keys it.
LEGACY_FILES = (
    (ShardedResultCache, "results.jsonl", "job_id"),
    (ShardedGenerationCache, "gencache.jsonl", "key"),
)


def legacy_line(record: dict) -> str:
    """One legacy JSONL line: ``record`` with its checksum."""
    body = {k: v for k, v in record.items() if k != "check"}
    body["check"] = record_check(body)
    return json.dumps(body) + "\n"


def result_line(job_id: str, measurements: list[dict], **fields) -> str:
    """A legacy ``results.jsonl`` line for one job."""
    return legacy_line(
        {
            "job_id": job_id,
            "kernel": fields.get("kernel", ""),
            "mode": fields.get("mode", ""),
            "measurements": measurements,
        }
    )


def to_legacy(directory: str | Path) -> None:
    """Rewrite every store in ``directory`` as its legacy JSONL file.

    Segment lines are read in (shard, segment) order; when a key appears
    twice the later record wins, as it does in the store.
    """
    directory = Path(directory)
    for cache_type, filename, key_field in LEGACY_FILES:
        shards = directory / cache_type.DIRNAME
        if not shards.is_dir():
            continue
        latest: dict[str, dict] = {}
        for segment in sorted(shards.glob("seg-*.jsonl")):
            for line in segment.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    record = json.loads(line)
                    latest[record[key_field]] = record
        lines = [json.dumps(record) + "\n" for record in latest.values()]
        (directory / filename).write_text("".join(lines), encoding="utf-8")
        shutil.rmtree(shards)
