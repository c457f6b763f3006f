"""Property test: migrating a damaged legacy ``results.jsonl``.

Whatever bytes end up in the legacy file — truncation, garbage
insertion, bit-flips — opening the directory must never raise, ``get``
must never return a corrupt payload (only ``None`` or the exact
original), and the migration must commit by renaming the file to
``results.jsonl.migrated``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import open_result_cache
from tests.legacy_jsonl import result_line

_PAYLOADS = {
    f"job{i:02d}": [{"cycles": float(i), "rep": r} for r in range(2)]
    for i in range(6)
}

_PRISTINE = "".join(
    result_line(job_id, measurements) for job_id, measurements in _PAYLOADS.items()
).encode()


@st.composite
def corruptions(draw):
    """(kind, position, payload) triples applied to the cache file."""
    kind = draw(st.sampled_from(["truncate", "insert", "substitute"]))
    pos = draw(st.integers(min_value=0, max_value=2_000))
    blob = draw(st.binary(min_size=1, max_size=40))
    return kind, pos, blob


def _corrupt(data: bytes, kind: str, pos: int, blob: bytes) -> bytes:
    pos = min(pos, len(data))
    if kind == "truncate":
        return data[:pos]
    if kind == "insert":
        return data[:pos] + blob + data[pos:]
    return data[:pos] + blob + data[pos + len(blob):]


@settings(max_examples=60, deadline=None)
@given(damage=st.lists(corruptions(), min_size=1, max_size=3))
def test_corrupted_cache_never_lies(tmp_path_factory, damage):
    tmp_path = tmp_path_factory.mktemp("cache")
    data = _PRISTINE
    for kind, pos, blob in damage:
        data = _corrupt(data, kind, pos, blob)
    (tmp_path / "results.jsonl").write_bytes(data)

    # 1. Opening never raises, whatever the bytes are.
    cache = open_result_cache(tmp_path)

    # 2. get() is None or byte-exact truth — never a mangled payload.
    for job_id, original in _PAYLOADS.items():
        got = cache.get(job_id)
        assert got is None or got == original

    # 3. The migration committed.
    assert (tmp_path / "results.jsonl.migrated").exists()
    assert not (tmp_path / "results.jsonl").exists()
