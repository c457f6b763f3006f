"""Store equivalence: where a row comes from cannot change an output byte.

Every campaign writes byte-identical CSV/JSONL whether its rows were
measured now, read back from the store, re-measured, or migrated from a
legacy single-file JSONL cache — across chunk sizes, resume, and a
migration that finds damaged lines.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    Campaign,
    SweepSpec,
    open_generation_cache,
    run_campaign,
    runner,
)
from repro.kernels import loadstore_family
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650
from tests.legacy_jsonl import to_legacy


def _campaign() -> Campaign:
    base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)
    return Campaign(
        name="store-equiv",
        machine=nehalem_2s_x5650(),
        sweeps=(
            SweepSpec(
                spec=loadstore_family("movss", unroll=(1, 2)),
                base=base,
                axes={"trip_count": (256, 512)},
            ),
        ),
    )


def _output_bytes(run, directory, tag):
    csv = run.write_csv(directory / f"{tag}.csv")
    jsonl = run.write_jsonl(directory / f"{tag}.jsonl")
    return csv.read_bytes(), jsonl.read_bytes()


class TestBackendEquivalence:
    @pytest.mark.parametrize("max_chunk", (1, 3, None))
    def test_backends_byte_identical(self, tmp_path, monkeypatch, max_chunk):
        """A cold pool run, a warm inline run from its store, and a warm
        run from the same store migrated out of legacy JSONL files all
        write the same bytes."""
        dirs = dict(cache_dir=tmp_path / "cache", gen_cache_dir=tmp_path / "gen")
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        cold = run_campaign(_campaign(), jobs=2, **dirs)
        expected = _output_bytes(cold, tmp_path, "cold")
        warm = run_campaign(_campaign(), jobs=1, **dirs)
        to_legacy(tmp_path / "cache")
        to_legacy(tmp_path / "gen")
        migrated = run_campaign(_campaign(), jobs=1, **dirs)
        for tag, run in (("warm", warm), ("migrated", migrated)):
            assert run.stats.executed == 0, tag
            assert run.stats.cache_hits == run.stats.total_jobs, tag
            assert _output_bytes(run, tmp_path, tag) == expected, tag

    def test_forced_remeasure_identical_across_backends(self, tmp_path):
        """Re-measured rows shadow the stored ones with the same bytes."""
        cold = run_campaign(_campaign(), cache_dir=tmp_path / "cache")
        forced = run_campaign(
            _campaign(), cache_dir=tmp_path / "cache", resume=False
        )
        assert forced.stats.executed == forced.stats.total_jobs
        assert _output_bytes(forced, tmp_path, "forced") == _output_bytes(
            cold, tmp_path, "cold"
        )

    def test_migrated_legacy_cache_resumes_warm(self, tmp_path):
        """Damaged legacy caches migrate exactly their valid records: the
        resumed run re-measures only the job whose line was torn, and its
        bytes match the uninterrupted run."""
        cache_dir = tmp_path / "cache"
        gen_dir = tmp_path / "gen"
        cold = run_campaign(_campaign(), cache_dir=cache_dir, gen_cache_dir=gen_dir)
        to_legacy(cache_dir)
        to_legacy(gen_dir)
        results = cache_dir / "results.jsonl"
        lines = results.read_text().splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"  # torn mid-record
        results.write_text(
            "".join(lines) + '{"job_id": "x", "measurements": [{"tr'
        )
        gencache = gen_dir / "gencache.jsonl"
        gencache.write_bytes(b"\xff not json\n" + gencache.read_bytes())
        warm = run_campaign(_campaign(), cache_dir=cache_dir, gen_cache_dir=gen_dir)
        assert warm.stats.executed == 1
        assert warm.stats.cache_hits == warm.stats.total_jobs - 1
        for legacy in (results, gencache):
            assert not legacy.exists()
            assert legacy.with_name(legacy.name + ".migrated").exists()
        assert len(open_generation_cache(gen_dir)) == 1
        assert _output_bytes(cold, tmp_path, "cold") == _output_bytes(
            warm, tmp_path, "warm"
        )

    def test_partial_sharded_cache_runs_only_missing(self, tmp_path):
        campaign = _campaign()
        jobs = campaign.job_list()
        cache_dir = tmp_path / "cache"
        first = run_campaign(campaign, cache_dir=cache_dir)
        assert first.stats.executed == len(jobs)
        resumed = run_campaign(_campaign(), cache_dir=cache_dir)
        assert resumed.stats.executed == 0
        assert resumed.stats.cache_hits == len(jobs)

    def test_leftover_sidecars_are_ignored(self, tmp_path):
        """Earlier releases wrote a ``seg-*.col.npz`` columnar sidecar
        next to each sealed segment.  A store still holding them opens,
        serves every record, resumes byte-identically, and ``clear()``
        removes them."""
        import numpy as np

        from repro.engine import ShardedResultCache

        cache_dir = tmp_path / "cache"
        # Tiny segments so the cold run seals some, as a real store would.
        ShardedResultCache(cache_dir, shards=1, segment_records=3)
        cold = run_campaign(_campaign(), cache_dir=cache_dir)
        shards = cache_dir / ShardedResultCache.DIRNAME
        segments = sorted(shards.glob("seg-*.jsonl"))
        assert len(segments) > 1
        leftovers = []
        for segment in segments[:-1]:
            sidecar = segment.with_name(segment.name[: -len(".jsonl")] + ".col.npz")
            with sidecar.open("wb") as fh:
                np.savez(fh, jobs=np.array(["x"]), tsc=np.zeros(3))
            leftovers.append(sidecar)
        stray_tmp = leftovers[0].with_name(leftovers[0].name + ".tmp")
        stray_tmp.write_bytes(b"torn sidecar")
        leftovers.append(stray_tmp)

        reopened = ShardedResultCache(cache_dir)
        assert reopened.corrupt_lines == 0
        assert len(reopened) == len(cold.results)
        for job_id in cold.results:
            assert reopened.get(job_id) is not None
        warm = run_campaign(_campaign(), cache_dir=cache_dir)
        assert warm.stats.executed == 0
        assert _output_bytes(warm, tmp_path, "warm") == _output_bytes(
            cold, tmp_path, "cold"
        )
        assert all(path.exists() for path in leftovers)
