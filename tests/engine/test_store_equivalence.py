"""Backend equivalence: the store layout cannot change an output byte.

The sharded store is a pure storage optimization — every campaign must
write byte-identical CSV/JSONL whether its caches live in a single JSONL
file or in indexed segments, across resume, forced re-measure, chunk
sizes, and the one-time legacy migration.
"""

from __future__ import annotations

import pytest

from repro.engine import Campaign, SweepSpec, run_campaign
from repro.kernels import loadstore_family
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650


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
    @pytest.mark.parametrize("chunk_target_ms", (1, 3, None))
    def test_backends_byte_identical(self, tmp_path, chunk_target_ms):
        outputs = {}
        for fmt in ("jsonl", "sharded"):
            d = tmp_path / fmt
            d.mkdir()
            cold = run_campaign(
                _campaign(),
                jobs=2,
                chunk_target_ms=chunk_target_ms,
                cache_dir=d / "cache",
                gen_cache_dir=d / "gen",
                store_format=fmt,
            )
            warm = run_campaign(
                _campaign(),
                jobs=1,
                cache_dir=d / "cache",
                gen_cache_dir=d / "gen",
                store_format=fmt,
            )
            assert warm.stats.executed == 0, fmt
            assert warm.stats.cache_hits == warm.stats.total_jobs, fmt
            cold_bytes = _output_bytes(cold, d, "cold")
            warm_bytes = _output_bytes(warm, d, "warm")
            assert cold_bytes == warm_bytes, fmt
            outputs[fmt] = cold_bytes
        assert outputs["jsonl"] == outputs["sharded"]

    def test_forced_remeasure_identical_across_backends(self, tmp_path):
        outputs = {}
        for fmt in ("jsonl", "sharded"):
            d = tmp_path / fmt
            d.mkdir()
            run_campaign(_campaign(), cache_dir=d / "cache", store_format=fmt)
            forced = run_campaign(
                _campaign(),
                cache_dir=d / "cache",
                resume=False,
                store_format=fmt,
            )
            assert forced.stats.executed == forced.stats.total_jobs
            outputs[fmt] = _output_bytes(forced, d, "forced")
        assert outputs["jsonl"] == outputs["sharded"]

    def test_migrated_legacy_cache_resumes_warm(self, tmp_path):
        """jsonl-run caches answer a later sharded run after migration —
        nothing re-executes and the bytes match."""
        cache_dir = tmp_path / "cache"
        gen_dir = tmp_path / "gen"
        cold = run_campaign(
            _campaign(),
            cache_dir=cache_dir,
            gen_cache_dir=gen_dir,
            store_format="jsonl",
        )
        warm = run_campaign(
            _campaign(),
            cache_dir=cache_dir,
            gen_cache_dir=gen_dir,
            store_format="sharded",
        )
        assert warm.stats.executed == 0
        assert not (cache_dir / "results.jsonl").exists()
        assert (cache_dir / "results.jsonl.migrated").exists()
        assert (cache_dir / "results.shards").is_dir()
        assert _output_bytes(cold, tmp_path, "cold") == _output_bytes(
            warm, tmp_path, "warm"
        )

    def test_partial_sharded_cache_runs_only_missing(self, tmp_path):
        from repro.engine import ShardedResultCache

        campaign = _campaign()
        jobs = campaign.job_list()
        cache = ShardedResultCache(tmp_path / "cache")
        first = run_campaign(campaign, cache=cache)
        assert first.stats.executed == len(jobs)
        resumed = run_campaign(_campaign(), cache=cache)
        assert resumed.stats.executed == 0
        assert resumed.stats.cache_hits == len(jobs)
