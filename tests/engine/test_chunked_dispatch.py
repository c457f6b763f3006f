"""Chunked dispatch: batching jobs per worker cannot change a byte.

Determinism is structural (content-hash noise seeds, job-index row
order), so any chunking — single-job chunks, a small cap, the default rule, or
chunks as large as the planner allows — must write identical result
files.  The per-worker kernel memo must likewise be invisible: an
option sweep over one kernel normalizes it once but measures exactly
the same values.
"""

import pytest

from repro.engine import Campaign, SweepSpec, run_campaign, runner
from repro.engine.runner import _DYNAMIC_MAX_CHUNK, _ChunkPlanner, run_chunk
from repro.launcher import LauncherOptions


@pytest.fixture(scope="module")
def sweep_campaign():
    """8 kernels x 3 trip counts: enough jobs to span several chunks."""
    from repro.creator import MicroCreator
    from repro.machine import nehalem_2s_x5650
    from repro.spec import load_kernel

    variants = MicroCreator().generate(load_kernel("movaps"))
    sweep = SweepSpec(
        kernels=tuple(variants),
        base=LauncherOptions(array_bytes=16 * 1024, experiments=2, repetitions=2),
        axes={"trip_count": (256, 512, 1024)},
    )
    return Campaign(name="chunked", machine=nehalem_2s_x5650(), sweeps=(sweep,))


class TestResolveChunkSize:
    """A fresh chunk holds ⌈jobs not yet carved / workers⌉ jobs, clipped
    to ``_DYNAMIC_MAX_CHUNK`` and to the jobs left in its spec family."""

    def test_auto_targets_a_few_chunks_per_worker(self, sweep_campaign):
        n_jobs = len(sweep_campaign.job_list())
        run = run_campaign(sweep_campaign, jobs=2)
        # 24 jobs on 2 workers: 12, 6, 3, 2, 1.
        assert n_jobs == 24
        assert run.stats.chunks == 5

    def test_tail_chunks_are_single_jobs(self, sweep_campaign):
        planner = _ChunkPlanner(sweep_campaign.job_list(), 4)
        sizes = []
        while not planner.exhausted():
            sizes.append(len(planner.carve().jobs))
        # ceil(24 / 4) = 6 first, then shrinking to one job per worker.
        assert sizes == [6, 5, 4, 3, 2, 1, 1, 1, 1]

    def test_auto_capped(self, sweep_campaign):
        many = [sweep_campaign.job_list()[0]] * (3 * _DYNAMIC_MAX_CHUNK)
        planner = _ChunkPlanner(many, 1)
        assert len(planner.carve().jobs) == _DYNAMIC_MAX_CHUNK


class TestChunkExecution:
    def test_chunk_equals_per_job_execution(self, sweep_campaign):
        jobs = sweep_campaign.job_list()[:6]
        chunked = run_chunk(sweep_campaign.machine, jobs)
        single = [run_chunk(sweep_campaign.machine, [job])[0] for job in jobs]
        assert [r[:2] for r in chunked] == [r[:2] for r in single]

    def test_chunk_preserves_job_order(self, sweep_campaign):
        jobs = sweep_campaign.job_list()[:6]
        result = run_chunk(sweep_campaign.machine, jobs)
        assert [job_id for job_id, _, _ in result] == [j.job_id for j in jobs]


class TestChunkedCampaignDeterminism:
    @pytest.mark.parametrize("jobs", (1, 4))
    @pytest.mark.parametrize("max_chunk", (1, 3, None, 10_000))
    def test_every_chunking_byte_identical(
        self, sweep_campaign, tmp_path, monkeypatch, max_chunk, jobs
    ):
        serial = run_campaign(sweep_campaign, jobs=1)
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        chunked = run_campaign(sweep_campaign, jobs=jobs)
        tag = f"{jobs}_{max_chunk}"
        a = serial.write_csv(tmp_path / "serial.csv")
        b = chunked.write_csv(tmp_path / f"chunk_{tag}.csv")
        assert a.read_bytes() == b.read_bytes()
        aj = serial.write_jsonl(tmp_path / "serial.jsonl")
        bj = chunked.write_jsonl(tmp_path / f"chunk_{tag}.jsonl")
        assert aj.read_bytes() == bj.read_bytes()

    def test_chunked_run_fills_cache_like_serial(
        self, sweep_campaign, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", 1)
        chunked = run_campaign(sweep_campaign, jobs=4, cache_dir=tmp_path / "c")
        warm = run_campaign(sweep_campaign, jobs=1, cache_dir=tmp_path / "c")
        assert warm.stats.executed == 0
        assert warm.measurements() == chunked.measurements()


class TestKernelMemo:
    def test_memo_shared_across_option_sweep(self, sweep_campaign):
        """A chunk sweeping options over one kernel normalizes it once."""
        all_jobs = sweep_campaign.job_list()
        jobs = [j for j in all_jobs if j.kernel_name == all_jobs[0].kernel_name]
        assert len(jobs) == 3  # one kernel, three trip counts
        digests = {(j.kernel_digest, j.options.trip_count) for j in jobs}
        runner._SIM_MEMO.clear()
        run_chunk(sweep_campaign.machine, jobs)
        assert set(runner._SIM_MEMO) == digests

    def test_memo_bounded(self, sweep_campaign):
        job = sweep_campaign.job_list()[0]
        runner._SIM_MEMO.clear()
        try:
            for i in range(runner._SIM_MEMO_MAX):
                runner._SIM_MEMO[(f"fake{i}", 0)] = object()
            run_chunk(sweep_campaign.machine, [job])
            assert len(runner._SIM_MEMO) <= runner._SIM_MEMO_MAX
        finally:
            runner._SIM_MEMO.clear()

    def test_memo_evicts_oldest_not_everything(self, sweep_campaign):
        """Regression: a full memo must shed one entry, not be wiped.

        The old behaviour cleared the whole memo at capacity, throwing
        away every warm entry right when a long sweep needed them most.
        """
        job = sweep_campaign.job_list()[0]
        runner._SIM_MEMO.clear()
        try:
            fakes = [(f"fake{i}", 0) for i in range(runner._SIM_MEMO_MAX)]
            for key in fakes:
                runner._SIM_MEMO[key] = object()
            run_chunk(sweep_campaign.machine, [job])
            assert len(runner._SIM_MEMO) == runner._SIM_MEMO_MAX
            assert fakes[0] not in runner._SIM_MEMO  # only the oldest went
            assert all(key in runner._SIM_MEMO for key in fakes[1:])
            assert (job.kernel_digest, job.options.trip_count) in runner._SIM_MEMO
        finally:
            runner._SIM_MEMO.clear()

    def test_memo_hit_keeps_entry_hot(self, sweep_campaign):
        """LRU regression: hits must protect an entry from eviction.

        Workers persist across campaigns now, so the memo's eviction
        order matters — an entry the current campaign keeps touching
        must outlive fakes that were merely inserted after it.
        """
        all_jobs = sweep_campaign.job_list()
        job_a = all_jobs[0]
        job_b = next(
            j for j in all_jobs if j.kernel_digest != job_a.kernel_digest
        )
        key_a = (job_a.kernel_digest, job_a.options.trip_count)
        runner._SIM_MEMO.clear()
        try:
            run_chunk(sweep_campaign.machine, [job_a])  # A inserted
            fakes = [(f"fake{i}", 0) for i in range(runner._SIM_MEMO_MAX - 1)]
            for key in fakes:
                runner._SIM_MEMO[key] = object()  # memo now full
            run_chunk(sweep_campaign.machine, [job_a])  # hit: A -> tail
            run_chunk(sweep_campaign.machine, [job_b])  # miss: evict one
            assert key_a in runner._SIM_MEMO  # the hit kept A alive
            assert fakes[0] not in runner._SIM_MEMO  # the LRU fake went
        finally:
            runner._SIM_MEMO.clear()

    def test_memo_capacity_bounds_the_memo(self, sweep_campaign, monkeypatch):
        """``_SIM_MEMO_MAX`` bounds the memo, read per insert."""
        monkeypatch.setattr(runner, "_SIM_MEMO_MAX", 2)
        jobs = sweep_campaign.job_list()[:6]
        runner._SIM_MEMO.clear()
        try:
            run_chunk(sweep_campaign.machine, jobs)
            assert len(runner._SIM_MEMO) <= 2
        finally:
            runner._SIM_MEMO.clear()

    def test_gen_memo_capacity_and_lru(self, monkeypatch):
        """The generation memo honors ``_GEN_MEMO_MAX`` and keeps
        recently hit expansions when it evicts."""
        from repro.engine import generation
        from repro.kernels import loadstore_family
        from repro.kernels.reduction import dot_product_spec
        from repro.machine import nehalem_2s_x5650

        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512)
        campaign = Campaign(
            name="genmemo",
            machine=nehalem_2s_x5650(),
            sweeps=(
                SweepSpec(spec=dot_product_spec(2, unroll=(1, 2)), base=base),
                SweepSpec(spec=loadstore_family("movss", unroll=(1,)), base=base),
            ),
        )
        refs = [j.kernel for j in campaign.job_list(defer=True)]
        ref_a = refs[0]
        ref_b = next(r for r in refs if r.memo_key() != ref_a.memo_key())
        monkeypatch.setattr(generation, "_GEN_MEMO_MAX", 1)
        generation._GEN_MEMO.clear()
        try:
            generation.resolve_kernel_ref(ref_a)
            assert list(generation._GEN_MEMO) == [ref_a.memo_key()]
            generation.resolve_kernel_ref(ref_b)  # capacity 1: evicts A
            assert list(generation._GEN_MEMO) == [ref_b.memo_key()]
            generation.resolve_kernel_ref(ref_b)  # hit: stays resident
            assert list(generation._GEN_MEMO) == [ref_b.memo_key()]
        finally:
            generation._GEN_MEMO.clear()
