"""Adaptive campaigns through the engine: determinism end to end.

The adaptive stopping layer draws from the same per-experiment noise
streams as the fixed path and bootstraps from a composition-independent
resample matrix, so an adaptive campaign must be exactly as deterministic
as a fixed one: byte-identical CSV/JSONL across worker counts, chunk
sizes, resume-after-kill (from a native or a migrated legacy store) and
a warm rerun — with the five quality columns present in every row.
"""

from __future__ import annotations

import pytest

from repro.engine import Campaign, FaultPlan, SweepSpec, run_campaign, runner
from repro.launcher import LauncherOptions
from repro.launcher.csvout import QUALITY_COLUMNS, read_csv
from tests.legacy_jsonl import to_legacy


def _campaign() -> Campaign:
    """8 kernels x 2 trip counts under a target loose enough that some
    configurations converge early and others run to the cap."""
    from repro.creator import MicroCreator
    from repro.machine import nehalem_2s_x5650
    from repro.spec import load_kernel

    variants = MicroCreator().generate(load_kernel("movaps"))
    sweep = SweepSpec(
        kernels=tuple(variants),
        base=LauncherOptions(
            array_bytes=16 * 1024,
            repetitions=2,
            rciw_target=0.008,
            min_experiments=3,
            max_experiments=16,
            batch_size=4,
        ),
        axes={"trip_count": (256, 512)},
    )
    return Campaign(name="adaptive", machine=nehalem_2s_x5650(), sweeps=(sweep,))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The serial fault-free reference run and its output bytes."""
    d = tmp_path_factory.mktemp("adaptive_clean")
    run = run_campaign(_campaign(), jobs=1)
    return {
        "run": run,
        "csv": run.write_csv(d / "clean.csv").read_bytes(),
        "jsonl": run.write_jsonl(d / "clean.jsonl").read_bytes(),
        "csv_path": d / "clean.csv",
    }


class TestAdaptiveDeterminism:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("max_chunk", (1, 3, None))
    def test_byte_identical_across_dispatch(
        self, clean, tmp_path, monkeypatch, jobs, max_chunk
    ):
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        run = run_campaign(_campaign(), jobs=jobs)
        tag = f"{jobs}_{max_chunk}"
        assert run.write_csv(tmp_path / f"{tag}.csv").read_bytes() == clean["csv"]
        assert (
            run.write_jsonl(tmp_path / f"{tag}.jsonl").read_bytes()
            == clean["jsonl"]
        )

    def test_spread_in_experiments_spent(self, clean):
        """The fixture is only meaningful if stopping actually varies."""
        spent = {m.experiments_spent for m in clean["run"].measurements()}
        assert len(spent) > 1
        assert any(m.converged for m in clean["run"].measurements())

    @pytest.mark.parametrize("origin", ("jsonl", "sharded"))
    def test_resume_after_kill_byte_identical(self, clean, tmp_path, origin):
        """A campaign killed mid-run resumes from its cache to the same
        bytes a never-interrupted run writes — also when the partial
        cache is a legacy JSONL file, migrated on resume."""
        campaign = _campaign()
        victim = campaign.job_list()[5]
        killed = run_campaign(
            campaign,
            faults=FaultPlan.for_job(victim.job_id, "raise"),
            max_retries=0,
            retry_backoff=0.0,
            cache_dir=tmp_path / "cache",
        )
        assert [f.job_id for f in killed.failures] == [victim.job_id]
        if origin == "jsonl":
            to_legacy(tmp_path / "cache")
        resumed = run_campaign(_campaign(), cache_dir=tmp_path / "cache")
        assert not resumed.failures
        assert resumed.stats.executed == 1  # only the killed job re-runs
        assert (
            resumed.write_csv(tmp_path / "resumed.csv").read_bytes()
            == clean["csv"]
        )
        assert (
            resumed.write_jsonl(tmp_path / "resumed.jsonl").read_bytes()
            == clean["jsonl"]
        )

    def test_backends_byte_identical(self, clean, tmp_path):
        cold = run_campaign(_campaign(), jobs=2, cache_dir=tmp_path / "cache")
        warm = run_campaign(_campaign(), cache_dir=tmp_path / "cache")
        assert warm.stats.executed == 0
        assert cold.write_csv(tmp_path / "cold.csv").read_bytes() == clean["csv"]
        assert warm.write_csv(tmp_path / "warm.csv").read_bytes() == clean["csv"]
        assert (
            warm.write_jsonl(tmp_path / "warm.jsonl").read_bytes()
            == clean["jsonl"]
        )


class TestQualityColumns:
    def test_every_adaptive_row_carries_quality_columns(self, clean):
        rows = read_csv(clean["csv_path"])
        assert rows
        for row in rows:
            for column in QUALITY_COLUMNS:
                assert column in row, column
            assert isinstance(row["experiments_spent"], int)
            assert 3 <= row["experiments_spent"] <= 16
            assert row["ci_low"] <= row["ci_high"]
            assert row["rciw"] >= 0.0
            assert isinstance(row["converged"], bool)
            if row["converged"]:
                assert row["rciw"] <= 0.008

    def test_fixed_campaign_has_no_quality_columns(self, tmp_path):
        from repro.creator import MicroCreator
        from repro.machine import nehalem_2s_x5650
        from repro.spec import load_kernel

        variants = MicroCreator().generate(load_kernel("movaps"))[:2]
        campaign = Campaign(
            name="fixed",
            machine=nehalem_2s_x5650(),
            sweeps=(
                SweepSpec(
                    kernels=tuple(variants),
                    base=LauncherOptions(
                        array_bytes=16 * 1024,
                        trip_count=256,
                        experiments=2,
                        repetitions=2,
                    ),
                ),
            ),
        )
        run = run_campaign(campaign, jobs=1)
        rows = read_csv(run.write_csv(tmp_path / "fixed.csv"))
        assert rows
        for row in rows:
            for column in QUALITY_COLUMNS:
                assert column not in row


class TestStoppingTelemetry:
    """Each executed adaptive job is counted exactly once as converged or
    capped: in-process by the measurement core itself, on the pool (a
    timed ``jobs=1`` run included) by the scheduler from the decoded
    worker replies."""

    @pytest.mark.parametrize(
        "jobs,job_timeout",
        [
            pytest.param(1, None, id="inline"),
            pytest.param(2, None, id="pool"),
            pytest.param(1, 60.0, id="timed"),
        ],
    )
    def test_converged_plus_capped_is_the_job_count(self, jobs, job_timeout):
        from repro import obs

        obs.disable()
        obs.enable()
        try:
            run = run_campaign(_campaign(), jobs=jobs, job_timeout=job_timeout)
            counters = obs.metrics_snapshot()["counters"]
            histograms = obs.metrics_snapshot()["histograms"]
        finally:
            obs.disable()
        assert run.stats.executed == run.stats.total_jobs
        converged = counters.get("stopping.converged", 0)
        capped = counters.get("stopping.capped", 0)
        assert converged + capped == run.stats.total_jobs
        assert converged == sum(m.converged for m in run.measurements())
        assert histograms["stopping.experiments"]["count"] == run.stats.total_jobs
