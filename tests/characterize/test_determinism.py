"""Characterization determinism: the table is a pure function of the seed.

The acceptance bar from the ISSUE: same seed -> byte-identical
instruction table across ``--jobs`` values, across a kill/resume, and
from a native or a migrated legacy store.  All of it falls out of the
engine's per-job derived noise seeds plus the table's canonical JSON —
asserted here on a class-covering opcode subset to keep the matrix fast.
"""

from __future__ import annotations

import pytest

from repro.characterize import run_characterization
from repro.characterize.driver import characterization_campaign
from repro.engine import FaultPlan, run_campaign, runner
from repro.machine import nehalem_2s_x5650
from tests.legacy_jsonl import to_legacy

#: Every register class, both probe shapes, all three port classes.
OPCODES = ("add", "addps", "mulps", "mov", "imul", "cmp", "inc", "xorps", "movl")


def _characterize(**kwargs):
    return run_characterization(nehalem_2s_x5650(), opcodes=OPCODES, **kwargs)


@pytest.fixture(scope="module")
def reference():
    """The serial in-memory run's canonical table bytes."""
    return _characterize().table.to_json().encode()


class TestDeterminism:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("max_chunk", (1, 7, None))
    def test_byte_identical_across_dispatch(
        self, reference, monkeypatch, jobs, max_chunk
    ):
        if max_chunk is not None:
            monkeypatch.setattr(runner, "_DYNAMIC_MAX_CHUNK", max_chunk)
        result = _characterize(jobs=jobs)
        assert result.table.to_json().encode() == reference

    @pytest.mark.parametrize("origin", ("jsonl", "sharded"))
    def test_byte_identical_across_backends(self, reference, tmp_path, origin):
        """A warm run answers from the store, native or migrated from a
        legacy JSONL cache."""
        cold = _characterize(cache_dir=tmp_path / "cache")
        assert cold.table.to_json().encode() == reference
        if origin == "jsonl":
            to_legacy(tmp_path / "cache")
        warm = _characterize(cache_dir=tmp_path / "cache")
        assert warm.run.stats.executed == 0
        assert warm.table.to_json().encode() == reference

    @pytest.mark.parametrize("origin", ("jsonl", "sharded"))
    def test_resume_after_kill_byte_identical(self, reference, tmp_path, origin):
        """A probe campaign killed mid-run resumes from its cache into the
        same table bytes a never-interrupted run produces — also when the
        partial cache is a legacy JSONL file, migrated on resume."""
        campaign = characterization_campaign(
            nehalem_2s_x5650(), opcodes=OPCODES
        )
        victim = campaign.job_list()[7]
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
        resumed = _characterize(cache_dir=tmp_path / "cache")
        assert resumed.run.stats.executed == 1  # only the killed job re-ran
        assert resumed.table.to_json().encode() == reference

    def test_different_seed_changes_readings_not_structure(self, reference):
        from repro.characterize import characterization_options

        other = _characterize(options=characterization_options(noise_seed=777))
        assert other.table.to_json().encode() != reference
        # The *solved* integers are seed-independent.
        for name, entry in other.table.entries.items():
            import json

            ref_entry = json.loads(reference)["entries"][name]
            assert entry.latency_cycles == ref_entry["latency_cycles"]
            assert entry.slots == ref_entry["slots"]
            assert entry.port_class == ref_entry["port_class"]


class TestDegradedRuns:
    def test_driver_raises_on_failures(self, monkeypatch):
        """Force the engine to quarantine one probe job and assert the
        driver refuses to solve."""
        import repro.characterize.driver as driver_mod

        real_run_campaign = driver_mod.run_campaign

        def failing_run_campaign(campaign, **kwargs):
            victim = campaign.job_list()[0]
            kwargs.update(
                faults=FaultPlan.for_job(victim.job_id, "raise"),
                max_retries=0,
            )
            return real_run_campaign(campaign, retry_backoff=0.0, **kwargs)

        monkeypatch.setattr(driver_mod, "run_campaign", failing_run_campaign)
        with pytest.raises(ValueError, match="degraded"):
            run_characterization(nehalem_2s_x5650(), opcodes=("add",))
