"""Campaign expansion tests: grids, ordering, tags, derived seeds."""

import pytest

from repro.engine import Campaign, SweepSpec
from repro.launcher import LauncherOptions
from repro.spec import load_kernel


class TestSweepSpec:
    def test_rejects_unknown_mode(self, movaps_u8):
        with pytest.raises(ValueError, match="unknown job mode"):
            SweepSpec(kernels=(movaps_u8,), mode="teleport")

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="kernels or a spec"):
            SweepSpec()

    def test_rejects_unknown_axis(self, movaps_u8):
        with pytest.raises(ValueError, match="unknown option axes"):
            SweepSpec(kernels=(movaps_u8,), axes={"warp_speed": (1, 2)})

    def test_option_points_cartesian_in_axes_order(self, movaps_u8):
        sweep = SweepSpec(
            kernels=(movaps_u8,),
            axes={"trip_count": (64, 128), "repetitions": (1, 2)},
        )
        points = list(sweep.option_points())
        assert points == [
            {"trip_count": 64, "repetitions": 1},
            {"trip_count": 64, "repetitions": 2},
            {"trip_count": 128, "repetitions": 1},
            {"trip_count": 128, "repetitions": 2},
        ]

    def test_spec_expansion_with_filter(self):
        sweep = SweepSpec(
            spec=load_kernel("movaps"),
            variant_filter=lambda k: k.unroll >= 7,
        )
        unrolls = sorted(k.unroll for k in sweep.iter_kernels())
        assert unrolls == [7, 8]


class TestCampaignExpansion:
    def test_job_count_is_grid_size(self, nehalem, movaps_variants):
        sweep = SweepSpec(
            kernels=tuple(movaps_variants),
            axes={"trip_count": (64, 128, 256)},
        )
        campaign = Campaign(name="grid", machine=nehalem, sweeps=(sweep,))
        jobs = campaign.job_list()
        assert len(jobs) == len(movaps_variants) * 3
        assert [j.index for j in jobs] == list(range(len(jobs)))

    def test_expansion_is_deterministic(self, nehalem, movaps_variants):
        sweep = SweepSpec(
            kernels=tuple(movaps_variants), axes={"repetitions": (1, 2)}
        )
        campaign = Campaign(name="det", machine=nehalem, sweeps=(sweep,))
        first = [(j.job_id, j.kernel_name, j.tags) for j in campaign.jobs()]
        second = [(j.job_id, j.kernel_name, j.tags) for j in campaign.jobs()]
        assert first == second

    def test_job_ids_unique_across_grid(self, nehalem, movaps_variants):
        sweep = SweepSpec(
            kernels=tuple(movaps_variants), axes={"trip_count": (64, 128)}
        )
        campaign = Campaign(name="uniq", machine=nehalem, sweeps=(sweep,))
        ids = [j.job_id for j in campaign.jobs()]
        assert len(set(ids)) == len(ids)

    def test_tags_carry_sweep_labels_and_axis_values(self, nehalem, movaps_u8):
        sweep = SweepSpec(
            kernels=(movaps_u8,),
            axes={"trip_count": (64,)},
            tags={"level": "L1"},
        )
        campaign = Campaign(name="tags", machine=nehalem, sweeps=(sweep,))
        (job,) = campaign.job_list()
        assert job.tags == {"level": "L1", "trip_count": 64}
        assert job.options.trip_count == 64

    def test_ids_independent_of_surrounding_jobs(self, nehalem, movaps_u8):
        """The same grid point hashes the same in a bigger campaign."""
        small = Campaign(
            name="a",
            machine=nehalem,
            sweeps=(SweepSpec(kernels=(movaps_u8,), axes={"trip_count": (64,)}),),
        )
        big = Campaign(
            name="b",
            machine=nehalem,
            sweeps=(
                SweepSpec(kernels=(movaps_u8,), axes={"trip_count": (32, 64, 128)}),
            ),
        )
        (small_job,) = small.job_list()
        big_ids = {j.options.trip_count: j.job_id for j in big.jobs()}
        assert big_ids[64] == small_job.job_id


class TestDerivedSeeds:
    def test_execution_seed_differs_per_job(self, nehalem, movaps_variants):
        sweep = SweepSpec(kernels=tuple(movaps_variants))
        campaign = Campaign(name="seeds", machine=nehalem, sweeps=(sweep,))
        seeds = {j.execution_options().noise_seed for j in campaign.jobs()}
        assert len(seeds) == len(movaps_variants)

    def test_execution_seed_is_stable(self, nehalem, movaps_u8):
        campaign = Campaign(
            name="stable",
            machine=nehalem,
            sweeps=(SweepSpec(kernels=(movaps_u8,)),),
        )
        (job,) = campaign.job_list()
        assert job.execution_options() == job.execution_options()
        # Other fields are untouched.
        assert job.execution_options().with_(noise_seed=0) == job.options.with_(
            noise_seed=0
        )


def _reference_expansion(campaign, *, defer):
    """The plain per-job loop: every job rebuilds and re-hashes its own
    options.  ``Campaign.jobs`` must expand to exactly these jobs."""
    from repro.engine.hashing import (
        job_id_for,
        kernel_digest,
        machine_digest,
        options_digest,
    )

    machine_dig = machine_digest(campaign.machine)
    index = 0
    for sweep in campaign.sweeps:
        n_explicit = len(sweep.kernels)
        for ki, kernel in enumerate(sweep.iter_kernels()):
            kernel_dig = kernel_digest(kernel)
            for overrides in sweep.option_points():
                options = sweep.base.with_(**overrides)
                yield {
                    "job_id": job_id_for(
                        kernel_dig, options_digest(options), machine_dig, sweep.mode
                    ),
                    "index": index,
                    "kernel_name": getattr(kernel, "name", None) or str(kernel),
                    "mode": sweep.mode,
                    "options": options,
                    "tags": dict(sweep.tags, **overrides),
                    "kernel_digest": kernel_dig,
                    "deferred": defer and ki >= n_explicit,
                }
                index += 1


class TestExpansionPerOptionPoint:
    """Options, their digest and the tags are built once per option
    point of a sweep; the jobs are the per-job loop's, byte for byte."""

    @pytest.fixture(scope="class")
    def campaign(self, nehalem, movaps_variants):
        from repro.kernels.reduction import dot_product_spec

        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512)
        spec = dot_product_spec(2, unroll=(1, 2))
        return Campaign(
            name="oracle",
            machine=nehalem,
            sweeps=(
                SweepSpec(
                    kernels=tuple(movaps_variants[:3]),
                    base=base,
                    axes={"trip_count": (64, 128)},
                    tags={"level": "L1"},
                ),
                SweepSpec(spec=spec, base=base),
                SweepSpec(
                    kernels=(movaps_variants[7],),
                    spec=spec,
                    base=base,
                    axes={"trip_count": (64, 256), "repetitions": (1, 2)},
                    tags={"grid": "two-axis"},
                ),
            ),
        )

    @pytest.mark.parametrize("defer", [False, True])
    def test_jobs_equal_the_per_job_loop(self, campaign, defer):
        from repro.engine import KernelRef

        got = [
            {
                "job_id": j.job_id,
                "index": j.index,
                "kernel_name": j.kernel_name,
                "mode": j.mode,
                "options": j.options,
                "tags": j.tags,
                "kernel_digest": j.kernel_digest,
                "deferred": isinstance(j.kernel, KernelRef),
            }
            for j in campaign.jobs(defer=defer)
        ]
        assert got == list(_reference_expansion(campaign, defer=defer))
        assert any(g["deferred"] for g in got) == defer

    def test_options_digest_once_per_option_point(
        self, campaign, monkeypatch
    ):
        import repro.engine.campaign as campaign_module

        calls = []
        real = campaign_module.options_digest
        monkeypatch.setattr(
            campaign_module,
            "options_digest",
            lambda options: calls.append(options) or real(options),
        )
        jobs = campaign.job_list()
        points = sum(len(list(s.option_points())) for s in campaign.sweeps)
        assert len(calls) == points == 2 + 1 + 4
        assert len(jobs) > points

    def test_job_tags_are_not_shared(self, campaign):
        jobs = campaign.job_list()
        same_point = [j for j in jobs if j.tags == {"level": "L1", "trip_count": 64}]
        assert len(same_point) == 3
        same_point[0].tags["mutated"] = True
        assert all("mutated" not in j.tags for j in same_point[1:])
        assert all("mutated" not in j.tags for j in campaign.job_list())
