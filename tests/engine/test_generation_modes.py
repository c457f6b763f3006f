"""Deferred generation: which jobs ship as KernelRef descriptions.

Inline runs render kernels parent-side; pool runs ship KernelRef jobs
and regenerate them where they are measured.  That this cannot change a
byte, cold or warm generation cache alike, is a column of the
equivalence matrix (``test_equivalence.py``); these tests pin which jobs
are deferred, and that a warm generation cache round-trips results.
"""

from __future__ import annotations

from repro import obs
from repro.engine import (
    Campaign,
    KernelRef,
    SweepSpec,
    open_generation_cache,
    run_campaign,
)
from repro.kernels import loadstore_family
from repro.kernels.reduction import dot_product_spec
from repro.launcher import LauncherOptions
from repro.machine import nehalem_2s_x5650


def _campaign() -> Campaign:
    base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)
    return Campaign(
        name="genmodes",
        machine=nehalem_2s_x5650(),
        sweeps=(
            SweepSpec(spec=dot_product_spec(2, unroll=(1, 2)), base=base),
            SweepSpec(spec=loadstore_family("movss", unroll=(1, 2)), base=base),
        ),
    )


def _run_bytes(run, tmp_path, tag):
    csv = run.write_csv(tmp_path / f"{tag}.csv")
    jsonl = run.write_jsonl(tmp_path / f"{tag}.jsonl")
    return csv.read_bytes(), jsonl.read_bytes()


def _result_bytes(tmp_path, tag, **kwargs):
    return _run_bytes(run_campaign(_campaign(), **kwargs), tmp_path, tag)


class TestByteIdentical:
    def test_warm_cache_round_trips_results(self, tmp_path):
        gen_dir = tmp_path / "gencache"
        cold = _result_bytes(tmp_path, "cold", jobs=1, gen_cache_dir=gen_dir)
        assert len(open_generation_cache(gen_dir)) == 2  # one expansion per spec
        obs.enable()
        try:
            run = run_campaign(_campaign(), jobs=2, gen_cache_dir=gen_dir)
        finally:
            obs.disable()
        assert _run_bytes(run, tmp_path, "warm") == cold
        assert run.stats.metrics["counters"]["gencache.hit"] == 2


class TestDeferredJobs:
    def test_worker_mode_ships_refs(self):
        campaign = _campaign()
        plain = campaign.job_list()
        deferred = campaign.job_list(defer=True)
        assert [j.job_id for j in deferred] == [j.job_id for j in plain]
        assert all(isinstance(j.kernel, KernelRef) for j in deferred)
        assert not any(isinstance(j.kernel, KernelRef) for j in plain)

    def test_explicit_kernels_never_deferred(self):
        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512)
        from repro.creator import MicroCreator

        kernels = tuple(MicroCreator().generate(dot_product_spec(2, unroll=(1, 1))))
        campaign = Campaign(
            name="explicit",
            machine=nehalem_2s_x5650(),
            sweeps=(SweepSpec(kernels=kernels, base=base),),
        )
        deferred = campaign.job_list(defer=True)
        assert not any(isinstance(j.kernel, KernelRef) for j in deferred)

    def test_variant_filter_respected_in_both_modes(self, tmp_path):
        base = LauncherOptions(array_bytes=8 * 1024, trip_count=512, experiments=2)

        def only_unroll_2(v) -> bool:
            return v.unroll == 2

        def build():
            return Campaign(
                name="filtered",
                machine=nehalem_2s_x5650(),
                sweeps=(
                    SweepSpec(
                        spec=loadstore_family("movss", unroll=(1, 2)),
                        base=base,
                        variant_filter=only_unroll_2,
                    ),
                ),
            )

        plain = build().job_list()
        deferred = build().job_list(defer=True)
        assert plain, "filter must keep some variants"
        assert [j.job_id for j in deferred] == [j.job_id for j in plain]
        for jobs in (1, 2):
            run = run_campaign(build(), jobs=jobs)
            assert {m.kernel_name for m in run.measurements()} == {
                j.kernel.name for j in deferred
            }


class TestWarmExpansionParsesNothing:
    def test_job_list_over_warm_cache_calls_no_parser(self, tmp_path, monkeypatch):
        import repro.isa.parser as parser

        campaign = Campaign(
            name="warm_facts",
            machine=nehalem_2s_x5650(),
            sweeps=(
                SweepSpec(
                    spec=loadstore_family("movss", unroll=(1, 3)),
                    # Every variant fact a filter may read, from cached variants.
                    variant_filter=lambda v: (
                        v.unroll >= 2
                        and v.mix.count("L") == v.n_loads
                        and v.mix.count("S") == v.n_stores
                        and v.opcodes == ("movss",)
                    ),
                    base=LauncherOptions(array_bytes=8 * 1024, trip_count=512),
                ),
            ),
        )
        cache = open_generation_cache(tmp_path)
        cold = campaign.job_list(gen_cache=cache)
        calls = []
        real = parser.parse_asm
        monkeypatch.setattr(
            parser, "parse_asm", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        warm = campaign.job_list(gen_cache=open_generation_cache(tmp_path))
        assert [j.job_id for j in warm] == [j.job_id for j in cold]
        assert len(warm) == 12  # 2**2 + 2**3 variants at unroll 2..3
        assert calls == []
