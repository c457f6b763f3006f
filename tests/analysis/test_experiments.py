"""Experiment-registry tests: every exhibit runs (quick) and reproduces
its paper shape claim.

These are the integration-level acceptance tests of the reproduction:
each experiment's ``notes`` carry boolean shape assertions that mirror
the paper's qualitative statements.
"""

import pytest

from repro.analysis import available_experiments, run_experiment
from repro.analysis.experiments import ExperimentResult, UnsupportedSetting

ALL_EXHIBITS = [
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig08",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table1",
    "table2",
    "generation_scale",
    "stability",
]

ABLATIONS = [
    "ablation_aggregator",
    "ablation_warmup",
    "ablation_overhead",
    "ablation_inner_reps",
    "ablation_conflict_traffic",
    "ablation_fill_cost",
    "ablation_residence",
    "ablation_sw_prefetch",
]

EXTENSIONS = [
    "ext_power",
    "ext_mpi",
    "ext_autotune",
    "ext_abstraction",
]

USES = [
    "arith_hiding",
    "stride_study",
    "stencil_study",
    "reduction_study",
]


class TestRegistry:
    def test_every_paper_exhibit_registered(self):
        available = available_experiments()
        for name in ALL_EXHIBITS + ABLATIONS + EXTENSIONS + USES:
            assert name in available

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_misspelt_engine_setting_rejected(self):
        with pytest.raises(TypeError, match="job"):
            run_experiment("fig14", quick=True, job=4)
        # A direct-launcher exhibit runs no campaign, yet must not
        # swallow the misspelling either.
        with pytest.raises(TypeError, match="job"):
            run_experiment("fig03", quick=True, job=4)

    def test_stopping_setting_rejected_without_adaptive_stopping(self):
        """fig14 runs campaigns, but none with a stopping rule."""
        with pytest.raises(UnsupportedSetting, match="rciw_target=0.02"):
            run_experiment("fig14", quick=True, rciw_target=0.02)


@pytest.mark.parametrize("name", ALL_EXHIBITS + ABLATIONS + EXTENSIONS + USES)
def test_exhibit_shape_claims_hold(name):
    """All boolean notes (the encoded paper claims) must be true."""
    result = run_experiment(name, quick=True)
    assert isinstance(result, ExperimentResult)
    failures = {
        k: v for k, v in result.notes.items() if isinstance(v, bool) and not v
    }
    assert not failures, f"{name} shape claims failed: {failures}"
    rendered = result.render()
    assert result.exhibit in rendered
    assert "paper:" in rendered


class TestSpecificShapes:
    """Spot-checks of quantitative notes beyond the booleans."""

    def test_fig03_step_magnitude(self):
        r = run_experiment("fig03", quick=True)
        assert 1.3 < r.notes["step_after_500"] < 4.0

    def test_fig05_prediction_gap_small(self):
        r = run_experiment("fig05", quick=True)
        assert r.notes["prediction_gap"] < 0.05

    def test_fig11_ram_penalty_large_for_vector(self):
        r = run_experiment("fig11", quick=True)
        assert r.notes["ram_over_l1_at_8"] > 2.0

    def test_fig12_ram_penalty_small_for_scalar(self):
        r = run_experiment("fig12", quick=True)
        assert 1.0 < r.notes["ram_over_l1_at_8"] < 1.6

    def test_fig14_knee_at_six(self):
        r = run_experiment("fig14", quick=True)
        assert r.notes["knee_cores"] == 6

    def test_fig15_band(self):
        r = run_experiment("fig15", quick=True)
        assert 0.3 < r.notes["spread"] < 1.2

    def test_fig16_saturated_band_above_fig15(self):
        lo = run_experiment("fig15", quick=True)
        hi = run_experiment("fig16", quick=True)
        assert hi.notes["min"] > 1.5 * lo.notes["min"]

    def test_fig17_gains_beat_fig18(self):
        cache_resident = run_experiment("fig17", quick=True)
        ram_resident = run_experiment("fig18", quick=True)
        assert (
            cache_resident.notes["omp_speedup_at_8"]
            > ram_resident.notes["omp_speedup_at_8"]
        )

    def test_table2_sequential_improves_openmp_flat(self):
        r = run_experiment("table2", quick=True)
        assert r.notes["seq_gain"] > 0.2
        assert r.notes["omp_gain"] < 0.15

    def test_generation_scale_exact(self):
        r = run_experiment("generation_scale")
        assert r.notes["combined"] == 2040

    def test_stability_orders_of_magnitude(self):
        r = run_experiment("stability", quick=True)
        assert r.notes["unstabilized_spread"] > 20 * r.notes["stabilized_spread"]
