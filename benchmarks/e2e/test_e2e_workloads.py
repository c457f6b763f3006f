"""Reduced-grid smoke tests of the four workloads, run in-process.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json

import pytest

from ledger import ledger
from workloads import WORKLOADS, child_main, populate, run_body


@pytest.fixture(autouse=True)
def _no_pool_left_behind():
    yield
    from repro.engine import shutdown_worker_pool

    shutdown_worker_pool()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_workload_runs_and_passes_its_checks(workload, tmp_path):
    store = tmp_path / "store"
    if workload == "sweep_warm":
        populate(store, tmp_path / "populate", 1, reduced=True)
    outcome = run_body(workload, tmp_path, 1, store=store, reduced=True)
    assert outcome.jobs > 0
    assert outcome.quarantined == 0
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert len(outcome.digest) == 64


def test_pool_written_sweep_equals_inline_populated_sweep(tmp_path):
    inline = populate(tmp_path / "store", tmp_path / "inline", 1, reduced=True)
    pool = run_body("sweep_cold", tmp_path / "pool", 1, reduced=True)
    warm = run_body(
        "sweep_warm", tmp_path / "warm", 1, store=tmp_path / "store", reduced=True
    )
    assert inline.digest == pool.digest == warm.digest


def test_seed_changes_the_sweep_digest_but_not_the_exhibits_digest(tmp_path):
    sweeps = {
        seed: populate(tmp_path / f"s{seed}", tmp_path / f"w{seed}", seed, reduced=True)
        for seed in (1, 2)
    }
    assert sweeps[1].digest != sweeps[2].digest
    exhibits = {
        seed: run_body("exhibits", tmp_path / f"e{seed}", seed, reduced=True)
        for seed in (1, 2)
    }
    assert exhibits[1].digest == exhibits[2].digest


def test_traced_repetition_accounts_for_its_wall_clock(tmp_path):
    report = child_main(
        {
            "workload": "characterize",
            "seed": 1,
            "role": "rep",
            "workdir": str(tmp_path),
            "trace": True,
            "reduced": True,
        }
    )
    assert all(report["checks"].values())
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()[1:]
    spans = [json.loads(line) for line in lines]
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    out = ledger(spans, metrics, untraced_body_s=report["body_s"])
    assert out["trace.unattributed_frac"] <= 0.10
    assert out["characterize.verify_s"] > 0
    assert out["machine.noise_s"] > 0
    assert out["engine.job_ms.n"] == report["jobs"]
    # The hooks are gone once the repetition ends.
    from repro.launcher import kernel_input

    assert not hasattr(kernel_input.as_sim_kernel, "__wrapped__")
