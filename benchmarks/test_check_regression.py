"""The regression gate table: every gate passes at its limit and fails past it.

Synthetic result files stand in for the benchmark outputs, so this runs
in milliseconds and pins each gate's threshold exactly.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from check_regression import GATES, check, main

#: One healthy set of results and baselines.
GOOD = {
    "BENCH_measurement.json": {"configs_per_second": 1000.0},
    "BENCH_measurement_baseline.json": {"configs_per_second": 1000.0},
    "BENCH_obs.json": {"disabled_added_ns_per_span": 400.0},
    "BENCH_generation.json": {"variants_per_second": 500.0},
    "BENCH_generation_baseline.json": {"variants_per_second": 500.0},
    "BENCH_stopping.json": {
        "stable_savings": 10.0,
        "stable_mean_spent": 3.0,
        "noisy_mean_spent": 12.0,
    },
    "BENCH_characterize.json": {
        "probe_jobs_per_second": 800.0,
        "solve_fraction": 0.01,
    },
    "BENCH_characterize_baseline.json": {"probe_jobs_per_second": 800.0},
    "BENCH_store.json": {"cold_load_speedup_1e5": 70.0, "membership_growth": 0.8},
    "BENCH_dispatch.json": {
        "speedup_vs_prepr": 5.0,
        "spawn": {"warm_best_s": 0.1, "fresh_s": 0.5},
        "warm": {"jobs_per_s": 25_000.0},
    },
    "BENCH_dispatch_baseline.json": {"warm": {"jobs_per_s": 25_000.0}},
}

#: gate name -> (current file, key path, value at the limit, value past it)
LIMITS = {
    "measurement slowdown": ("BENCH_measurement.json", ("configs_per_second",), 500.0, 499.0),
    "obs disabled span ns": ("BENCH_obs.json", ("disabled_added_ns_per_span",), 2000.0, 2001.0),
    "generation slowdown": ("BENCH_generation.json", ("variants_per_second",), 250.0, 249.0),
    "stopping stable savings": ("BENCH_stopping.json", ("stable_savings",), 2.0, 1.99),
    "stopping noisy minus stable spent": ("BENCH_stopping.json", ("noisy_mean_spent",), 3.01, 3.0),
    "characterize slowdown": ("BENCH_characterize.json", ("probe_jobs_per_second",), 400.0, 399.0),
    "characterize solve fraction": ("BENCH_characterize.json", ("solve_fraction",), 0.25, 0.26),
    "store cold-load speedup at 1e5": ("BENCH_store.json", ("cold_load_speedup_1e5",), 10.0, 9.99),
    "store membership growth": ("BENCH_store.json", ("membership_growth",), 10.0, 10.01),
    "dispatch speedup vs pre-pool path": ("BENCH_dispatch.json", ("speedup_vs_prepr",), 3.0, 2.99),
    "dispatch warm/fresh seconds": ("BENCH_dispatch.json", ("spawn", "warm_best_s"), 0.49, 0.5),
    "dispatch slowdown": ("BENCH_dispatch.json", ("warm", "jobs_per_s"), 12_500.0, 12_499.0),
}

MESSAGES = {gate.name: gate.message for gate in GATES}


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir(exist_ok=True)
    for name, content in files.items():
        (directory / name).write_text(json.dumps(content))
    return directory


def _with(name: str, value: float) -> dict:
    current, path, _at, _past = LIMITS[name]
    files = copy.deepcopy(GOOD)
    target = files[current]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return files


def test_every_gate_has_a_limit_case():
    assert {gate.name for gate in GATES} == set(LIMITS)


def test_good_results_pass(tmp_path):
    assert check(_write(tmp_path / "r", GOOD), tmp_path / "r") == 0


@pytest.mark.parametrize("name", LIMITS)
def test_gate_passes_at_limit_and_fails_past_it(tmp_path, capsys, name):
    _current, _path, at_limit, past_limit = LIMITS[name]
    assert check(_write(tmp_path / "at", _with(name, at_limit)), tmp_path / "at") == 0
    capsys.readouterr()
    past = _write(tmp_path / "past", _with(name, past_limit))
    assert check(past, past) == 1
    failures = capsys.readouterr().err.strip().splitlines()
    assert failures == [f"FAIL: {name}: {MESSAGES[name]}"]


def test_missing_current_file_skips_its_gates(tmp_path, capsys):
    absent = ("BENCH_store.json", "BENCH_dispatch.json")
    files = {k: v for k, v in GOOD.items() if k not in absent}
    results = _write(tmp_path / "r", files)
    assert check(results, results) == 0
    out = capsys.readouterr().out
    assert "store membership growth: BENCH_store.json not present, skipping" in out
    assert "dispatch slowdown: BENCH_dispatch.json not present, skipping" in out


def test_cli_takes_only_directories(tmp_path):
    results = _write(tmp_path / "r", GOOD)
    baselines = _write(
        tmp_path / "b", {k: v for k, v in GOOD.items() if "baseline" in k}
    )
    assert main(["--results-dir", str(results), "--baseline-dir", str(baselines)]) == 0
    regressed = _write(tmp_path / "bad", _with("dispatch slowdown", 1.0))
    assert main(["--results-dir", str(regressed), "--baseline-dir", str(baselines)]) == 1
