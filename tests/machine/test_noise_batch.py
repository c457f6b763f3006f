"""``NoiseModel.perturb_batch`` must be bit-identical to ``perturb``.

The vectorized path exists purely for throughput; every element of its
output is required to equal — bitwise, not approximately — the value the
scalar path produces for the same (duration, environment, experiment,
first-run) tuple.  The per-experiment stream definition
``SeedSequence((abs(seed), experiment + 1_000_003))`` is frozen API, so
these tests pin both the equivalence and the stream layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.noise import NoiseEnvironment, NoiseModel

ENVIRONMENTS = [
    NoiseEnvironment(pinned=p, interrupts_disabled=i, warmed_up=w, inner_repetitions=r)
    for p in (True, False)
    for i in (True, False)
    for w in (True, False)
    for r in (1, 32)
]


def _sequential(model, durations, env, experiments, first_run_mask):
    rows = np.atleast_2d(np.asarray(durations, dtype=np.float64))
    out = np.empty_like(rows)
    for k in range(rows.shape[0]):
        for i, e in enumerate(experiments):
            first = bool(first_run_mask[i]) if first_run_mask is not None else False
            out[k, i] = model.perturb(rows[k, i], env, e, first_run=first)
    return out.reshape(np.shape(durations))


class TestPerturbBatchEquivalence:
    @pytest.mark.parametrize("env", ENVIRONMENTS)
    def test_all_environments_1d(self, env):
        model = NoiseModel(seed=777)
        experiments = list(range(-1, 7))
        durations = np.linspace(5_000.0, 5e6, len(experiments))
        mask = np.arange(len(experiments)) == 1
        batch = model.perturb_batch(durations, env, experiments, first_run_mask=mask)
        expected = _sequential(model, durations, env, experiments, mask)
        assert batch.tolist() == expected.tolist()  # exact, not approx

    @pytest.mark.parametrize("env", ENVIRONMENTS)
    def test_all_environments_2d(self, env):
        model = NoiseModel(seed=31337)
        experiments = list(range(5))
        durations = np.outer([1.0, 3.5, 900.0], np.linspace(1e4, 2e6, 5))
        mask = np.arange(5) == 0
        batch = model.perturb_batch(durations, env, experiments, first_run_mask=mask)
        expected = _sequential(model, durations, env, experiments, mask)
        assert batch.tolist() == expected.tolist()

    @given(
        seed=st.integers(min_value=-(2**31), max_value=2**31),
        n_experiments=st.integers(min_value=1, max_value=12),
        n_configs=st.integers(min_value=1, max_value=6),
        duration_scale=st.floats(min_value=1.0, max_value=1e7),
        env_index=st.integers(min_value=0, max_value=len(ENVIRONMENTS) - 1),
        first_run_index=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence(
        self, seed, n_experiments, n_configs, duration_scale, env_index, first_run_index
    ):
        model = NoiseModel(seed=seed)
        env = ENVIRONMENTS[env_index]
        experiments = list(range(n_experiments))
        durations = duration_scale * (
            1.0 + np.arange(n_configs * n_experiments).reshape(n_configs, n_experiments)
        )
        mask = None
        if first_run_index is not None:
            mask = np.arange(n_experiments) == (first_run_index % n_experiments)
        batch = model.perturb_batch(durations, env, experiments, first_run_mask=mask)
        expected = _sequential(model, durations, env, experiments, mask)
        assert batch.tolist() == expected.tolist()

    def test_warm_cache_matches_cold(self):
        """A repeated batch call reproduces the scalar draws again: no
        call leaves state behind that a later call reads."""
        model = NoiseModel(seed=99)
        env = NoiseEnvironment(pinned=False)
        durations = np.full(8, 1e5)
        first = model.perturb_batch(durations, env, range(8))
        again = model.perturb_batch(durations, env, range(8))
        expected = _sequential(model, durations, env, range(8), None)
        assert first.tolist() == again.tolist() == expected.tolist()

    def test_streams_shared_across_environments(self):
        """A call in another environment, after one over the same
        streams, still reproduces that environment's scalar draws."""
        model = NoiseModel(seed=5)
        durations = np.full(4, 2e5)
        model.perturb_batch(durations, NoiseEnvironment(), range(4))
        unpinned = NoiseEnvironment(pinned=False)
        batch = model.perturb_batch(durations, unpinned, range(4))
        expected = _sequential(model, durations, unpinned, range(4), None)
        assert batch.tolist() == expected.tolist()

    def test_negative_experiment_allowed(self):
        """The overhead slot (-1) works through the batch path."""
        model = NoiseModel(seed=42)
        batch = model.perturb_batch(np.array([3200.0]), NoiseEnvironment(), (-1,))
        assert float(batch[0]) == model.perturb(3200.0, NoiseEnvironment(), -1)

    def test_shape_mismatch_raises(self):
        model = NoiseModel()
        with pytest.raises(ValueError, match="must match"):
            model.perturb_batch(np.ones(3), NoiseEnvironment(), range(4))
