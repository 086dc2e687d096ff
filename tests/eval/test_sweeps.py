"""Tests for Monte-Carlo sweeps and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.eval.experiment import (
    AccuracyExperiment,
    asmcap_plain_system,
    edam_system,
)
from repro.eval.sweeps import run_sweep
from repro.genome.datasets import build_dataset


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(
        "A",
        {"EDAM": edam_system, "plain": asmcap_plain_system},
        thresholds=[2, 4],
        n_runs=2, n_reads=16, read_length=96, n_segments=16, seed=0,
    )


class TestAggregation:
    def test_run_matrix_shape(self, sweep):
        assert sweep.systems["plain"].f1_runs.shape == (2, 2)

    def test_mean_and_std_shapes(self, sweep):
        assert sweep.systems["plain"].mean.shape == (2,)

    def test_mean_f1_bounded(self, sweep):
        for series in sweep.systems.values():
            assert 0.0 <= series.mean_f1() <= 1.0

    def test_series_dict(self, sweep):
        series = sweep.systems["plain"].series()
        assert sorted(series) == [2, 4]


class TestRatios:
    def test_self_ratio_is_one(self, sweep):
        ratios = sweep.ratio("plain", "plain")
        assert np.allclose(ratios, 1.0)

    def test_mean_ratio_finite(self, sweep):
        assert np.isfinite(sweep.mean_ratio("plain", "EDAM"))

    def test_max_ratio_returns_threshold(self, sweep):
        value, threshold = sweep.max_ratio("plain", "EDAM")
        assert threshold in (2, 4)
        assert value > 0


class TestValidation:
    def test_zero_runs_rejected(self):
        with pytest.raises(ExperimentError):
            run_sweep("A", {"plain": asmcap_plain_system}, [2], n_runs=0)

    def test_negative_runs_rejected(self):
        with pytest.raises(ExperimentError):
            run_sweep("A", {"plain": asmcap_plain_system}, [2], n_runs=-3)

    def test_empty_systems_rejected(self):
        with pytest.raises(ExperimentError):
            run_sweep("A", {}, [2], n_runs=1)

    @pytest.mark.parametrize("knobs", [
        {"n_runs": "3"}, {"n_runs": 2.0}, {"n_runs": True},
        {"seed": 1.5}, {"seed": True}, {"seed": "1"},
    ], ids=["runs-str", "runs-float", "runs-bool", "seed-float",
            "seed-bool", "seed-str"])
    def test_non_integer_runs_and_seed_rejected(self, knobs):
        with pytest.raises(ExperimentError, match="must be an integer"):
            run_sweep("A", {"plain": asmcap_plain_system}, [2], **knobs)

    def test_runs_vary_across_seeds(self, sweep):
        """Different repetitions draw different datasets."""
        runs = sweep.systems["EDAM"].f1_runs
        assert not np.allclose(runs[0], runs[1])


class TestSerialRuns:
    """Monte-Carlo runs execute in run order on the calling thread."""

    def test_equals_a_hand_written_loop(self):
        systems = {"EDAM": edam_system, "plain": asmcap_plain_system}
        thresholds, n_runs, seed = [2, 4, 6], 3, 9
        shape = {"n_reads": 12, "read_length": 96, "n_segments": 16}
        result = run_sweep("A", systems, thresholds, n_runs=n_runs,
                           seed=seed, **shape)
        expected = {name: [] for name in systems}
        for run in range(n_runs):
            dataset = build_dataset("A", seed=seed + run * 104729, **shape)
            outcomes = AccuracyExperiment(
                dataset, thresholds, seed=seed + run * 7).evaluate_all(systems)
            for name, outcome in outcomes.items():
                expected[name].append(
                    [outcome.per_threshold[t].f1 for t in thresholds])
        assert result.thresholds == thresholds
        for name in systems:
            assert np.array_equal(result.systems[name].f1_runs,
                                  np.array(expected[name]))

    def test_stale_worker_knob_raises(self):
        with pytest.raises(TypeError, match="n_workers"):
            run_sweep("A", {"plain": asmcap_plain_system}, [2], n_runs=1,
                      n_workers=2)
