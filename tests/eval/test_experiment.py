"""Tests for the accuracy-experiment machinery (Fig. 7 style)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.eval.experiment import (
    AccuracyExperiment,
    asmcap_full_system,
    asmcap_plain_system,
    edam_system,
    kraken_system,
)
from repro.genome.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=24, read_length=128, n_segments=32,
                         seed=120)


@pytest.fixture(scope="module")
def experiment(dataset):
    return AccuracyExperiment(dataset, thresholds=[1, 2, 4, 6], seed=0)


class TestConstruction:
    def test_thresholds_sorted_and_deduped(self, dataset):
        experiment = AccuracyExperiment(dataset, [4, 1, 4, 2], seed=0)
        assert experiment.thresholds == [1, 2, 4]

    def test_empty_thresholds_rejected(self, dataset):
        with pytest.raises(ExperimentError):
            AccuracyExperiment(dataset, [], seed=0)

    def test_negative_threshold_rejected(self, dataset):
        with pytest.raises(ExperimentError):
            AccuracyExperiment(dataset, [-1], seed=0)


class TestEvaluation:
    def test_result_covers_all_thresholds(self, experiment):
        result = experiment.evaluate("plain", asmcap_plain_system)
        assert sorted(result.per_threshold) == [1, 2, 4, 6]

    def test_f1_series_values_bounded(self, experiment):
        result = experiment.evaluate("plain", asmcap_plain_system)
        for value in result.f1_series().values():
            assert 0.0 <= value <= 1.0

    def test_plain_system_beats_kraken(self, experiment):
        """ASM must outscore exact matching on erroneous reads."""
        plain = experiment.evaluate("plain", asmcap_plain_system)
        kraken = experiment.evaluate("kraken", kraken_system)
        assert plain.mean_f1() > kraken.mean_f1()

    def test_full_system_not_worse_on_average(self, experiment):
        plain = experiment.evaluate("plain", asmcap_plain_system, 1)
        full = experiment.evaluate("full", asmcap_full_system, 2)
        assert full.mean_f1() >= plain.mean_f1() - 0.05

    def test_evaluate_all_names(self, experiment):
        results = experiment.evaluate_all({
            "EDAM": edam_system,
            "plain": asmcap_plain_system,
        })
        assert set(results) == {"EDAM", "plain"}

    def test_f1_increases_with_threshold_generally(self, experiment):
        """At tiny T everything is a near-boundary case; by T=6 most
        origin pairs are within threshold: F1 must improve."""
        result = experiment.evaluate("plain", asmcap_plain_system)
        assert result.f1(6) > result.f1(1)


class TestFallbackPath:
    """Edge cases of the one ``decide_sweep`` evaluation path."""

    def test_zero_read_dataset_degenerate(self, dataset):
        """A streaming caller's empty dataset yields empty matrices."""
        import dataclasses
        empty = dataclasses.replace(dataset, reads=[])
        experiment = AccuracyExperiment(empty, [2, 4], seed=0)
        result = experiment.evaluate("x", asmcap_full_system)
        assert result.f1_series() == {2: 0.0, 4: 0.0}
        assert all(m.total == 0 for m in result.per_threshold.values())

    def test_bad_sweep_shape_rejected(self, dataset):
        class _Broken:
            def __init__(self, dataset, seed):
                self._n = dataset.n_segments

            def decide_sweep(self, reads, thresholds):
                return np.zeros((1, 1, self._n), dtype=bool)

        experiment = AccuracyExperiment(dataset, [2, 4], seed=0)
        with pytest.raises(ExperimentError):
            experiment.evaluate("broken", _Broken)


class TestSweepEqualsScalar:
    """Every built-in adapter's sweep reproduces its keyed per-read
    ``decide`` loop, so the Fig. 7 F1 curves are the scalar ones."""

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_run_sweep_f1_equals_keyed_decide_loop(self, condition):
        from repro.eval.confusion import ConfusionMatrix
        from repro.eval.sweeps import run_sweep
        from repro.experiments.fig7 import thresholds_for

        systems = {"edam": edam_system, "plain": asmcap_plain_system,
                   "full": asmcap_full_system, "kraken": kraken_system}
        shape = {"n_reads": 24, "read_length": 64, "n_segments": 32}
        swept = run_sweep(condition, systems, thresholds_for(condition),
                          n_runs=1, seed=5, **shape)
        # Run 0 of run_sweep: dataset and experiment both seeded 5.
        dataset = build_dataset(condition, seed=5, **shape)
        experiment = AccuracyExperiment(dataset, thresholds_for(condition),
                                        seed=5)
        for i, (name, factory) in enumerate(systems.items()):
            # evaluate_all's seed offset for the i-th system.
            system = factory(dataset, experiment.seed + i * 7919)
            scalar_f1 = []
            for threshold in experiment.thresholds:
                truth = experiment.ground_truth.labels(threshold)
                matrix = ConfusionMatrix()
                for q, record in enumerate(dataset.reads):
                    matrix.update(system.decide(record.read.codes,
                                                threshold, read_index=q),
                                  truth[q])
                scalar_f1.append(matrix.f1)
            assert swept.systems[name].f1_runs[0].tolist() == scalar_f1, \
                name


class TestDeterminism:
    def test_same_seed_reproduces(self, dataset):
        a = AccuracyExperiment(dataset, [2, 4], seed=5).evaluate(
            "x", asmcap_full_system
        )
        b = AccuracyExperiment(dataset, [2, 4], seed=5).evaluate(
            "x", asmcap_full_system
        )
        assert a.f1_series() == b.f1_series()
