"""Tests for the confusion matrix and F1 (Eq. 3-4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.eval.confusion import (
    ConfusionMatrix,
    confusion_from_decisions,
    confusion_series,
)

bool_arrays = st.integers(1, 100).flatmap(
    lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


class TestCounting:
    def test_all_quadrants(self):
        matrix = ConfusionMatrix()
        matrix.update(np.array([True, True, False, False]),
                      np.array([True, False, True, False]))
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (1, 1, 1, 1)

    def test_accumulation(self):
        matrix = ConfusionMatrix()
        matrix.update(np.array([True]), np.array([True]))
        matrix.update(np.array([False]), np.array([True]))
        assert matrix.tp == 1 and matrix.fn == 1
        assert matrix.total == 2

    def test_addition(self):
        a = ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)
        b = ConfusionMatrix(tp=10, fp=20, fn=30, tn=40)
        total = a + b
        assert (total.tp, total.fp, total.fn, total.tn) == (11, 22, 33, 44)

    def test_shape_mismatch(self):
        matrix = ConfusionMatrix()
        with pytest.raises(ExperimentError):
            matrix.update(np.array([True]), np.array([True, False]))

    @given(bool_arrays)
    def test_counts_partition_total(self, arrays):
        predicted, actual = arrays
        matrix = ConfusionMatrix()
        matrix.update(np.array(predicted), np.array(actual))
        assert matrix.total == len(predicted)


class TestMetrics:
    def test_perfect_prediction(self):
        matrix = ConfusionMatrix(tp=10, tn=5)
        assert matrix.sensitivity == 1.0
        assert matrix.precision == 1.0
        assert matrix.f1 == 1.0

    def test_paper_equations(self):
        matrix = ConfusionMatrix(tp=8, fp=2, fn=4, tn=6)
        sensitivity = 8 / (8 + 4)
        precision = 8 / (8 + 2)
        expected_f1 = 2 * sensitivity * precision / (sensitivity + precision)
        assert matrix.sensitivity == pytest.approx(sensitivity)
        assert matrix.precision == pytest.approx(precision)
        assert matrix.f1 == pytest.approx(expected_f1)

    def test_degenerate_cases_are_zero(self):
        assert ConfusionMatrix().f1 == 0.0
        assert ConfusionMatrix(tn=10).sensitivity == 0.0
        assert ConfusionMatrix(tn=10).precision == 0.0
        assert ConfusionMatrix(fp=5).f1 == 0.0

    @given(bool_arrays)
    def test_f1_bounded(self, arrays):
        predicted, actual = arrays
        f1 = confusion_from_decisions(np.array(predicted), np.array(actual)).f1
        assert 0.0 <= f1 <= 1.0

    @given(bool_arrays)
    def test_f1_harmonic_mean_bound(self, arrays):
        """F1 (harmonic mean) lies between the two component metrics."""
        predicted, actual = arrays
        matrix = ConfusionMatrix()
        matrix.update(np.array(predicted), np.array(actual))
        if matrix.sensitivity > 0 and matrix.precision > 0:
            low = min(matrix.sensitivity, matrix.precision)
            high = max(matrix.sensitivity, matrix.precision)
            assert low - 1e-12 <= matrix.f1 <= high + 1e-12


class TestConfusionSeries:
    """Vectorised sweep accumulation == per-slice update loops."""

    def test_matches_per_slice_updates(self):
        rng = np.random.default_rng(4)
        predicted = rng.random((5, 7, 11)) < 0.4
        actual = rng.random((5, 7, 11)) < 0.5
        series = confusion_series(predicted, actual)
        assert len(series) == 5
        for t in range(5):
            reference = ConfusionMatrix()
            for q in range(7):
                reference.update(predicted[t, q], actual[t, q])
            assert series[t] == reference

    def test_counts_partition_total(self):
        rng = np.random.default_rng(9)
        predicted = rng.random((3, 4, 6)) < 0.5
        actual = rng.random((3, 4, 6)) < 0.5
        for matrix in confusion_series(predicted, actual):
            assert matrix.total == 4 * 6

    def test_single_slice_matches_one_shot(self):
        predicted = np.array([[True, False], [False, True]])
        actual = np.array([[True, True], [False, False]])
        series = confusion_series(predicted[None], actual[None])
        assert series[0] == confusion_from_decisions(predicted, actual)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            confusion_series(np.zeros((2, 3), dtype=bool),
                             np.zeros((2, 4), dtype=bool))

    def test_unstacked_input_rejected(self):
        with pytest.raises(ExperimentError):
            confusion_series(np.zeros(3, dtype=bool),
                             np.zeros(3, dtype=bool))
