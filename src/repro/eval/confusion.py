"""Confusion-matrix accounting and the F1 score (Eq. 3-4).

A decision pair (read, stored segment) at threshold ``T`` is:

* **TP** — predicted 'match' and truly ``ED <= T``;
* **FP** — predicted 'match' but ``ED > T`` (EDAM's substitution-hiding
  misjudgment produces these);
* **FN** — predicted 'mismatch' but ``ED <= T`` (consecutive-indel
  misjudgment);
* **TN** — predicted 'mismatch' and ``ED > T``.

The paper scores Sensitivity = TP/(TP+FN), Precision = TP/(TP+FP) and
F1 = their harmonic mean.  Degenerate denominators (no true positives
anywhere) are defined as 0, matching scikit-learn's convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError


@dataclass
class ConfusionMatrix:
    """Running TP/FP/FN/TN counts."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def update(self, predicted: np.ndarray, actual: np.ndarray) -> None:
        """Accumulate a batch of boolean decisions against truth."""
        predicted = np.asarray(predicted, dtype=bool)
        actual = np.asarray(actual, dtype=bool)
        if predicted.shape != actual.shape:
            raise ExperimentError(
                f"prediction shape {predicted.shape} != truth shape "
                f"{actual.shape}"
            )
        self.tp += int((predicted & actual).sum())
        self.fp += int((predicted & ~actual).sum())
        self.fn += int((~predicted & actual).sum())
        self.tn += int((~predicted & ~actual).sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return ConfusionMatrix(tp=self.tp + other.tp, fp=self.fp + other.fp,
                               fn=self.fn + other.fn, tn=self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def sensitivity(self) -> float:
        """TP / (TP + FN); 0 when undefined."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0 when undefined."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of sensitivity and precision (Eq. 4)."""
        s, p = self.sensitivity, self.precision
        return 2.0 * s * p / (s + p) if (s + p) else 0.0


def confusion_from_decisions(predicted: np.ndarray,
                             actual: np.ndarray) -> ConfusionMatrix:
    """One-shot confusion matrix for a single decision batch."""
    matrix = ConfusionMatrix()
    matrix.update(predicted, actual)
    return matrix


def confusion_series(predicted: np.ndarray,
                     actual: np.ndarray) -> "list[ConfusionMatrix]":
    """Per-slice confusion matrices for a stacked decision block.

    The sweep engine produces a ``(T, B, M)`` decision tensor (one
    slice per threshold) and a matching truth tensor; this accumulates
    all four quadrant counts for every slice in four vectorised
    reductions instead of ``T * B`` :meth:`ConfusionMatrix.update`
    calls.  Equivalent to building each slice's matrix with
    :func:`confusion_from_decisions`.
    """
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise ExperimentError(
            f"prediction shape {predicted.shape} != truth shape "
            f"{actual.shape}"
        )
    if predicted.ndim < 2:
        raise ExperimentError(
            f"confusion_series needs a stacked (T, ...) block, got "
            f"shape {predicted.shape}"
        )
    axes = tuple(range(1, predicted.ndim))
    tp = (predicted & actual).sum(axis=axes)
    fp = (predicted & ~actual).sum(axis=axes)
    fn = (~predicted & actual).sum(axis=axes)
    tn = (~predicted & ~actual).sum(axis=axes)
    return [
        ConfusionMatrix(tp=int(tp[i]), fp=int(fp[i]), fn=int(fn[i]),
                        tn=int(tn[i]))
        for i in range(predicted.shape[0])
    ]
