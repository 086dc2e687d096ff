"""Evaluation machinery: ground truth, confusion matrices, sweeps.

* :mod:`repro.eval.confusion` — TP/FP/FN/TN and F1 (Eq. 3-4);
* :mod:`repro.eval.ground_truth` — exact-ED labelling of datasets;
* :mod:`repro.eval.experiment` — system adapters and Fig.-7 runs;
* :mod:`repro.eval.sweeps` — Monte-Carlo repetition and aggregation;
* :mod:`repro.eval.reporting` — table/series formatting.
"""

from repro.eval.confusion import (
    ConfusionMatrix,
    confusion_from_decisions,
    confusion_series,
)
from repro.eval.experiment import (
    AccuracyExperiment,
    AccuracyResult,
    asmcap_full_system,
    asmcap_plain_system,
    edam_system,
    kraken_system,
)
from repro.eval.ground_truth import GroundTruth, label_dataset
from repro.eval.noise_margin import flip_probability
from repro.eval.reporting import format_ratio, format_series, format_table
from repro.eval.sweeps import SweepResult, SweepSeries, run_sweep

__all__ = [
    "AccuracyExperiment",
    "AccuracyResult",
    "ConfusionMatrix",
    "GroundTruth",
    "SweepResult",
    "SweepSeries",
    "asmcap_full_system",
    "asmcap_plain_system",
    "confusion_from_decisions",
    "confusion_series",
    "edam_system",
    "flip_probability",
    "format_ratio",
    "format_series",
    "format_table",
    "kraken_system",
    "label_dataset",
    "run_sweep",
]
