"""Monte-Carlo sweeps: repeat accuracy experiments over seeds and
aggregate the F1 series.

Fig. 7's curves are Monte-Carlo results (hardware noise and HDAC's
random draws both vary run to run); this module repeats an experiment
over independently seeded datasets/systems and reports mean and
standard deviation per threshold, plus the paper's headline aggregates
(mean-F1 ratios between systems, maximum ratio and where it occurs).

**Execution model.**  Each repetition is self-contained — its dataset,
arrays and noise streams all derive from the run's seed — and runs one
after another on the calling thread, in run order; the cores belong to
the count kernel's BLAS (DESIGN.md, "Layer audit: one level of
parallelism").  Within a run, every system's threshold curve is
produced by the batched sweep engine
(:meth:`repro.eval.experiment.AccuracyExperiment.evaluate`): one search
pass per Fig. 7 curve instead of one per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.eval.experiment import AccuracyExperiment, SystemFactory
from repro.genome.datasets import build_dataset
from repro.knobs import check_integer, check_thresholds


@dataclass
class SweepSeries:
    """Aggregated F1 across repetitions for one system."""

    name: str
    thresholds: list[int]
    f1_runs: np.ndarray  # (n_runs, n_thresholds)

    @property
    def mean(self) -> np.ndarray:
        return self.f1_runs.mean(axis=0)

    def mean_f1(self) -> float:
        """Grand mean over thresholds and runs."""
        return float(self.f1_runs.mean())

    def series(self) -> dict[int, float]:
        return dict(zip(self.thresholds, self.mean.tolist(), strict=True))


@dataclass
class SweepResult:
    """All systems' aggregated series for one condition."""

    condition: str
    thresholds: list[int]
    systems: dict[str, SweepSeries] = field(default_factory=dict)

    def ratio(self, numerator: str, denominator: str) -> np.ndarray:
        """Per-threshold mean-F1 ratio between two systems."""
        num = self.systems[numerator].mean
        den = self.systems[denominator].mean
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, num / den, np.inf)
        return out

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        """Average of the per-threshold ratios (the paper's '1.2x')."""
        ratios = self.ratio(numerator, denominator)
        finite = ratios[np.isfinite(ratios)]
        return float(finite.mean()) if finite.size else float("inf")

    def max_ratio(self, numerator: str, denominator: str) -> tuple[float, int]:
        """Largest per-threshold ratio and the threshold where it occurs."""
        ratios = self.ratio(numerator, denominator)
        finite_mask = np.isfinite(ratios)
        if not finite_mask.any():
            return float("inf"), self.thresholds[0]
        index = int(np.argmax(np.where(finite_mask, ratios, -np.inf)))
        return float(ratios[index]), self.thresholds[index]


def run_sweep(condition: str,
              systems: "dict[str, SystemFactory]",
              thresholds: "list[int]",
              n_runs: int = 3,
              n_reads: int = 96,
              read_length: int = 256,
              n_segments: int = 128,
              seed: int = 0) -> SweepResult:
    """Repeat an accuracy experiment across seeds and aggregate.

    Each run draws a fresh dataset (new reference, reads, edits) and
    fresh hardware noise, so the spread is the full Monte-Carlo spread.
    Runs execute in run order on the calling thread.  *thresholds* is
    a 1-D integer vector (:class:`~repro.errors.ThresholdError`
    otherwise); *n_runs* must be a positive integer and *seed* an
    integer (:class:`~repro.errors.ExperimentError` otherwise, never
    truncated).
    """
    n_runs = check_integer("n_runs", n_runs, ExperimentError)
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be positive, got {n_runs}")
    seed = check_integer("seed", seed, ExperimentError)
    if not systems:
        raise ExperimentError(
            "systems must be non-empty; a sweep with no systems would "
            "produce a degenerate SweepResult"
        )
    result = SweepResult(
        condition=condition,
        thresholds=sorted(set(check_thresholds(thresholds).tolist())))
    accumulator: dict[str, list[list[float]]] = {name: [] for name in systems}
    for run in range(n_runs):
        dataset = build_dataset(condition, n_reads=n_reads,
                                read_length=read_length,
                                n_segments=n_segments,
                                seed=seed + run * 104729)
        experiment = AccuracyExperiment(dataset, result.thresholds,
                                        seed=seed + run * 7)
        for name, outcome in experiment.evaluate_all(systems).items():
            accumulator[name].append(
                [outcome.per_threshold[t].f1 for t in result.thresholds]
            )
    for name, runs in accumulator.items():
        result.systems[name] = SweepSeries(
            name=name, thresholds=result.thresholds,
            f1_runs=np.array(runs, dtype=float),
        )
    return result
