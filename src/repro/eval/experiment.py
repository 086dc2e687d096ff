"""Accuracy experiments: dataset x system x threshold -> F1.

:class:`AccuracyExperiment` evaluates *systems* (anything that turns a
read into per-segment match decisions at a threshold) against exact
ground truth on a :class:`~repro.genome.datasets.Dataset`, producing
the confusion matrices behind Fig. 7.

The provided system factories cover the paper's four accuracy curves:

* ``edam_system``            — EDAM (current-domain hardware, plain ED*);
* ``asmcap_plain_system``    — ASMCap w/o HDAC and TASR;
* ``asmcap_full_system``     — ASMCap w/ HDAC and TASR;
* ``kraken_system``          — the exact-matching normalizer.

Each factory receives the dataset and a seed so Monte-Carlo repetitions
re-instantiate hardware noise independently.

**Sweep execution.**  Fig. 7 evaluates every system over a whole
threshold vector; a system that exposes ``decide_sweep(reads,
thresholds)`` (all the built-in adapters do) is evaluated in **one**
batched pass over the ``(B, N)`` read block — the hardware matchers
compute each search pass's mismatch counts and keyed noise once and
apply every threshold as a sense-amp reference comparison, so a T-point
curve costs ~1 search pass per read instead of T.  Noise determinism is
anchored on per-read query keys (the read's dataset index): the sweep
is bit-identical to a per-threshold scalar loop that passes
``query_key=read_index``, regardless of batching.  ``decide_sweep`` is
the whole :class:`MatchSystem` protocol; the built-in adapters also
keep a keyed per-read ``decide`` as that scalar oracle, which
``tests/eval/test_experiment.py`` and perfbench's fig7-sweep check
compare against the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.baselines.edam import EdamMatcher
from repro.baselines.kraken import KrakenLikeClassifier
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.errors import ExperimentError
from repro.eval.confusion import ConfusionMatrix, confusion_series
from repro.eval.ground_truth import GroundTruth, label_dataset
from repro.genome.datasets import Dataset
from repro.knobs import check_integer, check_thresholds


class MatchSystem(Protocol):
    """Anything that maps a read block and a threshold vector to
    per-segment match decisions, ``(T, B, M)`` bool, in one batched
    pass (row ``q`` of the block is keyed as read ``q``)."""

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray: ...


#: A factory builds a system for one dataset + seed (fresh noise).
SystemFactory = Callable[[Dataset, int], MatchSystem]


@dataclass
class _MatcherSystem:
    """Adapter: AsmCapMatcher -> MatchSystem."""

    matcher: AsmCapMatcher

    def decide(self, read: np.ndarray, threshold: int,
               read_index: "int | None" = None) -> np.ndarray:
        return self.matcher.match(read, threshold,
                                  query_key=read_index).decisions

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        return self.matcher.match_sweep(reads, thresholds).decisions


@dataclass
class _EdamSystem:
    """Adapter: EdamMatcher -> MatchSystem."""

    matcher: EdamMatcher

    def decide(self, read: np.ndarray, threshold: int,
               read_index: "int | None" = None) -> np.ndarray:
        return self.matcher.match(read, threshold,
                                  query_key=read_index).decisions

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        return self.matcher.match_sweep(reads, thresholds)


@dataclass
class _KrakenSystem:
    """Adapter: KrakenLikeClassifier -> MatchSystem (threshold unused)."""

    classifier: KrakenLikeClassifier
    read_length: int

    def decide(self, read: np.ndarray, threshold: int,
               read_index: "int | None" = None) -> np.ndarray:
        from repro.genome.sequence import DnaSequence
        return self.classifier.classify(DnaSequence(read)).decisions

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        # Exact matching ignores the threshold: classify the block
        # once, share the decisions across the whole sweep.
        once = self.classifier.classify_batch(reads).decisions
        return np.broadcast_to(once, (len(thresholds),) + once.shape)


def asmcap_full_system(dataset: Dataset, seed: int) -> MatchSystem:
    """ASMCap with HDAC and TASR on noisy charge-domain hardware."""
    return _asmcap_system(dataset, seed, MatcherConfig())


def asmcap_plain_system(dataset: Dataset, seed: int) -> MatchSystem:
    """ASMCap without the strategies (still charge-domain hardware)."""
    return _asmcap_system(dataset, seed, MatcherConfig.plain())


def _asmcap_system(dataset: Dataset, seed: int,
                   config: MatcherConfig) -> MatchSystem:
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, config, seed=seed + 1)
    return _MatcherSystem(matcher)


def edam_system(dataset: Dataset, seed: int) -> MatchSystem:
    """EDAM: plain ED* on noisy current-domain hardware."""
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="current", noisy=True, seed=seed)
    matcher = EdamMatcher(array=array)
    matcher.store(dataset.segments)
    return _EdamSystem(matcher)


def kraken_system(dataset: Dataset, seed: int) -> MatchSystem:
    """Exact k-mer classifier at Kraken2's defaults (deterministic;
    seed unused)."""
    return _KrakenSystem(KrakenLikeClassifier(dataset.segments),
                         dataset.read_length)


@dataclass
class AccuracyResult:
    """Per-threshold confusion matrices for one system."""

    name: str
    per_threshold: dict[int, ConfusionMatrix]

    def f1(self, threshold: int) -> float:
        return self.per_threshold[threshold].f1

    def mean_f1(self) -> float:
        values = [m.f1 for m in self.per_threshold.values()]
        return float(np.mean(values)) if values else 0.0


class AccuracyExperiment:
    """Fig.-7-style accuracy evaluation on one dataset.

    Parameters
    ----------
    dataset:
        The evaluation dataset.
    thresholds:
        Threshold sweep (Condition A: 1..8, Condition B: 2..16): a
        1-D integer vector (:class:`~repro.errors.ThresholdError`
        otherwise; an empty one is an
        :class:`~repro.errors.ExperimentError`).
    seed:
        Base seed handed to system factories; an integer
        (:class:`~repro.errors.ExperimentError` otherwise).
    """

    def __init__(self, dataset: Dataset, thresholds: "list[int]",
                 seed: int = 0):
        if np.ndim(thresholds) == 1 and not len(thresholds):
            raise ExperimentError("thresholds must be non-empty")
        vector = check_thresholds(thresholds)
        if (vector < 0).any():
            raise ExperimentError("thresholds must be non-negative")
        self._dataset = dataset
        self._thresholds = sorted(set(vector.tolist()))
        self._seed = check_integer("seed", seed, ExperimentError)
        self._truth: GroundTruth = label_dataset(dataset,
                                                 max(self._thresholds))

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def thresholds(self) -> list[int]:
        return list(self._thresholds)

    @property
    def seed(self) -> int:
        """Base seed handed to system factories."""
        return self._seed

    @property
    def ground_truth(self) -> GroundTruth:
        return self._truth

    def evaluate(self, name: str, factory: SystemFactory,
                 seed_offset: int = 0) -> AccuracyResult:
        """Run one system over all reads and thresholds.

        The system's ``decide_sweep`` evaluates the whole threshold
        vector in one batched pass (see the module docstring); the
        confusion matrices then accumulate in four vectorised
        reductions (:func:`repro.eval.confusion.confusion_series`).
        *seed_offset* is an integer
        (:class:`~repro.errors.ExperimentError` otherwise).
        """
        seed_offset = check_integer("seed_offset", seed_offset,
                                    ExperimentError)
        system = factory(self._dataset, self._seed + seed_offset)
        thresholds = np.asarray(self._thresholds, dtype=int)
        if not self._dataset.reads:
            # A zero-read dataset is a valid degenerate input for a
            # streaming caller: every matrix stays empty.
            return AccuracyResult(name=name, per_threshold={
                int(t): ConfusionMatrix() for t in thresholds
            })
        reads = np.stack(
            [record.read.codes for record in self._dataset.reads]
        )
        decisions = np.asarray(system.decide_sweep(reads, thresholds),
                               dtype=bool)
        if decisions.shape[:2] != (thresholds.shape[0], reads.shape[0]):
            raise ExperimentError(
                f"decide_sweep returned shape {decisions.shape} for "
                f"{thresholds.shape[0]} thresholds x "
                f"{reads.shape[0]} reads"
            )
        truth = np.stack(
            [self._truth.labels(int(t)) for t in thresholds]
        )
        matrices = confusion_series(decisions, truth)
        per_threshold = {
            int(t): matrix for t, matrix in zip(thresholds, matrices, strict=True)
        }
        return AccuracyResult(name=name, per_threshold=per_threshold)

    def evaluate_all(self, systems: "dict[str, SystemFactory]"
                     ) -> dict[str, AccuracyResult]:
        """Evaluate several systems on identical ground truth."""
        return {
            name: self.evaluate(name, factory, seed_offset=i * 7919)
            for i, (name, factory) in enumerate(systems.items())
        }
