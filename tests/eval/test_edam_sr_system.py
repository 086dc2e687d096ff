"""Unconditional Sequence Rotation against TASR (Section IV-B).

EDAM's Sequence Rotation (SR) is the variant TASR improves on: its
rotations always fire, trading FN correction for FP risk at small
thresholds.  The TASR ablation runs it as TASR at ``gamma = 0``, whose
``Tl`` clamps to 1, so the rotations fire at every threshold these
tests sweep.  No figure runs it, so its system lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.eval.experiment import (
    AccuracyExperiment,
    asmcap_full_system,
    asmcap_plain_system,
)
from repro.genome.datasets import build_dataset


@dataclass
class SrSystem:
    matcher: AsmCapMatcher

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        return self.matcher.match_sweep(reads, thresholds).decisions


def sr_system(dataset, seed):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     seed=seed)
    array.store(dataset.segments)
    config = MatcherConfig(enable_hdac=False, tasr_gamma=0.0)
    matcher = AsmCapMatcher(array, dataset.model, config, seed=seed + 1)
    assert matcher.tasr_lower_bound() == 1
    return SrSystem(matcher)


@pytest.fixture(scope="module")
def dataset_b():
    return build_dataset("B", n_reads=32, read_length=128, n_segments=32,
                         seed=210)


class TestEdamSr:
    def test_sr_helps_edam_at_large_thresholds(self, dataset_b):
        """Unconditional rotation fixes consecutive-indel FNs."""
        experiment = AccuracyExperiment(dataset_b, [10, 14], seed=0)
        plain = experiment.evaluate("plain", asmcap_plain_system)
        with_sr = experiment.evaluate("SR", sr_system, 1)
        assert with_sr.mean_f1() >= plain.mean_f1() - 0.02

    def test_tasr_never_loses_to_sr_at_small_thresholds(self, dataset_b):
        """The threshold guard is the whole point: below Tl, TASR
        avoids SR's false-positive risk."""
        experiment = AccuracyExperiment(dataset_b, [2, 4], seed=0)
        sr = experiment.evaluate("SR", sr_system)
        tasr = experiment.evaluate("ASMCap", asmcap_full_system, 1)
        assert tasr.mean_f1() >= sr.mean_f1() - 0.03
