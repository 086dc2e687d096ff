"""EDAM with unconditional Sequence Rotation against TASR (Section IV-B).

EDAM+SR is the variant TASR improves on: its rotations always fire,
trading FN correction for FP risk at small thresholds.  No figure runs
it, so its system factory lives here.
"""

from __future__ import annotations

import pytest

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray
from repro.eval.experiment import (
    AccuracyExperiment,
    _EdamSystem,
    asmcap_full_system,
    edam_system,
)
from repro.genome.datasets import build_dataset


def edam_sr_system(dataset, seed):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="current", noisy=True, seed=seed)
    matcher = EdamMatcher(array=array, enable_sr=True)
    matcher.store(dataset.segments)
    return _EdamSystem(matcher)


@pytest.fixture(scope="module")
def dataset_b():
    return build_dataset("B", n_reads=32, read_length=128, n_segments=32,
                         seed=210)


class TestEdamSr:
    def test_sr_helps_edam_at_large_thresholds(self, dataset_b):
        """Unconditional rotation fixes consecutive-indel FNs."""
        experiment = AccuracyExperiment(dataset_b, [10, 14], seed=0)
        plain = experiment.evaluate("EDAM", edam_system)
        with_sr = experiment.evaluate("EDAM+SR", edam_sr_system, 1)
        assert with_sr.mean_f1() >= plain.mean_f1() - 0.02

    def test_tasr_never_loses_to_sr_at_small_thresholds(self, dataset_b):
        """The threshold guard is the whole point: below Tl, TASR
        avoids SR's false-positive risk."""
        experiment = AccuracyExperiment(dataset_b, [2, 4], seed=0)
        sr = experiment.evaluate("EDAM+SR", edam_sr_system)
        tasr = experiment.evaluate("ASMCap", asmcap_full_system, 1)
        assert tasr.mean_f1() >= sr.mean_f1() - 0.03
