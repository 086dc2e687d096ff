"""Golden digests of the Fig. 7 path outside the CAM.

Fig. 7 is F1 against exact edit distance, normalised by the
Kraken-like classifier.  Three stages feed it besides the CAM: the
dataset build (reference, read sampling, edit injection), the
ground-truth labelling (prefiltered banded DP) and the Kraken index.
For fixed seeds each stage's output is a constant; these tests pin
SHA-256 digests of them, and of ``run_sweep``'s per-system F1 arrays,
at a small shape.  A rewrite of any of the three stages must leave
every digest unchanged: a moved digest means a read, an edit, a
distance, a hit fraction or an F1 bit moved.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.kraken import KrakenLikeClassifier
from repro.eval.experiment import (
    asmcap_full_system,
    asmcap_plain_system,
    edam_system,
    kraken_system,
)
from repro.eval.ground_truth import label_dataset
from repro.eval.sweeps import run_sweep
from repro.experiments.fig7 import thresholds_for
from repro.genome.datasets import build_dataset

N_SEGMENTS, N_READS, N_RUNS, SEED = 64, 24, 2, 5


def _digest(*parts) -> str:
    """SHA-256 over arrays (dtype + shape + bytes) and reprs of the rest."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(f"{part.dtype.str}{part.shape}".encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()[:16]


def _dataset(condition: str):
    return build_dataset(condition, n_reads=N_READS, n_segments=N_SEGMENTS,
                         seed=SEED)


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


DATASET = {"A": "1c24f994dee5018b", "B": "6a87f8bd38d27552"}
DISTANCES = {"A": "58e746b674b54c7c", "B": "33f1d60173e0777c"}
KRAKEN = {"A": "dcde3622455b37c6", "B": "24fcb0eb13c86475"}
SWEEP = {"A": "8171a7be8f136a34", "B": "a812aadee285a54a"}


@pytest.mark.parametrize("condition", sorted(DATASET))
def test_dataset_digest(condition):
    dataset = _dataset(condition)
    plans = [
        [(e.kind.value, e.position, e.base) for e in record.plan.edits]
        for record in dataset.reads
    ]
    assert _digest(dataset.segments, _reads(dataset),
                   [record.origin for record in dataset.reads],
                   plans) == DATASET[condition]


@pytest.mark.parametrize("condition", sorted(DISTANCES))
def test_ground_truth_digest(condition):
    truth = label_dataset(_dataset(condition),
                          max(thresholds_for(condition)))
    assert _digest(truth.distances, truth.band) == DISTANCES[condition]


@pytest.mark.parametrize("condition", sorted(KRAKEN))
def test_kraken_digest(condition):
    dataset = _dataset(condition)
    outcome = KrakenLikeClassifier(dataset.segments).classify_batch(
        _reads(dataset))
    assert _digest(outcome.hit_fractions, outcome.decisions,
                   outcome.n_kmers) == KRAKEN[condition]


@pytest.mark.parametrize("condition", sorted(SWEEP))
def test_run_sweep_digest(condition):
    systems = {"edam": edam_system, "asmcap_plain": asmcap_plain_system,
               "asmcap_full": asmcap_full_system, "kraken": kraken_system}
    sweep = run_sweep(condition, systems, thresholds_for(condition),
                      n_runs=N_RUNS, n_reads=N_READS, n_segments=N_SEGMENTS,
                      seed=SEED)
    assert _digest(*(sweep.systems[name].f1_runs for name in systems)) \
        == SWEEP[condition]
