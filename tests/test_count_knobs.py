"""Count knobs are positive integers at every boundary, never truncated.

``int()`` turns ``2.7`` into 2, ``True`` into 1 and ``"3"`` into 3, so a
boundary that coerced with it ran a mistyped knob as some other value.
Each boundary now rejects a ``bool``, ``float`` or ``str`` with its own
error type (:class:`~repro.errors.CamConfigError` at the shared knob
gate and at a stored reference's row capacity,
:class:`~repro.errors.RefStoreError` at the catalog's byte budget,
:class:`~repro.errors.ExperimentError` at the sweep's run count and
the ground-truth labeller's thresholds and the accuracy experiment's
seeds, :class:`~repro.errors.DatasetError` at the dataset and reference
builders, whose ``seed`` is held to the same integer rule, at the k-mer
indexes' ``k`` and at the FASTA/FASTQ parsers' ``seed``) and accepts
numpy integers.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.baselines.kraken import KrakenLikeClassifier
from repro.baselines.savi import SaviBaseline
from repro.cam.array import StoredReference
from repro.errors import (
    CamConfigError,
    DatasetError,
    ExperimentError,
    RefStoreError,
)
from repro.eval.experiment import AccuracyExperiment, asmcap_plain_system
from repro.eval.ground_truth import label_dataset
from repro.eval.sweeps import run_sweep
from repro.genome.datasets import build_dataset
from repro.genome.generator import generate_reference
from repro.genome.io_fasta import parse_fasta, parse_fastq
from repro.genome.kmer import KmerIndex
from repro.refstore import ReferenceCatalog
from repro.service import MappingFrontend, StreamingMappingService


def _service(dataset, value):
    StreamingMappingService(dataset.segments, dataset.model, 3,
                            micro_batch=value).close()


def _session(dataset, value):
    with MappingFrontend(dataset.segments, dataset.model) as frontend:
        frontend.session(3, micro_batch=value).close()


def _dataset(knob):
    sizes = {"n_reads": 2, "read_length": 32, "n_segments": 4}
    return lambda ds, v: build_dataset(
        "A", with_repeats=False, **{**sizes, knob: v})


#: boundary -> (build it with the knob set to a value, its error type)
BOUNDARIES = {
    "service-micro_batch": (_service, CamConfigError),
    "session-micro_batch": (_session, CamConfigError),
    "catalog-byte_budget": (
        lambda ds, v: ReferenceCatalog(byte_budget=v).close(),
        RefStoreError),
    "sweep-n_runs": (lambda ds, v: run_sweep(
        "A", {"plain": asmcap_plain_system}, [2], n_runs=v, n_reads=4,
        read_length=32, n_segments=8), ExperimentError),
    "stored-rows": (
        lambda ds, v: StoredReference(ds.segments[:2], rows=v),
        CamConfigError),
    "dataset-n_reads": (_dataset("n_reads"), DatasetError),
    "dataset-read_length": (_dataset("read_length"), DatasetError),
    "dataset-n_segments": (_dataset("n_segments"), DatasetError),
    "dataset-seed": (_dataset("seed"), DatasetError),
    "reference-length": (
        lambda ds, v: generate_reference(v, with_repeats=False), DatasetError),
    "reference-seed": (
        lambda ds, v: generate_reference(64, seed=v), DatasetError),
    "truth-max_threshold": (
        lambda ds, v: label_dataset(ds, v), ExperimentError),
    "truth-labels": (
        lambda ds, v: label_dataset(ds, 4).labels(v), ExperimentError),
    "kmer-k": (lambda ds, v: KmerIndex.build(ds.reference, v), DatasetError),
    "savi-k": (lambda ds, v: SaviBaseline(ds.reference, k=v), DatasetError),
    "kraken-k": (
        lambda ds, v: KrakenLikeClassifier(ds.segments, k=v), DatasetError),
    "experiment-seed": (
        lambda ds, v: AccuracyExperiment(ds, [2], seed=v), ExperimentError),
    "experiment-seed_offset": (
        lambda ds, v: AccuracyExperiment(ds, [2]).evaluate(
            "plain", asmcap_plain_system, seed_offset=v), ExperimentError),
    "fasta-seed": (
        lambda ds, v: parse_fasta(io.StringIO(">r\nACGN\n"),
                                  ambiguous="random", seed=v),
        DatasetError),
    "fastq-seed": (
        lambda ds, v: parse_fastq(io.StringIO("@r\nACGN\n+\nIIII\n"),
                                  ambiguous="random", seed=v),
        DatasetError),
}


@pytest.mark.parametrize("value", [2.7, True, "3", 2.0],
                         ids=["float", "bool", "str", "integral-float"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_integer_count_raises_the_boundary_error(small_dataset_a,
                                                     boundary, value):
    build, error = BOUNDARIES[boundary]
    with pytest.raises(error, match="must be an integer"):
        build(small_dataset_a, value)


@pytest.mark.parametrize("boundary", ["dataset-n_reads", "dataset-read_length",
                                      "dataset-n_segments",
                                      "reference-length"])
def test_required_count_refuses_none(small_dataset_a, boundary):
    """The builders' sizes have no autotune: ``None`` is not a count."""
    build, error = BOUNDARIES[boundary]
    with pytest.raises(error, match="must be an integer"):
        build(small_dataset_a, None)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_numpy_integer_count_is_accepted(small_dataset_a, boundary):
    build, _ = BOUNDARIES[boundary]
    build(small_dataset_a, np.int64(2))


def test_accepted_counts_keep_their_value(small_dataset_a):
    service = StreamingMappingService(
        small_dataset_a.segments, small_dataset_a.model, 3,
        micro_batch=np.int32(5))
    assert service.micro_batch == 5
    service.close()
    catalog = ReferenceCatalog(byte_budget=np.uint32(1 << 20))
    assert catalog.stats().byte_budget == 1 << 20
    assert type(catalog.stats().byte_budget) is int
    catalog.close()
    sweep = run_sweep("A", {"plain": asmcap_plain_system}, [2],
                      n_runs=np.int64(3), n_reads=4, read_length=32,
                      n_segments=8)
    assert sweep.systems["plain"].f1_runs.shape == (3, 1)
    truth = label_dataset(small_dataset_a, np.int64(4))
    assert truth.band == 6
    assert type(truth.band) is int
    assert KmerIndex.build(small_dataset_a.reference, np.int8(3)).k == 3
