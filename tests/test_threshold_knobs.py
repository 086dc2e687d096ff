"""Thresholds and determinism keys are integers at every boundary.

``int()`` turns ``2.7`` into 2, ``True`` into 1 and ``"4"`` into 4, so a
boundary that coerced a threshold with it ran some other ``T``, and one
that coerced a key put reads keyed ``0.5`` and ``0.9`` on one noise
stream.  Every boundary now rejects a non-integer threshold (and the
ground-truth DP's band) with :class:`~repro.errors.ThresholdError` and
a non-integer key, key offset, determinism seed, pass rotation or
cell code with :class:`~repro.errors.CamConfigError`; a batch boundary also refuses a
threshold vector, naming the sweep call that takes one.
The rotation count ``NR`` of TASR and of EDAM's SR is checked the same
way, once, when the matcher is built.  Numpy integers are accepted and
keep their value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray
from repro.cam.cell import AsmCapCell, MatchMode
from repro.core.fragmentation import FragmentedMatcher
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.distance.edit_distance import banded_edit_distance_batch
from repro.errors import CamConfigError, ThresholdError
from repro.eval.experiment import AccuracyExperiment, asmcap_plain_system
from repro.eval.sweeps import run_sweep
from repro.service import MappingFrontend, StreamingMappingService


def _reads(dataset, n=4):
    return np.stack([r.read.codes for r in dataset.reads[:n]])


def _matcher(dataset):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     seed=1)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, seed=2)


def _fragmented(dataset, min_fragment_matches=1):
    """An 8x32 array holding four 64-base segments as two fragments."""
    return FragmentedMatcher(CamArray(rows=8, cols=32),
                             dataset.segments[:4, :64],
                             min_fragment_matches=min_fragment_matches)


def _service(dataset, value):
    StreamingMappingService(dataset.segments, dataset.model,
                            threshold=value).close()


def _session(dataset, value):
    with MappingFrontend(dataset.segments, dataset.model) as frontend:
        frontend.session(value).close()


#: boundary -> run it with one threshold (or a fragment-match count)
#: set to a value
SCALAR_BOUNDARIES = {
    "service": _service,
    "frontend-session": _session,
    "search_batch": lambda ds, v: _matcher(ds).array.search_batch(
        _reads(ds), v),
    "match_batch": lambda ds, v: _matcher(ds).match_batch(_reads(ds), v),
    "match": lambda ds, v: _matcher(ds).match(_reads(ds)[0], v),
    "run_batched": lambda ds, v: ReadMappingPipeline(
        _matcher(ds)).run_batched(_reads(ds), v),
    "run_batched-empty": lambda ds, v: ReadMappingPipeline(
        _matcher(ds)).run_batched([], v),
    "at_threshold": lambda ds, v: _matcher(ds).match_sweep(
        _reads(ds), [2, 8]).at_threshold(v),
    "banded-band": lambda ds, v: banded_edit_distance_batch(
        ds.segments, _reads(ds), v),
    "fragmented-match": lambda ds, v: _fragmented(ds).match(
        ds.segments[0, :64], v),
    "per_fragment_threshold": lambda ds, v: _fragmented(
        ds).per_fragment_threshold(v),
    "fragmented-min_fragment_matches": lambda ds, v: _fragmented(ds, v),
}

#: boundary -> run it with a threshold sweep vector
SWEEP_BOUNDARIES = {
    "search_sweep": lambda ds, v: _matcher(ds).array.search_sweep(
        _reads(ds), v),
    "match_sweep": lambda ds, v: _matcher(ds).match_sweep(_reads(ds), v),
    "edam-match_sweep": lambda ds, v: _edam(ds).match_sweep(_reads(ds), v),
    "accuracy-experiment": lambda ds, v: AccuracyExperiment(ds, v),
    "run_sweep": lambda ds, v: run_sweep(
        "A", {"plain": asmcap_plain_system}, v, n_runs=1, n_reads=4,
        read_length=32, n_segments=8),
}

#: boundary -> run it with a first key, key vector, seed, pass rotation
#: or cell code set to a value
KEY_BOUNDARIES = {
    "run_batched-first_read_index": lambda ds, v: ReadMappingPipeline(
        _matcher(ds)).run_batched(_reads(ds), 4, first_read_index=v),
    "match-query_key": lambda ds, v: _matcher(ds).match(
        _reads(ds)[0], 4, query_key=v),
    "array-seed": lambda ds, v: CamArray(rows=4, cols=8, seed=v),
    "matcher-seed": lambda ds, v: AsmCapMatcher(
        CamArray(rows=4, cols=8), ds.model, seed=v),
    "search_batch-rotation": lambda ds, v: _matcher(ds).array.search_batch(
        _reads(ds), 4, rotation=v),
    "search_batch-rotation_block": lambda ds, v: _matcher(
        ds).array.search_batch(
            _reads(ds), 4, mode=(MatchMode.ED_STAR,) * 2,
            noise_keys=[None, None], rotation=(0, v)),
    "search_sweep-rotation": lambda ds, v: _matcher(ds).array.search_sweep(
        _reads(ds), [2, 4], rotation=v),
    "mismatch_counts_batch-rotations": lambda ds, v: _matcher(
        ds).array.mismatch_counts_batch(_reads(ds), MatchMode.ED_STAR,
                                        rotations=(0, v)),
    "cell-stored_code": lambda ds, v: AsmCapCell(v),
}


def _edam(dataset):
    matcher = EdamMatcher(rows=dataset.n_segments, cols=dataset.read_length,
                          seed=3)
    matcher.store(dataset.segments)
    return matcher


#: constructor -> build it with the rotation count NR set to a value
NR_BOUNDARIES = {
    "matcher-tasr_nr": lambda ds, v: AsmCapMatcher(
        CamArray(rows=4, cols=8), ds.model, MatcherConfig(tasr_nr=v)),
}


@pytest.mark.parametrize("value", [2.7, True, "4", 4.0],
                         ids=["float", "bool", "str", "integral-float"])
@pytest.mark.parametrize("boundary", sorted(SCALAR_BOUNDARIES))
def test_non_integer_threshold_raises(small_dataset_a, boundary, value):
    with pytest.raises(ThresholdError, match="must be an integer"):
        SCALAR_BOUNDARIES[boundary](small_dataset_a, value)


@pytest.mark.parametrize("boundary", sorted(
    set(SCALAR_BOUNDARIES) - {"service", "frontend-session", "match",
                              "at_threshold", "banded-band",
                              "fragmented-match", "per_fragment_threshold",
                              "fragmented-min_fragment_matches"}))
def test_threshold_vector_names_the_sweep_call(small_dataset_a, boundary):
    sweep = "search_sweep" if boundary == "search_batch" else "match_sweep"
    with pytest.raises(ThresholdError, match=sweep):
        SCALAR_BOUNDARIES[boundary](small_dataset_a, np.array([4, 4, 4, 4]))


@pytest.mark.parametrize("boundary", ["service", "frontend-session"])
def test_session_threshold_vector_raises(small_dataset_a, boundary):
    with pytest.raises(ThresholdError, match="must be an integer"):
        SCALAR_BOUNDARIES[boundary](small_dataset_a, np.array([4]))


@pytest.mark.parametrize("value", [
    [2.5, 4.9], np.array([2.0, 4.0]), [True, False], ["2", "4"],
], ids=["floats", "float-array", "bools", "strs"])
@pytest.mark.parametrize("boundary", sorted(SWEEP_BOUNDARIES))
def test_non_integer_sweep_raises(small_dataset_a, boundary, value):
    with pytest.raises(ThresholdError, match="must be integers"):
        SWEEP_BOUNDARIES[boundary](small_dataset_a, value)


@pytest.mark.parametrize("value", [2.5, True, "2"],
                         ids=["float", "bool", "str"])
@pytest.mark.parametrize("boundary", sorted(KEY_BOUNDARIES))
def test_non_integer_key_raises(small_dataset_a, boundary, value):
    with pytest.raises(CamConfigError, match="must be an integer"):
        KEY_BOUNDARIES[boundary](small_dataset_a, value)


@pytest.mark.parametrize("value", [2.7, True, "2", 2.0],
                         ids=["float", "bool", "str", "integral-float"])
@pytest.mark.parametrize("boundary", sorted(NR_BOUNDARIES))
def test_non_integer_nr_raises_at_construction(small_dataset_a, boundary,
                                               value):
    with pytest.raises(ThresholdError, match="NR must be an integer"):
        NR_BOUNDARIES[boundary](small_dataset_a, value)


@pytest.mark.parametrize("boundary", sorted(NR_BOUNDARIES))
def test_negative_nr_raises_at_construction(small_dataset_a, boundary):
    with pytest.raises(ThresholdError, match="NR must be non-negative"):
        NR_BOUNDARIES[boundary](small_dataset_a, -1)


def test_numpy_integer_nr_runs_its_rotations(small_dataset_a):
    dataset = small_dataset_a
    reads = _reads(dataset)
    threshold = int(dataset.read_length)  # above Tl: TASR rotates
    for nr in (np.int16(1), np.uint8(2)):
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length)
        array.store(dataset.segments)
        AsmCapMatcher(array, dataset.model,
                      MatcherConfig(tasr_nr=nr)).match_batch(reads, threshold)
        assert array.ledger.pass_counts()["TasrRotationPass"] == 2 * nr


@pytest.mark.parametrize("keys", [
    [0.5, 1.5, 2.5, 3.9], np.array([0.5, 1.5, 2.5, 3.9]),
    [0, 1, True, 3], np.array([0, 1, 2, 3], dtype=np.float32),
], ids=["floats", "float-array", "bool", "float32-array"])
def test_non_integer_query_keys_raise(small_dataset_a, keys):
    matcher = _matcher(small_dataset_a)
    reads = _reads(small_dataset_a)
    for run in (lambda: matcher.match_batch(reads, 4, query_keys=keys),
                lambda: matcher.match_sweep(reads, [2, 4], query_keys=keys),
                lambda: _edam(small_dataset_a).match_sweep(
                    reads, [2, 4], query_keys=keys)):
        with pytest.raises(CamConfigError, match="must be an integer"):
            run()
    assert not matcher.array.ledger.pass_counts()


def test_numpy_integers_keep_their_value(small_dataset_a):
    dataset = small_dataset_a
    matcher = _matcher(dataset)
    reads = _reads(dataset)
    plain = _matcher(dataset).match_batch(reads, 4, query_keys=[5, 6, 7, 8])
    typed = matcher.match_batch(reads, np.int32(4),
                                query_keys=np.array([5, 6, 7, 8],
                                                    dtype=np.uint16))
    assert np.array_equal(typed.decisions, plain.decisions)
    assert typed.thresholds.tolist() == [4] * 4
    sweep = matcher.match_sweep(reads, np.array([8, 2], dtype=np.uint8))
    assert sweep.thresholds.tolist() == [8, 2]
    assert np.array_equal(sweep.at_threshold(np.int64(2)),
                          sweep.decisions[1])
    service = StreamingMappingService(dataset.segments, dataset.model,
                                      threshold=np.int64(6))
    assert service.threshold == 6 and type(service.threshold) is int
    service.close()
    report = ReadMappingPipeline(_matcher(dataset)).run_batched(
        reads, np.uint8(4), first_read_index=np.int64(10))
    assert [m.read_index for m in report.mappings] == [10, 11, 12, 13]
    experiment = AccuracyExperiment(dataset, np.array([4, 1, 4]))
    assert experiment.thresholds == [1, 4]
    assert np.array_equal(
        matcher.array.mismatch_counts_batch(
            reads, MatchMode.ED_STAR,
            rotations=np.array([0, 2], dtype=np.int16)),
        matcher.array.mismatch_counts_batch(reads, MatchMode.ED_STAR,
                                            rotations=(0, 2)))
    assert np.array_equal(
        banded_edit_distance_batch(dataset.segments, reads, np.uint8(3)),
        banded_edit_distance_batch(dataset.segments, reads, 3))
    fragmented = _fragmented(dataset, np.int64(2))
    assert fragmented.per_fragment_threshold(np.uint8(3)) == 2
    assert fragmented.match(dataset.segments[0, :64],
                            np.int16(3)).per_fragment_threshold == 2

    def noisy_voltages(seed):
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         sigma_rel=0.3, seed=seed)
        array.store(dataset.segments)
        return array.search_batch(reads, 4).v_ml

    assert np.array_equal(noisy_voltages(np.uint64(7)), noisy_voltages(7))
