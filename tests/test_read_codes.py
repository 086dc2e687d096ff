"""Read and segment codes are checked, never silently truncated or
wrapped.

Every layer that accepts reads coerces them through one helper,
:func:`repro.cam.array.as_read_codes`: an integer array whose values
fit 0..255 becomes uint8 (codes 4..255 take the ambiguity fallback);
a float read, or a value outside 0..255, raises
:class:`~repro.errors.CamConfigError` at every entry point.  Segment
matrices have the same contract through
:func:`repro.cam.array.as_segments_matrix`, with the 2-bit range 0..3,
and so has one cell's stored code (:class:`~repro.cam.cell.AsmCapCell`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray, StoredReference, as_read_codes
from repro.cam.cell import AsmCapCell, MatchMode
from repro.core.fragmentation import FragmentedMatcher
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import ReadMappingPipeline
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset
from repro.service import MappingFrontend, StreamingMappingService

THRESHOLD = 4


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=4, read_length=32, n_segments=8,
                         seed=3)


def _matcher(dataset) -> AsmCapMatcher:
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     seed=0)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, seed=0)


def _service_submit(dataset, read):
    with StreamingMappingService(dataset.segments, dataset.model,
                                 THRESHOLD, micro_batch=1) as service:
        service.submit(read)


def _frontend_submit(dataset, read):
    with MappingFrontend(dataset.segments, dataset.model) as frontend:
        frontend.session(THRESHOLD, micro_batch=1).submit(read)


def _run_batched(dataset, read):
    ReadMappingPipeline(_matcher(dataset)).run_batched([read], THRESHOLD)


def _match(dataset, read):
    _matcher(dataset).match(read, THRESHOLD)


def _match_batch(dataset, read):
    _matcher(dataset).match_batch([read], THRESHOLD)


def _search_batch(dataset, read):
    _matcher(dataset).array.search_batch([read], THRESHOLD)


def _mismatch_counts(dataset, read):
    _matcher(dataset).array.mismatch_counts_batch([read], MatchMode.ED_STAR)


def _edam_match(dataset, read):
    matcher = EdamMatcher(rows=dataset.n_segments, cols=dataset.read_length,
                          seed=0)
    matcher.store(dataset.segments)
    matcher.match(read, THRESHOLD)


def _fragmented(dataset) -> FragmentedMatcher:
    """The dataset's segments as two half-length fragments each."""
    width = dataset.read_length // 2
    array = CamArray(rows=2 * dataset.n_segments, cols=width, seed=0)
    return FragmentedMatcher(array, dataset.segments)


def _fragmented_match(dataset, read):
    _fragmented(dataset).match(read, THRESHOLD)


ENTRY_POINTS = {
    "service.submit": _service_submit,
    "frontend.session.submit": _frontend_submit,
    "pipeline.run_batched": _run_batched,
    "matcher.match": _match,
    "matcher.match_batch": _match_batch,
    "array.search_batch": _search_batch,
    "array.mismatch_counts": _mismatch_counts,
    "edam.match": _edam_match,
    "fragmented.match": _fragmented_match,
}


def _bad_reads(codes: np.ndarray) -> dict:
    """The inputs that used to be truncated, wrapped or untyped."""
    negative = codes.astype(np.int64)
    negative[0] = -1
    too_big = codes.astype(np.int64)
    too_big[0] = 256
    return {
        "float": codes + 0.9,
        "int64-negative": negative,
        "list-negative": [-1, *codes[1:].tolist()],
        "int64-256": too_big,
    }


@pytest.mark.parametrize("bad", ["float", "int64-negative",
                                 "list-negative", "int64-256"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_read_codes_raise_at_every_entry_point(dataset, entry, bad):
    read = _bad_reads(dataset.reads[0].read.codes)[bad]
    with pytest.raises(CamConfigError, match="read codes"):
        ENTRY_POINTS[entry](dataset, read)


def _store(dataset, segments):
    CamArray(rows=dataset.n_segments,
             cols=dataset.read_length).store(segments)


def _encode(dataset, segments):
    StoredReference.encode(segments)


def _service(dataset, segments):
    StreamingMappingService(segments, dataset.model, THRESHOLD).close()


def _frontend(dataset, segments):
    MappingFrontend(segments, dataset.model).close()


def _fragmented_init(dataset, segments):
    width = dataset.read_length // 2
    FragmentedMatcher(CamArray(rows=2 * dataset.n_segments, cols=width),
                      segments)


SEGMENT_ENTRY_POINTS = {
    "AsmCapCell": lambda ds, segments: AsmCapCell(
        np.asarray(segments)[0, 0]),
    "array.store": _store,
    "StoredReference.encode": _encode,
    "service": _service,
    "frontend": _frontend,
    "fragmented": _fragmented_init,
}


def _bad_segments(segments: np.ndarray) -> dict:
    """The matrices that used to be truncated or wrapped to 2-bit codes."""
    too_big = segments.astype(np.int64)
    too_big[0, 0] = 256
    negative = segments.tolist()
    negative[0][0] = -1
    return {
        "float": segments + 0.5,
        "int64-256": too_big,
        "list-negative": negative,
    }


@pytest.mark.parametrize("bad", ["float", "int64-256", "list-negative"])
@pytest.mark.parametrize("entry", sorted(SEGMENT_ENTRY_POINTS))
def test_bad_segment_codes_raise_at_every_entry_point(dataset, entry, bad):
    segments = _bad_segments(dataset.segments)[bad]
    with pytest.raises(CamConfigError, match="segment codes"):
        SEGMENT_ENTRY_POINTS[entry](dataset, segments)


def test_uint8_reads_skip_the_value_scan():
    codes = np.array([0, 1, 2, 3, 200], dtype=np.uint8)
    assert as_read_codes(codes) is codes


def test_wider_integer_codes_are_kept_exactly():
    codes = np.array([[0, 3, 4, 255]], dtype=np.int64)
    coerced = as_read_codes(codes)
    assert coerced.dtype == np.uint8
    assert coerced.tolist() == [[0, 3, 4, 255]]
    assert as_read_codes([1, 2]).tolist() == [1, 2]


def test_ambiguity_codes_map_like_their_uint8_form(dataset):
    """Codes 4..255 stay on the ambiguity-fallback path whatever the
    integer dtype they arrive in."""
    codes = dataset.reads[0].read.codes.copy()
    codes[::5] = 4
    codes[1] = 255
    wide = ReadMappingPipeline(_matcher(dataset)).run_batched(
        [codes.astype(np.int32)], THRESHOLD)
    narrow = ReadMappingPipeline(_matcher(dataset)).run_batched(
        [codes], THRESHOLD)
    assert wide.mappings[0].matched_rows == narrow.mappings[0].matched_rows
    assert wide.total_energy_joules == narrow.total_energy_joules
