"""The count kernel's exact-count contract, at the primitive level.

The binding contract of :mod:`repro.kernels`: ``counts_batch`` and
``counts_batch_dual`` return **exactly equal integer counts** to the
boolean comparison sweep, the reference semantics the GEMM implements.
These tests pin that bit-identity at the primitive level, including
rows longer than 255 cells, and that no kernel choice is left to make;
the execution-path identity (scalar/batched/sweep/service) lives in
``test_cross_backend.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.autotune import plan_backend
from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.distance.edit_distance import composition_lower_bound
from repro.errors import CamConfigError
from repro.kernels import (
    counts_batch,
    counts_batch_dual,
    encode_reference,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
)
from repro.kernels.base import _fallback_counts
from repro.knobs import validate_service_knobs


def _reference_counts(segments: np.ndarray, queries: np.ndarray,
                      ed_star: bool) -> np.ndarray:
    """The boolean-sweep reference semantics, computed directly."""
    if ed_star:
        return mismatch_counts_all_reads(segments, queries)
    return np.count_nonzero(
        segments[None, :, :] != queries[:, None, :], axis=2
    ).astype(np.intp)


class TestRegistry:
    """What is left of the kernel registry: one name, no choice."""

    def test_gemm_is_the_builtin_backend(self):
        """The one kernel's name, as the read-only ``backend``
        properties and the cached plan report it."""
        array = CamArray(rows=4, cols=16, noisy=False)
        assert plan_backend() == array.backend == "numpy-gemm"

    def test_validate_service_knobs_backend(self):
        """The knob gate takes no kernel choice: a stale ``backend=``
        fails loudly instead of being ignored."""
        validate_service_knobs(micro_batch=4)
        with pytest.raises(TypeError):
            validate_service_knobs(backend="numpy-gemm")


class TestEncodedReferenceErrors:
    """Error-contract regressions (contractlint CL401): encoding
    helpers raise typed config errors, not bare ``ValueError``."""

    def test_from_arrays_missing_field_raises_typed_error(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        arrays = dict(encoded_reference_arrays(encoded))
        del arrays["segments"]
        with pytest.raises(CamConfigError, match="missing arrays"):
            encoded_reference_from_arrays(arrays)


    @pytest.mark.parametrize("non_acgt", [False, True],
                             ids=["gemm", "fallback"])
    @pytest.mark.parametrize("entry", ["counts_batch", "counts_batch_dual"])
    def test_query_width_mismatch_raises_typed_error(self, entry, non_acgt):
        """A query block narrower than the reference is refused before
        either the GEMM or the boolean fallback runs."""
        encoded = encode_reference(np.zeros((2, 20), dtype=np.uint8))
        queries = np.zeros((1, 16), dtype=np.uint8)
        if non_acgt:
            queries[0, 0] = 4
        count = {"counts_batch": lambda: counts_batch(encoded, queries,
                                                      ed_star=False),
                 "counts_batch_dual": lambda: counts_batch_dual(encoded,
                                                                queries)}
        with pytest.raises(CamConfigError,
                           match=r"\(1, 16\) does not fit .* 20 columns"):
            count[entry]()


class TestResolutionOrder:
    """What is left of backend resolution: a stale knob fails loudly."""

    def test_array_rejects_unknown_backend(self):
        """There is nothing to select: ``CamArray`` has no ``backend=``
        parameter, so a stale caller fails at the constructor."""
        with pytest.raises(TypeError):
            CamArray(rows=4, cols=16, backend="warp-drive")


class TestEncodeOnce:
    def test_one_pass_serves_every_backend(self):
        """Every count entry point searches the one encoding."""
        rng = np.random.default_rng(7)
        segments = rng.integers(0, 4, (8, 32)).astype(np.uint8)
        queries = rng.integers(0, 4, (5, 32)).astype(np.uint8)
        ref = StoredReference.encode(segments)
        assert ref.n_encodes == 1
        ref.counts_batch(queries, MatchMode.ED_STAR)
        ref.counts_batch(queries, MatchMode.HAMMING)
        ref.counts_batch(queries, MatchMode.ED_STAR, rotations=(0, 1, -1))
        ref.counts_batch_dual(queries)
        assert ref.n_encodes == 1

    def test_encoded_reference_arrays_are_read_only(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        for arr in (encoded.segments, encoded.onehot):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("segments", [
        np.zeros((2, 4), dtype=np.uint8),
        np.zeros((2, 4), dtype=np.int64),
        np.asfortranarray(np.zeros((2, 4), dtype=np.uint8)),
    ], ids=["contiguous-uint8", "int64", "fortran-uint8"])
    def test_callers_matrix_stays_writeable(self, segments):
        """The encoding freezes its own copy: a C-contiguous uint8
        input used to be frozen in place."""
        encoded = encode_reference(segments)
        assert segments.flags.writeable
        assert not encoded.segments.flags.writeable
        assert not np.shares_memory(encoded.segments, segments)
        segments[0, 0] = 3
        assert encoded.segments[0, 0] == 0


# -- randomized exact-equality properties ----------------------------------

# Codes 0..3 are ACGT; 4..6 stand for N/ambiguity codes that force the
# boolean fallback lane.  Rows reach 600 cells so random counts pass
# 255 (a uint8 accumulator would wrap there).
_acgt_rows = st.integers(min_value=1, max_value=7)
_cols = st.integers(min_value=1, max_value=600)


@st.composite
def _workload(draw, max_code: int):
    """(segments, queries) with shared width; queries may be empty."""
    n_rows = draw(_acgt_rows)
    n_cols = draw(_cols)
    n_queries = draw(st.integers(min_value=0, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = rng.integers(0, 4, (n_rows, n_cols)).astype(np.uint8)
    queries = rng.integers(0, max_code + 1,
                           (n_queries, n_cols)).astype(np.uint8)
    return segments, queries


class TestExactEqualityProperties:
    @settings(max_examples=60, deadline=None)
    @given(_workload(max_code=3))
    def test_acgt_counts_match_reference(self, workload):
        segments, queries = workload
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, queries, ed_star)
            got = counts_batch(encoded, queries, ed_star=ed_star)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(_workload(max_code=6))
    def test_ambiguity_codes_fall_back_exactly(self, workload):
        """Reads with N/ambiguity codes agree with the boolean
        reference (the kernel routes them to the fallback)."""
        segments, queries = workload
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, queries, ed_star)
            got = counts_batch(encoded, queries, ed_star=ed_star)
            assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(_workload(max_code=6))
    def test_dual_equals_two_single_passes(self, workload):
        segments, queries = workload
        encoded = encode_reference(segments)
        ed, hd = counts_batch_dual(encoded, queries)
        assert np.array_equal(
            ed, counts_batch(encoded, queries, ed_star=True))
        assert np.array_equal(
            hd, counts_batch(encoded, queries, ed_star=False))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=600),
           st.integers(0, 2**32 - 1))
    def test_single_row_reference(self, n_cols, seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (1, n_cols)).astype(np.uint8)
        queries = rng.integers(0, 5, (3, n_cols)).astype(np.uint8)
        encoded = encode_reference(segments)
        expected = _reference_counts(segments, queries, True)
        got = counts_batch(encoded, queries, ed_star=True)
        assert np.array_equal(got, expected)

    def test_empty_batch_every_backend(self):
        segments = np.zeros((3, 16), dtype=np.uint8)
        queries = np.zeros((0, 16), dtype=np.uint8)
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            got = counts_batch(encoded, queries, ed_star=ed_star)
            assert got.shape == (0, 3)
        assert [c.shape for c in counts_batch_dual(encoded, queries)] \
            == [(0, 3), (0, 3)]


class TestCompositionProfiles:
    def test_mixed_alphabet_pair_bound(self):
        """ACGT segments vs ambiguity-code reads: the profile widths
        must agree (both operands take the joint ``n_codes`` bins)."""
        segments = np.array([[0, 1, 2, 3]], dtype=np.uint8)
        reads = np.array([[0, 1, 2, 7]], dtype=np.uint8)
        bound = composition_lower_bound(segments, reads)
        assert bound.shape == (1, 1)
        assert bound[0, 0] == 1  # one base differs -> L1=2 -> bound 1


def _composition_bound_reference(segments: np.ndarray,
                                 reads: np.ndarray) -> np.ndarray:
    """The 1-gram bound from one ``np.bincount`` per row."""
    n_codes = int(max(segments.max(), reads.max())) + 1

    def profiles(rows):
        return np.stack([np.bincount(row, minlength=n_codes)
                         for row in rows]).astype(np.int64)

    l1 = np.abs(profiles(reads)[:, None, :]
                - profiles(segments)[None, :, :]).sum(axis=2)
    return (l1 + 1) // 2


class TestPaperGeometry:
    """Counts of 255 and more at the paper's 256-base row width.

    A lane that accumulates per-row counts in ``uint8`` wraps at 256:
    an all-mismatch row of 256 cells then reads as a perfect match.
    The rows here make every count reach the row length.
    """

    @pytest.mark.parametrize("n_cols", [255, 256, 257, 1024])
    def test_full_length_counts_match_reference(self, n_cols):
        rng = np.random.default_rng(n_cols)
        segments = np.stack([
            np.full(n_cols, 1, dtype=np.uint8),  # all C
            np.full(n_cols, 3, dtype=np.uint8),  # homopolymer T run
            np.full(n_cols, 0, dtype=np.uint8),  # all A
            rng.integers(0, 4, n_cols).astype(np.uint8),
        ])
        queries = np.stack([
            np.full(n_cols, 0, dtype=np.uint8),  # all A
            np.full(n_cols, 3, dtype=np.uint8),  # all T
            rng.integers(0, 4, n_cols).astype(np.uint8),
        ])
        encoded = encode_reference(segments)
        expected_ed = _reference_counts(segments, queries, True)
        expected_hd = _reference_counts(segments, queries, False)
        # The oracle itself: all A against all C mismatches every cell.
        assert expected_ed[0, 0] == expected_hd[0, 0] == n_cols
        assert np.array_equal(
            counts_batch(encoded, queries, ed_star=True), expected_ed)
        assert np.array_equal(
            counts_batch(encoded, queries, ed_star=False), expected_hd)
        ed, hd = counts_batch_dual(encoded, queries)
        assert np.array_equal(ed, expected_ed)
        assert np.array_equal(hd, expected_hd)
        bound = composition_lower_bound(segments, queries)
        assert np.array_equal(
            bound, _composition_bound_reference(segments, queries))
        # A 256+-long T run is all T: the bound against all A is N.
        assert bound[0, 1] == n_cols


def _extreme_block(n_cols: int) -> "tuple[np.ndarray, np.ndarray]":
    """(segments, queries) whose counts reach both 0 and ``n_cols``."""
    rng = np.random.default_rng(n_cols)
    segments = np.stack([
        np.full(n_cols, 1, dtype=np.uint8),  # all C
        np.full(n_cols, 3, dtype=np.uint8),  # all T
        rng.integers(0, 4, n_cols).astype(np.uint8),
    ])
    queries = np.stack([
        np.full(n_cols, 0, dtype=np.uint8),  # all A: N against row 0
        np.full(n_cols, 3, dtype=np.uint8),  # all T: 0 against row 1
        rng.integers(0, 4, n_cols).astype(np.uint8),
    ])
    return segments, queries


class TestCountDtype:
    """Every count block comes in the narrowest unsigned dtype holding
    ``N``, within ``0..N``, with the oracle's values."""

    @pytest.mark.parametrize("non_acgt", [False, True],
                             ids=["gemm", "fallback"])
    @pytest.mark.parametrize("n_cols", [1, 2, 255, 256, 257, 512])
    def test_every_entry_point(self, n_cols, non_acgt):
        segments, queries = _extreme_block(n_cols)
        if non_acgt:
            queries[2, 0] = 4  # an ambiguity code routes the block
        encoded = encode_reference(segments)
        dtype = np.min_scalar_type(n_cols)
        offsets = (0, 1, -1)
        blocks = {
            "ed": (counts_batch(encoded, queries, ed_star=True),
                   _fallback_counts(segments, queries, ed_star=True)),
            "hd": (counts_batch(encoded, queries, ed_star=False),
                   _fallback_counts(segments, queries, ed_star=False)),
            "rotations": (
                counts_batch(encoded, queries, ed_star=True,
                             rotations=offsets),
                np.stack([_fallback_counts(
                    segments, np.roll(queries, -offset, axis=1),
                    ed_star=True) for offset in offsets])),
        }
        for name, got in zip(("dual-ed", "dual-hd"),
                             counts_batch_dual(encoded, queries)):
            blocks[name] = (got, blocks[name[-2:]][1])
        for name, (got, expected) in blocks.items():
            assert got.dtype == dtype, name
            assert got.min() >= 0 and got.max() <= n_cols, name
            assert np.array_equal(got, expected), name
        assert blocks["hd"][0][0, 0] == n_cols
        assert blocks["hd"][0][1, 1] == 0
