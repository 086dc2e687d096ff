"""Kernel-backend registry, resolution order and exact-count contracts.

The binding contract of :mod:`repro.kernels`: every registered backend
returns **exactly equal integer counts** — the boolean comparison sweep
is the reference semantics, the GEMM lane an implementation of it.
These tests pin the registry/resolution API (against the test lane of
``conftest.py``) and the bit-identity at the primitive level, including
rows longer than 255 cells; the execution-path identity
(scalar/batched/sweep/sharded) lives in ``test_cross_backend.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.distance.edit_distance import composition_lower_bound
from repro.errors import CamConfigError
from repro.kernels import (
    DEFAULT_BACKEND,
    KERNEL_BACKEND_ENV,
    GemmBackend,
    as_backend,
    available_backends,
    encode_reference,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
    get_backend,
    resolve_backend,
)
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
    def test_gemm_is_the_builtin_backend(self):
        assert available_backends() == ("numpy-gemm",)

    def test_registered_lane_is_listed_sorted(self, reference_lane):
        names = available_backends()
        assert names == (reference_lane, "numpy-gemm")
        assert names == tuple(sorted(names))

    def test_get_backend_unknown_name(self):
        with pytest.raises(CamConfigError) as excinfo:
            get_backend("warp-drive")
        # The error lists what IS registered.
        assert "numpy-gemm" in str(excinfo.value)

    def test_as_backend_defaults_to_gemm(self):
        assert as_backend(None).name == DEFAULT_BACKEND == "numpy-gemm"

    def test_as_backend_passthrough(self, reference_lane):
        backend = GemmBackend()
        assert as_backend(backend) is backend
        assert as_backend(reference_lane).name == reference_lane

    def test_validate_service_knobs_backend(self):
        validate_service_knobs(backend="numpy-gemm")
        validate_service_knobs(backend=GemmBackend())
        with pytest.raises(CamConfigError):
            validate_service_knobs(backend="no-such-backend")


class TestEncodedReferenceErrors:
    """Error-contract regressions (contractlint CL401): encoding
    helpers raise typed config errors, not bare ``ValueError``."""

    def test_from_arrays_missing_field_raises_typed_error(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        arrays = dict(encoded_reference_arrays(encoded))
        del arrays["segments"]
        with pytest.raises(CamConfigError, match="missing arrays"):
            encoded_reference_from_arrays(arrays)


class TestResolutionOrder:
    """Explicit knob > ``REPRO_KERNEL_BACKEND`` env var > autotune."""

    def test_explicit_beats_env(self, monkeypatch, reference_lane):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, reference_lane)
        assert resolve_backend("numpy-gemm").name == "numpy-gemm"

    def test_env_beats_autotune(self, monkeypatch, reference_lane):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, reference_lane)
        assert resolve_backend(None).name == reference_lane

    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "warp-drive")
        with pytest.raises(CamConfigError) as excinfo:
            resolve_backend(None)
        assert KERNEL_BACKEND_ENV in str(excinfo.value)

    def test_autotune_tail_returns_registered_backend(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolve_backend(None).name in available_backends()

    def test_instance_passthrough(self):
        backend = GemmBackend()
        assert resolve_backend(backend) is backend

    def test_array_resolves_explicit_knob(self, reference_lane):
        array = CamArray(rows=4, cols=16, noisy=False,
                         backend=reference_lane)
        assert array.backend == reference_lane

    def test_array_rejects_unknown_backend(self):
        with pytest.raises(CamConfigError):
            CamArray(rows=4, cols=16, backend="warp-drive")

    def test_array_env_override(self, monkeypatch, reference_lane):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, reference_lane)
        assert CamArray(rows=4, cols=16, noisy=False).backend == reference_lane


class TestEncodeOnce:
    def test_one_pass_serves_every_backend(self):
        rng = np.random.default_rng(7)
        segments = rng.integers(0, 4, (8, 32)).astype(np.uint8)
        queries = rng.integers(0, 4, (5, 32)).astype(np.uint8)
        ref = StoredReference.encode(segments)
        assert ref.n_encodes == 1
        for name in available_backends():
            ref.counts_batch(queries, MatchMode.ED_STAR, backend=name)
            ref.counts_batch(queries, MatchMode.HAMMING, backend=name)
            ref.counts_batch_dual(queries, backend=name)
        assert ref.n_encodes == 1

    def test_encoded_reference_arrays_are_read_only(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        for arr in (encoded.segments, encoded.onehot):
            assert not arr.flags.writeable


# -- randomized exact-equality properties (satellite: fallback lanes) --

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
            for name in available_backends():
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected), name

    @settings(max_examples=60, deadline=None)
    @given(_workload(max_code=6))
    def test_ambiguity_codes_fall_back_exactly(self, workload):
        """Reads with N/ambiguity codes agree with the boolean
        reference on every backend (the GEMM lane routes them to the
        shared fallback)."""
        segments, queries = workload
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, queries, ed_star)
            for name in available_backends():
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert np.array_equal(got, expected), name

    @settings(max_examples=40, deadline=None)
    @given(_workload(max_code=6))
    def test_dual_equals_two_single_passes(self, workload):
        segments, queries = workload
        encoded = encode_reference(segments)
        for name in available_backends():
            backend = get_backend(name)
            ed, hd = backend.counts_batch_dual(encoded, queries)
            assert np.array_equal(
                ed, backend.counts_batch(encoded, queries, ed_star=True))
            assert np.array_equal(
                hd, backend.counts_batch(encoded, queries, ed_star=False))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=600),
           st.integers(0, 2**32 - 1))
    def test_single_row_reference(self, n_cols, seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (1, n_cols)).astype(np.uint8)
        queries = rng.integers(0, 5, (3, n_cols)).astype(np.uint8)
        encoded = encode_reference(segments)
        expected = _reference_counts(segments, queries, True)
        for name in available_backends():
            got = get_backend(name).counts_batch(encoded, queries,
                                                 ed_star=True)
            assert np.array_equal(got, expected), name

    def test_empty_batch_every_backend(self):
        segments = np.zeros((3, 16), dtype=np.uint8)
        queries = np.zeros((0, 16), dtype=np.uint8)
        encoded = encode_reference(segments)
        for name in available_backends():
            for ed_star in (True, False):
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert got.shape == (0, 3)


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
        for name in available_backends():
            backend = get_backend(name)
            assert np.array_equal(
                backend.counts_batch(encoded, queries, ed_star=True),
                expected_ed), name
            assert np.array_equal(
                backend.counts_batch(encoded, queries, ed_star=False),
                expected_hd), name
            ed, hd = backend.counts_batch_dual(encoded, queries)
            assert np.array_equal(ed, expected_ed), name
            assert np.array_equal(hd, expected_hd), name
        bound = composition_lower_bound(segments, queries)
        assert np.array_equal(
            bound, _composition_bound_reference(segments, queries))
        # A 256+-long T run is all T: the bound against all A is N.
        assert bound[0, 1] == n_cols
