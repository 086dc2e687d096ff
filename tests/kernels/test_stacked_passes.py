"""The stacked, windowed ``GemmBackend._passes`` against its oracles.

One call gathers each mode's circular mask once, copies every pass's
window (edge cells re-gathered) into one ``(P·B, 4N)`` float32 buffer
and runs one GEMM per chunk of its rows.  Its counts must ``==`` the
boolean ``_fallback_counts`` over ``np.roll``\\ ed queries and ``==``
one call per pass — for ED* and HD, mixed-mode (dual) calls, offsets
negative, zero and past ``N``, an empty pass list, the paper-edge row
lengths, and a ``CHUNK_ELEMS`` small enough that the stacked rows span
several chunks, each cutting through passes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import encode_reference
from repro.kernels import gemm
from repro.kernels.gemm import GemmBackend

N_CELLS = (1, 2, 3, 256)


@st.composite
def _calls(draw):
    """(segments, queries, passes): ACGT blocks, 1..6 reads."""
    n_cells = draw(st.sampled_from(N_CELLS))
    n_rows = draw(st.integers(1, 5))
    n_queries = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = rng.integers(0, 4, (n_rows, n_cells)).astype(np.uint8)
    queries = rng.integers(0, 4, (n_queries, n_cells)).astype(np.uint8)
    passes = draw(st.lists(
        st.tuples(st.booleans(),
                  st.integers(-2 * n_cells - 3, 2 * n_cells + 3)),
        max_size=6))
    return segments, queries, tuple(passes)


@contextlib.contextmanager
def _chunk_rows(rows: int, n_cells: int):
    """Size the kernel's chunks at *rows* stacked rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gemm, "CHUNK_ELEMS", rows * n_cells * 4)
        yield


def _stacked(encoded, queries, passes) -> "list[np.ndarray]":
    outs = [np.empty((queries.shape[0], encoded.n_rows), dtype=np.intp)
            for _ in passes]
    GemmBackend._passes(encoded, queries, passes, outs)
    return outs


def _rolled(segments, queries, passes) -> "list[np.ndarray]":
    return [GemmBackend._fallback_counts(
        segments, np.roll(queries, -offset, axis=1), ed_star=ed_star)
        for ed_star, offset in passes]


class TestStackedPasses:
    @settings(max_examples=80, deadline=None)
    @given(_calls())
    def test_equals_the_boolean_oracle_over_rolled_queries(self, call):
        segments, queries, passes = call
        got = _stacked(encode_reference(segments), queries, passes)
        want = _rolled(segments, queries, passes)
        assert len(got) == len(want)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(_calls())
    def test_equals_one_call_per_pass(self, call):
        segments, queries, passes = call
        encoded = encode_reference(segments)
        got = _stacked(encoded, queries, passes)
        for g, single in zip(got, passes, strict=True):
            assert np.array_equal(g, _stacked(encoded, queries,
                                              (single,))[0])

    @settings(max_examples=40, deadline=None)
    @given(_calls(), st.integers(1, 7))
    def test_chunk_boundaries_cut_through_passes(self, call, rows):
        segments, queries, passes = call
        n_stacked, n_cells = len(passes) * queries.shape[0], queries.shape[1]
        with _chunk_rows(rows, n_cells):
            assert len(gemm._gemm_chunks(n_stacked, n_cells)) \
                == -(-n_stacked // rows)
            got = _stacked(encode_reference(segments), queries, passes)
        for g, w in zip(got, _rolled(segments, queries, passes), strict=True):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n_cells", N_CELLS)
    def test_public_entries_share_the_stacked_call(self, n_cells):
        """``counts_batch(rotations=)`` and ``counts_batch_dual`` are
        the stacked call's rotations block and ED*/HD pair."""
        rng = np.random.default_rng(n_cells)
        segments = rng.integers(0, 4, (7, n_cells)).astype(np.uint8)
        queries = rng.integers(0, 4, (9, n_cells)).astype(np.uint8)
        encoded = encode_reference(segments)
        backend = GemmBackend()
        offsets = (0, 1, -1, 2, -2, n_cells, n_cells + 1)
        for ed_star in (True, False):
            rotated = backend.counts_batch(encoded, queries,
                                           ed_star=ed_star,
                                           rotations=offsets)
            want = _rolled(segments, queries,
                           tuple((ed_star, o) for o in offsets))
            assert np.array_equal(rotated, np.stack(want))
        ed, hd = backend.counts_batch_dual(encoded, queries)
        assert np.array_equal(ed, _rolled(segments, queries,
                                          ((True, 0),))[0])
        assert np.array_equal(hd, _rolled(segments, queries,
                                          ((False, 0),))[0])

    def test_an_empty_pass_list_writes_nothing(self):
        encoded = encode_reference(np.zeros((3, 8), dtype=np.uint8))
        GemmBackend._passes(encoded, np.zeros((2, 8), dtype=np.uint8),
                            (), [])

    def test_paper_geometry_map_stream_call(self):
        """The serving call: 256 reads x 256 rows x 256 bases, the base
        ED* pass plus four TASR rotations, in several chunks."""
        rng = np.random.default_rng(256)
        segments = rng.integers(0, 4, (256, 256)).astype(np.uint8)
        queries = rng.integers(0, 4, (256, 256)).astype(np.uint8)
        passes = tuple((True, offset) for offset in (0, 1, 2, -1, -2))
        with _chunk_rows(300, 256):
            got = _stacked(encode_reference(segments), queries, passes)
        for g, w in zip(got, _rolled(segments, queries, passes), strict=True):
            assert np.array_equal(g, w)
