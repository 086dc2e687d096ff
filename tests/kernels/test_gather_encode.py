"""The GEMM kernel's table-gather encode and its one-encode rotations.

``numpy-gemm`` builds each query cell's acceptable-base mask by
gathering a packed table at the cell's code (HD) or at ``prev*20 +
cur*5 + next`` (ED*, circular neighbours), once per mode, and serves
every pass as a window of that mask with the two edge cells
re-gathered (``counts_batch(..., rotations=)``).  The oracles here:

* the flat-index scatter the kernel used before the gather, kept only
  in this file — windowed masks must ``==`` it, rotated windows
  included;
* per-offset ``np.roll`` plus a plain ``counts_batch``, and the boolean
  ``_fallback_counts`` over the same rolled blocks — rotated counts
  must ``==`` both, for ACGT blocks (the GEMM) and for non-ACGT ones
  (the fallback).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.core.tasr import DIRECTIONS, rotation_offsets
from repro.genome import alphabet
from repro.kernels import counts_batch, encode_reference
from repro.kernels.base import _fallback_counts
from repro.kernels.gemm import _circular_mask, _window

N_CELLS = (1, 2, 3, 256)


def _scatter_mask(queries: np.ndarray, ed_star: bool) -> np.ndarray:
    """The pre-gather encode: ``(B, N * 4)`` mask by flat-index scatter."""
    n_queries, n_cells = queries.shape
    acceptable = np.zeros((n_queries * n_cells, alphabet.ALPHABET_SIZE),
                          dtype=np.float32)
    grid = np.arange(n_queries * n_cells).reshape(n_queries, n_cells)
    acceptable[grid.ravel(), queries.ravel()] = 1.0
    if ed_star and n_cells > 1:
        # O_L: stored base j vs read base j-1 (no left neighbour at 0).
        acceptable[grid[:, 1:].ravel(), queries[:, :-1].ravel()] = 1.0
        # O_R: stored base j vs read base j+1 (none at the right edge).
        acceptable[grid[:, :-1].ravel(), queries[:, 1:].ravel()] = 1.0
    return acceptable.reshape(n_queries, n_cells * alphabet.ALPHABET_SIZE)


def _gathered(codes: np.ndarray, ed_star: bool,
              offset: int = 0) -> np.ndarray:
    """The kernel's float32 mask of ``codes`` rotated left by
    ``offset``."""
    n_queries, n_cells = codes.shape
    return _window(
        _circular_mask(codes, ed_star), codes, offset, ed_star,
        np.empty((n_queries, n_cells * alphabet.ALPHABET_SIZE),
                 dtype=np.float32))


def _per_offset(encoded, queries, offsets, ed_star):
    """The oracle: roll the block per offset, count each copy."""
    return [counts_batch(encoded, np.roll(queries, -offset, axis=1),
                                 ed_star=ed_star) for offset in offsets]


@st.composite
def _blocks(draw, max_code: int = 3):
    """(segments, queries): N from the paper-edge set, B may be 0."""
    n_cells = draw(st.sampled_from(N_CELLS))
    n_rows = draw(st.integers(1, 6))
    n_queries = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = rng.integers(0, 4, (n_rows, n_cells)).astype(np.uint8)
    queries = rng.integers(0, max_code + 1,
                           (n_queries, n_cells)).astype(np.uint8)
    return segments, queries


def _every_schedule() -> "list[tuple[int, ...]]":
    """``(0,) + rotation_offsets(nr, d)`` for nr 0..3, every direction."""
    return [(0,) + rotation_offsets(nr, direction)
            for nr in range(4) for direction in DIRECTIONS]


class TestGatheredMasks:
    @settings(max_examples=80, deadline=None)
    @given(_blocks())
    def test_gather_equals_scatter(self, block):
        _, queries = block
        for ed_star in (True, False):
            assert np.array_equal(_gathered(queries, ed_star),
                                  _scatter_mask(queries, ed_star))

    @settings(max_examples=40, deadline=None)
    @given(_blocks(), st.integers(-5, 5))
    def test_rotated_window_equals_scatter_of_roll(self, block, offset):
        """A window of the circular mask encodes like the rolled copy."""
        _, queries = block
        rolled = np.roll(queries, -offset, axis=1)
        for ed_star in (True, False):
            assert np.array_equal(_gathered(queries, ed_star, offset),
                                  _scatter_mask(rolled, ed_star))

    @pytest.mark.parametrize("n_cells", N_CELLS)
    def test_every_table_entry(self, n_cells):
        """Each row repeats one of the 4**3 code triples, so every
        ``(prev, cur, next)`` entry occurs, row edges included."""
        triples = np.stack(np.meshgrid(*[np.arange(4)] * 3,
                                       indexing="ij"), -1).reshape(-1, 3)
        queries = np.stack([np.resize(triple, n_cells)
                            for triple in triples]).astype(np.uint8)
        assert np.array_equal(_gathered(queries, True),
                              _scatter_mask(queries, True))


class TestRotationsFromOneEncode:
    @settings(max_examples=60, deadline=None)
    @given(_blocks(max_code=3))
    def test_rotations_equal_per_offset_roll(self, block):
        segments, queries = block
        encoded = encode_reference(segments)
        for offsets in _every_schedule():
            for ed_star in (True, False):
                got = counts_batch(encoded, queries, ed_star=ed_star,
                                   rotations=offsets)
                want = _per_offset(encoded, queries, offsets, ed_star)
                oracle = [_fallback_counts(
                    segments, np.roll(queries, -offset, axis=1),
                    ed_star=ed_star) for offset in offsets]
                assert got.shape == (len(offsets), queries.shape[0],
                                     segments.shape[0])
                assert np.array_equal(got, np.stack(want))
                assert np.array_equal(
                    got, np.stack(oracle).reshape(got.shape))

    @settings(max_examples=40, deadline=None)
    @given(_blocks(max_code=6))
    def test_non_acgt_blocks_take_the_fallback(self, block):
        """Ambiguity codes route every rotation to the boolean sweep."""
        segments, queries = block
        encoded = encode_reference(segments)
        offsets = (0,) + rotation_offsets(3, "both")
        got = counts_batch(encoded, queries, ed_star=True, rotations=offsets)
        want = [_fallback_counts(segments, np.roll(queries, -offset, axis=1),
                                 ed_star=True)
                for offset in offsets]
        assert np.array_equal(got, np.stack(want).reshape(got.shape))

    @pytest.mark.parametrize("n_queries", [0, 1])
    def test_empty_and_single_read_blocks(self, n_queries):
        rng = np.random.default_rng(n_queries)
        segments = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        queries = rng.integers(0, 4, (n_queries, 16)).astype(np.uint8)
        encoded = encode_reference(segments)
        offsets = (0, 1, 2, -1, -2)
        got = counts_batch(encoded, queries, ed_star=True, rotations=offsets)
        assert got.shape == (5, n_queries, 5)
        want = _per_offset(encoded, queries, offsets, True)
        assert np.array_equal(got, np.stack(want))

    def test_no_offsets_is_an_empty_block(self):
        encoded = encode_reference(np.zeros((3, 8), dtype=np.uint8))
        queries = np.zeros((2, 8), dtype=np.uint8)
        got = counts_batch(encoded, queries, ed_star=True, rotations=())
        assert got.shape == (0, 2, 3)

    def test_stored_reference_and_array_pass_rotations_through(self):
        rng = np.random.default_rng(3)
        segments = rng.integers(0, 4, (6, 32)).astype(np.uint8)
        queries = rng.integers(0, 4, (4, 32)).astype(np.uint8)
        offsets = (0, 2, -2)
        ref = StoredReference.encode(segments)
        array = CamArray(rows=6, cols=32, noisy=False, stored=ref)
        want = np.stack([ref.counts_batch(np.roll(queries, -o, axis=1),
                                          MatchMode.ED_STAR)
                         for o in offsets])
        assert np.array_equal(
            ref.counts_batch(queries, MatchMode.ED_STAR, rotations=offsets),
            want)
        assert np.array_equal(
            array.mismatch_counts_batch(queries, MatchMode.ED_STAR,
                                        rotations=offsets),
            want)
        assert ref.n_encodes == 1
