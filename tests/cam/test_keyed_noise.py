"""Tests for the counter-based keyed noise streams."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cam.keyed_noise import (
    NORMAL_BOUND,
    fold_key,
    fold_key_block,
    fold_key_from,
    standard_normals,
    uniforms,
)


class TestFolding:
    def test_fold_is_deterministic(self):
        assert fold_key((1, 2, 3)) == fold_key((1, 2, 3))

    def test_fold_separates_nearby_keys(self):
        states = {fold_key((seed, tag)) for seed in range(4)
                  for tag in range(4)}
        assert len(states) == 16

    def test_fold_is_order_sensitive(self):
        assert fold_key((1, 2)) != fold_key((2, 1))

    def test_fold_from_continues_prefix(self):
        assert fold_key_from(fold_key((7, 8)), (9, 10)) == \
            fold_key((7, 8, 9, 10))

    def test_fold_block_matches_scalar_folds(self):
        prefix = fold_key((42,))
        columns = np.array([[0, 5], [1, 5], [2, 9]])
        block = fold_key_block(prefix, columns)
        for q, (a, b) in enumerate(columns.tolist()):
            assert int(block[q]) == fold_key((42, a, b))

    def test_fold_block_1d_columns(self):
        prefix = fold_key((3,))
        block = fold_key_block(prefix, np.arange(5))
        for q in range(5):
            assert int(block[q]) == fold_key((3, q))

    def test_negative_components_mask_consistently(self):
        assert fold_key((-1,)) == fold_key((0xFFFFFFFFFFFFFFFF,))


class TestStreams:
    def test_uniforms_in_unit_interval(self):
        draws = uniforms(fold_key((1,)), np.arange(10_000))
        assert (draws >= 0.0).all() and (draws < 1.0).all()
        assert abs(draws.mean() - 0.5) < 0.02

    def test_uniform_counters_are_independent_of_order(self):
        state = fold_key((2,))
        forward = uniforms(state, np.arange(16))
        backward = uniforms(state, np.arange(15, -1, -1))
        assert np.array_equal(forward, backward[::-1])

    def test_normals_rowwise_match_scalar(self):
        """Row q of a block equals a scalar call with that state."""
        states = fold_key_block(fold_key((9,)), np.arange(6))
        block = standard_normals(states, 13)
        assert block.shape == (6, 13)
        for q in range(6):
            assert np.array_equal(block[q],
                                  standard_normals(int(states[q]), 13))

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_normals_odd_and_even_lengths(self, n):
        draws = standard_normals(fold_key((4,)), n)
        assert draws.shape == (n,)
        assert np.isfinite(draws).all()

    def test_normals_are_standard(self):
        draws = standard_normals(fold_key((11,)), 200_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_distinct_states_give_distinct_streams(self):
        a = standard_normals(fold_key((1, 0)), 32)
        b = standard_normals(fold_key((1, 1)), 32)
        assert not np.allclose(a, b)


class TestBound:
    def test_bound_is_the_53_bit_box_muller_radius(self):
        assert NORMAL_BOUND == pytest.approx(math.sqrt(106 * math.log(2)),
                                             rel=1e-15)
        assert 8.5716 < NORMAL_BOUND < 8.5718

    def test_extreme_uniform_reaches_the_bound(self):
        """State 0's first draw is all-zero bits: u1 = 2**-53."""
        cos_draw, sin_draw = standard_normals(np.zeros(1, np.uint64), 2)[0]
        assert math.hypot(cos_draw, sin_draw) == pytest.approx(
            NORMAL_BOUND, rel=1e-15)
        assert max(abs(cos_draw), abs(sin_draw)) <= NORMAL_BOUND

    def test_a_million_draws_stay_within_the_bound(self):
        states = fold_key_block(fold_key((13,)), np.arange(1000))
        draws = standard_normals(states, 1000)
        assert draws.size == 1_000_000
        assert np.abs(draws).max() <= NORMAL_BOUND


class TestPositionalDraw:
    """Drawing by stream position is bit-identical to the dense block."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 13, 257])
    def test_every_position_matches_dense(self, n):
        states = fold_key_block(fold_key((21,)), np.arange(9))
        dense = standard_normals(states, n)
        queries, rows = np.indices(dense.shape).reshape(2, -1)
        drawn = standard_normals(states[queries], rows)
        assert np.array_equal(drawn, dense.ravel())

    @pytest.mark.parametrize("parity", [0, 1])
    def test_odd_and_even_columns(self, parity):
        states = fold_key_block(fold_key((22,)), np.arange(5))
        dense = standard_normals(states, 31)
        rows = np.arange(parity, 31, 2)
        drawn = standard_normals(states[:, None], rows[None, :])
        assert drawn.shape == (5, rows.size)
        assert np.array_equal(drawn, dense[:, rows])

    def test_scattered_positions_in_any_order(self):
        states = fold_key_block(fold_key((23,)), np.arange(40))
        dense = standard_normals(states, 255)
        rng = np.random.default_rng(3)
        queries = rng.integers(0, 40, 500)
        rows = rng.integers(0, 255, 500)
        assert np.array_equal(standard_normals(states[queries], rows),
                              dense[queries, rows])

    def test_scalar_state_broadcasts(self):
        state = fold_key((24,))
        assert np.array_equal(standard_normals(state, np.array([6, 3, 0])),
                              standard_normals(state, 7)[[6, 3, 0]])
