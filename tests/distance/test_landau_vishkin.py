"""Capped edit distance against a Landau-Vishkin oracle.

Landau & Vishkin (J. Algorithms, 1989) answer "is ED(a, b) <= k?" by
extending matches greedily along diagonals: ``L(d, e)`` is the furthest
row reachable on diagonal ``d = j - i`` with exactly ``e`` edits, and
each step slides along the run of exact matches for free.  It returns
``min(ED, k + 1)``, the same capped meaning as the ground-truth
labeller :func:`banded_edit_distance_batch`, so it checks both that
labeller and the exact DP :func:`edit_distance` by a different method.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import banded_edit_distance_batch, edit_distance
from repro.errors import ThresholdError
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", max_size=40).map(DnaSequence)


def _dna_of_length(n: int) -> st.SearchStrategy[DnaSequence]:
    return st.text(alphabet="ACGT", min_size=n, max_size=n).map(DnaSequence)


equal_length_pairs = st.integers(0, 40).flatmap(
    lambda n: st.tuples(_dna_of_length(n), _dna_of_length(n)))

_SENTINEL = -10**9


def _extend(a: np.ndarray, b: np.ndarray, i: int, j: int) -> int:
    """Length of the exact-match run starting at ``a[i:]`` vs ``b[j:]``."""
    limit = min(len(a) - i, len(b) - j)
    if limit <= 0:
        return 0
    mismatches = np.nonzero(a[i : i + limit] != b[j : j + limit])[0]
    return int(mismatches[0]) if mismatches.size else limit


def landau_vishkin(a: DnaSequence, b: DnaSequence, k: int) -> int:
    """Edit distance if it is ``<= k``, else ``k + 1``."""
    x, y = a.codes, b.codes
    n, m = len(x), len(y)
    if abs(n - m) > k:
        return k + 1
    # previous[d + k + 1] = L(d, e - 1); guard cells at both ends.
    previous = np.full(2 * k + 3, _SENTINEL, dtype=np.int64)
    run = _extend(x, y, 0, 0)
    if run >= n and run >= m:
        return 0
    previous[k + 1] = run
    for e in range(1, k + 1):
        current = np.full_like(previous, _SENTINEL)
        for d in range(-e, e + 1):
            offset = d + k + 1
            # Substitution (same diagonal, next row), insertion (diagonal
            # d - 1, same row), deletion (diagonal d + 1, next row).  Row 0
            # of diagonal d is reachable with |d| <= e leading indels.
            best = max(previous[offset] + 1, previous[offset - 1],
                       previous[offset + 1] + 1, 0)
            i = min(int(best), n)
            if not 0 <= i + d <= m:
                continue
            i += _extend(x, y, i, i + d)
            current[offset] = i
            if i >= n and i + d >= m:
                return e
        previous = current
    return k + 1


def lv_within(a: DnaSequence, b: DnaSequence, k: int) -> bool:
    """Predicate form: ``ED(a, b) <= k``."""
    return landau_vishkin(a, b, k) <= k


def _labelled(a: DnaSequence, b: DnaSequence, k: int) -> int:
    return int(banded_edit_distance_batch(a.codes[None, :], b.codes[None, :], k)[0, 0])


def _assert_capped(a: DnaSequence, b: DnaSequence, k: int, want: int) -> None:
    """Oracle, exact DP and (equal lengths) the labeller agree on ``want``."""
    assert landau_vishkin(a, b, k) == want
    assert min(edit_distance(a, b), k + 1) == want
    if len(a) == len(b):
        assert _labelled(a, b, k) == want


class TestKnownCases:
    def test_identical(self):
        seq = DnaSequence("GATTACA")
        _assert_capped(seq, seq, 0, 0)

    def test_single_substitution(self):
        _assert_capped(DnaSequence("ACGT"), DnaSequence("AGGT"), 2, 1)

    def test_single_indel(self):
        _assert_capped(DnaSequence("ACGT"), DnaSequence("ACGTA"), 2, 1)

    def test_cap_when_beyond_k(self):
        _assert_capped(DnaSequence("AAAA"), DnaSequence("TTTT"), 2, 3)

    def test_length_gap_short_circuit(self):
        _assert_capped(DnaSequence("A" * 10), DnaSequence("A"), 3, 4)

    def test_empty_sequences(self):
        _assert_capped(DnaSequence(""), DnaSequence(""), 0, 0)
        _assert_capped(DnaSequence(""), DnaSequence("ACG"), 5, 3)

    def test_negative_k(self):
        with pytest.raises(ThresholdError):
            _labelled(DnaSequence("A"), DnaSequence("A"), -1)


class TestAgainstDp:
    @settings(max_examples=150, deadline=None)
    @given(dna, dna, st.integers(0, 12))
    def test_agrees_with_dp_capped(self, a, b, k):
        _assert_capped(a, b, k, landau_vishkin(a, b, k))

    def test_long_sequences(self, rng):
        a = DnaSequence(rng.integers(0, 4, 300).astype(np.uint8))
        codes = a.codes.copy()
        codes[50] = (codes[50] + 1) % 4
        codes = np.delete(codes, 200)
        b = DnaSequence(np.append(codes, rng.integers(0, 4, 1).astype(np.uint8)))
        exact = edit_distance(a, b)
        _assert_capped(a, b, 10, exact)
        assert exact <= 4


class TestPredicate:
    @settings(max_examples=50, deadline=None)
    @given(equal_length_pairs, st.integers(0, 8))
    def test_lv_within_matches_dp(self, pair, k):
        a, b = pair
        assert lv_within(a, b, k) == (edit_distance(a, b) <= k) \
            == (_labelled(a, b, k) <= k)
