"""Cross-validation: all four distance implementations must agree,
and ED*'s relationship to true ED must hold on edit-injected data.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.comparison_matrix import AntiDiagonalTraversal
from repro.distance.ed_star import ed_star
from repro.distance.edit_distance import (
    banded_edit_distance_batch,
    edit_distance,
)
from repro.distance.hamming import hamming_distance
from repro.distance.myers import myers_edit_distance
from repro.genome.edits import ErrorModel, inject_edits
from repro.genome.generator import generate_reference
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", max_size=40).map(DnaSequence)


@settings(max_examples=80, deadline=None)
@given(dna, dna)
def test_three_exact_kernels_agree(a, b):
    dp = edit_distance(a, b)
    assert myers_edit_distance(a, b) == dp
    assert AntiDiagonalTraversal.run(a, b).distance == dp


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="ACGT", min_size=16, max_size=16),
                min_size=1, max_size=6),
       st.lists(st.text(alphabet="ACGT", min_size=16, max_size=16),
                min_size=1, max_size=4))
def test_batched_banded_agrees_with_scalar(segment_texts, read_texts):
    segments = np.stack([DnaSequence(t).codes for t in segment_texts])
    reads = np.stack([DnaSequence(t).codes for t in read_texts])
    band = 6
    batch = banded_edit_distance_batch(segments, reads, band)
    for r, read_text in enumerate(read_texts):
        for s, segment_text in enumerate(segment_texts):
            exact = edit_distance(DnaSequence(read_text),
                                  DnaSequence(segment_text))
            assert batch[r, s] == min(exact, band + 1)


class TestEdStarVsTrueDistance:
    """The paper's Fig. 2 relationships on synthetic edited reads."""

    def test_substitutions_only_ed_star_underestimates(self):
        """With substitutions only, ED* <= HD == ED (hiding effect)."""
        rng = np.random.default_rng(0)
        reference = generate_reference(200, seed=1, with_repeats=False)
        model = ErrorModel(substitution=0.05)
        for _ in range(10):
            edited, plan = inject_edits(reference, model, rng)
            hd = hamming_distance(reference, edited)
            assert hd == len(plan)  # every edit is a substitution
            assert ed_star(reference, edited) <= hd

    def test_single_indel_tolerated_better_than_hamming(self):
        """One isolated indel: ED* stays near ED while HD explodes."""
        rng = np.random.default_rng(3)
        for seed in range(10):
            reference = generate_reference(128, seed=seed,
                                           with_repeats=False)
            codes = reference.codes.copy()
            position = int(rng.integers(10, 100))
            deleted = np.concatenate([
                codes[:position], codes[position + 1:],
                rng.integers(0, 4, 1).astype(np.uint8),
            ])
            read = DnaSequence(deleted)
            hd = hamming_distance(reference, read)
            estimate = ed_star(reference, read)
            true_ed = edit_distance(reference, read)
            assert true_ed <= 2
            # HD sees roughly everything after the deletion as wrong;
            # ED* must be dramatically closer to the truth.
            assert hd > 20
            assert estimate <= 5

    def test_consecutive_indels_inflate_ed_star(self):
        """Fig. 6's misjudgment: bursts make ED* overshoot ED."""
        reference = generate_reference(128, seed=77, with_repeats=False)
        codes = reference.codes.copy()
        rng = np.random.default_rng(5)
        burst = np.concatenate([
            codes[:50], codes[54:], rng.integers(0, 4, 4).astype(np.uint8),
        ])
        read = DnaSequence(burst)
        true_ed = edit_distance(reference, read)
        estimate = ed_star(reference, read)
        assert true_ed <= 8
        assert estimate > true_ed  # the FN-causing overshoot
