"""Myers' bit-parallel edit distance (Myers, JACM 1999).

The bit-parallel algorithm tracks the last DP column of the Levenshtein
matrix as two bit vectors (positive and negative deltas) and advances one
text character per iteration in ``O(len(pattern)/w)`` word operations.
Python integers are arbitrary precision, so one "word" comfortably holds
a whole 256-base pattern.

This serves two roles:

* an independent oracle for the DP kernels in the test suite;
* the software inner loop of the CM-CPU baseline's *functional* path
  (the baseline's cost model charges the DP cell count, as the paper's
  CM-CPU comparator does, but the functional result comes from here).
"""

from __future__ import annotations

import numpy as np

from repro.genome import alphabet
from repro.genome.sequence import DnaSequence


def _pattern_masks(pattern: np.ndarray) -> list[int]:
    """Bit mask per alphabet symbol: bit i set iff pattern[i] == symbol."""
    masks = [0] * alphabet.ALPHABET_SIZE
    for i, code in enumerate(pattern):
        masks[int(code)] |= 1 << i
    return masks


def myers_edit_distance(a: DnaSequence, b: DnaSequence) -> int:
    """Global edit distance via the bit-parallel recurrence.

    ``a`` plays the pattern role and ``b`` the text role; the result is
    symmetric. Empty sequences are handled up front.
    """
    pattern, text = a.codes, b.codes
    m, n = len(pattern), len(text)
    if m == 0:
        return n
    if n == 0:
        return m

    peq = _pattern_masks(pattern)
    all_ones = (1 << m) - 1
    high_bit = 1 << (m - 1)

    pv = all_ones  # positive vertical deltas
    mv = 0         # negative vertical deltas
    score = m

    for code in text:
        eq = peq[int(code)]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq

        ph = mv | ~(xh | pv) & all_ones
        mh = pv & xh

        if ph & high_bit:
            score += 1
        elif mh & high_bit:
            score -= 1

        ph = ((ph << 1) | 1) & all_ones
        mh = (mh << 1) & all_ones
        pv = (mh | ~(xv | ph)) & all_ones
        mv = ph & xv

    return score

