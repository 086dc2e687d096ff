"""Hamming distance kernels.

Hamming distance (HD) counts positions where two equal-length sequences
differ.  The ASMCap array computes HD natively when the mode-select
signal ``S`` is 0 (the MUX passes only the co-located comparison
``O_C``, Fig. 4(c)); the HDAC strategy compares the HD decision with the
ED* decision.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError
from repro.genome.sequence import DnaSequence


def hamming_distance(a: DnaSequence, b: DnaSequence) -> int:
    """Hamming distance between two equal-length sequences.

    Raises
    ------
    SequenceError
        If the sequences have different lengths (HD is undefined then).
    """
    if len(a) != len(b):
        raise SequenceError(
            f"Hamming distance needs equal lengths, got {len(a)} and {len(b)}"
        )
    return int(np.count_nonzero(a.codes != b.codes))
