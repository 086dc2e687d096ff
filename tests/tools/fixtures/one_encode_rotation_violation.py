"""Contractlint fixture: seeded CL105 re-encoded rotations."""

import numpy
import numpy as np
from numpy import roll


class Matcher:
    def rotated_passes(self, array, reads, offsets):
        results = []
        for offset in offsets:
            rotated = np.roll(reads, -offset, axis=1)  # expect: CL105
            results.append(array.mismatch_counts_batch(rotated, "ed_star"))
        return results

    def spellings(self, reads):
        return (numpy.roll(reads, 1, axis=1),  # expect: CL105
                roll(reads, -1, axis=1))  # expect: CL105
