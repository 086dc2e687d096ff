"""Contractlint fixture: the clean twin of one_encode_rotation_violation."""

import numpy as np


class Matcher:
    def rotated_passes(self, array, reads, offsets):
        return array.mismatch_counts_batch(reads, "ed_star",
                                           rotations=(0,) + offsets)

    def shift(self, register, steps):
        # A shift register's own roll method is not numpy's.
        register.roll(steps)
        return np.concatenate((register.data, register.data))
