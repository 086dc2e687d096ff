"""Contractlint fixture: the clean twin of keyed_noise_violation."""

import numpy as np

from repro.cam.keyed_noise import fold_key_block, standard_normals


class Matcher:
    def __init__(self, prefix):
        self._prefix = prefix

    def decide(self, v_ml: np.ndarray, keys: np.ndarray) -> np.ndarray:
        states = fold_key_block(self._prefix, keys)
        return v_ml + standard_normals(states, v_ml.shape[1])
