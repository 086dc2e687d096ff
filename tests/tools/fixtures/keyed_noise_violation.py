"""Contractlint fixture: seeded CL104 sequential-RNG violations."""

import numpy as np
from numpy.random import default_rng


class Matcher:
    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)  # expect: CL104
        self._spare = default_rng(seed + 1)  # expect: CL104

    def decide(self, v_ml, rng: np.random.Generator):  # expect: CL104
        return v_ml + rng.normal(size=v_ml.shape)

    def offsets(self, v_ml,
                rng: "np.random.Generator | None" = None):  # expect: CL104
        return v_ml if rng is None else v_ml + rng.normal()
