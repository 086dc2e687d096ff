"""A registered test lane for the kernel-registry tests.

With one built-in backend the registry seam (explicit knob > env var >
autotune, instance passthrough, cross-path bit-identity) would only
ever be exercised against itself.  :class:`ReferenceBackend` is a
second, deliberately slow lane that answers every count with the
boolean reference semantics; the ``reference_lane`` fixture registers
it for one test and removes it afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import autotune
from repro.kernels import KernelBackend, registry
from repro.kernels.base import EncodedReference

REFERENCE_LANE = "boolean-reference"


class ReferenceBackend(KernelBackend):
    """Counts through the shared boolean fallback, for every query."""

    name = REFERENCE_LANE

    def _counts(self, encoded: EncodedReference, queries: np.ndarray,
                *, ed_star: bool) -> np.ndarray:
        return self._fallback_counts(encoded.segments, queries,
                                     ed_star=ed_star)


@pytest.fixture()
def reference_lane(monkeypatch) -> str:
    """Register :class:`ReferenceBackend` for one test; its name.

    The cached autotune plan is restored too, so a calibration that
    ran while the lane was registered cannot name it afterwards.
    """
    monkeypatch.setattr(autotune, "_PLANNED_BACKEND",
                        autotune._PLANNED_BACKEND)
    monkeypatch.setitem(registry._REGISTRY, REFERENCE_LANE,
                        ReferenceBackend())
    return REFERENCE_LANE
