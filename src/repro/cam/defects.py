"""Array-level defect injection for robustness studies.

Manufacturing defects and wear leave CAM arrays with broken elements;
an accelerator deployed for "task-intensive but accuracy-insensitive"
screening (Section V-E) must degrade gracefully rather than fail.  The
models here inject the two row defect classes that matter to a
search array, as post-processing on a
:class:`~repro.cam.array.CamArray` search result:

* **stuck rows** — a matchline shorted high or low: the row always or
  never reports 'match' regardless of data;
* **dead sense amplifiers** — the row's comparator output is frozen at
  its last value; modelled as stuck-mismatch (conservative).

:meth:`DefectMap.apply` overlays row defects on a search's decisions
(``defects.apply(array.search_batch(...).matches)``), so experiments
can sweep defect density and measure the F1 cliff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CamConfigError


@dataclass
class DefectMap:
    """Which rows are broken, and how."""

    stuck_match: np.ndarray
    stuck_mismatch: np.ndarray

    @classmethod
    def sample(cls, n_rows: int, stuck_match_rate: float,
               stuck_mismatch_rate: float,
               rng: np.random.Generator) -> "DefectMap":
        """Draw independent row defects at the given rates."""
        for name, rate in (("stuck_match_rate", stuck_match_rate),
                           ("stuck_mismatch_rate", stuck_mismatch_rate)):
            if not 0.0 <= rate <= 1.0:
                raise CamConfigError(f"{name} must be in [0, 1], got {rate}")
        draws = rng.random(n_rows)
        stuck_match = draws < stuck_match_rate
        stuck_mismatch = ((draws >= stuck_match_rate)
                          & (draws < stuck_match_rate + stuck_mismatch_rate))
        return cls(stuck_match=stuck_match, stuck_mismatch=stuck_mismatch)

    @property
    def n_defective(self) -> int:
        return int(self.stuck_match.sum() + self.stuck_mismatch.sum())

    def apply(self, matches: np.ndarray) -> np.ndarray:
        """Overlay the row defects on a ``(..., M)`` decision block."""
        matches = np.asarray(matches, dtype=bool)
        if matches.shape[-1:] != self.stuck_match.shape:
            raise CamConfigError(
                f"decision shape {matches.shape} != defect map shape "
                f"{self.stuck_match.shape}"
            )
        out = matches.copy()
        out[..., self.stuck_match] = True
        out[..., self.stuck_mismatch] = False
        return out
