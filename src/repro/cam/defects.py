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

:class:`DefectiveArray` wraps an array and applies row defects to every
search result, so experiments can sweep defect density and measure the
F1 cliff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cam.array import BatchSearchResult, CamArray
from repro.cam.cell import MatchMode
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


class DefectiveArray:
    """A CamArray wrapper that overlays row defects on every search."""

    def __init__(self, array: CamArray, defects: DefectMap):
        if defects.stuck_match.shape != (array.rows,):
            raise CamConfigError(
                f"defect map covers {defects.stuck_match.shape[0]} rows, "
                f"array has {array.rows}"
            )
        self._array = array
        self._defects = defects

    @property
    def array(self) -> CamArray:
        return self._array

    @property
    def defects(self) -> DefectMap:
        return self._defects

    @property
    def rows(self) -> int:
        return self._array.rows

    @property
    def cols(self) -> int:
        return self._array.cols

    def store(self, segments: np.ndarray) -> None:
        self._array.store(segments)

    def search_batch(self, queries: np.ndarray,
                     threshold: "int | np.ndarray",
                     mode: MatchMode = MatchMode.ED_STAR
                     ) -> BatchSearchResult:
        """Search a ``(B, N)`` block (keyed by query index), with
        defective rows overriding their decisions."""
        result = self._array.search_batch(queries, threshold, mode)
        # Decisions only cover written rows.
        n = result.matches.shape[-1]
        defects = DefectMap(
            stuck_match=self._defects.stuck_match[:n],
            stuck_mismatch=self._defects.stuck_mismatch[:n],
        )
        return replace(result, matches=defects.apply(result.matches))
