"""Explicit comparison-matrix (CM) computation with anti-diagonal order.

The CM is the classical ``O(n*m)`` edit-distance dynamic program laid
out as a matrix ``M[i, j]`` (Section II-B).  ReSMA (DAC 2022) maps this
matrix onto RRAM crossbars and exploits the fact that all cells on one
anti-diagonal are independent, processing the matrix wavefront by
wavefront.  The ReSMA baseline's cost model therefore needs, besides the
distance itself, the *work-shape statistics* of the traversal: number of
wavefronts, cells per wavefront, and total cell updates.

:class:`AntiDiagonalTraversal` produces exactly those statistics while
computing the true matrix (functionally verified against
:func:`repro.distance.edit_distance.edit_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.genome.sequence import DnaSequence


@dataclass
class TraversalStats:
    """Work-shape statistics of one anti-diagonal CM traversal."""

    n_wavefronts: int = 0
    total_cell_updates: int = 0
    max_wavefront_width: int = 0
    wavefront_widths: list[int] = field(default_factory=list)


@dataclass
class AntiDiagonalTraversal:
    """Anti-diagonal evaluation of the comparison matrix.

    Cells ``(i, j)`` with constant ``i + j`` form one wavefront; each
    wavefront depends only on the previous two, which is the parallelism
    ReSMA's crossbars exploit.

    Attributes
    ----------
    matrix:
        The completed ``(n+1, m+1)`` DP matrix.
    stats:
        Work statistics consumed by the ReSMA cost model.
    """

    matrix: np.ndarray
    stats: TraversalStats

    @classmethod
    def run(cls, a: DnaSequence, b: DnaSequence) -> "AntiDiagonalTraversal":
        """Fill the CM wavefront by wavefront."""
        x, y = a.codes, b.codes
        n, m = len(x), len(y)
        table = np.full((n + 1, m + 1), 0, dtype=np.int32)
        table[:, 0] = np.arange(n + 1)
        table[0, :] = np.arange(m + 1)
        stats = TraversalStats()

        # Wavefront s covers interior cells (i, j >= 1) with i + j == s.
        for s in range(2, n + m + 1):
            i_low = max(1, s - m)
            i_high = min(n, s - 1)
            if i_low > i_high:
                continue
            i_idx = np.arange(i_low, i_high + 1)
            j_idx = s - i_idx
            mismatch = (x[i_idx - 1] != y[j_idx - 1]).astype(np.int32)
            diagonal = table[i_idx - 1, j_idx - 1] + mismatch
            up = table[i_idx - 1, j_idx] + 1
            left = table[i_idx, j_idx - 1] + 1
            table[i_idx, j_idx] = np.minimum(diagonal, np.minimum(up, left))
            width = int(i_idx.size)
            stats.n_wavefronts += 1
            stats.total_cell_updates += width
            stats.max_wavefront_width = max(stats.max_wavefront_width, width)
            stats.wavefront_widths.append(width)
        return cls(matrix=table, stats=stats)

    @property
    def distance(self) -> int:
        """The edit distance in the bottom-right corner."""
        return int(self.matrix[-1, -1])
