"""ReSMA baseline (DAC 2022): RRAM-crossbar comparison-matrix PIM.

ReSMA computes the comparison matrix in ReRAM crossbars, exploiting the
independence of anti-diagonal wavefronts, after an RRAM-CAM filtering
stage prunes candidate locations.  Two characteristics drive its cost model
(Section II-B of the ASMCap paper):

* latency scales with the number of wavefronts (``n + m - 1``), each
  one crossbar cycle;
* energy is dominated by writing intermediate DP values back into the
  crossbars — RRAM write-verify energy per cell update dwarfs the read
  energy ("incurs massive intermediate data and updates the crossbars
  frequently").

The functional path runs the real anti-diagonal traversal
(:mod:`repro.distance.comparison_matrix`) so decisions are exact, and
its measured work statistics feed the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.distance.comparison_matrix import AntiDiagonalTraversal
from repro.errors import ThresholdError
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class ResmaOutcome:
    """One read's exact decision and modelled crossbar cost."""

    distance: int
    decision: bool
    n_wavefronts: int
    cell_updates: int
    latency_ns: float
    energy_joules: float


class ResmaBaseline:
    """Anti-diagonal CM on RRAM crossbars, with CAM pre-filtering.

    Costs come from ``constants``: ``RESMA_FILTER_NS`` /
    ``RESMA_FILTER_ENERGY_J`` for the CAM filter, one
    ``RESMA_WAVEFRONT_NS`` crossbar cycle per anti-diagonal wavefront
    and ``RESMA_CELL_UPDATE_ENERGY_J`` per DP cell update (RRAM
    write-verify dominated).
    """

    def match(self, segment: DnaSequence, read: DnaSequence,
              threshold: int) -> ResmaOutcome:
        """Exact decision with crossbar work statistics and costs."""
        if threshold < 0:
            raise ThresholdError(
                f"threshold must be non-negative, got {threshold}"
            )
        traversal = AntiDiagonalTraversal.run(segment, read)
        stats = traversal.stats
        latency = (constants.RESMA_FILTER_NS
                   + stats.n_wavefronts * constants.RESMA_WAVEFRONT_NS)
        energy = (constants.RESMA_FILTER_ENERGY_J
                  + stats.total_cell_updates
                  * constants.RESMA_CELL_UPDATE_ENERGY_J)
        return ResmaOutcome(
            distance=traversal.distance,
            decision=traversal.distance <= threshold,
            n_wavefronts=stats.n_wavefronts,
            cell_updates=stats.total_cell_updates,
            latency_ns=latency,
            energy_joules=energy,
        )

    def read_latency_ns(self, read_length: int) -> float:
        """Modelled per-read latency (filter + one crossbar CM)."""
        if read_length <= 0:
            raise ThresholdError(
                f"read_length must be positive, got {read_length}"
            )
        wavefronts = 2 * read_length - 1
        return (constants.RESMA_FILTER_NS
                + wavefronts * constants.RESMA_WAVEFRONT_NS)

    def read_energy_joules(self, read_length: int) -> float:
        """Modelled per-read energy."""
        updates = read_length * read_length
        return (constants.RESMA_FILTER_ENERGY_J
                + updates * constants.RESMA_CELL_UPDATE_ENERGY_J)
