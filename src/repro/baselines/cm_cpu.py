"""CM-CPU baseline: exact comparison-matrix edit distance on a CPU.

The paper's software baseline computes edit distance with the classical
``O(n*m)`` comparison matrix on an i9-10980XE (Section V-A).  Our
functional path computes the *same answer* with the Myers bit-parallel
kernel (fast enough for Python); the **cost model** charges the full
``n*m`` DP cell count at a calibrated scalar update rate, because that
is the work the baseline being modelled performs.

Scope note (recorded in DESIGN.md): per read, the CM baseline evaluates
the candidate reference window — one ``m x m`` DP — matching how the
paper's speedup anchors scale.  The CAM accelerators additionally
*locate* candidates among all stored segments in the same search, so
this accounting is conservative in the CPU's favour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.distance.myers import myers_edit_distance
from repro.errors import ThresholdError
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class CmCpuOutcome:
    """One read's exact-distance decision and modelled CPU cost."""

    distance: int
    decision: bool
    cell_updates: int
    latency_ns: float
    energy_joules: float


class CmCpuBaseline:
    """Exact CM computation with an i9-class cost model: DP cell
    updates at ``constants.CM_CPU_CELL_UPDATES_PER_SECOND`` drawing
    ``constants.CM_CPU_POWER_W`` of package power.
    """

    def match(self, segment: DnaSequence, read: DnaSequence,
              threshold: int) -> CmCpuOutcome:
        """Exact decision ``ED(segment, read) <= T`` with CPU costs."""
        if threshold < 0:
            raise ThresholdError(
                f"threshold must be non-negative, got {threshold}"
            )
        distance = myers_edit_distance(segment, read)
        cells = len(segment) * len(read)
        latency_s = cells / constants.CM_CPU_CELL_UPDATES_PER_SECOND
        return CmCpuOutcome(
            distance=distance,
            decision=distance <= threshold,
            cell_updates=cells,
            latency_ns=latency_s * 1e9,
            energy_joules=latency_s * constants.CM_CPU_POWER_W,
        )

    def read_latency_ns(self, read_length: int) -> float:
        """Modelled per-read latency (one ``m x m`` DP)."""
        if read_length <= 0:
            raise ThresholdError(
                f"read_length must be positive, got {read_length}"
            )
        return (read_length * read_length
                / constants.CM_CPU_CELL_UPDATES_PER_SECOND * 1e9)

    def read_energy_joules(self, read_length: int) -> float:
        """Modelled per-read energy."""
        return (self.read_latency_ns(read_length) * 1e-9
                * constants.CM_CPU_POWER_W)
