"""Cycle-level timing model for the search data path.

The latency of matching one read decomposes into (Sections III-IV):

* buffer fetch + H-tree broadcast (per read);
* one search cycle per issued search operation — the base ED* search,
  plus one for HDAC's Hamming search when enabled, plus one per TASR
  rotation (the paper: "one more cycle" for HDAC, "NR more cycles" for
  TASR);
* shift-register cycles for the rotations themselves (one per base of
  net rotation, far faster than a search cycle).

ASMCap's search cycle (0.9 ns) skips EDAM's pre-charge and sample/hold
phases (2.4 ns) — Table I.  The per-phase split below decomposes EDAM's
cycle so the benches can show *why* it is slower; the totals are the
Table I anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import ArchConfigError

#: EDAM cycle phase decomposition (sums to the 2.4 ns Table I anchor).
EDAM_PRECHARGE_NS = 0.8
EDAM_DISCHARGE_NS = 0.9
EDAM_SAMPLE_HOLD_NS = 0.7

#: Shift-register cycle (one base of rotation).
SHIFT_CYCLE_NS = 0.1


@dataclass(frozen=True)
class TimingModel:
    """Latency accounting for one accelerator flavour."""

    domain: str = "charge"

    def __post_init__(self) -> None:
        if self.domain not in ("charge", "current"):
            raise ArchConfigError(
                f"domain must be 'charge' or 'current', got {self.domain!r}"
            )

    @property
    def search_cycle_ns(self) -> float:
        """One in-array search operation."""
        if self.domain == "charge":
            return constants.ASMCAP_SEARCH_TIME_NS
        return constants.EDAM_SEARCH_TIME_NS

    def search_phases_ns(self) -> dict[str, float]:
        """Per-phase breakdown of the search cycle."""
        if self.domain == "charge":
            # No pre-charge, no sample/hold: evaluate + sense only.
            return {"evaluate": 0.6, "sense": 0.3}
        return {
            "precharge": EDAM_PRECHARGE_NS,
            "discharge": EDAM_DISCHARGE_NS,
            "sample_hold": EDAM_SAMPLE_HOLD_NS,
        }
