"""Section V-D — distinguishable-state analysis (44 vs 566).

Regenerates: EDAM's current variation (2.5 %) supports at most 44
distinguishable V_ML states under the 3-sigma constraint, while
ASMCap's capacitor variation (1.4 %) combined with Eq. (2) supports
566 even in the worst case — covering the full 256-base read length
with margin where EDAM cannot.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro import constants
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation
from repro.eval.reporting import format_table


@dataclass(frozen=True)
class StatesResult:
    """Distinguishable-state counts and supporting sigmas."""

    asmcap_states: int
    edam_states: int
    asmcap_worst_sigma_mv: float
    edam_worst_sigma_mv: float
    read_length: int

    @property
    def asmcap_supports_read(self) -> bool:
        """A row needs N+1 distinguishable levels for N cells."""
        return self.asmcap_states >= self.read_length + 1

    @property
    def edam_supports_read(self) -> bool:
        return self.edam_states >= self.read_length + 1

    def render(self) -> str:
        rows = [
            ("Relative variation",
             f"{constants.EDAM_CURRENT_SIGMA * 100:.1f} % (current)",
             f"{constants.ASMCAP_CAPACITOR_SIGMA * 100:.1f} % (capacitor)"),
            ("Distinguishable states", str(self.edam_states),
             str(self.asmcap_states)),
            ("Paper quotes", str(constants.EDAM_DISTINGUISHABLE_STATES),
             str(constants.ASMCAP_DISTINGUISHABLE_STATES)),
            ("Worst-case sigma", f"{self.edam_worst_sigma_mv:.2f} mV",
             f"{self.asmcap_worst_sigma_mv:.2f} mV"),
            (f"Supports {self.read_length}-base reads",
             "yes" if self.edam_supports_read else "no",
             "yes" if self.asmcap_supports_read else "no"),
        ]
        return format_table(
            ["Metric", "EDAM", "ASMCap"], rows,
            title="Section V-D: distinguishable V_ML states (3-sigma rule)",
        )


def compute_states() -> StatesResult:
    """Regenerate the states analysis from the variation models, at
    the paper's read length."""
    read_length = constants.READ_LENGTH
    charge = ChargeDomainVariation()
    current = CurrentDomainVariation()
    return StatesResult(
        asmcap_states=charge.distinguishable_states(),
        edam_states=current.distinguishable_states(),
        asmcap_worst_sigma_mv=charge.worst_case_sigma(read_length) * 1e3,
        edam_worst_sigma_mv=current.worst_case_sigma(read_length) * 1e3,
        read_length=read_length,
    )


def main() -> str:
    """Run and render the states analysis."""
    return compute_states().render()


if __name__ == "__main__":
    print(main())
