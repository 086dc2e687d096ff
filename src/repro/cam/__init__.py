"""Behavioural circuit models of the ML-CAM arrays.

* :mod:`repro.cam.sram` — storage plane;
* :mod:`repro.cam.cell` — single-cell comparison logic (Fig. 4(c));
* :mod:`repro.cam.matchline` — charge/current-domain transfer functions;
* :mod:`repro.cam.variation` — Monte-Carlo device variation (Sec. V-D);
* :mod:`repro.cam.sense_amp` — threshold comparison;
* :mod:`repro.cam.shift_register` — TASR rotation hardware;
* :mod:`repro.cam.energy` — Eq. (1)/(2) energy and variance models;
* :mod:`repro.cam.array` — the assembled M x N array.
"""

from repro.cam.array import (
    BatchSearchResult,
    CamArray,
    SearchStats,
    StoredReference,
    SweepSearchResult,
)
from repro.cam.cell import NO_NEIGHBOR, AsmCapCell, MatchMode, PartialMatch
from repro.cam.defects import DefectiveArray, DefectMap
from repro.cam.energy import (
    search_energy_eq1,
    search_energy_per_row,
    typical_genome_energy_ratio,
    vml_variance_eq2,
    worst_case_mismatch,
)
from repro.cam.matchline import ChargeDomainMatchline, CurrentDomainMatchline
from repro.cam.sense_amp import SenseAmplifier
from repro.cam.shift_register import ShiftRegisterBank
from repro.cam.sram import SramPlane
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation

__all__ = [
    "AsmCapCell",
    "BatchSearchResult",
    "CamArray",
    "ChargeDomainMatchline",
    "ChargeDomainVariation",
    "DefectMap",
    "DefectiveArray",
    "CurrentDomainMatchline",
    "CurrentDomainVariation",
    "MatchMode",
    "NO_NEIGHBOR",
    "PartialMatch",
    "SearchStats",
    "StoredReference",
    "SweepSearchResult",
    "SenseAmplifier",
    "ShiftRegisterBank",
    "SramPlane",
    "search_energy_eq1",
    "search_energy_per_row",
    "typical_genome_energy_ratio",
    "vml_variance_eq2",
    "worst_case_mismatch",
]
