"""Behavioural circuit models of the ML-CAM arrays.

* :mod:`repro.cam.cell` — single-cell comparison logic (Fig. 4(c));
* :mod:`repro.cam.matchline` — charge/current-domain transfer functions;
* :mod:`repro.cam.variation` — Monte-Carlo device variation (Sec. V-D);
* :mod:`repro.cam.sense_amp` — threshold comparison;
* :mod:`repro.cam.energy` — Eq. (1)/(2) energy and variance models;
* :mod:`repro.cam.array` — the stored reference and the assembled
  M x N array.
"""

from repro.cam.array import (
    BatchSearchResult,
    CamArray,
    SearchStats,
    StoredReference,
    SweepSearchResult,
)
from repro.cam.cell import AsmCapCell, MatchMode
from repro.cam.defects import DefectMap
from repro.cam.energy import (
    search_energy_eq1,
    search_energy_per_row,
    vml_variance_eq2,
)
from repro.cam.matchline import ChargeDomainMatchline, CurrentDomainMatchline
from repro.cam.sense_amp import SenseAmplifier
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation

__all__ = [
    "AsmCapCell",
    "BatchSearchResult",
    "CamArray",
    "ChargeDomainMatchline",
    "ChargeDomainVariation",
    "DefectMap",
    "CurrentDomainMatchline",
    "CurrentDomainVariation",
    "MatchMode",
    "SearchStats",
    "StoredReference",
    "SweepSearchResult",
    "SenseAmplifier",
    "search_energy_eq1",
    "search_energy_per_row",
    "vml_variance_eq2",
]
