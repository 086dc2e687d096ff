"""Comparator systems: EDAM, CM-CPU, ReSMA, SaVI, Kraken-like.

Each baseline has a *functional* path (it really computes matches, so
accuracy comparisons are genuine) and a *cost model* (per-read latency
and energy at the modelled technology's operating points).
"""

from repro.baselines.cm_cpu import CmCpuBaseline, CmCpuOutcome
from repro.baselines.edam import (
    EdamMatcher,
    edam_issue_period_ns,
    edam_search_energy_per_array,
)
from repro.baselines.kraken import KrakenLikeClassifier, KrakenOutcome
from repro.baselines.resma import ResmaBaseline, ResmaOutcome
from repro.baselines.savi import SaviBaseline, SaviOutcome

__all__ = [
    "CmCpuBaseline",
    "CmCpuOutcome",
    "EdamMatcher",
    "KrakenLikeClassifier",
    "KrakenOutcome",
    "ResmaBaseline",
    "ResmaOutcome",
    "SaviBaseline",
    "SaviOutcome",
    "edam_issue_period_ns",
    "edam_search_energy_per_array",
]
