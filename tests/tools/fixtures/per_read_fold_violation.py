"""Contractlint fixture: seeded CL106 per-read folds on the batch path."""

from repro.core.matcher import MatchOutcome
from repro.core.pipeline import MappingReport, ReadMapping


def build(decisions, energies, keys):
    report = MappingReport()
    for q, key in enumerate(keys):
        outcome = MatchOutcome(decisions=decisions[q],  # expect: CL106
                               threshold=8, n_searches=1,
                               energy_joules=energies[q], latency_ns=4.5,
                               hdac_probability=0.0, tasr_lower_bound=52)
        report.add(ReadMapping(key, (), outcome))  # expect: CL106, CL106
    return report


def replay(total, report):
    index = 0
    while index < len(report.mappings):
        total.add(report.mappings[index])  # expect: CL106
        index += 1


def views(keys, outcomes):
    return [ReadMapping(k, (), o)  # expect: CL106
            for k, o in zip(keys, outcomes, strict=True)]
