"""ASMCap's core contribution: the matching flow with HDAC and TASR.

* :mod:`repro.core.policy` — the ``p`` and ``Tl`` design rules;
* :mod:`repro.core.hdac` — Algorithm 1 (substitution-dominant FP fix);
* :mod:`repro.core.tasr` — Algorithm 2 (consecutive-indel FN fix);
* :mod:`repro.core.matcher` — the assembled search flow over an array;
* :mod:`repro.core.pipeline` — batch read mapping.
"""

from repro.core.fragmentation import FragmentedMatcher, FragmentOutcome
from repro.core.hdac import hdac_correct_batch
from repro.core.matcher import (
    AsmCapMatcher,
    MatchBatchOutcome,
    MatchOutcome,
    MatchSweepOutcome,
    MatcherConfig,
)
from repro.core.pipeline import (
    MappingReport,
    ReadMapping,
    ReadMappingPipeline,
)
from repro.core.policy import (
    hdac_enabled,
    hdac_probability,
    hdac_probability_for_model,
    tasr_enabled,
    tasr_lower_bound,
    tasr_lower_bound_for_model,
)
from repro.core.tasr import rotation_offsets

__all__ = [
    "AsmCapMatcher",
    "FragmentOutcome",
    "FragmentedMatcher",
    "MappingReport",
    "MatchBatchOutcome",
    "MatchOutcome",
    "MatchSweepOutcome",
    "MatcherConfig",
    "ReadMapping",
    "ReadMappingPipeline",
    "hdac_correct_batch",
    "hdac_enabled",
    "hdac_probability",
    "hdac_probability_for_model",
    "rotation_offsets",
    "tasr_enabled",
    "tasr_lower_bound",
    "tasr_lower_bound_for_model",
]
