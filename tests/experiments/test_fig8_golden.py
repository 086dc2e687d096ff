"""Golden digest of the Fig. 8 system comparison.

``compute_fig8`` is deterministic: the baseline models are closed-form
and the ASMCap strategy statistics follow from the off-line HDAC/TASR
policies.  This test pins ``float.hex`` of every system's per-read
latency and energy plus each condition's strategy profile, so a
refactor of the profile or cost path must leave every bit in place.
"""

from __future__ import annotations

import hashlib

from repro.experiments.fig8 import SYSTEMS, compute_fig8

#: The profile-dependent row, spelled out so a moved digest says where.
WITH_STRATEGIES = ("0x1.4066a6c6ddf8ep+3", "0x1.942a4e7c247aep-24")
WITHOUT_STRATEGIES = ("0x1.ff33b3f422582p+2", "0x1.0d7189a81851fp-25")


def test_fig8_digest():
    result = compute_fig8()
    costs = [(name, result.costs[name].latency_ns.hex(),
              result.costs[name].energy_joules.hex()) for name in SYSTEMS]
    profiles = [
        (label, p.searches_per_read.hex(), p.rotation_cycles_per_read.hex(),
         p.thresholds, [x.hex() for x in p.per_threshold_searches],
         [x.hex() for x in p.per_threshold_rotation_cycles])
        for label, p in sorted(result.profiles.items())
    ]
    assert costs[SYSTEMS.index("ASMCap w/ H&T")][1:] == WITH_STRATEGIES
    assert costs[SYSTEMS.index("ASMCap w/o H&T")][1:] == WITHOUT_STRATEGIES
    digest = hashlib.sha256(repr((costs, profiles)).encode()).hexdigest()
    assert digest[:16] == "836c0ecf0fcf87d6"
