"""String-distance kernels: ground truth (ED), HD, and the ED* estimate.

* :mod:`repro.distance.hamming` — Hamming distance (CAM HD mode);
* :mod:`repro.distance.edit_distance` — full DP and the batched banded
  DP with its exact lower-bound prefilters;
* :mod:`repro.distance.myers` — bit-parallel oracle;
* :mod:`repro.distance.comparison_matrix` — anti-diagonal CM (ReSMA);
* :mod:`repro.distance.ed_star` — the EDAM/ASMCap neighbour-tolerant
  mismatch count.
"""

from repro.distance.comparison_matrix import (
    AntiDiagonalTraversal,
    TraversalStats,
)
from repro.distance.ed_star import (
    ed_star,
    ed_star_batch,
    ed_star_counts_batch,
    match_planes,
    mismatch_counts_all_reads,
)
from repro.distance.edit_distance import (
    banded_edit_distance_batch,
    edit_distance,
)
from repro.distance.hamming import hamming_distance
from repro.distance.myers import myers_edit_distance

__all__ = [
    "AntiDiagonalTraversal",
    "TraversalStats",
    "banded_edit_distance_batch",
    "ed_star",
    "ed_star_batch",
    "ed_star_counts_batch",
    "edit_distance",
    "hamming_distance",
    "match_planes",
    "mismatch_counts_all_reads",
    "myers_edit_distance",
]
