"""Threshold-Aware Sequence Rotation — Algorithm 2 (Section IV-B).

**The misjudgment.** Consecutive insertions or deletions shift the rest
of the read by several positions, which the one-base neighbour window of
ED* cannot absorb: ED* becomes much larger than the true edit distance
and EDAM produces false negatives whenever ``ED < T < ED*``.

**Plain SR and its flaw.** EDAM's Sequence Rotation re-searches with
the read rotated base-by-base and ORs the results.  But a rotation can
also *underestimate* distance (the rotated read happens to line up
spuriously), creating false positives precisely when ``T`` is small.

**The TASR fix.** Only rotate when ``T >= Tl`` with
``Tl = ceil(gamma/eid * m)`` — at small thresholds the FP risk outweighs
the FN correction, at large thresholds (or high indel rates) rotation
pays off.  Rotation costs one extra search cycle per rotation, which the
timing model charges.

The rotation direction is configurable: the paper rotates "left (right)"
— we default to exploring both directions (``NR`` each way), with
left-only and right-only modes for the ablation benchmarks.  This
module holds the rotation schedule; :class:`~repro.core.matcher.
AsmCapMatcher` issues the rotated passes and ORs them in.
"""

from __future__ import annotations

from repro import constants
from repro.errors import ThresholdError

#: Valid rotation direction modes.
DIRECTIONS = ("both", "left", "right")


def rotation_offsets(nr: int = constants.TASR_NR,
                     direction: str = "both") -> tuple[int, ...]:
    """The rotation amounts Algorithm 2 tries, excluding 0.

    Positive = left rotation, negative = right rotation.  The unrotated
    search (i = 0 in the paper's loop) is the caller's base search.
    """
    if nr < 0:
        raise ThresholdError(f"NR must be non-negative, got {nr}")
    if direction not in DIRECTIONS:
        raise ThresholdError(
            f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )
    left = tuple(range(1, nr + 1))
    right = tuple(-i for i in range(1, nr + 1))
    if direction == "left":
        return left
    if direction == "right":
        return right
    return left + right
