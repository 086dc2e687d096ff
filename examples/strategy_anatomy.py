#!/usr/bin/env python
"""Anatomy of the two correction strategies on hand-crafted reads.

Reconstructs the paper's Fig. 5 and Fig. 6 walk-throughs on real
hardware models:

* **Fig. 5 (HDAC)** — a read with several substitutions and no indels:
  ED* hides edits (false positive at small T), the Hamming search
  exposes them, and Algorithm 1 repairs the decision.
* **Fig. 6 (TASR)** — a read with a consecutive 2-base deletion:
  ED* explodes (false negative at moderate T), rotation re-aligns the
  read, and the Tl guard keeps rotations away from small thresholds
  where they would create false positives.

Run:  python examples/strategy_anatomy.py
"""

from __future__ import annotations

import numpy as np

from repro.cam import CamArray
from repro.core import AsmCapMatcher, MatcherConfig
from repro.distance import ed_star, edit_distance, hamming_distance
from repro.genome import DnaSequence, ErrorModel, generate_reference

READ_LENGTH = 64
N_SEGMENTS = 8


def build_array(segments: np.ndarray, seed: int = 0) -> CamArray:
    array = CamArray(rows=N_SEGMENTS, cols=READ_LENGTH, domain="charge",
                     noisy=False, seed=seed)
    array.store(segments)
    return array


def hdac_demo(segments: np.ndarray) -> None:
    print("=" * 64)
    print("HDAC demo (Fig. 5): substitution-dominant edits")
    segment = DnaSequence(segments[3])
    # Five substitutions, engineered to hide from the neighbour window.
    codes = segment.codes.copy()
    n_subs = 0
    for i in range(5, READ_LENGTH - 5, 12):
        original = int(codes[i])
        replacement = (original + 2) % 4
        codes[i] = replacement
        n_subs += 1
    read = DnaSequence(codes)

    true_ed = edit_distance(segment, read)
    hd = hamming_distance(segment, read)
    estimate = ed_star(segment, read)
    print(f"  injected {n_subs} substitutions: "
          f"ED={true_ed}, HD={hd}, ED*={estimate}")
    assert estimate < true_ed, "ED* hides substitutions"

    threshold = estimate  # between ED* and ED -> EDAM false positive
    model = ErrorModel(substitution=0.05)  # substitution-dominant
    plain = AsmCapMatcher(build_array(segments), model,
                          MatcherConfig.plain(), seed=2)
    full = AsmCapMatcher(build_array(segments), model,
                         MatcherConfig(enable_tasr=False), seed=2)
    fp = plain.match(read.codes, threshold).decisions[3]
    print(f"  T={threshold}: plain ED* decision = "
          f"{'match (FALSE POSITIVE)' if fp else 'mismatch'}")
    assert fp, "the hidden substitutions should fool plain ED*"

    # Algorithm 1 selects the Hamming decision with probability p, so
    # the correction is itself probabilistic — measure its rate over
    # 400 copies of the read, each keyed by its position in the block.
    p = full.hdac_probability(threshold)
    trials = 400
    outcome = full.match_batch(np.tile(read.codes, (trials, 1)), threshold)
    rate = float((~outcome.decisions[:, 3]).mean())
    print(f"  HDAC corrects the FP in {rate * 100:.0f}% of searches "
          f"(expected p = {p * 100:.0f}%)")
    assert abs(rate - p) < 0.1, "correction rate should track p"


def tasr_demo(segments: np.ndarray) -> None:
    print("=" * 64)
    print("TASR demo (Fig. 6): consecutive deletions")
    segment = DnaSequence(segments[5])
    rng = np.random.default_rng(3)
    # Delete two consecutive bases mid-read; pad the tail.
    codes = np.concatenate([
        segment.codes[:30], segment.codes[32:],
        rng.integers(0, 4, 2).astype(np.uint8),
    ])
    read = DnaSequence(codes)

    true_ed = edit_distance(segment, read)
    estimate = ed_star(segment, read)
    print(f"  2-base deletion burst: ED={true_ed}, ED*={estimate}")
    assert estimate > true_ed, "consecutive indels inflate ED*"

    model = ErrorModel(insertion=0.005, deletion=0.005)  # indel-dominant
    matcher = AsmCapMatcher(build_array(segments), model,
                            MatcherConfig(enable_hdac=False), seed=4)
    lower_bound = matcher.tasr_lower_bound()
    print(f"  TASR lower bound Tl = {lower_bound}")

    # Below Tl: no rotations (FP protection), decision follows plain ED*.
    below = matcher.match(read.codes, max(0, lower_bound - 1))
    # At/above Tl: rotations fire and recover the alignment.
    above = matcher.match(read.codes, lower_bound)
    # HDAC is off, so every search beyond the base one is a rotation.
    print(f"  T={lower_bound - 1} (< Tl): rotations "
          f"{'fired' if below.n_searches > 1 else 'suppressed'},"
          f" decision = {'match' if below.decisions[5] else 'mismatch'}")
    print(f"  T={lower_bound} (>= Tl): rotations "
          f"{'fired' if above.n_searches > 1 else 'suppressed'},"
          f" {above.n_searches} searches,"
          f" decision = {'match' if above.decisions[5] else 'mismatch'}")
    assert above.n_searches > 1
    assert above.decisions[5], "rotation should recover the alignment"


def main() -> None:
    reference = generate_reference(N_SEGMENTS * READ_LENGTH + 256, seed=11,
                                   with_repeats=False)
    segments = np.stack([
        reference.codes[i * READ_LENGTH:(i + 1) * READ_LENGTH]
        for i in range(N_SEGMENTS)
    ])
    hdac_demo(segments)
    tasr_demo(segments)
    print("=" * 64)
    print("OK: both corrections behave exactly as Figs. 5-6 describe.")


if __name__ == "__main__":
    main()
