"""Ablation bench: V_ref placement — midpoint rule vs the paper's
literal ``V_ref = T/N * VDD``.

DESIGN.md documents the decision to centre the reference between
levels T and T+1; this bench quantifies it.  Under the strict rule a
boundary row (digital count exactly T) sits *on* the reference, so any
noise flips ~half of those decisions; the midpoint rule buys half a
level of margin.  The effect is dramatic in the current domain and
invisible in the (almost noise-free) charge domain.
"""

from __future__ import annotations

import numpy as np

from repro.cam.array import CamArray
from repro.eval.confusion import confusion_series
from repro.eval.ground_truth import label_dataset
from repro.eval.noise_margin import flip_probability
from repro.eval.reporting import format_table

THRESHOLDS = (1, 2, 3, 4)


def _mean_f1(dataset, truth, domain, strict, seed=0):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain=domain, noisy=True, seed=seed,
                     strict_paper_vref=strict)
    array.store(dataset.segments)
    reads = np.stack([record.read.codes for record in dataset.reads])
    decisions = array.search_sweep(reads, np.asarray(THRESHOLDS)).matches
    labels = np.stack([truth.labels(t) for t in THRESHOLDS])
    return float(np.mean([m.f1 for m in confusion_series(decisions, labels)]))


def bench_vref_placement(benchmark, bench_dataset_a):
    dataset = bench_dataset_a
    truth = label_dataset(dataset, max(THRESHOLDS))

    def sweep():
        return {
            ("charge", "midpoint"): _mean_f1(dataset, truth, "charge",
                                             False),
            ("charge", "strict"): _mean_f1(dataset, truth, "charge", True,
                                           seed=1),
            ("current", "midpoint"): _mean_f1(dataset, truth, "current",
                                              False, seed=2),
            ("current", "strict"): _mean_f1(dataset, truth, "current",
                                            True, seed=3),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Analytic prediction: strict rule flips boundary rows ~50 % in the
    # current domain, so midpoint must not be worse there.
    boundary_flip = float(flip_probability(2, 2, dataset.read_length,
                                           "current",
                                           strict_paper_rule=True))
    assert boundary_flip > 0.45
    assert results[("current", "midpoint")] >= \
        results[("current", "strict")] - 0.02
    # The charge domain barely notices either way.
    assert abs(results[("charge", "midpoint")]
               - results[("charge", "strict")]) < 0.12
    print()
    print(format_table(
        ["domain", "V_ref rule", "mean F1 (T=1..4)"],
        [(d, r, f1) for (d, r), f1 in results.items()],
        title="V_ref placement ablation, Condition A",
    ))
