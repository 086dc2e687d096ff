"""Ablation bench: sensing-noise models and the hardware F1 gap.

Reproduces the 'ASMCap w/o strategies vs EDAM' hardware-only gap and
shows how it responds to the noise model: the charge domain at the
paper's 1.4 % capacitor sigma, the current domain at its 2.5 % noise
floor, the optimistic count-dependent current model, and inflated
capacitor variation (where ASMCap's advantage should erode).
"""

from __future__ import annotations

import numpy as np

from repro.cam.array import CamArray
from repro.cam.variation import CurrentDomainVariation
from repro.eval.confusion import confusion_series
from repro.eval.ground_truth import label_dataset
from repro.eval.reporting import format_table

THRESHOLDS = (1, 2, 3, 4)


def _mean_f1_with_array(dataset, truth, array):
    from repro.cam.cell import MatchMode
    reads = np.stack([record.read.codes for record in dataset.reads])
    decisions = array.search_sweep(reads, np.asarray(THRESHOLDS),
                                   MatchMode.ED_STAR).matches
    labels = np.stack([truth.labels(t) for t in THRESHOLDS])
    return float(np.mean([m.f1 for m in confusion_series(decisions, labels)]))


def bench_noise_models(benchmark, bench_dataset_a):
    dataset = bench_dataset_a
    truth = label_dataset(dataset, max(THRESHOLDS))

    def build(domain, sigma=None, count_dependent=False, seed=0):
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         domain=domain, sigma_rel=sigma, seed=seed)
        if count_dependent:
            array._variation = CurrentDomainVariation(count_dependent=True)
        array.store(dataset.segments)
        return array

    def sweep():
        return {
            "charge 1.4% (ASMCap)": _mean_f1_with_array(
                dataset, truth, build("charge")),
            "charge 10%": _mean_f1_with_array(
                dataset, truth, build("charge", sigma=0.10, seed=1)),
            "current floor (EDAM)": _mean_f1_with_array(
                dataset, truth, build("current", seed=2)),
            "current count-dep.": _mean_f1_with_array(
                dataset, truth, build("current", count_dependent=True,
                                      seed=3)),
            "ideal (no noise)": _mean_f1_with_array(
                dataset, truth,
                CamArrayNoNoise(dataset)),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The hardware ordering the paper's Section V-D analysis implies.
    # A single Monte-Carlo draw has a few-percent spread (current-domain
    # noise occasionally flips a decision the right way), so allow a
    # small tolerance on the pairwise comparisons.
    assert results["charge 1.4% (ASMCap)"] >= \
        results["current floor (EDAM)"] - 0.03
    assert results["ideal (no noise)"] >= \
        results["current floor (EDAM)"] - 0.03
    # The charge domain at paper sigma is essentially ideal.
    assert abs(results["charge 1.4% (ASMCap)"]
               - results["ideal (no noise)"]) < 0.02
    print()
    print(format_table(
        ["noise model", "mean F1 (T=1..4)"],
        list(results.items()),
        title="Sensing-noise ablation, Condition A",
    ))


def CamArrayNoNoise(dataset):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=False)
    array.store(dataset.segments)
    return array
