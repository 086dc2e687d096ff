#!/usr/bin/env python
"""Read mapping with provenance scoring and a baseline shoot-out.

Maps an edit-injected read batch against a stored reference with four
systems — ASMCap (full), ASMCap w/o strategies, EDAM, and the SaVI
seed-and-vote baseline — then scores each against exact edit-distance
ground truth and prints an accuracy/cost comparison table.

This is the Fig. 7 experiment in miniature, exposed as a worked example
of the library's evaluation machinery.

Run:  python examples/read_mapping.py
"""

from __future__ import annotations


from repro.baselines import EdamMatcher, SaviBaseline
from repro.cam import CamArray
from repro.core import AsmCapMatcher, MatcherConfig, ReadMappingPipeline
from repro.eval import ConfusionMatrix, format_table, label_dataset
from repro.genome import build_dataset

THRESHOLD = 6


def main() -> None:
    dataset = build_dataset("B", n_reads=48, read_length=256,
                            n_segments=64, seed=42)
    truth = label_dataset(dataset, THRESHOLD)
    labels = truth.labels(THRESHOLD)
    print(f"dataset: {len(dataset.reads)} Condition-B reads vs "
          f"{dataset.n_segments} segments; "
          f"{int(labels.sum())} true matches at T={THRESHOLD}")

    # --- ASMCap, full strategies --------------------------------------
    array_full = CamArray(rows=64, cols=256, domain="charge", seed=1)
    array_full.store(dataset.segments)
    asmcap = AsmCapMatcher(array_full, dataset.model, MatcherConfig(),
                           seed=2)

    # --- ASMCap w/o strategies --------------------------------------
    array_plain = CamArray(rows=64, cols=256, domain="charge", seed=1)
    array_plain.store(dataset.segments)
    plain = AsmCapMatcher(array_plain, dataset.model,
                          MatcherConfig.plain(), seed=2)

    # --- EDAM ----------------------------------------------------------
    edam = EdamMatcher(rows=64, cols=256, seed=1)
    edam.store(dataset.segments)

    # --- SaVI ----------------------------------------------------------
    savi = SaviBaseline(dataset.reference, k=16)

    rows = []
    systems = {
        "ASMCap w/ H&T": lambda read: asmcap.match(read, THRESHOLD),
        "ASMCap w/o H&T": lambda read: plain.match(read, THRESHOLD),
        "EDAM": lambda read: edam.match(read, THRESHOLD),
    }
    for name, match in systems.items():
        matrix = ConfusionMatrix()
        energy = latency = 0.0
        for index, record in enumerate(dataset.reads):
            outcome = match(record.read.codes)
            matrix.update(outcome.decisions, labels[index])
            energy += outcome.energy_joules
            latency += outcome.latency_ns
        rows.append((name, matrix.f1 * 100, matrix.sensitivity * 100,
                     matrix.precision * 100,
                     latency / len(dataset.reads),
                     energy / len(dataset.reads) * 1e12))

    # SaVI produces positional decisions rather than CAM row decisions.
    savi_matrix = ConfusionMatrix()
    savi_latency = savi_energy = 0.0
    for index, record in enumerate(dataset.reads):
        decisions = savi.decisions_for_segments(record.read, 64, 256)
        savi_matrix.update(decisions, labels[index])
        savi_latency += savi.read_latency_ns(256)
        savi_energy += savi.read_energy_joules(256)
    rows.append(("SaVI (seed-and-vote)", savi_matrix.f1 * 100,
                 savi_matrix.sensitivity * 100,
                 savi_matrix.precision * 100,
                 savi_latency / len(dataset.reads),
                 savi_energy / len(dataset.reads) * 1e12))

    print()
    print(format_table(
        ["system", "F1 %", "sens %", "prec %", "ns/read", "pJ/read"],
        rows, title=f"Read mapping at T={THRESHOLD} (Condition B)",
    ))

    # The pipeline view: where did each read land?
    pipeline = ReadMappingPipeline(asmcap)
    report = pipeline.run_batched(dataset.reads, THRESHOLD)
    print(f"pipeline: {report.mapped_fraction * 100:.0f}% of reads mapped, "
          f"{report.unique_fraction * 100:.0f}% uniquely; "
          f"{report.n_searches} searches total")


if __name__ == "__main__":
    main()
