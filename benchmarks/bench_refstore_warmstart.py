"""Bench: cold-start boot (FASTA → encode → save) vs warm-start mmap.

The reference store (:mod:`repro.refstore`) exists to delete the
encode pass from service boot: the **first** boot parses the
reference FASTA, one-hot-encodes it and saves the store file
(:func:`repro.refstore.save_stored_reference`); every later boot maps
that file back via ``mmap`` — zero copy, zero encode.  This bench
measures both boot paths end to end, through the first mapped
micro-batch:

* **cold start** — parse the reference FASTA, encode, persist the
  store file, map the first read batch (the boot that *creates* the
  store);
* **warm start** — ``open_stored_reference`` the file, map the same
  first batch over the mapped arrays (every boot after the first).

Both paths run the same matcher configuration and seed, so the
contract is checked, not just the clock:

* **bit-identity** (always asserted) — the warm report must equal the
  cold report exactly: per-read matched rows, decisions, energy,
  latency;
* **encode-free** (always asserted) — the warm reference's
  ``n_encodes`` must be 0 before *and after* the batch;
* **speedup** (``--min-speedup``, default 10x, disabled under
  ``--smoke``) — warm boot must beat cold boot by the factor the PR
  promises at bench scale.

Usage::

    python benchmarks/bench_refstore_warmstart.py           # full gate
    python benchmarks/bench_refstore_warmstart.py --smoke   # CI identity
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from conftest import add_json_argument, write_bench_json
from repro.cam.array import StoredReference
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import ReadMappingPipeline
from repro.genome import ErrorModel, generate_reference
from repro.genome.io_fasta import FastaRecord, parse_fasta, write_fasta
from repro.refstore import open_stored_reference, save_stored_reference


def reports_identical(a, b) -> bool:
    if (a.n_reads, a.n_mapped, a.n_unique, a.n_searches) != \
            (b.n_reads, b.n_mapped, b.n_unique, b.n_searches):
        return False
    if (a.total_energy_joules, a.total_latency_ns) != \
            (b.total_energy_joules, b.total_latency_ns):
        return False
    for left, right in zip(a.mappings, b.mappings, strict=True):
        if left.matched_rows != right.matched_rows:
            return False
        if not np.array_equal(left.outcome.decisions,
                              right.outcome.decisions):
            return False
    return True


def first_batch(reference: StoredReference, model, reads,
                threshold: int, seed: int):
    """Boot-critical tail: build the matcher and map the first batch."""
    matcher = AsmCapMatcher.over_stored(reference, model, seed=seed)
    return ReadMappingPipeline(matcher).run_batched(reads, threshold)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=2,
                        help="reads in the boot-latency probe batch")
    parser.add_argument("--read-length", type=int, default=256)
    parser.add_argument("--segments", type=int, default=4096)
    parser.add_argument("--threshold", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per path (best taken)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI hot-path checks; "
                             "disables the speedup gate (identity and "
                             "encode-freedom still asserted)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail unless warm boot beats cold boot by "
                             "this factor (0 disables)")
    add_json_argument(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        args.reads, args.read_length, args.segments = 2, 64, 48
        args.repeats = 1
        args.min_speedup = 0.0

    n_bases = args.segments * args.read_length
    reference = generate_reference(n_bases, seed=21)
    model = ErrorModel.condition_a()
    # The probe batch: true reference rows, so identity is checked on
    # reads that actually match.
    reads = np.stack([
        reference.codes[i * args.read_length:(i + 1) * args.read_length]
        for i in range(args.reads)
    ])

    with tempfile.TemporaryDirectory() as tmp:
        fasta_path = os.path.join(tmp, "reference.fa")
        write_fasta([FastaRecord("chr1", reference)], fasta_path)
        store_path = os.path.join(tmp, "reference.asmcap")

        def cold_boot():
            sequence = parse_fasta(fasta_path)[0].sequence
            segments = sequence.codes[:n_bases].reshape(
                args.segments, args.read_length)
            stored = StoredReference.encode(segments)
            save_stored_reference(store_path, stored)
            return first_batch(stored, model, reads, args.threshold,
                               args.seed)

        def warm_boot():
            with open_stored_reference(store_path) as mapped:
                report = first_batch(mapped.reference, model, reads,
                                     args.threshold, args.seed)
                return report, mapped.reference.n_encodes, mapped.nbytes

        cold_s = float("inf")
        cold_report = None
        for _ in range(max(1, args.repeats)):
            start = time.perf_counter()
            cold_report = cold_boot()
            cold_s = min(cold_s, time.perf_counter() - start)

        warm_s = float("inf")
        warm_report = None
        warm_encodes = -1
        store_bytes = 0
        for _ in range(max(1, args.repeats)):
            start = time.perf_counter()
            warm_report, warm_encodes, store_bytes = warm_boot()
            warm_s = min(warm_s, time.perf_counter() - start)

    speedup = cold_s / warm_s if warm_s else float("inf")
    identical = reports_identical(cold_report, warm_report)
    encode_free = warm_encodes == 0

    print(f"\nbench_refstore_warmstart: {args.segments} segments x "
          f"{args.read_length} bases ({n_bases / 1e6:.1f} Mbase), "
          f"{args.reads}-read probe batch, T={args.threshold}, "
          f"store {store_bytes / (1 << 20):.1f} MiB")
    print(f"{'path':<28} {'boot+batch s':>13} {'speedup':>9}")
    print(f"{'cold (parse+encode+save)':<28} {cold_s:>13.4f} {'1.0x':>9}")
    print(f"{'warm (mmap open)':<28} {warm_s:>13.4f} {speedup:>8.1f}x")
    print(f"warm n_encodes: {warm_encodes}   "
          f"bit-identical: {identical}")

    failed = False
    if not identical:
        print("FAIL: warm-start report is not bit-identical to the "
              "cold-start report", file=sys.stderr)
        failed = True
    if not encode_free:
        print(f"FAIL: warm path ran {warm_encodes} encode pass(es); "
              f"the store exists so it runs zero", file=sys.stderr)
        failed = True
    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: warm-start speedup {speedup:.1f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        failed = True

    write_bench_json(
        args.json, bench="bench_refstore_warmstart",
        config={"reads": args.reads, "read_length": args.read_length,
                "segments": args.segments, "threshold": args.threshold,
                "seed": args.seed, "repeats": args.repeats,
                "smoke": args.smoke, "min_speedup": args.min_speedup},
        timings={"cold_boot_s": cold_s, "warm_boot_s": warm_s},
        derived={"speedup": speedup, "bit_identical": identical,
                 "warm_n_encodes": warm_encodes,
                 "store_bytes": store_bytes,
                 "gate_passed": not failed},
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
