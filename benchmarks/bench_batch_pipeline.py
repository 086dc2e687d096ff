"""Bench: scalar vs batched vs sharded read-mapping throughput.

Wall-clock comparison of the three execution models of
:mod:`repro.core.pipeline` on one workload:

* **scalar** — one read per call: a one-row
  ``ReadMappingPipeline.run_batched`` per read, keyed by its index;
* **batched** — one vectorised ``match_batch`` over the whole block
  (``ReadMappingPipeline.run_batched``);
* **sharded** — the reference partitioned across CAM-array shards
  searched by concurrent workers (``ShardedReadMappingPipeline.run``).

Scalar and batched make bit-identical decisions (the same keys); this
bench measures simulator throughput (reads mapped per wall-clock
second), not modelled hardware latency.

Usage::

    python benchmarks/bench_batch_pipeline.py              # full sizes
    python benchmarks/bench_batch_pipeline.py --smoke      # tiny CI run
    python benchmarks/bench_batch_pipeline.py \
        --reads 1000 --shards 4 --min-batched-speedup 5.0  # regression gate
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from conftest import add_json_argument, write_bench_json
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import (
    MappingReport,
    ReadMappingPipeline,
    ShardedReadMappingPipeline,
)
from repro.genome.datasets import build_dataset


def build_workload(n_reads: int, read_length: int, n_segments: int,
                   condition: str, seed: int):
    dataset = build_dataset(condition, n_reads=n_reads,
                            read_length=read_length,
                            n_segments=n_segments, seed=seed)
    reads = np.stack([record.read.codes for record in dataset.reads])
    return dataset, reads


def timed(label: str, fn, repeats: int):
    """Best-of-``repeats`` wall time (robust against machine noise)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return label, best, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=1000)
    parser.add_argument("--read-length", type=int, default=128)
    parser.add_argument("--segments", type=int, default=128)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--threshold", type=int, default=8)
    parser.add_argument("--condition", default="A", choices=("A", "B"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per path (best taken)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI hot-path checks")
    parser.add_argument("--min-batched-speedup", type=float, default=0.0,
                        help="fail unless batched/scalar >= this factor")
    parser.add_argument("--min-sharded-speedup", type=float, default=0.0,
                        help="fail unless sharded/scalar >= this factor")
    add_json_argument(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        args.reads, args.read_length, args.segments = 64, 64, 32

    dataset, reads = build_workload(args.reads, args.read_length,
                                    args.segments, args.condition,
                                    args.seed)

    def scalar_run():
        array = CamArray(rows=args.segments, cols=args.read_length,
                         domain="charge", noisy=True, seed=args.seed)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=args.seed)
        pipeline = ReadMappingPipeline(matcher)
        report = MappingReport()
        for index in range(reads.shape[0]):
            one = pipeline.run_batched(reads[index:index + 1],
                                       args.threshold,
                                       first_read_index=index)
            report.add(one.mappings[0])
        return report

    def batched_run():
        array = CamArray(rows=args.segments, cols=args.read_length,
                         domain="charge", noisy=True, seed=args.seed)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=args.seed)
        return ReadMappingPipeline(matcher).run_batched(reads,
                                                        args.threshold)

    def sharded_run():
        with ShardedReadMappingPipeline(
                dataset.segments, dataset.model, n_shards=args.shards,
                noisy=True, seed=args.seed) as pipeline:
            return pipeline.run(reads, args.threshold)

    rows = [
        timed("scalar", scalar_run, args.repeats),
        timed("batched", batched_run, args.repeats),
        timed(f"sharded(x{args.shards})", sharded_run, args.repeats),
    ]

    base = rows[0][1]
    print(f"\nbench_batch_pipeline: {args.reads} reads x "
          f"{args.segments} segments x {args.read_length} bases, "
          f"T={args.threshold}, condition {args.condition}")
    print(f"{'path':<14} {'seconds':>9} {'reads/s':>12} {'speedup':>9} "
          f"{'mapped':>7}")
    for label, elapsed, report in rows:
        print(f"{label:<14} {elapsed:>9.3f} "
              f"{args.reads / elapsed:>12.0f} {base / elapsed:>8.1f}x "
              f"{report.mapped_fraction:>7.2f}")

    batched_speedup = base / rows[1][1]
    sharded_speedup = base / rows[2][1]
    failed = False
    if args.min_batched_speedup and batched_speedup < args.min_batched_speedup:
        print(f"FAIL: batched speedup {batched_speedup:.1f}x < "
              f"{args.min_batched_speedup:.1f}x", file=sys.stderr)
        failed = True
    if args.min_sharded_speedup and sharded_speedup < args.min_sharded_speedup:
        print(f"FAIL: sharded speedup {sharded_speedup:.1f}x < "
              f"{args.min_sharded_speedup:.1f}x", file=sys.stderr)
        failed = True
    write_bench_json(
        args.json, bench="bench_batch_pipeline",
        config={"reads": args.reads, "read_length": args.read_length,
                "segments": args.segments, "shards": args.shards,
                "threshold": args.threshold,
                "condition": args.condition, "seed": args.seed,
                "repeats": args.repeats, "smoke": args.smoke},
        timings={label: elapsed for label, elapsed, _ in rows},
        derived={"batched_speedup": batched_speedup,
                 "sharded_speedup": sharded_speedup,
                 "mapped_fraction": rows[0][2].mapped_fraction,
                 "gate_passed": not failed},
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
