"""Bench: regenerate Fig. 8 (system-level speedup and energy bars).

Two entry points:

* ``pytest benchmarks/bench_fig8_system.py --benchmark-only`` — the
  pytest-benchmark harness (``bench_fig8``);
* ``python benchmarks/bench_fig8_system.py [--smoke]`` — a standalone
  driver for CI's bench-smoke job and the nightly lane: times
  ``compute_fig8``, checks ordering and that every ratio, without and
  with the HDAC/TASR strategies, sits within 3x of the paper's
  reported anchor.

Usage::

    python benchmarks/bench_fig8_system.py            # timed repeats
    python benchmarks/bench_fig8_system.py --smoke    # single CI pass
"""

from __future__ import annotations

import argparse
import sys
import time

from conftest import add_json_argument, write_bench_json
from repro import constants
from repro.experiments.fig8 import SYSTEMS, compute_fig8

#: (system, anchor key) of the baselines the paper compares against.
BASELINES = (("CM-CPU", "cm_cpu"), ("ReSMA", "resma"),
             ("SaVI", "savi"), ("EDAM", "edam"))


def check_result(result) -> None:
    """Ordering + paper-anchor assertions shared by both entry points."""
    latencies = [result.costs[name].latency_ns for name in SYSTEMS[:5]]
    assert all(a > b for a, b in zip(latencies, latencies[1:], strict=False))
    for system, speedups, efficiencies in (
            ("ASMCap w/o H&T", constants.FIG8_SPEEDUP_NO_STRATEGY,
             constants.FIG8_ENERGY_EFF_NO_STRATEGY),
            ("ASMCap w/ H&T", constants.FIG8_SPEEDUP_WITH_STRATEGY,
             constants.FIG8_ENERGY_EFF_WITH_STRATEGY)):
        for name, key in BASELINES:
            measured = result.speedup_over(name, system)
            anchor = speedups[key]
            assert anchor / 3 <= measured <= anchor * 3, (system, name)
            measured_e = result.energy_efficiency_over(name, system)
            anchor_e = efficiencies[key]
            assert anchor_e / 3 <= measured_e <= anchor_e * 3, (system, name)


def bench_fig8(benchmark):
    result = benchmark(compute_fig8)
    check_result(result)
    print()
    print(result.render())


def timed(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single pass (CI hot-path check)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions (best taken)")
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else args.repeats

    fig8_s, result = timed(compute_fig8, repeats)
    check_result(result)

    print("\nbench_fig8_system: Fig. 8 regeneration "
          f"({'smoke' if args.smoke else f'best of {repeats}'}): "
          f"{fig8_s:.3f} s")
    print()
    print(result.render())
    print("\nOK: ordering and paper anchors (within 3x, without and with "
          "strategies)")
    write_bench_json(
        args.json, bench="bench_fig8_system",
        config={"smoke": args.smoke, "repeats": repeats},
        timings={"fig8_s": fig8_s},
        derived={"checks_passed": True},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
