"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload map-stream --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is a separate run that wraps the public callables listed in
``perfbench/probes.py`` and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Span dumps and
the frontend's store file go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics in output order: (name, unit).
E2E_METRICS = (
    ("setup_s", "s"),
    ("reads_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_pj_per_read", "pJ/read"),
    ("sim_ns_per_read", "ns/read"),
    ("f1_asmcap", "ratio"),
    ("f1_edam", "ratio"),
    ("success_rate", "ratio"),
)

#: Paper values printed beside the simulated metrics.
PAPER_NOTES = {
    "f1_asmcap": "paper Fig. 7 average F1: 0.876",
    "f1_edam": "paper Fig. 7 average F1: 0.747",
    "sim_pj_per_read": "model only, not validated against silicon: no error figure",
    "sim_ns_per_read": "model only, not validated against silicon: no error figure",
}

#: Setups per end-to-end run; setup_s is their median.
N_SETUPS = 16


@dataclass
class Phase:
    latencies: "list[float]"
    reads: int
    failed: "set[int]"
    window: "tuple[float, float]"

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]


def timed_loop(workload, seconds: float, min_units: int, tracer=None) -> Phase:
    """Closed loop: the next unit starts when the previous one returns.

    Runs for *seconds*, and at least *min_units* units.
    """
    latencies: "list[float]" = []
    failed: "set[int]" = set()
    reads = 0
    start = time.perf_counter()
    u = 0
    while u < min_units or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.unit = u
        t0 = time.perf_counter()
        try:
            reads += workload.unit(u)
        except Exception:  # a failed unit is counted; the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed.add(u)
        latencies.append(time.perf_counter() - t0)
        if u not in failed:
            workload.observe(u)
        u += 1
    return Phase(latencies, reads, failed, (start, time.perf_counter()))


def fresh_setup(workload) -> float:
    """Tear down, clear the cached kernel autotune, set up; seconds taken."""
    from repro.arch import autotune

    workload.teardown()
    autotune._PLANNED_BACKEND = None  # every setup pays the autotune
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def check_outcome(workload, phase: Phase) -> "tuple[int, int, list[str]]":
    """(attempted, failed, notes): failed units plus failed checks."""
    checked, failed_checks, notes = workload.check()
    failed = phase.failed | failed_checks
    notes.append(f"{checked} units checked, {len(failed_checks)} failed")
    return len(phase.latencies), len(failed), notes


def guarded(errors: "list[str]", fn, default):
    """``fn()``, or *default* with the error noted when it raises."""
    try:
        return fn()
    except Exception as exc:  # a failed figure is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
        return default


def run_end_to_end(workload, seconds: float) -> "tuple[dict, dict, list]":
    from repro.arch.autotune import plan_backend

    from perfbench.measure import median, peak_rss_mb, percentile
    from perfbench.workloads import Quality

    setups, backends = [], []

    def set_up(n: int) -> None:
        for _ in range(n):
            setups.append(fresh_setup(workload))
            backends.append(plan_backend())

    # Half the setups run before the timed phase (the last one serves
    # it), half after the checks, so a slow spell of the host does not
    # hit them all.
    set_up(N_SETUPS // 2)
    phase = timed_loop(workload, seconds, workload.min_units)
    rss = peak_rss_mb()
    attempted, failed, notes = check_outcome(workload, phase)
    errors: "list[str]" = []
    quality = guarded(errors, workload.quality, Quality(0.0, 0.0, 0, 0.0, 0.0, 0))
    latencies = workload.latencies(phase.latencies)
    p50, p90 = (guarded(errors, lambda q=q: percentile(latencies, q) * 1e3, 0.0)
                for q in (50, 90))
    set_up(N_SETUPS - N_SETUPS // 2)
    failed = min(attempted, failed + len(errors))
    notes += [f"figure not computed: {error}" for error in errors]
    n = len(latencies)
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "reads_per_s": (phase.reads / phase.wall, phase.reads),
        "batch_p50_ms": (p50, n),
        "batch_p90_ms": (p90, n),
        "peak_rss_mb": (rss, 1),
        "sim_pj_per_read": (quality.sim_pj_per_read, quality.sim_reads),
        "sim_ns_per_read": (quality.sim_ns_per_read, quality.sim_reads),
        "f1_asmcap": (quality.f1_asmcap, quality.f1_samples),
        "f1_edam": (quality.f1_edam, quality.f1_samples),
        "success_rate": ((attempted - failed) / attempted, attempted),
    }
    choices = {"plan_backend": sorted(set(backends)), **workload.choices()}
    return metrics, choices, [attempted, failed, notes]


def run_traced(workload, seconds: float) -> "tuple[dict, dict, list]":
    """Untraced then traced halves of one run; per-layer metrics."""
    from repro.arch.autotune import plan_backend

    from perfbench.measure import median
    from perfbench.probes import (
        LAYER_METRICS,
        PROBES,
        UNREACHED_PROBES,
        WORKLOAD_SPANS,
        entered_spans,
        layer_values,
    )
    from perfbench.spans import Tracer
    from perfbench.workloads import PASS_UNITS

    half = seconds / 2.0
    fresh_setup(workload)
    baseline = timed_loop(workload, half, 1)
    workload.teardown()
    tracer = Tracer()
    tracer.install(PROBES)
    try:
        fresh_setup(workload)
        phase = timed_loop(workload, half, PASS_UNITS, tracer)
    finally:
        tracer.restore()
    extra = workload.layer_extra()
    extra["bench.trace_overhead"] = (median(phase.latencies)
                                     / median(baseline.latencies))
    values = layer_values(tracer, phase.window, extra)
    attempted, failed, notes = check_outcome(workload, phase)
    notes += [f"probe target missing: {key}" for key in tracer.missing]
    notes += [f"expected span never entered: {name}"
              for name in sorted(WORKLOAD_SPANS[workload.name]
                                 - entered_spans(tracer))]
    notes.append(f"{len(tracer.spans)} spans recorded")
    notes += [f"probe no workload reaches: {key} ({why})"
              for key, why in UNREACHED_PROBES.items()]
    tracer.write(os.path.join(ROOT, ".perfbench",
                              f"spans-{workload.name}.jsonl"))
    metrics = {name: (values[name], len(phase.latencies))
               for name, _unit in LAYER_METRICS}
    choices = {"plan_backend": [plan_backend()], **workload.choices()}
    return metrics, choices, [attempted, failed, notes]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]

    from perfbench.measure import config_flags, config_record
    from perfbench.probes import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, choices, (attempted, failed, notes) = run(workload,
                                                           args.seconds)
    finally:
        workload.teardown()

    record = config_record(args.workload, {**choices, "seed": args.seed,
                                           "trace": args.trace})
    flags = config_flags(record)
    units = dict(LAYER_METRICS if args.trace else E2E_METRICS)
    print(f"config: {json.dumps(record, sort_keys=True)}")
    for flag in flags:
        print(f"config-flag: {flag}")
    for note in notes:
        print(f"note: {note}")
    print(f"{'metric':<28} {'value':>16} {'unit':<6} {'samples':>8}")
    for name, (value, samples) in metrics.items():
        extra = PAPER_NOTES.get(name, "")
        print(f"{name:<28} {value:>16.6g} {units[name]:<6} {samples:>8}  {extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
