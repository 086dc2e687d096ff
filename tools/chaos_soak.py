#!/usr/bin/env python
"""Chaos soak: seeded fault schedules across the full service matrix.

Fans ``--schedules`` generated :class:`~repro.faults.plan.FaultPlan`
schedules across the :data:`~repro.faults.scenarios.SCENARIOS` chaos
matrix (one scenario per route: the batched engine on the stream,
store, catalog and frontend routes — store truncation and CRC flips,
poisoned opens and reads, slow batches) and judges every run with the
:class:`~repro.faults.checker.InvariantChecker` trichotomy: each
injected fault must either **surface** as its documented typed error
or be **tolerated** with results bit-identical to the fault-free
baseline — anything else (undocumented error type, silent result
drift, leaked shm segment / process / thread / catalog lease) is a
violation and fails the soak.

Schedule ``i`` runs scenario ``SCENARIOS[i % len]`` under plan seed
``seed * 1_000_003 + i`` — fully deterministic, so one integer
reproduces any soak exactly.  After the sweep a reproducibility pass
re-runs a sample of the schedules and demands byte-identical verdict
records; nondeterminism in the harness itself is a failure too.

Usage::

    PYTHONPATH=src python tools/chaos_soak.py                  # 24 schedules
    PYTHONPATH=src python tools/chaos_soak.py --schedules 64
    PYTHONPATH=src python tools/chaos_soak.py --seed 7 --json out.json
    PYTHONPATH=src python tools/chaos_soak.py --smoke          # CI tier-1

Exit status is non-zero if any verdict is not ok or the replay pass
diverges.  ``--json`` writes the full verdict records (the nightly
``chaos-soak`` artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.checker import InvariantChecker  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.faults.scenarios import SCENARIOS, get_scenario  # noqa: E402

#: Schedule *i* of a soak seeded *s* uses plan seed ``s*STRIDE + i``
#: (a prime stride keeps soak seeds from aliasing each other's plans).
SEED_STRIDE = 1_000_003

#: ``--smoke`` keeps CI fast: fewer schedules and a smaller replay
#: sample.
SMOKE_SCHEDULES = 8

#: How many schedules the reproducibility pass replays.
REPLAY_SAMPLE = 4


def plan_for(schedule: int, seed: int, scenario) -> FaultPlan:
    return FaultPlan.generate(
        seed * SEED_STRIDE + schedule,
        kinds=scenario.fault_kinds,
        max_hits=scenario.max_hits,
        points=scenario.reachable_points,
    )


def run_schedule(checker: InvariantChecker, schedule: int, seed: int,
                 scenarios=SCENARIOS) -> "dict[str, object]":
    scenario = scenarios[schedule % len(scenarios)]
    plan = plan_for(schedule, seed, scenario)
    started = time.perf_counter()
    verdict = checker.check(scenario, plan)
    record = verdict.describe()
    record["schedule"] = schedule
    record["plan"] = [fault.describe() for fault in plan.faults]
    record["elapsed_s"] = round(time.perf_counter() - started, 3)
    return record


def _stable(record: "dict[str, object]") -> "dict[str, object]":
    """A record minus its timing — the part replay must reproduce."""
    return {key: value for key, value in record.items()
            if key != "elapsed_s"}


def run_soak(schedules: int, seed: int, scenarios=SCENARIOS,
             log=print) -> "tuple[list[dict], list[str]]":
    """Run the sweep + replay pass; return (records, failures)."""
    checker = InvariantChecker()
    records: "list[dict[str, object]]" = []
    failures: "list[str]" = []
    for schedule in range(schedules):
        record = run_schedule(checker, schedule, seed, scenarios)
        records.append(record)
        status = "ok " if record["ok"] else "FAIL"
        log(f"[{schedule:3d}] {status} {record['scenario']:<36} "
            f"{record['verdict']:<9} "
            f"fired={len(record['fired'])} "
            f"({record['elapsed_s']:.2f}s)")
        if not record["ok"]:
            failures.append(
                f"schedule {schedule} ({record['scenario']}): "
                f"{record['verdict']} {record['detail']} "
                f"hygiene={record['hygiene']}"
            )

    # Reproducibility: same seed => same schedule => same verdict,
    # byte for byte.  A fresh checker rebuilds its own baselines.
    replay = InvariantChecker()
    step = max(1, schedules // REPLAY_SAMPLE)
    for schedule in range(0, schedules, step):
        again = run_schedule(replay, schedule, seed, scenarios)
        if _stable(again) != _stable(records[schedule]):
            failures.append(
                f"schedule {schedule} is nondeterministic: replay "
                f"produced {_stable(again)!r} vs "
                f"{_stable(records[schedule])!r}"
            )
    log(f"replayed {len(range(0, schedules, step))} schedules "
        f"for determinism")
    return records, failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--schedules", type=int, default=24,
                        help="seeded fault schedules to run (default 24)")
    parser.add_argument("--seed", type=int, default=0,
                        help="soak seed; one integer reproduces the "
                        "whole sweep (default 0)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tier-1 mode: {SMOKE_SCHEDULES} schedules")
    parser.add_argument("--json", type=Path, default=None,
                        metavar="PATH",
                        help="write the verdict records as JSON")
    parser.add_argument("--scenario", default=None,
                        help="pin every schedule to one scenario name "
                        "(debugging)")
    args = parser.parse_args(argv)

    schedules = SMOKE_SCHEDULES if args.smoke else args.schedules
    if schedules <= 0:
        parser.error("--schedules must be positive")
    scenarios = (SCENARIOS if args.scenario is None
                 else (get_scenario(args.scenario),))

    records, failures = run_soak(schedules, args.seed, scenarios)

    verdicts = [record["verdict"] for record in records]
    summary = {
        "seed": args.seed,
        "smoke": args.smoke,
        "schedules": schedules,
        "scenarios": sorted({r["scenario"] for r in records}),
        "surfaced": verdicts.count("surfaced"),
        "tolerated": verdicts.count("tolerated"),
        "violations": verdicts.count("violation"),
        "failures": failures,
    }
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps({"version": 1, "summary": summary,
                        "records": records}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")

    print(f"chaos soak: {schedules} schedules, "
          f"{summary['surfaced']} surfaced, "
          f"{summary['tolerated']} tolerated, "
          f"{summary['violations']} violations")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: every fault surfaced or was tolerated; no leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
