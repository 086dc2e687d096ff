"""Command-line entry point: ``python -m repro.experiments <name>``.

Experiments: ``table1``, ``fig7``, ``fig8``, ``breakdown``, ``states``,
``summary`` (the Fig. 1(b)-style accuracy/efficiency recap), ``all``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import ablations, breakdown, fig7, fig8, states, table1

EXPERIMENTS = ("table1", "fig7", "fig8", "breakdown", "states",
               "summary", "ablations", "all")


def run_summary(n_runs: int, n_reads: int, n_segments: int,
                seed: int) -> str:
    """Fig. 1(b)-style recap: accuracy vs energy efficiency."""
    from repro.eval.reporting import format_ratio, format_table
    fig8_result = fig8.compute_fig8()
    a = fig7.run_fig7("A", n_runs=n_runs, n_reads=n_reads,
                      n_segments=n_segments, seed=seed)
    b = fig7.run_fig7("B", n_runs=n_runs, n_reads=n_reads,
                      n_segments=n_segments, seed=seed)
    mean_f1 = {
        name: (a.sweep.systems[name].mean_f1()
               + b.sweep.systems[name].mean_f1()) / 2 * 100
        for name in (fig7.SYSTEM_EDAM, fig7.SYSTEM_PLAIN, fig7.SYSTEM_FULL)
    }
    rows = []
    for display, cost_key in ((fig7.SYSTEM_EDAM, "EDAM"),
                              (fig7.SYSTEM_PLAIN, "ASMCap w/o H&T"),
                              (fig7.SYSTEM_FULL, "ASMCap w/ H&T")):
        rows.append((
            display, f"{mean_f1[display]:.1f} %",
            format_ratio(
                fig8_result.energy_efficiency_over("CM-CPU", cost_key)
            ),
        ))
    return format_table(
        ["System", "Mean F1 (A+B)", "Energy efficiency vs CM-CPU"],
        rows, title="Fig. 1(b)-style summary: accuracy vs efficiency",
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asmcap-experiments",
        description="Regenerate the ASMCap paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which artifact to regenerate")
    parser.add_argument("--condition", default="both",
                        choices=("A", "B", "both"),
                        help="fig7: which error condition")
    parser.add_argument("--runs", type=int, default=3,
                        help="Monte-Carlo repetitions (fig7/summary)")
    parser.add_argument("--reads", type=int, default=96,
                        help="reads per repetition (fig7/summary)")
    parser.add_argument("--segments", type=int, default=128,
                        help="stored segments (fig7/summary)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    outputs: list[str] = []
    if args.experiment in ("table1", "all"):
        outputs.append(table1.main())
    if args.experiment in ("fig7", "all"):
        outputs.append(fig7.main(condition=args.condition,
                                 n_runs=args.runs, n_reads=args.reads,
                                 n_segments=args.segments,
                                 seed=args.seed))
    if args.experiment in ("fig8", "all"):
        outputs.append(fig8.main())
    if args.experiment in ("breakdown", "all"):
        outputs.append(breakdown.main())
    if args.experiment in ("states", "all"):
        outputs.append(states.main())
    if args.experiment in ("summary", "all"):
        outputs.append(run_summary(args.runs, args.reads, args.segments,
                                   args.seed))
    if args.experiment == "ablations":
        outputs.append(ablations.main(seed=args.seed))
    print("\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
