"""Command-line entry point: ``python -m tools.contractlint``.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.  The
``--json`` document follows the repo's bench-JSON shape
(``{"bench", "config", "timings", "derived"}`` — see
``benchmarks/conftest.py``) with the findings appended, so the CI
artifact folds into the same tooling that trends the benchmarks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tools.contractlint.core import all_codes, run_lint


def _default_root() -> Path:
    # tools/contractlint/cli.py -> the repo root two levels up.
    return Path(__file__).resolve().parents[2]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.contractlint",
        description="Statically enforce the repo's determinism, "
                    "knob, error, layering and fault-hook contracts.",
    )
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="restrict the scan to these files (default: the whole "
             "tree; repo-wide checks only run on full scans)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: inferred from this file's location)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable {bench, config, timings, "
             "derived, findings} document to PATH",
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="print every stable error code and the contract it "
             "guards, then exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_codes:
        for code, contract in sorted(all_codes().items()):
            print(f"{code}  {contract}")
        return 0
    root = (args.root or _default_root()).resolve()
    if not (root / "pyproject.toml").is_file():
        print(f"contractlint: {root} does not look like the repo root "
              f"(no pyproject.toml)", file=sys.stderr)
        return 2
    files = [path for path in args.files] or None
    if files is not None:
        for path in files:
            if not path.is_file():
                print(f"contractlint: no such file: {path}",
                      file=sys.stderr)
                return 2
    started = time.perf_counter()
    findings = run_lint(root, files=files)
    elapsed = time.perf_counter() - started
    for finding in findings:
        print(finding.render())
    n_files = len(files) if files is not None else None
    summary = (f"contractlint: {len(findings)} finding"
               f"{'' if len(findings) == 1 else 's'} "
               f"({elapsed:.2f}s)")
    print(summary)
    if args.json is not None:
        document = {
            "bench": "contractlint",
            "config": {
                "root": str(root),
                "files": ([str(p) for p in files]
                          if files is not None else "all"),
                "codes": sorted(all_codes()),
            },
            "timings": {"lint_seconds": elapsed},
            "derived": {
                "n_findings": len(findings),
                "n_files_restricted": n_files,
                "clean": not findings,
            },
            "findings": [finding.describe() for finding in findings],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
