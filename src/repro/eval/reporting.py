"""Report formatting: ASCII tables and numeric series for the experiments.

Every experiment driver prints through these helpers so the regenerated
tables/figures look uniform and can be diffed run-to-run.  Figures are
emitted as aligned numeric series (one row per x-value, one column per
curve) — the same data a plotting script would consume.
"""

from __future__ import annotations

import io
from typing import Iterable, Mapping, Sequence

from repro.errors import ExperimentError


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: "str | None" = None) -> str:
    """Render an aligned ASCII table, floats to four significant
    digits."""
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(f"{value:.4g}")
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    n_columns = len(headers)
    for row in rendered_rows:
        if len(row) != n_columns:
            raise ExperimentError(
                f"row width {len(row)} != header width {n_columns}"
            )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    separator = "-+-".join("-" * w for w in widths)
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)) + "\n")
    out.write(separator + "\n")
    for row in rendered_rows:
        out.write(" | ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)) + "\n")
    return out.getvalue()


def format_series(x_label: str, x_values: Sequence[object],
                  curves: Mapping[str, Sequence[float]],
                  title: "str | None" = None) -> str:
    """Render figure-style series: one row per x, one column per curve."""
    for name, values in curves.items():
        if len(values) != len(x_values):
            raise ExperimentError(
                f"curve {name!r} has {len(values)} points, expected "
                f"{len(x_values)}"
            )
    headers = [x_label] + list(curves.keys())
    rows = [
        [x] + [curves[name][i] for name in curves]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)


def format_ratio(value: float) -> str:
    """Human-friendly ratio rendering ('2.8x', '9.7e4x')."""
    if value >= 1e4:
        return f"{value:.1e}x"
    if value >= 100:
        return f"{value:.0f}x"
    return f"{value:.1f}x"
