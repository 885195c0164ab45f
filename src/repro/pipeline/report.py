"""Rendering experiment results as the paper's tables."""

from __future__ import annotations

from typing import Iterable

from repro.pipeline.experiment import Table1Row
from repro.util.tables import Table


def table1_report(rows: Iterable[Table1Row]) -> str:
    """Render Table I: prediction errors by trace type.

    Matches the paper's columns: Application, Core Count, Trace Type,
    Predicted Runtime (s), % Error.
    """
    table = Table(
        columns=[
            "Application",
            "Core Count",
            "Trace Type",
            "Predicted Runtime (s)",
            "% Error",
        ],
        title="Table I: prediction errors using extrapolated and collected traces",
        float_fmt=".6f",
    )
    for row in rows:
        table.add_row(
            row.app,
            row.core_count,
            row.trace_type,
            row.predicted_runtime_s,
            f"{row.pct_error:.1f}%",
        )
    return table.render()
