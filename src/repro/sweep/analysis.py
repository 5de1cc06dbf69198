"""The sweep analysis stage: Pareto frontiers and winners over a results table.

This is where :mod:`repro.analysis.pareto` — the paper's frontier machinery
for the accuracy-versus-compute plane (Figs 8/9) — meets the sweep
pipeline: every *objective* is a column of the combined
:class:`~repro.sweep.results.ResultsTable` plus a direction (``min`` or
``max``), and every pair of objectives yields one cross-scenario frontier
(the cells no other cell beats on both axes at once, e.g. p99 latency vs.
drop rate vs. transfer dollars).  A per-dimension *winner* summary answers
the coarser question directly: for each grid dimension, which value
achieves the best objective anywhere, and what does each value's best/mean
look like.

Cells whose objective column is ``None`` (e.g. an all-dropped run has no
p99) are excluded per analysis and counted in ``cells_skipped`` — silent
truncation would read as "covered everything" when it didn't.  Everything
is deterministic: frontiers sort by cost, ties keep cell-index order, and
the JSON document round-trips byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.pareto import ParetoPoint, pareto_frontier
from repro.api.config import Direction
from repro.api.schema import Name, check
from repro.sweep.results import ResultsTable

#: Objectives used when neither the config nor the CLI names any: the
#: serving trade-off triangle (tail latency, shed load, storage dollars).
DEFAULT_OBJECTIVES: tuple[tuple[str, Direction], ...] = (
    ("report.p99_latency_ms", "min"),
    ("report.drop_rate", "min"),
    ("report.transfer_dollars", "min"),
)

PARETO_FILENAME = "pareto.json"


@dataclass(frozen=True)
class Objective:
    """One analysis objective: a table column and the direction that wins."""

    column: Name
    direction: Direction = "min"

    def __post_init__(self) -> None:
        check(self)

    @property
    def minimizes(self) -> bool:
        return self.direction == "min"

    def better(self, a: float, b: float) -> bool:
        """True when ``a`` beats ``b`` under this objective's direction."""
        return a < b if self.minimizes else a > b


def default_objectives() -> tuple[Objective, ...]:
    """The built-in objective set as :class:`Objective` instances."""
    return tuple(Objective(column, direction) for column, direction in DEFAULT_OBJECTIVES)


def _row_identity(table: ResultsTable, row: dict) -> dict:
    """The cell's identity: its index and the grid overrides that made it."""
    return {
        "cell_index": row.get("cell.index"),
        "overrides": {column: row[column] for column in table.override_columns()},
    }


def _numeric_rows(
    table: ResultsTable, objectives: Sequence[Objective]
) -> tuple[list[dict], int]:
    """Rows with every objective present and numeric, plus the skipped count."""
    usable = []
    for row in table.rows:
        values = [row.get(objective.column) for objective in objectives]
        if all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for value in values):
            usable.append(row)
    return usable, table.num_rows - len(usable)


def _frontier(table: ResultsTable, cost: Objective, value: Objective) -> dict:
    """One 2-D frontier: ``cost``'s axis minimized, ``value``'s maximized."""
    rows, skipped = _numeric_rows(table, (cost, value))
    points = [
        ParetoPoint(
            cost=row[cost.column] if cost.minimizes else -row[cost.column],
            value=-row[value.column] if value.minimizes else row[value.column],
            label=str(row["cell.index"]),
        )
        for row in rows
    ]
    by_label = {str(row["cell.index"]): row for row in rows}
    frontier_rows = [by_label[point.label] for point in pareto_frontier(points)]
    return {
        "cost": {"column": cost.column, "direction": cost.direction},
        "value": {"column": value.column, "direction": value.direction},
        "cells_considered": len(rows),
        "cells_skipped": skipped,
        "points": [
            {
                **_row_identity(table, row),
                "values": {
                    cost.column: row[cost.column],
                    value.column: row[value.column],
                },
            }
            for row in frontier_rows
        ],
    }


def _winner(table: ResultsTable, objective: Objective) -> dict:
    """The best cell overall plus per-dimension value rankings."""
    rows, skipped = _numeric_rows(table, (objective,))
    summary: dict[str, Any] = {
        "column": objective.column,
        "direction": objective.direction,
        "cells_considered": len(rows),
        "cells_skipped": skipped,
        "best": None,
        "by_dimension": {},
    }
    if not rows:
        return summary
    best_row = rows[0]
    for row in rows[1:]:
        if objective.better(row[objective.column], best_row[objective.column]):
            best_row = row
    summary["best"] = {
        **_row_identity(table, best_row),
        "value": best_row[objective.column],
    }
    for dimension in table.override_columns():
        groups: dict[str, dict] = {}
        for row in rows:
            key = json.dumps(row.get(dimension), sort_keys=True)
            group = groups.setdefault(
                key, {"value": row.get(dimension), "cells": 0, "best": None, "_sum": 0.0}
            )
            group["cells"] += 1
            group["_sum"] += row[objective.column]
            if group["best"] is None or objective.better(
                row[objective.column], group["best"]
            ):
                group["best"] = row[objective.column]
        per_value = []
        for key in sorted(groups):
            group = groups[key]
            per_value.append(
                {
                    "value": group["value"],
                    "cells": group["cells"],
                    "best": group["best"],
                    "mean": group["_sum"] / group["cells"],
                }
            )
        winner = per_value[0]
        for group in per_value[1:]:
            if objective.better(group["best"], winner["best"]):
                winner = group
        summary["by_dimension"][dimension] = {
            "winner": winner["value"],
            "per_value": per_value,
        }
    return summary


def pareto_analysis(
    table: ResultsTable, objectives: Sequence[Objective] | None = None
) -> dict:
    """The full analysis document: pairwise frontiers + per-objective winners."""
    chosen = tuple(objectives) if objectives else default_objectives()
    return {
        "objectives": [
            {"column": objective.column, "direction": objective.direction}
            for objective in chosen
        ],
        "num_cells": table.num_rows,
        "dimensions": table.override_columns(),
        "frontiers": [
            _frontier(table, cost, value) for cost, value in combinations(chosen, 2)
        ],
        "winners": [_winner(table, objective) for objective in chosen],
    }


def write_pareto(analysis: dict, output_dir: str | Path) -> Path:
    """Persist the analysis document as ``<out>/pareto.json``."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / PARETO_FILENAME
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(analysis, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_analysis(analysis: dict) -> str:
    """Deterministic plain-text rendering of the analysis (CLI output)."""
    lines = [
        "objectives             "
        + ", ".join(
            f"{entry['column']} ({entry['direction']})"
            for entry in analysis["objectives"]
        ),
        f"cells                  {analysis['num_cells']}",
    ]
    for frontier in analysis["frontiers"]:
        lines.append(
            f"frontier               {frontier['cost']['column']} vs "
            f"{frontier['value']['column']}: {len(frontier['points'])} of "
            f"{frontier['cells_considered']} cells"
            + (
                f" ({frontier['cells_skipped']} skipped)"
                if frontier["cells_skipped"]
                else ""
            )
        )
    for winner in analysis["winners"]:
        if winner["best"] is None:
            lines.append(
                f"winner                 {winner['column']}: no usable cells"
            )
            continue
        best = winner["best"]
        overrides = ", ".join(
            f"{path}={value}" for path, value in best["overrides"].items()
        )
        lines.append(
            f"winner                 {winner['column']} ({winner['direction']}): "
            f"cell {best['cell_index']} = {best['value']:.6g} [{overrides}]"
        )
    return "\n".join(lines)
