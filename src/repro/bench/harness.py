"""Result recording and table rendering for the benchmark suite.

Every benchmark produces an :class:`ExperimentResult`: an ordered list of
row dicts plus metadata (figure id, parameters, seed).  Results print as
aligned text tables (the "same rows/series the paper reports") and persist
as JSON under ``results/`` so a table can be re-read without re-running
its experiment.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """One experiment's output: labelled rows plus provenance."""

    name: str  # e.g. "fig16_breakdown"
    title: str
    rows: list[dict[str, Any]]
    meta: dict[str, Any] = field(default_factory=dict)

    def column_names(self) -> list[str]:
        """Union of row keys, first-seen order."""
        cols: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        return cols

    def to_json(self) -> dict:
        """Serializable form."""
        return {
            "name": self.name,
            "title": self.title,
            "rows": self.rows,
            "meta": self.meta,
        }

    def table(self) -> str:
        """Render as an aligned text table."""
        return format_table(self.title, self.rows)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(title: str, rows: list[dict[str, Any]]) -> str:
    """Aligned fixed-width text table."""
    if not rows:
        return f"== {title} ==\n(no rows)"
    cols: list[str] = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    cells = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(cols)]
    lines = [f"== {title} =="]
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def results_dir() -> str:
    """The repository-level ``results/`` directory (created on demand)."""
    base = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "results"))
    os.makedirs(base, exist_ok=True)
    return base


def save_result(result: ExperimentResult, print_table: bool = True) -> str:
    """Persist a result as JSON; optionally print its table.  Returns path."""
    path = os.path.join(results_dir(), f"{result.name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result.to_json(), f, indent=2, sort_keys=True)
    if print_table:
        print()
        print(result.table())
    return path
