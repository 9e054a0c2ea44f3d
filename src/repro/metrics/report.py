"""Plain-text tabulation of benchmark results (Table-1-style output)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

Number = Union[int, float, str]  # str cells render verbatim


@dataclass
class MetricTable:
    """A named table of rows → metric values."""

    title: str
    columns: List[str]
    rows: Dict[str, List[Number]] = field(default_factory=dict)

    def add_row(self, name: str, values: Sequence[Number]) -> None:
        """Append a named row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {name!r} has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows[name] = list(values)

    def render(self) -> str:
        """Format the table as fixed-width text."""
        return format_table(self.title, self.columns, self.rows)


def _fmt(v: Number) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float) and not v.is_integer():
        return f"{v:,.1f}"
    return f"{int(v):,}"


def format_table(
    title: str, columns: Sequence[str], rows: Dict[str, Sequence[Number]]
) -> str:
    """Fixed-width table with a title rule, for terminal output."""
    name_w = max([len(r) for r in rows] + [4])
    col_ws = [
        max(len(c), *(len(_fmt(vals[i])) for vals in rows.values()))
        if rows
        else len(c)
        for i, c in enumerate(columns)
    ]
    header = " " * name_w + "  " + "  ".join(
        c.rjust(w) for c, w in zip(columns, col_ws)
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for name, vals in rows.items():
        cells = "  ".join(
            _fmt(v).rjust(w) for v, w in zip(vals, col_ws)
        )
        lines.append(name.ljust(name_w) + "  " + cells)
    return "\n".join(lines)
