"""Fixed-width table printing so every benchmark emits the same rows/series
the paper's figures plot."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = ["format_row", "print_table", "print_series"]


def format_row(cells: Sequence[object], widths: Sequence[int]) -> str:
    """Format one row with right-aligned numeric cells."""
    parts = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            parts.append(f"{cell:>{width}.2f}")
        else:
            parts.append(f"{str(cell):>{width}}")
    return "  ".join(parts)


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Print a titled fixed-width table, every column at least 8 wide."""
    rows = [list(r) for r in rows]
    widths = [max(8, len(h)) for h in headers]
    print()
    print(f"== {title}")
    print(format_row(headers, widths))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print(format_row(row, widths))


def print_series(
    title: str, pairs: Iterable[Tuple[float, float]], x_label: str = "x", y_label: str = "F(x)"
) -> None:
    """Print an (x, y) series — the textual form of a figure's CDF curve."""
    print()
    print(f"== {title}")
    print(f"{x_label:>10}  {y_label:>10}")
    for x, y in pairs:
        print(f"{x:>10.3f}  {y:>10.3f}")
