"""ASCII rendering helpers for experiment results.

Every experiment prints its measured numbers next to the paper's
published ones so the shape comparison is immediate.
"""

from typing import List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a padded ASCII table (floats formatted to 3 decimals).

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  -----
    1  2.500
    """
    formatted_rows: List[List[str]] = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[col]) for row in formatted_rows))
        if formatted_rows
        else len(str(header))
        for col, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def paper_vs_measured(paper: Optional[float], measured: float) -> str:
    """'paper -> measured' cell, with '—' when the paper has no number."""
    measured_text = f"{measured:.3f}"
    if paper is None:
        return f"— / {measured_text}"
    return f"{paper:.3f} / {measured_text}"


def render_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: str = "",
) -> str:
    """Horizontal ASCII bars — the textual rendering of a paper figure.

    >>> print(render_bar_chart(["a", "b"], [1.0, 0.5], width=4))
    a  ████  1.000
    b  ██    0.500
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    if not values:
        return "\n".join(lines)
    peak = max(values)
    label_width = max(len(str(label)) for label in labels)
    for label, value in zip(labels, values):
        bar_length = 0 if peak <= 0 else round(width * value / peak)
        bar = "█" * bar_length
        lines.append(
            f"{str(label).ljust(label_width)}  {bar.ljust(width)}  "
            f"{value:.3f}"
        )
    return "\n".join(lines)
