"""Plain-text charts: sparklines for quality curves.

The benchmark harness prints per-episode tables; these helpers add an
at-a-glance visual rendering so the figure shape (the reproduction target)
is visible directly in terminal output, without plotting dependencies.
"""

from __future__ import annotations

from typing import Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], low: float = 0.0, high: float = 1.0) -> str:
    """A one-line unicode sparkline of ``values`` scaled to [low, high]."""
    if not values:
        return ""
    span = high - low
    if span <= 0:
        raise ValueError("high must exceed low")
    chars = []
    top = len(_SPARK_LEVELS) - 1
    for value in values:
        scaled = (min(max(value, low), high) - low) / span
        chars.append(_SPARK_LEVELS[round(scaled * top)])
    return "".join(chars)


def quality_sparklines(
    precision: Sequence[float], recall: Sequence[float], f_measure: Sequence[float]
) -> str:
    """Three labelled sparklines — the compact form of a quality figure."""
    return "\n".join(
        (
            f"P {sparkline(precision)}",
            f"R {sparkline(recall)}",
            f"F {sparkline(f_measure)}",
        )
    )
