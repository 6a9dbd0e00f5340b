"""Link-quality metrics, per-episode tracking, text reporting, and export."""

from repro.evaluation.charts import quality_sparklines, sparkline
from repro.evaluation.export import (
    tracker_rows,
    tracker_to_csv,
    write_csv,
)
from repro.evaluation.metrics import Quality, evaluate_links, new_correct_links
from repro.evaluation.report import format_table, quality_curve_table, series_table
from repro.evaluation.tracker import EpisodeRecord, QualityTracker

__all__ = [
    "EpisodeRecord",
    "Quality",
    "QualityTracker",
    "evaluate_links",
    "format_table",
    "new_correct_links",
    "quality_curve_table",
    "quality_sparklines",
    "series_table",
    "sparkline",
    "tracker_rows",
    "tracker_to_csv",
    "write_csv",
]
