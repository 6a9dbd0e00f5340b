"""Exporting experiment results to CSV.

A reproduction is only useful if its numbers can leave the terminal:
these helpers serialize a :class:`~repro.evaluation.tracker.QualityTracker`
for external plotting or archival.
"""

from __future__ import annotations

import csv
import io

from repro.evaluation.tracker import QualityTracker

_FIELDS = (
    "episode",
    "precision",
    "recall",
    "f_measure",
    "negative_fraction",
    "links_discovered",
    "links_removed",
    "rollbacks",
    "candidate_count",
    "true_positives",
)


def tracker_rows(tracker: QualityTracker) -> list[dict]:
    """One dict per episode record, with the standard field set."""
    rows = []
    for record in tracker.records:
        rows.append(
            {
                "episode": record.episode,
                "precision": record.precision,
                "recall": record.recall,
                "f_measure": record.f_measure,
                "negative_fraction": record.negative_fraction,
                "links_discovered": record.links_discovered,
                "links_removed": record.links_removed,
                "rollbacks": record.rollbacks,
                "candidate_count": record.quality.candidate_count,
                "true_positives": record.quality.true_positives,
            }
        )
    return rows


def tracker_to_csv(tracker: QualityTracker, label: str | None = None) -> str:
    """Render a tracker as CSV text (with an optional leading label column)."""
    buffer = io.StringIO()
    fields = (("label",) if label is not None else ()) + _FIELDS
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in tracker_rows(tracker):
        if label is not None:
            row = {"label": label, **row}
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(tracker: QualityTracker, path: str, label: str | None = None) -> None:
    """Write :func:`tracker_to_csv` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(tracker_to_csv(tracker, label))
