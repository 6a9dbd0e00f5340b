"""Tests for text charts and CSV export."""

import csv
import io

import pytest

from repro.core.episode import EpisodeStats
from repro.evaluation import (
    QualityTracker,
    ascii_plot,
    quality_sparklines,
    sparkline,
    tracker_rows,
    tracker_to_csv,
    write_csv,
)
from repro.links import Link, LinkSet
from repro.rdf.terms import URIRef


def link(i: int) -> Link:
    return Link(URIRef(f"http://a/e{i}"), URIRef(f"http://b/e{i}"))


@pytest.fixture()
def tracker() -> QualityTracker:
    truth = LinkSet([link(0), link(1)])
    tracker = QualityTracker(truth)
    tracker.record_initial([link(0)])
    tracker.on_episode_end(
        EpisodeStats(index=1, feedback_count=10, positive_count=6, negative_count=4,
                     links_discovered=3, links_removed=1, rollbacks=1),
        LinkSet([link(0), link(1)]),
    )
    return tracker


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3

    def test_extremes(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[1] == "█"

    def test_monotone_input_monotone_output(self):
        line = sparkline([0.1, 0.3, 0.6, 0.9])
        assert list(line) == sorted(line)

    def test_values_clamped(self):
        assert sparkline([-5.0, 5.0]) == "▁█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sparkline([0.5], low=1.0, high=1.0)

    def test_quality_sparklines_three_rows(self):
        text = quality_sparklines([0.5], [0.6], [0.55])
        assert text.count("\n") == 2
        assert text.startswith("P ")


class TestAsciiPlot:
    def test_dimensions(self):
        text = ascii_plot({"f": [0.0, 0.5, 1.0]}, height=5)
        lines = text.splitlines()
        assert len(lines) == 5 + 2  # rows + axis + legend
        assert lines[0].startswith(" 1.00 |")

    def test_markers_use_label_initial(self):
        text = ascii_plot({"precision": [1.0], "recall": [0.0]}, height=4)
        assert "p" in text and "r" in text

    def test_collision_marker(self):
        text = ascii_plot({"alpha": [1.0], "beta": [1.0]}, height=4)
        assert "*" in text

    def test_empty(self):
        assert ascii_plot({}) == "(no data)"

    def test_height_validated(self):
        with pytest.raises(ValueError):
            ascii_plot({"x": [0.5]}, height=1)


class TestExport:
    def test_rows_contain_all_fields(self, tracker):
        rows = tracker_rows(tracker)
        assert len(rows) == 2
        assert rows[1]["links_discovered"] == 3
        assert rows[1]["rollbacks"] == 1
        assert rows[0]["episode"] == 0

    def test_csv_round_trip(self, tracker):
        text = tracker_to_csv(tracker)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert float(parsed[1]["f_measure"]) == pytest.approx(1.0)

    def test_csv_with_label(self, tracker):
        text = tracker_to_csv(tracker, label="fig2a")
        assert text.splitlines()[1].startswith("fig2a,")

    def test_write_csv_file(self, tracker, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(tracker, path)
        with open(path) as handle:
            assert handle.readline().startswith("episode,")
