"""Tests for the background telemetry Reporter and its JSONL schema."""

import json
import time

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import Registry
from repro.obs.report import (
    REPORT_SCHEMA,
    Reporter,
    build_sample,
    load_report,
    render_sample,
)


class TestBuildSample:
    def test_first_sample_deltas_equal_values(self):
        registry = Registry("t")
        registry.counter("c.events").inc(5)
        sample = build_sample(registry.snapshot(), None, None, seq=1, wall=0.0)
        (entry,) = sample["counters"]
        assert entry["value"] == 5
        assert entry["delta"] == 5
        assert "rate" not in entry  # no elapsed interval yet

    def test_deltas_and_rates_against_previous(self):
        registry = Registry("t")
        counter = registry.counter("c.events")
        counter.inc(5)
        before = registry.snapshot()
        counter.inc(10)
        sample = build_sample(registry.snapshot(), before, 2.0, seq=2, wall=0.0)
        (entry,) = sample["counters"]
        assert entry["value"] == 15
        assert entry["delta"] == 10
        assert entry["rate"] == pytest.approx(5.0)

    def test_gauges_carry_value_only(self):
        registry = Registry("t")
        registry.gauge("g.level").set(7)
        sample = build_sample(registry.snapshot(), None, 1.0, seq=1, wall=0.0)
        (entry,) = sample["gauges"]
        assert entry == {"name": "g.level", "labels": {}, "value": 7}

    def test_histograms_report_quantiles_and_deltas(self):
        registry = Registry("t")
        histogram = registry.histogram("h.lat", boundaries=(1.0, 10.0))
        histogram.observe(0.5)
        before = registry.snapshot()
        histogram.observe(5.0)
        sample = build_sample(registry.snapshot(), before, 1.0, seq=2, wall=0.0)
        (entry,) = sample["histograms"]
        assert entry["count"] == 2
        assert entry["delta_count"] == 1
        assert entry["delta_sum"] == pytest.approx(5.0)
        assert entry["p50"] is not None and entry["p99"] is not None

    def test_sample_is_json_serializable(self):
        registry = Registry("t")
        registry.counter("c").inc()
        with obs.use_registry(registry), obs.region("s"):
            pass
        sample = build_sample(registry.snapshot(), None, 0.5, seq=1, wall=1.0)
        assert json.loads(json.dumps(sample)) == sample

    def test_render_sample_mentions_top_counters(self):
        registry = Registry("t")
        registry.counter("alex.links.discovered").inc(100)
        sample = build_sample(registry.snapshot(), None, 1.0, seq=1, wall=0.0)
        text = render_sample(sample, top=5)
        assert "alex.links.discovered" in text
        assert "seq=1" in text


class TestReporterLifecycle:
    def test_rejects_bad_construction(self, tmp_path):
        with pytest.raises(ObsError):
            Reporter(0.0, str(tmp_path / "r.jsonl"))
        with pytest.raises(ObsError):
            Reporter(1.0, "")
        with pytest.raises(ObsError):
            Reporter(1.0, str(tmp_path / "r.jsonl"), max_samples=0)

    def test_header_line_carries_schema(self, tmp_path):
        path = tmp_path / "r.jsonl"
        registry = Registry("t")
        reporter = Reporter(5.0, str(path), registry=registry)
        reporter.start()
        reporter.stop()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == REPORT_SCHEMA
        assert header["interval"] == 5.0

    def test_stop_without_start_is_noop(self, tmp_path):
        path = tmp_path / "r.jsonl"
        reporter = Reporter(1.0, str(path), registry=Registry("t"))
        reporter.stop()  # never started: no thread, no final sample
        reporter.stop()
        assert not path.exists()
        assert reporter.samples_written == 0

    def test_stop_twice_writes_single_final_sample(self, tmp_path):
        path = tmp_path / "r.jsonl"
        reporter = Reporter(5.0, str(path), registry=Registry("t"))
        reporter.start()
        reporter.stop()
        reporter.stop()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        finals = [l for l in lines[1:] if json.loads(l).get("final")]
        assert len(finals) == 1

    def test_start_is_idempotent(self, tmp_path):
        path = tmp_path / "r.jsonl"
        reporter = Reporter(5.0, str(path), registry=Registry("t"))
        assert reporter.start() is reporter.start()
        assert reporter.running
        reporter.stop()
        assert not reporter.running

    def test_interval_sampling_counter_monotone(self, tmp_path):
        """Counters never decrease across consecutive Reporter samples."""
        path = tmp_path / "r.jsonl"
        registry = Registry("t")
        counter = registry.counter("c.work")
        reporter = Reporter(0.02, str(path), registry=registry)
        reporter.start()
        deadline = time.monotonic() + 2.0
        while reporter.samples_written < 3 and time.monotonic() < deadline:
            counter.inc()
            time.sleep(0.005)
        reporter.stop()
        loaded = load_report(str(path))
        assert len(loaded["samples"]) >= 2  # >= 2 interval samples + final
        values = [
            entry["value"]
            for sample in loaded["samples"]
            for entry in sample["counters"]
            if entry["name"] == "c.work"
        ]
        assert values == sorted(values)
        assert all(
            entry["delta"] >= 0
            for sample in loaded["samples"]
            for entry in sample["counters"]
        )

    def test_sequence_numbers_increase(self, tmp_path):
        path = tmp_path / "r.jsonl"
        registry = Registry("t")
        reporter = Reporter(5.0, str(path), registry=registry)
        reporter.start()
        reporter.sample_now()
        reporter.sample_now()
        reporter.stop()
        loaded = load_report(str(path))
        assert [sample["seq"] for sample in loaded["samples"]] == [1, 2, 3]


class TestBoundedSink:
    def test_file_compacts_to_max_samples(self, tmp_path):
        path = tmp_path / "r.jsonl"
        registry = Registry("t")
        counter = registry.counter("c")
        reporter = Reporter(60.0, str(path), registry=registry, max_samples=3)
        reporter.start()
        for _ in range(8):
            counter.inc()
            reporter.sample_now()
        reporter.stop()  # + final sample
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1 + 3  # header + bound
        sequences = [json.loads(l)["seq"] for l in lines[1:]]
        assert sequences == [7, 8, 9]  # the most recent ones survive
        header = json.loads(lines[0])
        assert header["schema"] == REPORT_SCHEMA


class TestLoadReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        registry = Registry("t")
        registry.counter("c").inc(4)
        reporter = Reporter(60.0, str(path), registry=registry)
        reporter.start()
        reporter.sample_now()
        reporter.stop()
        loaded = load_report(str(path))
        assert loaded["header"]["schema"] == REPORT_SCHEMA
        assert loaded["samples"][0]["counters"][0]["name"] == "c"

    def test_rejects_non_report_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(ObsError, match=REPORT_SCHEMA):
            load_report(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(ObsError, match="empty"):
            load_report(str(path))

    def test_rejects_sample_without_seq(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(
            json.dumps({"schema": REPORT_SCHEMA, "interval": 1.0}) + "\n"
            + json.dumps({"not": "a sample"}) + "\n"
        )
        with pytest.raises(ObsError, match="not a report sample"):
            load_report(str(path))


class TestDefaultRegistryResolution:
    def test_reporter_follows_use_registry(self, tmp_path):
        """A registry=None reporter samples whatever registry is current."""
        path = tmp_path / "r.jsonl"
        reporter = Reporter(60.0, str(path))
        with obs.use_registry():
            obs.inc("scoped.counter", 3)
            reporter.start()
            sample = reporter.sample_now()
        reporter.stop()
        names = [entry["name"] for entry in sample["counters"]]
        assert "scoped.counter" in names
