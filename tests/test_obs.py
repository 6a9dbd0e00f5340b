"""Unit tests for the repro.obs observability subsystem."""

import json

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import Registry, trace


@pytest.fixture()
def registry() -> Registry:
    return Registry("test")


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_identity_returns_same_object(self, registry):
        assert registry.counter("c", a="1") is registry.counter("c", a="1")

    def test_label_sets_are_distinct(self, registry):
        registry.counter("c", verdict="positive").inc()
        registry.counter("c", verdict="negative").inc(2)
        assert registry.counter("c", verdict="positive").value == 1
        assert registry.counter("c", verdict="negative").value == 2

    def test_kind_conflict_raises(self, registry):
        registry.counter("c")
        with pytest.raises(ObsError, match="already registered"):
            registry.gauge("c")


class TestGauge:
    def test_set_and_adjust(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_bucket_semantics_upper_bound_inclusive(self, registry):
        histogram = registry.histogram("h", boundaries=(1, 2))
        for value in (0.5, 1, 3):
            histogram.observe(value)
        # bucket 0: <= 1 (0.5 and 1); bucket 1: <= 2 (none); overflow: 3
        assert histogram.counts == [2, 0, 1]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(4.5)
        assert histogram.min == 0.5
        assert histogram.max == 3
        assert histogram.mean == pytest.approx(1.5)

    def test_empty_histogram(self, registry):
        histogram = registry.histogram("h")
        assert histogram.mean is None
        assert histogram.min is None

    def test_timer_observes_seconds(self, registry):
        with obs.use_registry(registry), obs.region("t.seconds") as timing:
            pass
        histogram = registry.histogram("t.seconds")
        assert histogram.count == 1
        assert histogram.boundaries == obs.DEFAULT_LATENCY_BOUNDARIES
        assert histogram.sum == timing.elapsed >= 0


class TestSpans:
    """Regions nest as trace spans; each region's histogram counts its own
    completions (nesting is not encoded in metric names)."""

    def test_nesting_builds_paths(self, registry):
        with obs.use_registry(registry):
            trace.install(seed=0)
            with obs.region("alex.episode.run") as episode:
                with obs.region("alex.episode.explore") as first:
                    pass
                with obs.region("alex.episode.explore") as second:
                    pass
        assert registry.histogram("alex.episode.run").count == 1
        assert registry.histogram("alex.episode.explore").count == 2
        assert first.parent_id == second.parent_id == episode.span_id
        assert first.trace_id == episode.trace_id
        assert episode.elapsed >= first.elapsed + second.elapsed

    def test_span_survives_exceptions(self, registry):
        with obs.use_registry(registry):
            trace.install(seed=0)
            with pytest.raises(ValueError):
                with obs.region("outer.op.run") as outer:
                    raise ValueError("boom")
            # stack unwound: a new region starts a new trace
            with obs.region("fresh.op.run") as fresh:
                pass
        assert registry.histogram("outer.op.run").count == 1
        assert outer.elapsed is not None
        assert fresh.parent_id is None
        assert fresh.trace_id != outer.trace_id


class TestSnapshotAndMerge:
    def _populate(self, registry):
        registry.counter("c", kind="x").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", boundaries=(1, 10)).observe(5)
        with obs.use_registry(registry), obs.region("s"):
            pass

    def test_snapshot_is_json_serializable(self, registry):
        self._populate(registry)
        text = json.dumps(registry.snapshot())
        assert json.loads(text)["format_version"] == obs.SNAPSHOT_VERSION

    def test_merge_sums_counters_histograms_and_spans(self, registry):
        self._populate(registry)
        snapshot = registry.snapshot()
        target = Registry("merged")
        target.merge(snapshot)
        target.merge(snapshot)
        merged = target.snapshot()
        assert obs.counter_total(merged, "c") == 6
        histogram, region = merged["histograms"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(10)
        assert histogram["counts"] == [0, 2, 0]
        assert region["name"] == "s" and region["count"] == 2

    def test_merge_gauges_last_write_wins(self, registry):
        registry.gauge("g").set(7)
        target = Registry("merged")
        target.gauge("g").set(100)
        target.merge(registry.snapshot())
        assert target.gauge("g").value == 7

    def test_merge_extra_labels_keep_origins_apart(self, registry):
        registry.counter("c").inc(2)
        target = Registry("merged")
        target.merge(registry.snapshot(), extra_labels={"partition": "p0"})
        target.merge(registry.snapshot(), extra_labels={"partition": "p1"})
        assert target.counter("c", partition="p0").value == 2
        assert target.counter("c", partition="p1").value == 2

    def test_merge_rejects_unknown_version(self, registry):
        with pytest.raises(ObsError, match="version"):
            registry.merge({"format_version": 99})

    def test_merge_rejects_mismatched_boundaries(self, registry):
        registry.histogram("h", boundaries=(1, 2)).observe(1)
        snapshot = registry.snapshot()
        target = Registry("merged")
        target.histogram("h", boundaries=(5, 6)).observe(1)
        with pytest.raises(ObsError, match="boundaries"):
            target.merge(snapshot)

    def test_json_file_round_trip(self, registry, tmp_path):
        self._populate(registry)
        path = str(tmp_path / "obs.json")
        registry.dump_json(path)
        loaded = obs.load_snapshot(path)
        target = Registry("merged")
        target.merge(loaded)
        restored = target.snapshot()
        original = registry.snapshot()
        for section in ("counters", "gauges", "histograms", "spans"):
            assert restored[section] == original[section]

    def test_load_snapshot_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"hello": 1}, handle)
        with pytest.raises(ObsError):
            obs.load_snapshot(path)

    def test_render_mentions_instruments(self, registry):
        self._populate(registry)
        text = registry.render()
        assert "c{kind=x}" in text
        assert "g" in text and "h" in text and "s" in text

    def test_reset_clears_everything(self, registry):
        self._populate(registry)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [] and snapshot["histograms"] == []


class TestDefaultRegistry:
    def test_module_helpers_hit_the_default(self):
        with obs.use_registry() as registry:
            obs.inc("x")
            obs.set_gauge("y", 3)
            obs.observe("z", 1)
            with obs.region("t"):
                pass
            snapshot = registry.snapshot()
        assert obs.counter_total(snapshot, "x") == 1
        assert snapshot["gauges"][0]["value"] == 3
        assert [entry["name"] for entry in snapshot["histograms"]] == ["t", "z"]

    def test_use_registry_isolates_and_restores(self):
        before = obs.get_registry()
        with obs.use_registry():
            assert obs.get_registry() is not before
            obs.inc("isolated.counter")
        assert obs.get_registry() is before
        assert obs.counter_total(obs.snapshot(), "isolated.counter") == 0

    def test_use_registry_restores_on_error(self):
        before = obs.get_registry()
        with pytest.raises(RuntimeError):
            with obs.use_registry():
                raise RuntimeError("boom")
        assert obs.get_registry() is before

    def test_set_registry_returns_previous(self):
        replacement = Registry("swap")
        previous = obs.set_registry(replacement)
        try:
            assert obs.get_registry() is replacement
        finally:
            obs.set_registry(previous)


class TestHistogramQuantiles:
    def test_quantile_interpolates_within_bucket(self, registry):
        from repro.obs.instruments import quantile_from_buckets

        # 100 observations uniform in the single bucket (0, 10]:
        value = quantile_from_buckets((10.0,), [100], 0.5, minimum=0.0, maximum=10.0)
        assert value == pytest.approx(5.0)

    def test_quantile_none_when_empty(self, registry):
        histogram = registry.histogram("h")
        assert histogram.quantile(0.5) is None

    def test_quantile_clamped_to_observed_range(self, registry):
        histogram = registry.histogram("h", boundaries=(1.0, 1000.0))
        histogram.observe(2.0)
        histogram.observe(3.0)
        assert histogram.quantile(0.99) <= 3.0
        assert histogram.quantile(0.01) >= 2.0

    def test_snapshot_carries_p50_p95_p99(self, registry):
        histogram = registry.histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 20.0):
            histogram.observe(value)
        (entry,) = registry.snapshot()["histograms"]
        assert set(entry) >= {"p50", "p95", "p99"}
        assert entry["p50"] <= entry["p95"] <= entry["p99"]

    def test_render_shows_quantiles(self, registry):
        registry.histogram("h").observe(3.0)
        assert "p50=" in registry.render()

    def test_merge_ignores_derived_quantiles_and_stays_associative(self):
        """merge(merge(a, b), c) == merge(a, merge(b, c)) for histograms —
        p50/p95/p99 are derived from raw buckets, never summed."""
        import random

        rng = random.Random(11)
        parts = []
        for _ in range(3):
            part = Registry("part")
            histogram = part.histogram("h.lat", boundaries=(1.0, 5.0, 25.0))
            for _ in range(rng.randint(1, 30)):
                histogram.observe(rng.uniform(0, 50))
            parts.append(part.snapshot())

        left = Registry("left")   # (a + b) + c
        left.merge(parts[0])
        left.merge(parts[1])
        intermediate = left.snapshot()
        rebuilt = Registry("merged")
        rebuilt.merge(intermediate)
        rebuilt.merge(parts[2])

        right = Registry("merged")  # a + (b + c)
        inner = Registry("inner")
        inner.merge(parts[1])
        inner.merge(parts[2])
        right.merge(parts[0])
        right.merge(inner.snapshot())

        assert rebuilt.snapshot() == right.snapshot()
