"""Tests for Prometheus text exposition of registry snapshots."""

import math
import random

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import Registry
from repro.obs.export import (
    escape_label_value,
    format_value,
    mangle_name,
    render_prometheus,
    validate_exposition,
)


class TestMangling:
    def test_dotted_name_mangles_with_prefix(self):
        assert mangle_name("sparql.plan_cache.hits", "_total") == (
            "repro_sparql_plan_cache_hits_total"
        )

    def test_plain_name_keeps_shape(self):
        assert mangle_name("alex") == "repro_alex"

    def test_hyphen_becomes_underscore(self):
        assert mangle_name("a-b.c") == "repro_a_b_c"


class TestEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_plain_value_unchanged(self):
        assert escape_label_value("positive") == "positive"

    def test_escaped_values_round_trip_through_validator(self):
        registry = Registry("escapes")
        registry.counter("evil.values", pair='a"b\\c', other="line\nbreak").inc(3)
        text = render_prometheus(registry.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert validate_exposition(text) == 1


class TestFormatValue:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (3, "3"),
            (3.0, "3"),
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
            (0.25, "0.25"),
        ],
    )
    def test_values(self, value, expected):
        assert format_value(value) == expected


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_help_type(self):
        registry = Registry("t")
        registry.counter("alex.episodes").inc(2)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_alex_episodes_total" in text
        assert "# TYPE repro_alex_episodes_total counter" in text
        assert "repro_alex_episodes_total 2" in text

    def test_label_keys_sorted(self):
        registry = Registry("t")
        registry.counter("c.x", zulu="1", alpha="2").inc()
        text = render_prometheus(registry.snapshot())
        assert 'repro_c_x_total{alpha="2",zulu="1"} 1' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = Registry("t")
        histogram = registry.histogram("h.lat", boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 3.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'repro_h_lat_bucket{le="1"} 1' in text
        assert 'repro_h_lat_bucket{le="2"} 2' in text
        assert 'repro_h_lat_bucket{le="+Inf"} 4' in text
        assert "repro_h_lat_sum 8" in text
        assert "repro_h_lat_count 4" in text

    def test_regions_expose_as_histograms(self):
        registry = Registry("t")
        with obs.use_registry(registry):
            with obs.region("outer.op.run"):
                with obs.region("inner.op.run"):
                    pass
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_outer_op_run histogram" in text
        assert "repro_outer_op_run_count 1" in text
        assert 'repro_inner_op_run_bucket{le="+Inf"} 1' in text
        assert "repro_span" not in text

    def test_deterministic_for_same_snapshot(self):
        registry = Registry("t")
        registry.counter("a.b", x="1").inc()
        registry.gauge("g.v").set(7)
        snap = registry.snapshot()
        assert render_prometheus(snap) == render_prometheus(snap)

    def test_rejects_unversioned_snapshot(self):
        with pytest.raises(ObsError, match="snapshot version"):
            render_prometheus({"counters": []})

    def test_global_helpers_snapshot_renders(self):
        with obs.use_registry():
            obs.inc("alex.feedback.processed", verdict="positive")
            obs.observe("sparql.query.execute", 0.01)
            text = render_prometheus(obs.snapshot())
        assert validate_exposition(text) > 0


class TestValidator:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ObsError, match="no TYPE"):
            validate_exposition("repro_x_total 1\n")

    def test_negative_counter_rejected(self):
        text = "# HELP repro_x_total c\n# TYPE repro_x_total counter\nrepro_x_total -1\n"
        with pytest.raises(ObsError, match="counter"):
            validate_exposition(text)

    def test_non_cumulative_buckets_rejected(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ObsError, match="cumulative"):
            validate_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
        )
        with pytest.raises(ObsError, match=r"\+Inf"):
            validate_exposition(text)

    def test_inf_bucket_disagreeing_with_count_rejected(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ObsError, match="_count"):
            validate_exposition(text)

    def test_bad_label_syntax_rejected(self):
        text = "# HELP repro_x g\n# TYPE repro_x gauge\nrepro_x{k=v} 1\n"
        with pytest.raises(ObsError):
            validate_exposition(text)

    def test_malformed_type_line_rejected(self):
        with pytest.raises(ObsError, match="malformed"):
            validate_exposition("# TYPE repro_x\n")

    def test_duplicate_type_rejected(self):
        text = (
            "# HELP repro_x g\n# TYPE repro_x gauge\n"
            "# HELP repro_x g\n# TYPE repro_x gauge\nrepro_x 1\n"
        )
        with pytest.raises(ObsError, match="duplicate TYPE"):
            validate_exposition(text)

    def test_minimal_valid_exposition(self):
        assert validate_exposition(
            "# HELP repro_x g\n# TYPE repro_x gauge\nrepro_x 1\n"
        ) == 1


class TestFuzzRenderAlwaysValidates:
    """Property check: any registry's exposition parses under the validator."""

    def test_random_registries_render_valid_expositions(self):
        rng = random.Random(20260807)
        # One kind per name: Prometheus forbids exposing the same name as
        # two kinds, so the fuzz keeps the registry exposable by design.
        names = {
            "alex.links.discovered": "counter",
            "federation.requests": "counter",
            "pool.bytes.shipped": "counter",
            "cache.pressure": "gauge",
            "sparql.query.execute": "histogram",
        }
        label_values = ["a", 'quo"te', "back\\slash", "new\nline", "plain-1",
                        "ünïcode", ""]
        for round_number in range(25):
            registry = Registry(f"fuzz-{round_number}")
            for _ in range(rng.randint(1, 12)):
                name = rng.choice(sorted(names))
                labels = {
                    f"l{i}": rng.choice(label_values)
                    for i in range(rng.randint(0, 3))
                }
                kind = names[name]
                if kind == "counter":
                    registry.counter(name, **labels).inc(rng.randint(0, 10**6))
                elif kind == "gauge":
                    registry.gauge(name, **labels).set(rng.uniform(-1e6, 1e6))
                else:
                    histogram = registry.histogram(name, **labels)
                    for _ in range(rng.randint(0, 20)):
                        histogram.observe(rng.uniform(0, 100))
            if rng.random() < 0.5:
                with obs.use_registry(registry), obs.region("work"):
                    pass
            text = render_prometheus(registry.snapshot())
            samples = validate_exposition(text)
            assert samples == sum(
                1 for line in text.splitlines()
                if line and not line.startswith("#")
            )


class TestRenamedNames:
    """The 2.0.0 rename table of docs/observability.md, checked against the
    exposition of the ``repro stats`` workload (after a one-episode
    scenario in the same registry, so ``run_scenario``'s region shows up)."""

    #: (old exposed name, new exposed name or None when removed)
    RENAMED = [
        ("repro_sparql_query_seconds", "repro_sparql_query_execute"),
        ("repro_federation_query_seconds", "repro_federation_query_execute"),
        ('repro_span_total{path="episode"}', "repro_alex_episode_run"),
        ('repro_span_total{path="episode/explore"}', "repro_alex_episode_explore"),
        ('repro_span_total{path="scenario"}', "repro_experiments_scenario_run"),
        ("repro_span_total", None),
        ("repro_span_seconds_total", None),
    ]

    def test_table_documented(self):
        from pathlib import Path

        doc = (Path(__file__).resolve().parents[1] / "docs" / "observability.md").read_text()
        for old, new in self.RENAMED:
            assert f"`{old}`" in doc
            if new is not None:
                assert f"`{new}`" in doc

    def test_stats_exposition_uses_new_names(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "metrics.prom"
        with obs.use_registry():
            assert main(["run", "fig4d", "--max-episodes", "1"]) == 0
            assert main(["stats", "--episodes", "2", "--prom-out", str(prom)]) == 0
        capsys.readouterr()
        text = prom.read_text()
        assert validate_exposition(text) > 0
        for old, new in self.RENAMED:
            assert old not in text
            if new is not None:
                assert f"# TYPE {new} histogram" in text
                assert f"{new}_count " in text
