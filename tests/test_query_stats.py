"""Tests for per-query resource accounting (QueryStats) and the slowlog."""

import json

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import accounting, slowlog
from repro.obs.accounting import QueryStats
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql.prepared import clear_plan_cache, plan_cache_info, prepare


@pytest.fixture()
def graph() -> Graph:
    graph = Graph(name="g")
    name = URIRef("http://example.org/name")
    knows = URIRef("http://example.org/knows")
    people = [URIRef(f"http://example.org/p{i}") for i in range(12)]
    for index, person in enumerate(people):
        graph.add((person, name, Literal(f"name{index}")))
        graph.add((person, knows, people[(index + 1) % len(people)]))
    return graph


@pytest.fixture()
def accounted():
    """Enable accounting (and a fresh plan cache) for one test."""
    clear_plan_cache()
    accounting.enable()
    try:
        with obs.use_registry():
            yield
    finally:
        accounting.disable()
        slowlog.disable()


SELECT = "SELECT ?p ?n WHERE { ?p <http://example.org/name> ?n } LIMIT 4"


class TestQueryStatsCollection:
    def test_disabled_by_default_attaches_nothing(self, graph):
        clear_plan_cache()
        result = prepare(SELECT).execute(graph)
        assert result.stats is None

    def test_select_stats_populated(self, graph, accounted):
        result = prepare(SELECT).execute(graph)
        stats = result.stats
        assert stats is not None
        assert stats.kind == "select"
        assert stats.rows_out == 4
        assert stats.wall_seconds > 0
        assert stats.decodes > 0  # result terms decoded from IDs
        assert "match" in stats.phases
        assert stats.strategies  # at least one join strategy metered
        for record in stats.strategies.values():
            assert record["patterns"] >= 1
            assert record["rows_out"] >= 0

    def test_plan_cache_hit_flag_false_then_true(self, graph, accounted):
        first = prepare(SELECT).execute(graph)
        assert first.stats.plan_cache_hit is False
        second = prepare(SELECT).execute(graph)
        assert second.stats.plan_cache_hit is True

    def test_failed_execute_leaves_no_stale_plan_cache_note(self, graph, accounted):
        class FailingGraph:
            def __getattr__(self, name):
                raise RuntimeError("graph unavailable")

        query = prepare(SELECT)  # a miss: notes plan_cache_hit=False
        with pytest.raises(RuntimeError):
            query.execute(FailingGraph())
        # reusing the prepared query runs no prepare(), so there is no note
        assert query.execute(graph).stats.plan_cache_hit is None

    def test_ask_and_construct_stats(self, graph, accounted):
        assert prepare("ASK { ?s ?p ?o }").execute(graph) is True
        constructed = prepare(
            "CONSTRUCT { ?p <http://example.org/alias> ?n } "
            "WHERE { ?p <http://example.org/name> ?n }"
        ).execute(graph)
        assert len(constructed) == 12

    def test_to_dict_round_trips_through_json(self, graph, accounted):
        stats = prepare(SELECT).execute(graph).stats
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["kind"] == "select"
        assert payload["rows_out"] == 4

    def test_results_identical_with_accounting(self, graph):
        clear_plan_cache()
        baseline = prepare(SELECT).execute(graph).as_tuples()
        clear_plan_cache()
        accounting.enable()
        try:
            accounted_rows = prepare(SELECT).execute(graph).as_tuples()
        finally:
            accounting.disable()
        assert accounted_rows == baseline

    def test_plan_cache_info_shape(self, graph, accounted):
        prepare(SELECT).execute(graph)
        info = plan_cache_info()
        assert info["entries"] >= 1
        assert info["capacity"] >= info["entries"]
        assert info["misses"] >= 1


class TestFederatedStats:
    @pytest.fixture()
    def federation(self, graph):
        from repro.federation.endpoint import Endpoint
        from repro.federation.executor import FederatedEngine
        from repro.links import LinkSet

        other = Graph(name="other")
        name = URIRef("http://example.org/name")
        for i in range(3):
            other.add((URIRef(f"http://other.org/q{i}"), name, Literal(f"o{i}")))
        return FederatedEngine(
            [Endpoint(graph, "left"), Endpoint(other, "right")], LinkSet()
        )

    def test_federated_stats_attached(self, federation, accounted):
        result = federation.select(
            "SELECT ?p ?n WHERE { ?p <http://example.org/name> ?n } LIMIT 6"
        )
        stats = result.stats
        assert stats is not None
        assert stats.kind == "federated"
        assert stats.rows_out == 6
        assert stats.endpoint_requests > 0
        assert "source_select" in stats.phases
        assert "join" in stats.phases
        assert any(
            strategy.startswith("bound-join") for strategy in stats.strategies
        )

    def test_federated_disabled_attaches_nothing(self, federation):
        result = federation.select(
            "SELECT ?p WHERE { ?p <http://example.org/name> ?n } LIMIT 2"
        )
        assert result.stats is None


class TestSlowLog:
    def test_threshold_filters_fast_operations(self):
        log = slowlog.SlowLog(threshold=1.0)
        assert log.record("query", "fast", 0.5) is False
        assert log.record("query", "slow", 2.0) is True
        assert len(log) == 1

    def test_ring_is_bounded_but_recorded_total_grows(self):
        log = slowlog.SlowLog(capacity=3)
        for index in range(10):
            log.record("query", f"q{index}", float(index))
        assert len(log) == 3
        assert log.recorded == 10
        assert [entry["name"] for entry in log.entries()] == ["q7", "q8", "q9"]

    def test_render_slowest_first_with_detail_hints(self):
        log = slowlog.SlowLog()
        log.record("query", "cheap", 0.001, detail={"rows_out": 2})
        log.record("federated", "costly", 0.5, detail={"endpoint_requests": 9})
        text = log.render()
        lines = text.splitlines()
        assert "costly" in lines[1]  # slowest first
        assert "endpoint_requests=9" in lines[1]
        assert "rows_out=2" in lines[2]

    def test_flush_roundtrip(self, tmp_path):
        log = slowlog.SlowLog()
        log.record("episode", "alex#1", 0.25, detail={"feedback": 10})
        target = tmp_path / "slow.json"
        assert log.flush(str(target)) == str(target)
        payload = json.loads(target.read_text())
        assert payload["schema"] == slowlog.SLOWLOG_SCHEMA
        assert payload["entries"][0]["name"] == "alex#1"

    def test_flush_without_target_is_noop(self):
        assert slowlog.SlowLog().flush() is None

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ObsError):
            slowlog.SlowLog(threshold=-1.0)
        with pytest.raises(ObsError):
            slowlog.SlowLog(capacity=0)

    def test_configure_install_disable_cycle(self):
        assert slowlog.active() is None
        installed = slowlog.configure(threshold=0.5)
        assert slowlog.active() is installed
        assert slowlog.disable() is installed
        assert slowlog.active() is None

    def test_queries_recorded_when_active(self, graph, accounted):
        log = slowlog.configure(threshold=0.0)
        prepare(SELECT).execute(graph)
        entries = log.entries()
        assert len(entries) == 1
        assert entries[0]["kind"] == "query"
        assert entries[0]["name"] == SELECT
        assert entries[0]["detail"]["rows_out"] == 4

    def test_slowlog_alone_collects_stats_without_accounting(self, graph):
        """The slowlog implies per-query accounting for its entries."""
        clear_plan_cache()
        log = slowlog.configure(threshold=0.0)
        try:
            result = prepare(SELECT).execute(graph)
        finally:
            slowlog.disable()
        assert result.stats is not None
        assert log.entries()[0]["detail"]["decodes"] > 0


class TestQueryStatsUnit:
    def test_note_strategy_accumulates(self):
        stats = QueryStats("select")
        stats.note_strategy("hash-join", 10, 4, 0.5)
        stats.note_strategy("hash-join", 6, 2, 0.25)
        record = stats.strategies["hash-join"]
        assert record == {
            "patterns": 2, "rows_in": 16, "rows_out": 6, "seconds": 0.75,
        }

    def test_note_phase_accumulates(self):
        stats = QueryStats("ask")
        stats.note_phase("match", 0.1)
        stats.note_phase("match", 0.2)
        assert stats.phases["match"] == pytest.approx(0.3)

    def test_plan_cache_note_is_consumed_once(self):
        accounting.note_plan_cache(True)
        assert accounting.consume_plan_cache_note() is True
        assert accounting.consume_plan_cache_note() is None
