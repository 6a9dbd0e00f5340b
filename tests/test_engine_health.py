"""Tests for AlexEngine.health()."""

import json

from repro import obs
from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.core.workers import peek_shared_pool, shared_pool, shutdown_shared_pool
from repro.features.space import FeatureSpace
from repro.links import Link, LinkSet
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef


def _small_pair():
    left = Graph(name="left")
    right = Graph(name="right")
    name = URIRef("http://example.org/name")
    for index in range(4):
        left.add((URIRef(f"http://left.org/{index}"), name, Literal(f"n{index}")))
        right.add((URIRef(f"http://right.org/{index}"), name, Literal(f"n{index}")))
    return left, right


def _engine() -> tuple[AlexEngine, Graph, Graph]:
    left, right = _small_pair()
    space = FeatureSpace.build(left, right, theta=0.3)
    links = LinkSet(
        [Link(URIRef("http://left.org/0"), URIRef("http://right.org/0"))]
    )
    config = AlexConfig(episode_size=2, seed=7)
    return AlexEngine(space, links, config), left, right


class TestHealth:
    def test_health_shape_and_status(self):
        engine, left, right = _engine()
        health = engine.health(graphs={"left": left, "right": right})
        assert health["status"] in ("ok", "degraded")
        assert set(health) == {
            "status", "engine", "pool", "caches", "trace",
            "slowlog", "dictionaries",
        }
        assert health["engine"]["name"] == "alex"
        assert health["caches"]["plan_cache"]["capacity"] >= 1
        assert "score_entries" in health["caches"]["similarity"]
        assert health["dictionaries"]["left"]["terms"] == len(left.dictionary)
        assert health["dictionaries"]["left"]["triples"] == len(left)
        assert health["slowlog"]["enabled"] is False

    def test_health_is_json_serializable(self):
        engine, left, right = _engine()
        health = engine.health(graphs={"left": left, "right": right})
        assert json.loads(json.dumps(health)) == health

    def test_health_does_not_spawn_pool(self):
        shutdown_shared_pool()
        engine, _, _ = _engine()
        health = engine.health()
        assert health["pool"] == {"spawned": False}
        assert peek_shared_pool() is None  # probing stayed side-effect-free

    def test_health_reports_live_pool_stats(self):
        engine, _, _ = _engine()
        pool = shared_pool(2)
        pool.worker_pids()  # force a spawn
        try:
            health = engine.health()
        finally:
            shutdown_shared_pool()
        assert health["pool"]["spawned"] is True
        assert health["pool"]["size"] >= 1
        assert health["pool"]["alive"] is True

    def test_health_reflects_slowlog(self):
        from repro.obs import slowlog

        engine, _, _ = _engine()
        link = Link(URIRef("http://left.org/1"), URIRef("http://right.org/1"))
        engine.process_feedback(link, positive=True)
        slowlog.configure(threshold=0.5)
        try:
            health = engine.health()
        finally:
            slowlog.disable()
        assert health["slowlog"]["enabled"] is True
        assert health["slowlog"]["threshold"] == 0.5

    def test_health_degraded_on_trace_drops(self):
        from repro.obs import trace

        engine, _, _ = _engine()
        with obs.use_registry():
            tracer = trace.install(seed=0, capacity=2)
            for index in range(5):
                tracer.event("alex.link.discover", link=f"l{index}")
            health = engine.health()
            trace.uninstall()
        assert health["trace"]["installed"] is True
        assert health["trace"]["dropped"] > 0
        assert health["status"] == "degraded"
