"""Parity: the observability stack changes nothing about seeded runs.

The off-by-default contract of this repo's telemetry: accounting, the
slowlog, and the reporter are pure listeners. A seeded workload run with
every feature enabled must produce byte-identical results to the same
workload with everything disabled, and the disabled path must create no
telemetry instruments of its own.
"""

import pytest

from repro import obs
from repro.core import AlexConfig, AlexEngine
from repro.core.workers import shutdown_shared_pool
from repro.features import FeatureSpace
from repro.feedback import FeedbackSession, GroundTruthOracle
from repro.links import Link, LinkSet
from repro.obs import accounting, slowlog
from repro.rdf.entity import Entity
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql.prepared import clear_plan_cache, prepare

LEFT_NAME = URIRef("http://a/ont/name")
RIGHT_NAME = URIRef("http://b/ont/name")


def link(i, j):
    return Link(URIRef(f"http://a/res/e{i}"), URIRef(f"http://b/res/e{j}"))


@pytest.fixture()
def space():
    space = FeatureSpace(theta=0.3)
    names = ["Alpha Jones", "Bravo Jones", "Carol Jones", "Delta Jones"]
    for i, left_name in enumerate(names):
        left = Entity(
            URIRef(f"http://a/res/e{i}"), {LEFT_NAME: (Literal(left_name),)}
        )
        for j, right_name in enumerate(names):
            right = Entity(
                URIRef(f"http://b/res/e{j}"), {RIGHT_NAME: (Literal(right_name),)}
            )
            space.add_pair(left, right)
    space.freeze()
    return space


@pytest.fixture()
def graph():
    graph = Graph(name="g")
    for index in range(10):
        graph.add(
            (URIRef(f"http://a/res/e{index}"), LEFT_NAME, Literal(f"name {index}"))
        )
    return graph


def run_workload(space, graph, enabled, tmp_path, tag):
    """One seeded feedback + query workload; returns its observable outputs."""
    clear_plan_cache()
    # every run starts with no shared pool alive: a pool left by an earlier
    # test would be shut down by this run's engine.close() only, setting
    # its pool.workers.alive gauge in this run's registry alone
    shutdown_shared_pool()
    with obs.use_registry(obs.Registry(tag)) as registry:
        if enabled:
            accounting.enable()
            slowlog.configure(threshold=0.0)
        config_changes = {}
        if enabled:
            config_changes = {
                "report_interval": 0.05,
                "report_path": str(tmp_path / f"{tag}.jsonl"),
            }
        try:
            truth = LinkSet([link(i, i) for i in range(4)])
            engine = AlexEngine(
                space,
                LinkSet([link(0, 0)]),
                AlexConfig(episode_size=5, seed=1, **config_changes),
            )
            session = FeedbackSession(engine, GroundTruthOracle(truth), seed=3)
            session.run(episode_size=5, max_episodes=3)
            rows = prepare(
                "SELECT ?s ?n WHERE { ?s <http://a/ont/name> ?n } LIMIT 6"
            ).execute(graph).as_tuples()
            candidates = engine.candidates.snapshot()
            engine.close()
        finally:
            accounting.disable()
            slowlog.disable()
        return candidates, rows, registry.snapshot()


class TestObservabilityChangesNothing:
    def test_enabled_run_matches_disabled_run(self, space, graph, tmp_path):
        bare = run_workload(space, graph, enabled=False, tmp_path=tmp_path, tag="bare")
        full = run_workload(space, graph, enabled=True, tmp_path=tmp_path, tag="full")
        bare_candidates, bare_rows, bare_snapshot = bare
        full_candidates, full_rows, full_snapshot = full
        # Byte-identical learner and query results.
        assert bare_candidates == full_candidates
        assert bare_rows == full_rows

        def names(snapshot):
            return {
                entry["name"]
                for section in ("counters", "gauges", "histograms")
                for entry in snapshot[section]
            } | {entry["path"] for entry in snapshot["spans"]}

        # The disabled path created no accounting/report/slowlog instruments,
        # and the enabled path created no new aggregate metric names either
        # (stats attach to results; the reporter reads, never writes).
        assert names(bare_snapshot) == names(full_snapshot)

    def test_disabled_run_repeats_identically(self, space, graph, tmp_path):
        first = run_workload(space, graph, enabled=False, tmp_path=tmp_path, tag="a")
        second = run_workload(space, graph, enabled=False, tmp_path=tmp_path, tag="b")
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_accounting_flag_restored_after_disable(self):
        accounting.enable()
        accounting.disable()
        assert not accounting.enabled()
        assert slowlog.active() is None
