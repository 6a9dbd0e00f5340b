"""Tests for the persistent worker pool and the dictionary-encoded wire format.

Covers the pool lifecycle (lazy spawn, reuse across builds, idle shutdown,
crash retry → in-process fallback), the entity/space wire codecs (round
trips, edge-case terms), fast vs fast-mp parity across seeds, and the
no-pickled-entities shipping contract.
"""

import os
import time

import pytest

from repro import obs
from repro.core.parallel_mp import build_space_parallel
from repro.core.workers import WorkerPool, effective_size, shared_pool, shutdown_shared_pool
from repro.datasets import PERSON_PROFILE, PairSpec, generate_pair
from repro.errors import ConfigError
from repro.features.space import FeatureSpace, decode_space_delta, encode_space_delta
from repro.rdf.entity import Entity, entities_of
from repro.rdf.terms import BNode, Literal, URIRef
from repro.similarity.prepared import (
    decode_entities,
    encode_entities,
    wire_pack,
    wire_unpack,
)


def _pair(seed: int = 21, n_shared: int = 30):
    return generate_pair(
        PairSpec(
            name="workers",
            left_name="left",
            right_name="right",
            profiles=(PERSON_PROFILE,),
            n_shared=n_shared,
            n_left_only=10,
            n_right_only=10,
            noise_left=0.1,
            noise_right=0.25,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def pair():
    return _pair()


@pytest.fixture(autouse=True)
def _clean_shared_pool():
    """Every test starts and ends without a shared pool (no process leaks)."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


# Task bodies must be module-level to cross the process boundary.


def _double(value):
    return value * 2


def _crash_in_worker(parent_pid):
    """Kill the hosting process — unless running in-process (the fallback)."""
    if os.getpid() != parent_pid:
        os._exit(137)
    return "survived"


def _boom():
    raise ValueError("task bug")


class TestWireFormat:
    def test_pack_unpack_round_trip(self):
        from array import array

        strings = ["", "héllo wörld", "a" * 300, "線形データ"]
        ints = array("I", [0, 1, 4294967295, 42])
        floats = array("d", [0.0, -1.5, 3.141592653589793])
        blob = wire_pack(strings, ints, floats)
        out_strings, out_ints, out_floats = wire_unpack(blob)
        assert out_strings == strings
        assert list(out_ints) == list(ints)
        assert list(out_floats) == list(floats)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            wire_unpack(b"not a wire blob at all")

    def test_entity_round_trip_edge_cases(self):
        p = URIRef("http://x/p")
        entities = [
            Entity(URIRef("http://x/a"), {p: (Literal("läbel", language="en"),)}),
            Entity(
                URIRef("http://x/b"),
                {
                    p: (
                        Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer"),
                        Literal("plain"),
                        URIRef("http://x/c"),
                        BNode("b42"),
                    ),
                    URIRef("http://x/q"): (),
                },
            ),
            Entity(BNode("subj"), {}),
        ]
        decoded = decode_entities(encode_entities(entities))
        assert decoded == entities
        # plain literal stays datatype-free (no xsd:string smuggled in)
        assert decoded[1].attributes[p][1].datatype is None

    def test_generated_entities_round_trip(self, pair):
        for graph in (pair.left, pair.right):
            entities = list(entities_of(graph))
            assert decode_entities(encode_entities(entities)) == entities

    def test_shared_terms_decode_shared(self, pair):
        entities = list(entities_of(pair.left))
        blob = encode_entities(entities)
        # dictionary encoding: the blob is much smaller than repeated terms
        assert len(blob) < sum(len(e.uri.value) * (1 + len(e.attributes)) * 4 for e in entities)
        decoded = decode_entities(blob)
        predicates = {id(p) for e in decoded for p in e.attributes}
        distinct = {p for e in decoded for p in e.attributes}
        # each distinct predicate decodes to ONE shared object
        assert len(predicates) == len(distinct)

    def test_space_delta_round_trip(self, pair):
        space = FeatureSpace.build(pair.left, pair.right)
        decoded = decode_space_delta(encode_space_delta(space))
        decoded.freeze()
        assert set(decoded.links()) == set(space.links())
        for link in space.links():
            assert decoded.feature_set(link) == space.feature_set(link)
        assert decoded.total_pairs_considered == space.total_pairs_considered


class TestPoolLifecycle:
    def test_effective_size_clamps_to_cpus(self):
        cpus = effective_size(None)
        assert cpus >= 1
        assert effective_size(0) == cpus
        assert effective_size(10_000) <= cpus
        assert effective_size(1) == 1

    def test_lazy_spawn_and_order_preserved(self):
        pool = WorkerPool(2, name="t-lazy")
        try:
            assert pool.stats()["alive"] is False  # nothing spawned yet
            results = pool.run_tasks(_double, [(i,) for i in range(7)])
            assert results == [i * 2 for i in range(7)]
            assert pool.stats()["alive"] is True
            assert pool.stats()["generation"] == 1
        finally:
            pool.shutdown()
        assert pool.stats()["alive"] is False

    def test_pool_reused_across_builds_zero_new_spawns(self, pair):
        left = list(entities_of(pair.left))
        right = list(entities_of(pair.right))
        first = FeatureSpace.build(left, right, workers=2)
        pool = shared_pool(2)
        generation = pool.stats()["generation"]
        pids = pool.worker_pids()
        second = FeatureSpace.build(left, right, workers=2)
        assert pool.stats()["generation"] == generation  # zero new spawns
        assert pool.worker_pids() == pids
        assert set(second.links()) == set(first.links())

    def test_shared_pool_grows_but_never_shrinks(self):
        small = shared_pool(1)
        assert shared_pool(1) is small
        bigger = shared_pool(2)
        if effective_size(2) > 1:  # on a 1-core box the sizes tie
            assert bigger is not small
        assert shared_pool(1) is bigger  # smaller request reuses

    def test_idle_timeout_shuts_workers_down(self):
        pool = WorkerPool(1, idle_timeout=0.2, name="t-idle")
        try:
            pool.run_tasks(_double, [(1,)])
            assert pool.stats()["alive"] is True
            deadline = time.monotonic() + 5.0
            while pool.stats()["alive"] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.stats()["alive"] is False
            # transparent respawn on next use
            assert pool.run_tasks(_double, [(2,)]) == [4]
            assert pool.stats()["generation"] == 2
        finally:
            pool.shutdown()

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(1, name="t-closed")
        pool.shutdown()
        with pytest.raises(ConfigError):
            pool.run_tasks(_double, [(1,)])

    def test_bad_idle_timeout_rejected(self):
        with pytest.raises(ConfigError):
            WorkerPool(1, idle_timeout=0.0)


class TestCrashRobustness:
    def test_crashing_task_falls_back_in_process(self):
        pool = WorkerPool(1, name="t-crash")
        try:
            with obs.use_registry(obs.Registry("crash")) as registry:
                results = pool.run_tasks(_crash_in_worker, [(os.getpid(),)], label="boom")
                assert results == ["survived"]
                snapshot = registry.snapshot()
            assert obs.counter_total(snapshot, "alex.pool.fallback") == 1
            stats = pool.stats()
            assert stats["fallbacks"] == 1
            assert stats["retries"] >= 1  # it was retried on a respawn first
        finally:
            pool.shutdown()

    def test_pool_usable_after_crash(self):
        pool = WorkerPool(1, name="t-recover")
        try:
            pool.run_tasks(_crash_in_worker, [(os.getpid(),)])
            assert pool.run_tasks(_double, [(21,)]) == [42]
        finally:
            pool.shutdown()

    def test_ordinary_exceptions_propagate(self):
        pool = WorkerPool(1, name="t-raise")
        try:
            with pytest.raises(ValueError, match="task bug"):
                pool.run_tasks(_boom, [()])
            assert pool.stats()["fallbacks"] == 0
        finally:
            pool.shutdown()


class TestBuildParity:
    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_fast_mp_parity_across_seeds(self, seed):
        bundle = _pair(seed=seed, n_shared=20)
        left = list(entities_of(bundle.left))
        right = list(entities_of(bundle.right))
        reference = FeatureSpace.build(left, right, workers=1)
        candidate = FeatureSpace.build(left, right, workers=2)
        assert set(candidate.links()) == set(reference.links())
        for link in reference.links():
            assert candidate.feature_set(link) == reference.feature_set(link)
        assert candidate.total_pairs_considered == reference.total_pairs_considered

    def test_partitions_ship_as_arrays_never_entities(self, pair):
        """The shipping contract: every task element crossing the process
        boundary is wire bytes or a scalar — never an Entity object."""
        left = list(entities_of(pair.left))
        right = list(entities_of(pair.right))
        shipped = []
        pool = WorkerPool(2, name="t-inspect")
        original = pool.run_tasks

        def recording(fn, tasks, label="tasks"):
            shipped.extend(tasks)
            return original(fn, tasks, label)

        pool.run_tasks = recording
        try:
            build_space_parallel(left, right, workers=2, pool=pool)
        finally:
            pool.shutdown()
        assert shipped, "expected the build to go through the pool"
        for task in shipped:
            for element in task:
                assert isinstance(element, (bytes, int, float, bool, str)), element
                assert not isinstance(element, Entity)
