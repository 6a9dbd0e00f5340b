"""Thread-safety regression tests for the obs subsystem and the SPARQL
plan cache — the races the ALEX-C04x concurrency analyzer flagged, pinned
behaviorally so they cannot silently come back.

A note on scope: :meth:`Counter.inc` is deliberately lock-free (``self.value
+= amount`` is not atomic across bytecodes), so these tests never hammer
one instrument from many threads and then assert an exact value. What *is*
guarded — and what these tests exercise — is the registry's instrument
table, the tracer's ring buffer, and the plan cache: the structures
``locks.json`` inventories. Each test shrinks the interpreter's thread
switch interval so the races it guards against actually interleave.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

from repro import obs
from repro.obs.registry import SNAPSHOT_VERSION, Registry, counter_total
from repro.obs.trace import TRACE_SCHEMA, Tracer

THREADS = 8
ROUNDS = 200
#: Seconds a test waits for one of its threads before declaring it hung.
JOIN_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def _tight_thread_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _guard(work, errors):
    """``work`` wrapped so that whatever it raises lands in ``errors``: an
    exception escaping a bare thread only warns, it fails no test."""
    def body():
        try:
            work()
        except BaseException as error:  # noqa: BLE001 - collected for assert
            errors.append(error)
    return body


def _join(thread):
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive(), f"{thread.name} still running"


def _run_threads(workers):
    errors = []
    threads = [threading.Thread(target=_guard(work, errors)) for work in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        _join(thread)
    assert errors == [], errors


@contextmanager
def _in_background(work):
    """Run ``work(stop)`` on a guarded thread for the duration of the block,
    then set ``stop``, join, and re-raise the first error it collected."""
    stop = threading.Event()
    errors = []
    thread = threading.Thread(target=_guard(lambda: work(stop), errors))
    thread.start()
    try:
        yield
    finally:
        stop.set()
        _join(thread)
    if errors:
        raise errors[0]


# --------------------------------------------------------------------- #
# Registry: instrument table growth vs snapshot()
# --------------------------------------------------------------------- #


def test_snapshot_is_safe_while_instruments_are_created():
    """snapshot() copies the instrument dict under the lock: concurrent
    get-or-create must not blow up its iteration (pre-fix this raised
    'dictionary changed size during iteration') and every update written
    before the last join must be visible afterwards."""
    registry = Registry("stress")

    def writer(index):
        def work():
            for round_ in range(ROUNDS):
                registry.counter("stress.ops", worker=index, round=round_ % 10).inc()
        return work

    def reader(stop):
        while not stop.is_set():
            snapshot = registry.snapshot()
            assert snapshot["format_version"] == SNAPSHOT_VERSION

    with _in_background(reader):
        _run_threads([writer(index) for index in range(THREADS)])
    assert counter_total(registry.snapshot(), "stress.ops") == THREADS * ROUNDS


def test_get_or_create_returns_one_instrument_per_key():
    """All racing creators of the same (name, labels) key must converge on
    a single instrument object — the double-checked slow path re-checks
    under the lock."""
    registry = Registry("identity")
    seen = []
    barrier = threading.Barrier(THREADS)

    def creator():
        barrier.wait()
        seen.append(registry.counter("one.key", kind="shared"))

    _run_threads([creator] * THREADS)
    assert len(seen) == THREADS
    assert all(instrument is seen[0] for instrument in seen)


def test_merge_of_worker_snapshots_loses_nothing():
    """Per-worker registries merged into one parent (the multiprocessing
    shape) preserve every count."""
    workers = [Registry(f"w{index}") for index in range(THREADS)]

    def incrementer(registry, index):
        def work():
            for _ in range(ROUNDS):
                registry.counter("merged.ops", worker=index).inc()
        return work

    _run_threads([incrementer(reg, i) for i, reg in enumerate(workers)])
    parent = Registry("parent")
    for registry in workers:
        parent.merge(registry.snapshot())
    assert counter_total(parent.snapshot(), "merged.ops") == THREADS * ROUNDS


# --------------------------------------------------------------------- #
# Tracer: ring buffer, payload coherence
# --------------------------------------------------------------------- #


def test_ring_buffer_stays_bounded_under_concurrent_appends():
    """Concurrent trace-less events against a tiny ring: nothing is lost
    silently (len + dropped == total) and compaction keeps the backing
    list bounded at ~2x capacity."""
    capacity = 64
    tracer = Tracer(capacity=capacity)

    def emitter(index):
        def work():
            for round_ in range(ROUNDS):
                tracer.event("ring.append", worker=index, round=round_)
        return work

    _run_threads([emitter(index) for index in range(THREADS)])
    total = THREADS * ROUNDS
    assert len(tracer) == capacity
    assert tracer.dropped == total - capacity
    assert tracer._start <= tracer.capacity
    assert len(tracer._records) <= 2 * capacity


def test_payload_is_coherent_under_concurrent_appends():
    """payload() assembles records and the dropped count in one locked
    section, so every observed payload satisfies the conservation
    invariant dropped + buffered <= appended-so-far, with equality once
    the writers join."""
    capacity = 32
    tracer = Tracer(capacity=capacity)
    total = THREADS * ROUNDS

    def emitter():
        for _ in range(ROUNDS):
            tracer.event("payload.append")

    def auditor(stop):
        while not stop.is_set():
            payload = tracer.payload()
            assert payload["schema"] == TRACE_SCHEMA
            assert len(payload["records"]) <= capacity
            assert payload["dropped"] + len(payload["records"]) <= total

    with _in_background(auditor):
        _run_threads([emitter] * THREADS)
    final = tracer.payload()
    assert final["dropped"] + len(final["records"]) == total


# --------------------------------------------------------------------- #
# SPARQL plan cache: one prepared object per text, no cross-lock holds
# --------------------------------------------------------------------- #


def test_concurrent_prepare_converges_on_one_plan():
    """Racing prepare() calls for the same text all get the *same*
    PreparedQuery (the join-order memo must not split), and the hit path
    bumps its counter outside _cache_lock so the cache lock is never held
    while the obs registry lock is taken."""
    from repro.sparql.prepared import clear_plan_cache, prepare

    text = "SELECT ?s WHERE { ?s ?p ?o }"
    clear_plan_cache()
    try:
        with obs.use_registry():
            results = []
            barrier = threading.Barrier(THREADS)

            def preparer():
                barrier.wait()
                for _ in range(ROUNDS // 10):
                    results.append(prepare(text))

            _run_threads([preparer] * THREADS)
            assert len(results) == THREADS * (ROUNDS // 10)
            assert all(prepared is results[0] for prepared in results)
    finally:
        clear_plan_cache()
