"""Persistent process pool for the multi-process feature-space build.

Before this module existed the pool's one caller,
:func:`~repro.core.parallel_mp.build_space_parallel`, spawned a fresh
``ProcessPoolExecutor`` per call, so process start-up and full-object
pickling dominated the similarity work ALEX actually needs parallelized —
the multi-process build measured *slower* than the single-process one.
A :class:`WorkerPool` instead spawns its workers
once, lazily, and keeps them alive across builds: repeated builds pay no
respawn cost, and long-lived workers keep their interned term tables and
score memo caches warm (the same values recur across builds of a churning
KB, so steady-state rebuilds skip most of the string metric work).

Lifecycle discipline — nothing may leak processes out of a test run:

* **lazy spawn** — no process exists until the first task batch arrives;
* **idle timeout** — a daemon timer shuts the executor down after
  ``idle_timeout`` seconds without a batch (workers respawn transparently
  on next use);
* **atexit + Engine.close()** — the process-shared pool is torn down at
  interpreter exit and by :meth:`~repro.core.engine.AlexEngine.close`.

Crash robustness: a batch whose worker dies (``BrokenProcessPool``) is
retried once on a respawned executor; if the executor breaks again the
surviving tasks run in-process and ``alex.pool.fallback`` counts the
degradation.

Threading model: all mutable pool state (``_executor``, ``_generation``,
``_timer``, counters) is guarded by ``_lock``; blocking work — executor
shutdown, future results, in-process fallback — always happens *outside*
the lock so the idle timer and concurrent submitters can never deadlock
(see the lock/queue discipline notes in ``docs/architecture.md``).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro import obs
from repro.errors import ConfigError

#: Seconds without a task batch before the workers are shut down.
DEFAULT_IDLE_TIMEOUT = 300.0


def effective_size(requested: int | None) -> int:
    """Worker processes actually worth spawning for a request.

    ``requested`` ≤ 0 (or ``None``) means "size to the machine". The pool
    never spawns more processes than there are schedulable CPUs: on a
    1-core container a request for 4 workers still yields one process
    (partitions queue through it and share its warm caches), which is
    strictly better than 4 processes time-slicing one core with 4 cold
    caches.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux: no affinity API
        cpus = os.cpu_count() or 1
    cpus = max(1, cpus)
    if requested is None or requested <= 0:
        return cpus
    return max(1, min(requested, cpus))


def _run_in_process(fn: Callable, args: tuple) -> Any:
    """In-process fallback body (module-level so tests can monkeypatch)."""
    return fn(*args)


class WorkerPool:
    """A lazily-spawned, persistent, crash-tolerant process pool."""

    def __init__(
        self,
        max_workers: int | None = None,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        name: str = "pool",
    ):
        if idle_timeout <= 0:
            raise ConfigError(f"idle_timeout must be > 0, got {idle_timeout}")
        self.size = effective_size(max_workers)
        self.idle_timeout = idle_timeout
        self.name = name
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._timer: threading.Timer | None = None
        self._active_batches = 0
        self._last_used = time.monotonic()
        self._generation = 0
        self._tasks_completed = 0
        self._batches = 0
        self._retries = 0
        self._fallbacks = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Lifecycle counters (a live executor means workers are alive)."""
        with self._lock:
            return {
                "size": self.size,
                "alive": self._executor is not None,
                "generation": self._generation,
                "batches": self._batches,
                "tasks_completed": self._tasks_completed,
                "retries": self._retries,
                "fallbacks": self._fallbacks,
            }

    def worker_pids(self) -> frozenset[int]:
        """The PIDs of the executor's live worker processes.

        Spawns the executor if needed and waits for one probe task per
        worker slot, so the workers exist. The PIDs come from the executor's
        process table, not from the probes' answers (one fast worker may
        answer every probe); with a warm pool no new process is created and
        the frozenset is stable across consecutive batches, which is what
        the pool-reuse tests assert.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(os.getpid) for _ in range(self.size)]
        try:
            for future in futures:
                future.result()
            pids = frozenset(executor._processes)
        finally:
            self._touch()
        return pids

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_tasks(self, fn: Callable, tasks: Sequence[tuple], label: str = "tasks") -> list:
        """Run ``fn(*task)`` for every task, in order, on the worker pool.

        Results come back in task order. A ``BrokenProcessPool`` failure
        respawns the executor and retries the failed tasks once; tasks that
        break the respawned executor too fall back to in-process execution
        (counted as ``alex.pool.fallback``). Ordinary task exceptions
        propagate unchanged — they are bugs in the task, not pool crashes.
        """
        if not tasks:
            return []
        with self._lock:
            if self._closed:
                raise ConfigError(f"worker pool {self.name!r} is closed")
            self._active_batches += 1
            self._batches += 1
        obs.set_gauge("pool.tasks.queued", len(tasks), pool=self.name)
        try:
            return self._run_batch(fn, list(tasks), label)
        finally:
            obs.set_gauge("pool.tasks.queued", 0, pool=self.name)
            with self._lock:
                self._active_batches -= 1
            self._touch()

    def _run_batch(self, fn: Callable, tasks: list[tuple], label: str) -> list:
        results: list[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        for _attempt in range(2):
            if not pending:
                break
            executor = self._ensure_executor()
            futures = [(index, executor.submit(fn, *tasks[index])) for index in pending]
            broken: list[int] = []
            for index, future in futures:
                try:
                    results[index] = future.result()
                    with self._lock:
                        self._tasks_completed += 1
                except BrokenProcessPool:
                    broken.append(index)
            if broken:
                obs.inc("pool.batch.broken", labels_pool=self.name)
                with self._lock:
                    self._retries += len(broken)
                self._discard_executor()
            pending = broken
        for index in pending:
            # Second respawn also died: the task itself kills workers.
            # Degrade to in-process execution so the build still finishes.
            obs.inc("alex.pool.fallback", task=label)
            with self._lock:
                self._fallbacks += 1
            results[index] = _run_in_process(fn, tasks[index])
            with self._lock:
                self._tasks_completed += 1
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """The live executor, spawning one (lazily) when none exists."""
        with self._lock:
            if self._closed:
                raise ConfigError(f"worker pool {self.name!r} is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.size)
                self._generation += 1
                obs.inc("pool.processes.spawned", self.size, pool=self.name)
                obs.set_gauge("pool.workers.alive", self.size, pool=self.name)
            return self._executor

    def _touch(self) -> None:
        """Record activity and (re)arm the idle-shutdown timer."""
        with self._lock:
            self._last_used = time.monotonic()
            if self._executor is None:
                return
            if self._timer is not None:
                self._timer.cancel()
            timer = threading.Timer(self.idle_timeout, self._idle_check)
            timer.daemon = True
            self._timer = timer
            timer.start()

    def _idle_check(self) -> None:
        """Timer body: shut the workers down if the pool has gone idle."""
        with self._lock:
            idle = (
                self._active_batches == 0
                and time.monotonic() - self._last_used >= self.idle_timeout * 0.5
            )
            executor = self._executor if idle else None
            if idle:
                self._executor = None
                self._timer = None
        if executor is not None:
            executor.shutdown(wait=True)
            obs.set_gauge("pool.workers.alive", 0, pool=self.name)

    def _discard_executor(self) -> None:
        """Drop a broken executor; the next batch respawns workers."""
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=False)
            obs.set_gauge("pool.workers.alive", 0, pool=self.name)

    def restart(self) -> None:
        """Shut the workers down; the next batch spawns a fresh generation.

        Used by the benchmark to measure a genuinely cold multi-process
        build (fresh processes, empty worker caches).
        """
        self._discard_executor()

    def shutdown(self) -> None:
        """Terminate the workers and refuse further batches."""
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
            timer = self._timer
            self._timer = None
        if timer is not None:
            timer.cancel()
        if executor is not None:
            executor.shutdown(wait=True)
            obs.set_gauge("pool.workers.alive", 0, pool=self.name)

    def __repr__(self):
        stats = self.stats()
        state = "alive" if stats["alive"] else "idle"
        return f"<WorkerPool {self.name!r} size={self.size} {state} gen={stats['generation']}>"


# --------------------------------------------------------------------- #
# The process-shared pool
# --------------------------------------------------------------------- #

_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def shared_pool(workers: int | None = None) -> WorkerPool:
    """The process-wide pool that space builds share.

    Created on first use and reused by every later build, so workers spawn
    once per engine lifetime; it idles out after
    :data:`DEFAULT_IDLE_TIMEOUT` seconds. A request for more workers than
    the current pool holds replaces it with a bigger one (the old workers
    are shut down); smaller requests reuse the existing pool, so the pool
    only ever grows to the machine's CPU count.
    """
    global _shared
    requested = effective_size(workers)
    stale: WorkerPool | None = None
    with _shared_lock:
        pool = _shared
        if pool is None or pool.stats()["size"] < requested:
            stale = pool
            pool = WorkerPool(requested, name="shared")
            _shared = pool
    if stale is not None:
        stale.shutdown()
    return pool


def peek_shared_pool() -> WorkerPool | None:
    """The shared pool if one has been created, without creating it.

    Health probes use this: asking "is the pool alive?" must never spawn
    worker processes as a side effect.
    """
    with _shared_lock:
        return _shared


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (atexit hook and ``AlexEngine.close``)."""
    global _shared
    with _shared_lock:
        pool = _shared
        _shared = None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_shared_pool)
