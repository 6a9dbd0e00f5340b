"""End-to-end feedback-loop benchmark for ALEX, with a per-layer traced run.

Run from the repository root::

    python3 bench/run.py --workload batch-link --seed 1 --seconds 15 --trace 0

One invocation measures one workload. The parent process generates the
workload's catalog dataset pair, writes it as a bundle under ``bench/out/``
(outside every timed region), and then runs the workload in three fresh
interpreters, one after another, with ``PYTHONHASHSEED`` set to 0, 1 and 2.
Each child:

1. sets up, timed: ``load_bundle`` (parse and dictionary-encode), PARIS,
   then the feature-space build;
2. runs the same fixed list of sessions, each a closed loop with one
   simulated user that starts from the set-up state. ``--seed`` and the
   session's index seed the user: which links it judges, the engine's
   ε-greedy stream, and the queries it asks.

The dataset does not vary with ``--seed``: generated instances differ in
size and difficulty enough to move every metric by 10-30%, which would
drown the changes the benchmark exists to show.

Every child must end every session with the same link digest, which checks
that results do not depend on the hash seed. The number of sessions follows
from ``--seconds`` and the workload's nominal session length, so two commits
run identical work. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and its sample count. The exit code is
non-zero when any check or operation failed.

``--trace 1`` runs half as many sessions, each both untraced and traced, and
reports the per-layer metrics instead. Spans are recorded only here, by
wrappers on public methods of objects this file constructed; nothing in
``src/`` changes and the program's own tracer stays off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict, namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fresh interpreters per run; rep r runs with PYTHONHASHSEED=r. setup_s is
#: the median of their set-ups.
CHILDREN = 3
#: Wall-clock limit for one child. Three of them stay inside the 180 s a
#: run may take.
CHILD_TIMEOUT_S = 55.0
#: Span records kept for the trace file (child 0 only); the rest are counted
#: as dropped in its header but still feed the per-layer metrics.
TRACE_RECORDS = 20000

#: The strict PARIS start shared by every workload: evidence threshold τ,
#: fixpoint iterations, score threshold, mutual-best assignment.
PARIS = {"evidence_tau": 0.8, "iterations": 4, "score_threshold": 0.88, "mutual_best": True}

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "mean_f1": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> (unit, the end-to-end
#: metric and workloads it should move). Layers are named after modules.
LAYER = {
    "rdf.load_s": ("s", "setup_s, all"),
    "rdf.triples": ("count", "setup_s, all"),
    "paris.run_s": ("s", "setup_s, all"),
    "paris.links": ("count", "mean_f1, all"),
    "paris.precision": ("ratio", "mean_f1, all"),
    "features.build_s": ("s", "setup_s, all"),
    "features.admit_ratio": ("ratio", "setup_s, all"),
    "features.explore_calls": ("count", "op_p99_ms, batch-link and checkpoint-resume"),
    "features.explore_s": ("s", "op_p99_ms, batch-link and checkpoint-resume"),
    "features.explore_links": ("count", "op_p99_ms, batch-link and checkpoint-resume"),
    "similarity.score_cache_entries": ("count", "setup_s, all"),
    "core.workers.tasks": ("count", "setup_s, batch-link"),
    "core.workers.fallbacks": ("count", "setup_s, batch-link"),
    "core.feedback_self_s": ("s", "op_p50_ms, batch-link and checkpoint-resume"),
    "core.end_episode_s": ("s", "ops_per_s, every feedback workload"),
    "core.end_episode_p90_ms": ("ms", "ops_per_s, every feedback workload"),
    "core.discovered": ("count", "mean_f1, every feedback workload"),
    "core.discover_precision": ("ratio", "mean_f1, every feedback workload"),
    "core.rollbacks": ("count", "mean_f1, every feedback workload"),
    "core.parallel.route_s": ("s", "op_p50_ms, batch-link"),
    "core.parallel.candidates_s": ("s", "ops_per_s, batch-link; no change on checkpoint-resume"),
    "feedback.session_self_s": ("s", "ops_per_s, batch-link and checkpoint-resume"),
    "feedback.workload_self_s": ("s", "ops_per_s, query-feedback"),
    "feedback.items_per_query": ("count", "ops_per_s, query-feedback"),
    "federation.select_self_s": ("s", "op_p50_ms and op_p99_ms, query-feedback and query-hot"),
    "federation.endpoint_s": ("s", "op_p50_ms and op_p99_ms, query-feedback and query-hot"),
    "federation.requests_per_query": ("count", "op_p50_ms, query-feedback and query-hot"),
    "federation.answer_yield": ("ratio", "ops_per_s, query-feedback"),
    "sparql.prepare_s": ("s", "op_p50_ms, query-feedback and query-hot"),
    "sparql.plan_cache_hit_rate": ("ratio", "op_p50_ms, query-hot (~1) vs query-feedback (~0.01)"),
    "persist.save_s": ("s", "ops_per_s, checkpoint-resume"),
    "persist.save_p95_ms": ("ms", "ops_per_s, checkpoint-resume"),
    "persist.save_bytes": ("bytes", "ops_per_s, checkpoint-resume"),
    "persist.bytes_per_link": ("bytes", "ops_per_s, checkpoint-resume"),
    "persist.space_load_s": ("s", "ops_per_s, checkpoint-resume"),
    "persist.engine_load_s": ("s", "ops_per_s, checkpoint-resume"),
    "persist.load_p80_ms": ("ms", "ops_per_s, checkpoint-resume"),
    "run.wall_s": ("s", "ops_per_s, all"),
    "run.cpu_s": ("s", "ops_per_s, all"),
    "trace.spans": ("count", "none: trace volume"),
    "trace.overhead": ("ratio", "none: traced over untraced steady wall, minus 1"),
}

#: Spans whose individual durations feed a percentile.
PERCENTILE_SPANS = {
    "core.engine.end_episode", "core.parallel.end_episode",
    "persist.save", "persist.restore",
}


# --------------------------------------------------------------------- #
# Measurement primitives
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process's own image, in MiB. Linux carries
    the parent's peak across exec into ``ru_maxrss``, so the image's own
    high-water mark (``VmHWM``) is read where the platform has it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def link_digest(links, *extra) -> str:
    """Order-independent digest of a link set plus any extra counts."""
    digest = hashlib.sha256()
    for left, right in sorted((link.left.value, link.right.value) for link in links):
        digest.update(f"{left} {right}\n".encode())
    digest.update(repr(extra).encode())
    return digest.hexdigest()[:16]


def canonical(value):
    """``value`` with every list sorted, so two states compare order-free."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted((canonical(item) for item in value), key=lambda x: json.dumps(x, sort_keys=True))
    return value


class Probe:
    """Counts one kind of operation and, for the workload's headline
    operation, records each call's latency. Failures are counted, then
    re-raised: they abort the session and fail the run."""

    def __init__(self, timed: bool = False):
        self.calls = 0
        self.failed = 0
        self.samples: list[float] | None = [] if timed else None

    def call(self, fn, *args, **kwargs):
        self.calls += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        if self.samples is not None:
            self.samples.append(time.perf_counter() - start)
        return result

    def attach(self, obj, attr: str, check=None) -> None:
        """Route program calls to ``obj.attr`` through :meth:`call`;
        ``check(result)`` runs outside the latency sample."""
        fn = getattr(obj, attr)

        def probed(*args, **kwargs):
            result = self.call(fn, *args, **kwargs)
            if check is not None:
                check(result)
            return result

        setattr(obj, attr, probed)


class Steady:
    """Wall and CPU time of each of a session's timed segments. Bench
    bookkeeping between segments (quality evaluation, checks) stays
    outside."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpu = 0.0

    def run(self, fn, *args):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.walls.append(time.perf_counter() - wall)
            self.cpu += time.process_time() - cpu


class _Frame:
    __slots__ = ("name", "span", "trace", "parent", "start", "t0", "dur", "child")

    def __init__(self, name, span, trace, parent):
        self.name = name
        self.span = span
        self.trace = trace
        self.parent = parent
        self.start = None
        self.t0 = 0.0
        self.dur = 0.0
        self.child = 0.0


class Spans:
    """Bench-side span recorder in the ``repro-trace/1`` record shape.

    A span opened with no span open starts a new trace, so each top-level
    operation (an episode, a query, a save) gets one trace id. Self time is
    a span's duration minus the time its child spans cover. Every span
    feeds the per-layer totals; the first ``keep`` are also kept as records
    for the trace file.
    """

    def __init__(self, seed: int, keep: int):
        self._ids = random.Random(seed)
        self._stack: list[_Frame] = []
        self._undo: list[tuple] = []
        self._epoch = time.perf_counter()
        self.keep = keep
        self.records: list[dict] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        span = f"{self._ids.getrandbits(64):016x}"
        trace = parent.trace if parent is not None else f"{self._ids.getrandbits(64):016x}"
        return _Frame(name, span, trace, parent)

    def _resume(self, frame: _Frame) -> None:
        self._stack.append(frame)
        frame.t0 = time.perf_counter()
        if frame.start is None:
            frame.start = frame.t0

    def _pause(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.t0
        self._stack.pop()
        frame.dur += elapsed
        if frame.parent is not None:
            frame.parent.child += elapsed

    def _finish(self, frame: _Frame, calls: int | None = None) -> None:
        stat = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += frame.dur
        stat[2] += frame.dur - frame.child
        if frame.name in PERCENTILE_SPANS:
            self.durations[frame.name].append(frame.dur)
        if len(self.records) >= self.keep:
            self.dropped += 1
            return
        self.records.append({
            "trace": frame.trace,
            "span": frame.span,
            "parent": frame.parent.span if frame.parent is not None else None,
            "name": frame.name,
            "kind": "span",
            "t": (frame.start or self._epoch) - self._epoch,
            "dur": frame.dur,
            "attrs": {} if calls is None else {"next_calls": calls},
        })

    def call(self, name: str, fn, *args, **kwargs):
        frame = self._open(name)
        self._resume(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._pause(frame)
            self._finish(frame)

    def _iterate(self, name: str, iterator):
        """One span over a generator: its duration is the time spent inside
        ``next()``, the part of consumption the endpoint itself costs."""
        frame = self._open(name)
        calls = 0
        try:
            while True:
                self._resume(frame)
                calls += 1
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._pause(frame)
                yield item
        finally:
            self._finish(frame, calls)

    def wrap(self, obj, attr: str, name: str, on_result=None, generator: bool = False) -> None:
        """Shadow ``obj.attr`` (an instance method or a module function)
        with a span; :meth:`unwrap` restores it."""
        original = getattr(obj, attr)
        namespace = vars(obj)
        self._undo.append((obj, attr, attr in namespace, namespace.get(attr)))
        if generator:
            def traced(*args, **kwargs):
                return self._iterate(name, original(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
        setattr(obj, attr, traced)

    def unwrap(self) -> None:
        while self._undo:
            obj, attr, had, previous = self._undo.pop()
            if had:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)

    def payload(self) -> dict:
        return {
            "stats": self.stats,
            "durations": dict(self.durations),
            "counts": dict(self.counts),
            "spans": sum(stat[0] for stat in self.stats.values()),
        }


class _TracedCandidates:
    """Forwards to a :class:`~repro.PartitionedAlex`, timing its
    ``candidates`` union. It is a property, so it cannot be shadowed on the
    instance; the session is handed this forwarder instead."""

    def __init__(self, alex, spans: Spans):
        self._alex = alex
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._alex, name)

    @property
    def candidates(self):
        return self._spans.call("core.parallel.candidates", lambda: self._alex.candidates)


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


class EntityQueries:
    """The bench's query generator: entity-centric two-pattern SELECTs, the
    shape of :class:`repro.feedback.workload.QueryWorkloadGenerator`. It
    lives here so the query stream is fixed by the benchmark, not by the
    program under test."""

    Query = namedtuple("Query", "text")

    def __init__(self, vocabulary: tuple, seed: int):
        self.entities, self.left_predicates, self.right_predicates = vocabulary
        self.rng = random.Random(seed)

    @staticmethod
    def vocabulary(left, right) -> tuple:
        entities = sorted(left.entities(), key=str)
        left_predicates = {
            entity: sorted(left.predicates(subject=entity), key=lambda p: p.value)
            for entity in entities
        }
        return entities, left_predicates, sorted(right.predicates(), key=lambda p: p.value)

    def generate(self, focus=None) -> "EntityQueries.Query":
        entity = focus if focus is not None else self.rng.choice(self.entities)
        left_predicate = self.rng.choice(self.left_predicates[entity])
        right_predicate = self.rng.choice(self.right_predicates)
        return self.Query(
            "SELECT ?leftValue ?rightValue WHERE {\n"
            f"  <{entity}> <{left_predicate}> ?leftValue .\n"
            f"  <{entity}> <{right_predicate}> ?rightValue .\n"
            "}"
        )


class Session:
    """What one session hands back, plus its instrumentation."""

    def __init__(self, op: Probe, spans: Spans | None, truth):
        self.op = op
        self.steady = Steady()
        self.spans = spans
        self.truth = truth
        self.probes = [op]
        self.episode_f1: list[float] = []

    def probe(self, timed: bool = False) -> Probe:
        probe = Probe(timed)
        self.probes.append(probe)
        return probe

    def span(self, name: str, fn, *args):
        """``fn(*args)``, inside a span when this session is traced."""
        return fn(*args) if self.spans is None else self.spans.call(name, fn, *args)

    def episode_end(self, candidates) -> None:
        from repro import evaluate_links

        self.episode_f1.append(evaluate_links(candidates, self.truth).f_measure)

    def trace_engine(self, engine) -> None:
        """Spans on one AlexEngine and its feature space."""
        spans = self.spans
        truth = self.truth

        def discovered(links):
            spans.counts["core.discovered"] += len(links)
            spans.counts["core.discovered_correct"] += sum(1 for link in links if link in truth)

        def explored(links):
            spans.counts["features.explore_links"] += len(links)

        def closed(stats):
            spans.counts["core.rollbacks"] += stats.rollbacks

        spans.wrap(engine, "process_feedback", "core.engine.process_feedback", on_result=discovered)
        spans.wrap(engine, "end_episode", "core.engine.end_episode", on_result=closed)
        spans.wrap(engine.space, "explore", "features.explore", on_result=explored)

    def trace_federation(self, federation, endpoints) -> None:
        """Spans on the federation, its endpoints and the executor's
        imported ``prepare``."""
        from repro.federation import executor

        spans = self.spans
        spans.wrap(federation, "select", "federation.select")
        spans.wrap(executor, "prepare", "sparql.prepare")
        for endpoint in endpoints:
            spans.wrap(endpoint, "can_answer", "federation.endpoint.can_answer")
            spans.wrap(endpoint, "match", "federation.endpoint.match", generator=True)
            spans.wrap(endpoint, "match_group", "federation.endpoint.match_group", generator=True)


def feedback_config(episode_size: int, seed: int):
    """Engine config for one session; the convergence stop is set beyond
    any session's length, so it never ends one early."""
    from repro import AlexConfig

    never = 10**9
    return AlexConfig(episode_size=episode_size, seed=seed,
                      convergence_patience=never, max_episodes=never)


class Workload:
    """A closed loop with one simulated user over one dataset pair."""

    name = ""
    pair = ""
    #: Nominal wall of one session on a 2-core x86 box; ``--seconds``
    #: divided by this sets how many sessions a run executes.
    session_s = 1.0

    def setup(self, pair) -> dict:
        """Build the workload's space(s) from the loaded pair."""
        from repro import FeatureSpace

        return {"space": FeatureSpace.build(pair.left, pair.right)}

    def prepare(self, ctx: dict, run_dir: Path, rep: int) -> None:
        """Untimed input preparation after set-up."""

    def session(self, ctx: dict, sub_seed: int, session: Session):
        """Run one session; returns (final links, extra digest counts)."""
        raise NotImplementedError

    @staticmethod
    def _federation(pair, links, session: Session):
        """A two-endpoint federation whose selects are the timed operation,
        each answer row checked against the link set at query time."""
        from repro import Endpoint, FederatedEngine

        endpoints = [Endpoint(pair.left), Endpoint(pair.right)]
        federation = FederatedEngine(endpoints, links=links)
        answers = {"rows": 0, "linked": 0, "answered": 0}

        def check(result):
            rows = result.cross_dataset_rows()
            for row in rows:
                stray = [link for link in row.links_used if link not in federation.links]
                if stray:
                    raise AssertionError(f"answer row used links outside the link set: {stray[:3]}")
            answers["rows"] += len(result)
            answers["linked"] += len(rows)
            answers["answered"] += 1 if rows else 0

        session.op.attach(federation, "select", check=check)
        if session.spans is not None:
            session.trace_federation(federation, endpoints)
        return federation, endpoints, answers

    @staticmethod
    def _federation_counts(session: Session, endpoints, answers) -> None:
        if session.spans is not None:
            counts = session.spans.counts
            counts["federation.requests"] += sum(e.request_count for e in endpoints)
            counts["federation.answered"] += answers["answered"]


class BatchLink(Workload):
    """The paper's batch mode: link-sampled 400-item episodes over four
    partitions built on the shared worker pool."""

    name = "batch-link"
    pair = "dbpedia_opencyc"
    session_s = 0.8
    partitions = 4
    build_workers = 2
    episode_size = 400
    episodes = 3

    def setup(self, pair):
        from repro import build_partitioned_spaces

        return {
            "spaces": build_partitioned_spaces(
                pair.left, pair.right, self.partitions, workers=self.build_workers
            )
        }

    def session(self, ctx, sub_seed, session):
        from repro import FeedbackSession, PartitionedAlex

        config = feedback_config(self.episode_size, sub_seed)
        alex = PartitionedAlex(ctx["spaces"], ctx["links"], config)
        session.op.attach(alex, "process_feedback")
        driven = alex
        if session.spans is not None:
            spans = session.spans
            spans.wrap(alex, "process_feedback", "core.parallel.process_feedback")
            spans.wrap(alex, "end_episode", "core.parallel.end_episode")
            for engine in alex.engines:
                session.trace_engine(engine)
            driven = _TracedCandidates(alex, spans)
        feedback = FeedbackSession(driven, ctx["oracle"], seed=sub_seed)
        if session.spans is not None:
            session.spans.wrap(feedback, "run_episode", "feedback.session.run_episode")
        for _ in range(self.episodes):
            session.steady.run(feedback.run_episode, self.episode_size)
            session.episode_end(alex.candidates)
        return alex.candidates, ()


class QueryFeedback(Workload):
    """The deployed loop: federated answers to generated queries become
    link feedback, so the link set the federation rewrites through keeps
    changing and almost every query text is new."""

    name = "query-feedback"
    pair = "dbpedia_nytimes"
    session_s = 0.35
    episode_size = 25
    episodes = 20

    def prepare(self, ctx, run_dir, rep):
        ctx["vocabulary"] = EntityQueries.vocabulary(ctx["pair"].left, ctx["pair"].right)

    def session(self, ctx, sub_seed, session):
        from repro import AlexEngine
        from repro.feedback.workload import WorkloadSession

        config = feedback_config(self.episode_size, sub_seed)
        engine = AlexEngine(ctx["space"], ctx["links"], config)
        federation, endpoints, answers = self._federation(ctx["pair"], engine.candidates, session)
        session.probe().attach(engine, "process_feedback")
        generator = EntityQueries(ctx["vocabulary"], sub_seed)
        workload = WorkloadSession(engine, federation, generator, ctx["oracle"], seed=sub_seed)
        if session.spans is not None:
            session.trace_engine(engine)
            session.spans.wrap(workload, "run_episode", "feedback.workload.run_episode")
            session.spans.wrap(workload.query_session, "submit_query", "feedback.query.submit")
        for _ in range(self.episodes):
            session.steady.run(workload.run_episode, self.episode_size)
            session.episode_end(engine.candidates)
        self._federation_counts(session, endpoints, answers)
        return engine.candidates, (answers["rows"], answers["linked"])


class QueryHot(Workload):
    """Read-only queries over the static PARIS links, repeating a small set
    of texts: the synthetic cache-fitting counterpart of ``query-feedback``.
    No measured query log backs its traffic; the 32 texts (a quarter of the
    128-entry plan cache) drawn uniformly are an arbitrary choice whose only
    job is that every repeat can hit every cache."""

    name = "query-hot"
    pair = "dbpedia_nytimes"
    session_s = 0.2
    texts = 32
    queries = 2000
    #: Queries per timed segment.
    chunk = 100

    def prepare(self, ctx, run_dir, rep):
        vocabulary = EntityQueries.vocabulary(ctx["pair"].left, ctx["pair"].right)
        generator = EntityQueries(vocabulary, seed=0)
        linked = sorted({link.left for link in ctx["links"]}, key=str)
        texts: list[str] = []
        while len(texts) < self.texts:
            focus = generator.rng.choice(linked) if generator.rng.random() < 0.8 else None
            text = generator.generate(focus).text
            if text not in texts:
                texts.append(text)
        ctx["texts"] = texts

    def session(self, ctx, sub_seed, session):
        stream = random.Random(sub_seed).choices(ctx["texts"], k=self.queries)
        federation, endpoints, answers = self._federation(ctx["pair"], ctx["links"], session)

        def run(texts):
            for text in texts:
                federation.select(text)

        for start in range(0, self.queries, self.chunk):
            session.steady.run(run, stream[start:start + self.chunk])
        session.episode_end(ctx["links"])
        self._federation_counts(session, endpoints, answers)
        return ctx["links"], (answers["rows"], answers["linked"])


class CheckpointResume(Workload):
    """Link feedback with the engine saved after every episode and restored
    from disk every third one, as in a long-lived deployment."""

    name = "checkpoint-resume"
    pair = "dbpedia_nytimes"
    session_s = 0.25
    episode_size = 150
    episodes = 3
    restore_every = 3

    def prepare(self, ctx, run_dir, rep):
        ctx["space_path"] = str(run_dir / f"space-{rep}.pkl")
        ctx["state_path"] = str(run_dir / f"state-{rep}.json")
        ctx["space"].save(ctx["space_path"])

    def session(self, ctx, sub_seed, session):
        from repro import AlexEngine, FeatureSpace, FeedbackSession

        config = feedback_config(self.episode_size, sub_seed)
        spans = session.spans
        save_probe, restore_probe = session.probe(timed=True), session.probe(timed=True)
        space_path, state_path = ctx["space_path"], ctx["state_path"]

        def instrument(engine):
            session.op.attach(engine, "process_feedback")
            if spans is not None:
                session.trace_engine(engine)

        def restore():
            space = session.span("persist.space_load", FeatureSpace.load, space_path)
            return session.span("persist.engine_load", AlexEngine.load, space, state_path)

        engine = AlexEngine(ctx["space"], ctx["links"], config)
        instrument(engine)
        feedback = FeedbackSession(engine, ctx["oracle"], seed=sub_seed)
        if spans is not None:
            spans.wrap(feedback, "run_episode", "feedback.session.run_episode")
        for episode in range(1, self.episodes + 1):
            session.steady.run(feedback.run_episode, self.episode_size)
            session.steady.run(session.span, "persist.save", save_probe.call, engine.save, state_path)
            if episode % self.restore_every == 0:
                engine = session.steady.run(session.span, "persist.restore", restore_probe.call, restore)
                with open(state_path, encoding="utf-8") as handle:
                    saved = json.load(handle)
                if canonical(saved) != canonical(engine.to_dict()):
                    raise AssertionError(f"restored engine state differs from the saved one (episode {episode})")
                instrument(engine)
                feedback.engine = engine
            session.episode_end(engine.candidates)
        if spans is not None:
            spans.counts["persist.final_bytes"] = os.path.getsize(state_path)
            spans.counts["persist.final_links"] = len(engine.candidates)
        return engine.candidates, ()


WORKLOADS = {w.name: w for w in (BatchLink(), QueryFeedback(), QueryHot(), CheckpointResume())}


# --------------------------------------------------------------------- #
# Child: one fresh interpreter
# --------------------------------------------------------------------- #


def child_main(args) -> int:
    from repro import GroundTruthOracle, evaluate_links, obs, paris_links, shutdown_shared_pool
    from repro.core.workers import peek_shared_pool
    from repro.datasets import load_bundle
    from repro.similarity.prepared import cache_info
    from repro.sparql.prepared import plan_cache_info

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    rep = args.rep
    trace = bool(args.trace)
    spans = Spans(args.seed * 10 + rep, TRACE_RECORDS if rep == 0 else 0) if trace else None

    def phase(name, fn, *fn_args, **kwargs):
        start = time.perf_counter()
        result = spans.call(name, fn, *fn_args, **kwargs) if spans else fn(*fn_args, **kwargs)
        return result, time.perf_counter() - start

    scanned = obs.counter("space.pairs.scanned").value
    admitted = obs.counter("space.pairs.admitted").value
    pair, load_s = phase("rdf.load", load_bundle, str(run_dir / "bundle"))
    links, paris_s = phase("paris.run", paris_links, pair.left, pair.right, **PARIS)
    ctx, build_s = phase("features.build", workload.setup, pair)
    scanned = obs.counter("space.pairs.scanned").value - scanned
    admitted = obs.counter("space.pairs.admitted").value - admitted
    pool = peek_shared_pool()
    pool = pool.stats() if pool is not None else {}

    truth = pair.ground_truth
    start_quality = evaluate_links(links, truth)
    ctx.update(pair=pair, links=links, oracle=GroundTruthOracle(truth))
    workload.prepare(ctx, run_dir, rep)
    result = {
        "rep": rep,
        "setup": {
            "setup_s": load_s + paris_s + build_s,
            "rdf.load_s": load_s,
            "paris.run_s": paris_s,
            "features.build_s": build_s,
            "rdf.triples": len(pair.left) + len(pair.right),
            "paris.links": len(links),
            "paris.precision": start_quality.precision,
            "features.admit_ratio": admitted / scanned if scanned else 0.0,
            "similarity.score_cache_entries": cache_info()["score_entries"],
            "core.workers.tasks": pool.get("tasks_completed", 0),
            "core.workers.fallbacks": pool.get("fallbacks", 0),
        },
        "initial_f1": start_quality.f_measure,
        "sessions": [],
        "attempted": 0,
        "failed": 0,
        "errors": [],
    }

    def run_session(index: int, traced: bool) -> None:
        session = Session(Probe(timed=True), spans if traced else None, truth)
        plans = plan_cache_info()
        try:
            final, extra = workload.session(ctx, args.seed * 1000 + index, session)
            result["sessions"].append({
                "index": index,
                "traced": traced,
                "ops": session.op.calls,
                "wall_s": sum(session.steady.walls),
                "segments_s": session.steady.walls,
                "cpu_s": session.steady.cpu,
                "digest": link_digest(final, *extra),
                "final_f1": session.episode_f1[-1],
                "episode_f1": session.episode_f1,
                "latencies_s": [] if traced else session.op.samples,
            })
            failed = 0
        except Exception as error:  # a failed operation: recorded, never swallowed
            traceback.print_exc()
            result["errors"].append(f"session {index}: {type(error).__name__}: {error}")
            failed = 1
        finally:
            if traced:
                spans.unwrap()
                after = plan_cache_info()
                spans.counts["sparql.plan_hits"] += after["hits"] - plans["hits"]
                spans.counts["sparql.plan_misses"] += after["misses"] - plans["misses"]
        result["attempted"] += sum(probe.calls for probe in session.probes)
        result["failed"] += max(failed, sum(probe.failed for probe in session.probes))

    # Every rep runs the same sessions, so each session has CHILDREN replicas
    # and its digest is compared across hash seeds.
    sessions = max(1, round(args.seconds / CHILDREN / workload.session_s))
    if trace:
        # Each session runs untraced and traced; the order alternates so that
        # warm-up favours neither side of trace.overhead.
        for index in range(1, max(1, round(sessions / 2)) + 1):
            for traced in ((False, True) if index % 2 else (True, False)):
                run_session(index, traced)
        result["layers"] = spans.payload()
        if rep == 0:
            from repro.obs.trace import write_jsonl

            write_jsonl(str(OUT / f"{workload.name}.trace.jsonl"), spans.records, dropped=spans.dropped)
    else:
        for index in range(1, sessions + 1):
            run_session(index, traced=False)

    shutdown_shared_pool()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(run_dir / f"child-{rep}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# --------------------------------------------------------------------- #
# Parent: inputs, children, aggregation, checks
# --------------------------------------------------------------------- #


def run_children(args, run_dir: Path) -> list[dict]:
    """Run the workload in CHILDREN fresh interpreters, one at a time."""
    results = []
    for rep in range(CHILDREN):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--run-dir", str(run_dir), "--rep", str(rep),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        env = dict(os.environ, PYTHONHASHSEED=str(rep))
        # Own process group: a timeout kills the child and its pool workers.
        child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise RuntimeError(f"rep {rep} exceeded {CHILD_TIMEOUT_S:.0f} s")
        if code != 0:
            raise RuntimeError(f"rep {rep} exited with code {code}")
        with open(run_dir / f"child-{rep}.json", encoding="utf-8") as handle:
            results.append(json.load(handle))
    return results


def check(children: list[dict]) -> list[str]:
    """Correctness checks over the children's results; returns failures."""
    failures = [f"rep {c['rep']}: {error}" for c in children for error in c["errors"]]
    if any(c["setup"]["paris.links"] == 0 for c in children):
        failures.append("the PARIS start is empty")
    for index, copies in sorted(replicas(children).items()):
        digests = sorted({c["digest"] for c in copies})
        if len(digests) != 1:
            failures.append(f"session {index}: link digests differ across PYTHONHASHSEED values "
                            f"or between traced and untraced runs: {digests}")
        shapes = {(c["ops"], len(c["segments_s"])) for c in copies}
        if len(shapes) != 1:
            failures.append(f"session {index}: replicas ran different numbers of operations "
                            f"or segments: {sorted(shapes)}")
    finals = [s["final_f1"] for s in children[0]["sessions"]]
    if finals and statistics.median(finals) < children[0]["initial_f1"]:
        failures.append(f"final_f1 {statistics.median(finals):.4f} is below the PARIS start's "
                        f"F1 {children[0]['initial_f1']:.4f}")
    return failures


def replicas(children: list[dict]) -> dict[int, list[dict]]:
    """Each session's replicas, one per child, by session index."""
    found: dict[int, list[dict]] = defaultdict(list)
    for child in children:
        for session in child["sessions"]:
            found[session["index"]].append(session)
    return found


def end_to_end(children: list[dict]) -> dict:
    """Every end-to-end metric with its value and sample count.

    Every replica of a session does the same work, and contention from other
    tenants only ever slows a replica down. So each timed segment counts at
    its fastest replica for throughput, and each operation at its fastest
    replica for the latency percentiles."""
    walls, latencies, ops = [], [], 0
    for copies in replicas(children).values():
        ops += copies[0]["ops"]
        walls += [min(segment) for segment in zip(*(c["segments_s"] for c in copies))]
        latencies += [min(op) for op in zip(*(c["latencies_s"] for c in copies))]
    return {
        "setup_s": (statistics.median(c["setup"]["setup_s"] for c in children), len(children)),
        "ops_per_s": (ops / sum(walls), len(walls)),
        "op_p50_ms": (percentile(latencies, 0.50) * 1000, len(latencies)),
        "op_p99_ms": (percentile(latencies, 0.99) * 1000, len(latencies)),
        "mean_f1": (statistics.fmean(f1 for s in children[0]["sessions"] for f1 in s["episode_f1"]),
                    sum(len(s["episode_f1"]) for s in children[0]["sessions"])),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), len(children)),
    }


def per_layer(children: list[dict]) -> dict:
    """Every per-layer metric of a traced run with its sample count."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    durations: dict[str, list] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    for child in children:
        layers = child["layers"]
        for name, (calls, total, self_s) in layers["stats"].items():
            stats[name][0] += calls
            stats[name][1] += total
            stats[name][2] += self_s
        for name, values in layers["durations"].items():
            durations[name].extend(values)
        for name, value in layers["counts"].items():
            counts[name] += value

    def calls(*names):
        return sum(stats[n][0] for n in names)

    def total(*names):
        return sum(stats[n][1] for n in names)

    def self_time(*names):
        return sum(stats[n][2] for n in names)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def setup(key):
        return statistics.median(c["setup"][key] for c in children)

    def last(key):
        return statistics.median(c["layers"]["counts"].get(key, 0) for c in children)

    sessions = [s for c in children for s in c["sessions"]]
    untraced = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    queries = calls("federation.select")
    closes = durations["core.parallel.end_episode"] or durations["core.engine.end_episode"]
    endpoint = ("federation.endpoint.can_answer", "federation.endpoint.match",
                "federation.endpoint.match_group")
    n = len(children)
    return {
        "rdf.load_s": (setup("rdf.load_s"), n),
        "rdf.triples": (setup("rdf.triples"), n),
        "paris.run_s": (setup("paris.run_s"), n),
        "paris.links": (setup("paris.links"), n),
        "paris.precision": (setup("paris.precision"), n),
        "features.build_s": (setup("features.build_s"), n),
        "features.admit_ratio": (setup("features.admit_ratio"), n),
        "features.explore_calls": (calls("features.explore"), calls("features.explore")),
        "features.explore_s": (total("features.explore"), calls("features.explore")),
        "features.explore_links": (counts["features.explore_links"], calls("features.explore")),
        "similarity.score_cache_entries": (setup("similarity.score_cache_entries"), n),
        "core.workers.tasks": (setup("core.workers.tasks"), n),
        "core.workers.fallbacks": (setup("core.workers.fallbacks"), n),
        "core.feedback_self_s": (self_time("core.engine.process_feedback"),
                                 calls("core.engine.process_feedback")),
        "core.end_episode_s": (total("core.engine.end_episode"), calls("core.engine.end_episode")),
        "core.end_episode_p90_ms": (percentile(closes, 0.90) * 1000, len(closes)),
        "core.discovered": (counts["core.discovered"], calls("core.engine.process_feedback")),
        "core.discover_precision": (ratio(counts["core.discovered_correct"], counts["core.discovered"]),
                                    int(counts["core.discovered"])),
        "core.rollbacks": (counts["core.rollbacks"], calls("core.engine.end_episode")),
        "core.parallel.route_s": (self_time("core.parallel.process_feedback"),
                                  calls("core.parallel.process_feedback")),
        "core.parallel.candidates_s": (total("core.parallel.candidates"),
                                       calls("core.parallel.candidates")),
        "feedback.session_self_s": (self_time("feedback.session.run_episode"),
                                    calls("feedback.session.run_episode")),
        "feedback.workload_self_s": (self_time("feedback.workload.run_episode", "feedback.query.submit"),
                                     calls("feedback.workload.run_episode")),
        "feedback.items_per_query": (ratio(calls("core.engine.process_feedback"), queries), queries),
        "federation.select_self_s": (self_time("federation.select"), queries),
        "federation.endpoint_s": (total(*endpoint), calls(*endpoint)),
        "federation.requests_per_query": (ratio(counts["federation.requests"], queries), queries),
        "federation.answer_yield": (ratio(counts["federation.answered"], queries), queries),
        "sparql.prepare_s": (total("sparql.prepare"), calls("sparql.prepare")),
        "sparql.plan_cache_hit_rate": (
            ratio(counts["sparql.plan_hits"], counts["sparql.plan_hits"] + counts["sparql.plan_misses"]),
            int(counts["sparql.plan_hits"] + counts["sparql.plan_misses"])),
        "persist.save_s": (total("persist.save"), calls("persist.save")),
        "persist.save_p95_ms": (percentile(durations["persist.save"], 0.95) * 1000, calls("persist.save")),
        "persist.save_bytes": (last("persist.final_bytes"), n),
        "persist.bytes_per_link": (ratio(last("persist.final_bytes"), last("persist.final_links")), n),
        "persist.space_load_s": (total("persist.space_load"), calls("persist.space_load")),
        "persist.engine_load_s": (total("persist.engine_load"), calls("persist.engine_load")),
        "persist.load_p80_ms": (percentile(durations["persist.restore"], 0.80) * 1000,
                                calls("persist.restore")),
        "run.wall_s": (sum(s["wall_s"] for s in untraced), len(untraced)),
        "run.cpu_s": (sum(s["cpu_s"] for s in untraced), len(untraced)),
        "trace.spans": (sum(c["layers"]["spans"] for c in children), n),
        "trace.overhead": (ratio(sum(s["wall_s"] for s in traced), sum(s["wall_s"] for s in untraced)) - 1,
                           len(traced)),
    }


def make_bundle(workload: Workload, run_dir: Path) -> None:
    """The workload's catalog pair, generated with its catalog seed."""
    from repro import load_pair
    from repro.datasets import save_bundle

    save_bundle(load_pair(workload.pair), str(run_dir / "bundle"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir()
    started = time.perf_counter()
    try:
        make_bundle(workload, run_dir)
        children = run_children(args, run_dir)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = check(children)
    if failed:
        # Sessions are missing, so the aggregates would be partial.
        values, units = {}, {}
    elif args.trace:
        values = per_layer(children)
        units = {name: unit for name, (unit, _) in LAYER.items()}
    else:
        values = end_to_end(children)
        units = END_TO_END
    sessions = sum(len(c["sessions"]) for c in children)
    print(f"{workload.name} seed={args.seed} trace={args.trace} reps={len(children)} "
          f"sessions={sessions} attempted={attempted} failed={failed} "
          f"wall={time.perf_counter() - started:.1f}s")
    for name, (value, count) in values.items():
        moves = f"  -> {LAYER[name][1]}" if args.trace else ""
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} (n={count}){moves}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
