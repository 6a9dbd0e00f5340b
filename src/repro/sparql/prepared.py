"""Prepared queries: parse once, execute many times.

:func:`prepare` is the front door of the SPARQL engine since v1.6. It
parses query text into a :class:`PreparedQuery` — an immutable handle
bundling the parsed plan with a per-query join-order memo — through a
bounded LRU cache keyed by the exact query text, so hot production
queries skip the parser (and, on an unchanged graph, the join-order
search) entirely. Cache traffic is observable as
``sparql.plan_cache.hits`` / ``sparql.plan_cache.misses``.

    prepared = prepare("SELECT ?name WHERE { ?p <.../name> ?name }")
    result = prepared.execute(graph)
    result = prepared.execute(other_graph, bindings={"p": alice})
    print(prepared.explain(graph).render())

The cache stores parse products only — never graph data — so one
prepared query is valid against any graph. Entries are invalidated
purely by capacity (least-recently-used first); query text is the whole
key, so two textually different spellings of the same query cache
independently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro import obs
from repro.obs import accounting, slowlog
from repro.rdf.graph import Graph
from repro.sparql.ast import AskQuery, ConstructQuery, SelectQuery
from repro.sparql.eval import QueryResult, Solution, _BGPOrderMemo, _execute
from repro.sparql.parser import parse_query

#: Maximum number of parsed plans kept in the process-wide LRU cache.
PLAN_CACHE_SIZE = 128

#: :attr:`QueryStats.kind <repro.obs.QueryStats>` per plan type.
_KINDS = {SelectQuery: "select", AskQuery: "ask", ConstructQuery: "construct"}

_cache_lock = threading.Lock()
_plan_cache: OrderedDict[str, "PreparedQuery"] = OrderedDict()


class PreparedQuery:
    """A parsed, reusable SPARQL query bound to no particular graph.

    Obtain instances from :func:`prepare` (direct construction skips the
    plan cache). The :attr:`plan` is the parsed algebra tree —
    :class:`~repro.sparql.ast.SelectQuery`, AskQuery, or ConstructQuery —
    shared by every execution; per-(graph, BGP) join orders are memoized
    on the side and revalidated against the graph's
    :attr:`~repro.rdf.graph.Graph.version`.
    """

    __slots__ = ("text", "plan", "_memo")

    def __init__(self, text: str):
        self.text = text
        self.plan = parse_query(text)
        self._memo = _BGPOrderMemo()

    def execute(
        self, graph: Graph, bindings: Solution | dict[str, object] | None = None
    ) -> QueryResult | bool | Graph:
        """Run against ``graph``: a :class:`QueryResult` for SELECT, a bool
        for ASK, a :class:`~repro.rdf.graph.Graph` for CONSTRUCT.

        ``bindings`` pre-binds variables (keys are :class:`Var` objects or
        bare/``?``-prefixed names) before the WHERE clause evaluates —
        the parameterized-query idiom.
        """
        slog = slowlog.active()
        if not (accounting.enabled() or slog is not None):
            # Accounting off: no records, the zero-overhead dispatch.
            return _execute(graph, self.plan, bindings, self._memo)
        # Consumed before executing, so a raising query cannot leave the
        # note for the next accounted execute on this thread.
        plan_cache_hit = accounting.consume_plan_cache_note()
        records: list = []
        started = time.perf_counter()
        result = _execute(graph, self.plan, bindings, self._memo, records)
        stats = accounting.QueryStats(_KINDS[type(self.plan)])
        stats.wall_seconds = time.perf_counter() - started
        stats.plan_cache_hit = plan_cache_hit
        stats.fold(records)
        stats.rows_out = int(result) if isinstance(result, bool) else len(result)
        if isinstance(result, QueryResult):
            result.stats = stats
        if slog is not None:
            slog.record("query", self.text, stats.wall_seconds, detail=stats.to_dict())
        return result

    def explain(self, graph: Graph, analyze: bool = False):
        """The optimized :class:`~repro.sparql.explain.QueryPlan` for this
        query over ``graph`` (``analyze=True`` executes and profiles it)."""
        from repro.sparql.explain import explain

        return explain(graph, self.plan, analyze=analyze)

    def __repr__(self):
        return f"<PreparedQuery {type(self.plan).__name__} {self.text[:40]!r}>"


def prepare(text: str) -> PreparedQuery:
    """Parse ``text`` through the bounded plan cache.

    Repeated calls with identical text return the *same*
    :class:`PreparedQuery` (and bump ``sparql.plan_cache.hits``); misses
    parse, insert, and evict the least-recently-used entry beyond
    :data:`PLAN_CACHE_SIZE`.
    """
    with _cache_lock:
        cached = _plan_cache.get(text)
        if cached is not None:
            _plan_cache.move_to_end(text)
    if cached is not None:
        # Counter updates happen outside the cache lock: obs.inc takes the
        # registry's own lock on instrument creation, and the plan cache
        # must never hold _cache_lock while acquiring a foreign lock.
        obs.inc("sparql.plan_cache.hits")
        if accounting.enabled():
            accounting.note_plan_cache(True)
        return cached
    obs.inc("sparql.plan_cache.misses")
    if accounting.enabled():
        accounting.note_plan_cache(False)
    prepared = PreparedQuery(text)  # parse outside the lock
    with _cache_lock:
        # Re-check under the lock: another thread may have parsed and
        # inserted the same text while we were parsing. Keeping the first
        # insertion (instead of overwriting) preserves the "same text ->
        # same PreparedQuery object" guarantee under concurrency, so the
        # join-order memo is shared rather than split across duplicates.
        raced = _plan_cache.get(text)
        if raced is not None:
            _plan_cache.move_to_end(text)
            return raced
        _plan_cache[text] = prepared
        while len(_plan_cache) > PLAN_CACHE_SIZE:
            _plan_cache.popitem(last=False)
    return prepared


def clear_plan_cache() -> int:
    """Drop every cached plan; returns how many were evicted (tests)."""
    with _cache_lock:
        count = len(_plan_cache)
        _plan_cache.clear()
    return count


def plan_cache_info() -> dict:
    """Occupancy and traffic of the plan cache (for ``engine.health()``)."""
    with _cache_lock:
        entries = len(_plan_cache)
    # Counter reads happen outside _cache_lock (same lock discipline as
    # the hit/miss bumps in prepare()).
    return {
        "entries": entries,
        "capacity": PLAN_CACHE_SIZE,
        "hits": obs.counter("sparql.plan_cache.hits").value,
        "misses": obs.counter("sparql.plan_cache.misses").value,
    }


__all__ = [
    "PLAN_CACHE_SIZE",
    "PreparedQuery",
    "clear_plan_cache",
    "plan_cache_info",
    "prepare",
]
