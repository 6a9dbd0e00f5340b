"""The federated query engine: bound joins across endpoints, sameAs-aware.

Evaluation model (after FedX):

1. **Source selection** — each triple pattern is assigned its relevant
   endpoints (predicate probes).
2. **Join ordering** — patterns are greedily reordered so that each next
   pattern shares a variable with the already-joined prefix and has the most
   bound positions (avoids cartesian blowups).
3. **Bound joins with sameAs rewriting** — patterns are evaluated
   pattern-at-a-time. When a bound term is a URI that has counterparts in
   the candidate :class:`~repro.links.LinkSet`, the engine also probes the
   endpoint with each counterpart; any match obtained through a counterpart
   records the traversed link in the solution's provenance.

The provenance is what ALEX consumes: feedback on an answer row becomes
feedback on ``row.links_used``.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro import obs
from repro.obs import accounting, slowlog
from repro.errors import FederationError
from repro.federation.endpoint import Endpoint
from repro.federation.provenance import FederatedResult, ProvenancedSolution
from repro.federation.source_selection import (
    SourceAssignment,
    exclusive_groups,
    select_sources,
)
from repro.links import Link, LinkSet
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, URIRef
from repro.sparql.ast import (
    BGP,
    Filter,
    GroupGraphPattern,
    SelectQuery,
    TriplePattern,
    Var,
)
from repro.sparql.eval import (
    Solution,
    _filter_passes,
    _order_key_for,
    eval_expression,
    match_pattern,
)
from repro.sparql.prepared import prepare


class FederatedEngine:
    """Answers SELECT queries over several endpoints joined by sameAs links.

    ``group_exclusive=True`` (default) ships runs of consecutive patterns
    that only one endpoint can answer as a single subquery to that endpoint
    (FedX's exclusive groups), cutting request counts; disable it to measure
    the effect (see ``benchmarks/bench_ablation_exclusive_groups.py``).
    """

    def __init__(
        self,
        endpoints: Iterable[Endpoint],
        links: LinkSet | None = None,
        group_exclusive: bool = True,
        strict: bool = False,
    ):
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise FederationError("a federation needs at least one endpoint")
        self.links = links if links is not None else LinkSet()
        self.group_exclusive = group_exclusive
        #: ``strict=True`` statically analyzes every query (including
        #: endpoint source checks) before planning and raises
        #: :class:`~repro.errors.QueryAnalysisError` on error-level
        #: diagnostics. Default behaviour is unchanged.
        self.strict = strict

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def select(self, query_text: str) -> FederatedResult:
        """Parse (through the shared plan cache) and execute a federated
        SELECT query."""
        parsed = prepare(query_text).plan
        if not isinstance(parsed, SelectQuery):
            raise FederationError("federated execution supports SELECT queries only")
        return self.execute(parsed)

    def execute(self, query: SelectQuery) -> FederatedResult:
        """Execute a parsed SELECT query across the federation.

        The execution runs inside the ``federation.query.execute`` region.
        When a tracer is installed, the region's trace id is stamped onto
        the returned result and each of its rows, correlating the
        executor → endpoint → engine event chain.
        """
        obs.inc("federation.queries")
        slog = slowlog.active()
        stats = None
        requests_before = 0
        if accounting.enabled() or slog is not None:
            stats = accounting.QueryStats("federated")
            stats.plan_cache_hit = accounting.consume_plan_cache_note()
            requests_before = sum(e.request_count for e in self.endpoints)
        with obs.region("federation.query.execute", endpoints=len(self.endpoints)) as region:
            if self.strict:
                from repro.sparql.analysis import check_query

                check_query(query, endpoints=self.endpoints)
            result = self._execute(query, stats=stats)
            if region.trace_id is not None:
                result.trace_id = region.trace_id
                for row in result.rows:
                    row.trace_id = region.trace_id
        if stats is not None:
            stats.wall_seconds = region.elapsed
            stats.rows_out = len(result)
            stats.endpoint_requests = (
                sum(e.request_count for e in self.endpoints) - requests_before
            )
            result.stats = stats
            if slog is not None:
                label = "SELECT " + " ".join(
                    "?" + v.name for v in query.projected()
                )
                slog.record(
                    "federated", label, stats.wall_seconds, detail=stats.to_dict()
                )
        return result

    def _execute(
        self, query: SelectQuery, stats: accounting.QueryStats | None = None
    ) -> FederatedResult:
        phase_started = time.perf_counter() if stats is not None else 0.0
        bgp, filters = self._flatten_where(query.where)
        ordered = _order_patterns(bgp.patterns)
        assignments = select_sources(BGP(ordered), self.endpoints)
        if stats is not None:
            stats.note_phase("source_select", time.perf_counter() - phase_started)

        solutions: list[ProvenancedSolution] = [ProvenancedSolution({})]
        if self.group_exclusive:
            for group in exclusive_groups(assignments):
                if len(group) > 1:
                    solutions = self._bound_join_group(group, solutions, stats=stats)
                else:
                    solutions = self._bound_join(group[0], solutions, stats=stats)
                if not solutions:
                    break
        else:
            for assignment in assignments:
                solutions = self._bound_join(assignment, solutions, stats=stats)
                if not solutions:
                    break

        if filters:
            solutions = [
                sol
                for sol in solutions
                if all(_filter_passes(f.expression, sol.bindings) for f in filters)
            ]

        projected = query.projected()
        if query.is_aggregated:
            rows = self._aggregate(query, solutions)
        else:
            rows = [
                ProvenancedSolution(
                    {v: sol.bindings[v] for v in projected if v in sol.bindings},
                    sol.links_used,
                )
                for sol in solutions
            ]
        if query.distinct:
            rows = _distinct(rows)
        for condition in reversed(query.order_by):
            def key(row: ProvenancedSolution, cond=condition):
                try:
                    value = eval_expression(cond.expression, row.bindings)
                except Exception:
                    value = None
                return _order_key_for(value)

            rows.sort(key=key, reverse=condition.descending)
        if query.offset:
            rows = rows[query.offset:]
        if query.limit is not None:
            rows = rows[: query.limit]
        return FederatedResult(projected, rows)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _aggregate(
        self, query: SelectQuery, solutions: list[ProvenancedSolution]
    ) -> list[ProvenancedSolution]:
        """GROUP BY + aggregates over federated solutions.

        Each output group carries the union of its member rows' link
        provenance: feedback on an aggregate answer concerns every link
        that contributed to it.
        """
        from repro.sparql.aggregates import evaluate_aggregate, group_solutions

        plain = [sol.bindings for sol in solutions]
        provenance_of = {}
        for sol in solutions:
            key = tuple(sorted((v.name, t.n3()) for v, t in sol.bindings.items()))
            provenance_of.setdefault(key, frozenset())
            provenance_of[key] |= sol.links_used
        rows: list[ProvenancedSolution] = []
        for key_bindings, members in group_solutions(plain, query.group_by):
            bindings = dict(key_bindings)
            links: frozenset[Link] = frozenset()
            for member in members:
                member_key = tuple(sorted((v.name, t.n3()) for v, t in member.items()))
                links |= provenance_of.get(member_key, frozenset())
            for aggregate in query.aggregates:
                value = evaluate_aggregate(aggregate, members)
                if value is not None:
                    bindings[aggregate.alias] = value
            rows.append(ProvenancedSolution(bindings, links))
        return rows

    def _flatten_where(self, where: GroupGraphPattern) -> tuple[BGP, list[Filter]]:
        """The federated subset supports one conjunctive BGP plus FILTERs."""
        bgp = BGP()
        filters: list[Filter] = []
        for child in where.children:
            if isinstance(child, BGP):
                bgp.patterns.extend(child.patterns)
            elif isinstance(child, Filter):
                if _contains_exists(child.expression):
                    raise FederationError(
                        "EXISTS/NOT EXISTS filters are not supported in "
                        "federated queries"
                    )
                filters.append(child)
            elif isinstance(child, GroupGraphPattern):
                inner_bgp, inner_filters = self._flatten_where(child)
                bgp.patterns.extend(inner_bgp.patterns)
                filters.extend(inner_filters)
            else:
                raise FederationError(
                    f"federated execution does not support {type(child).__name__} patterns"
                )
        if not bgp.patterns:
            raise FederationError("federated query has an empty WHERE clause")
        return bgp, filters

    def _counterpart_choices(self, term: Term) -> list[tuple[Term, frozenset[Link]]]:
        """The term itself plus its sameAs counterparts, each with the link
        that justifies the substitution."""
        return _counterpart_choices(self.links, term)

    def _bound_join(
        self,
        assignment: SourceAssignment,
        solutions: list[ProvenancedSolution],
        stats: "accounting.QueryStats | None" = None,
    ) -> list[ProvenancedSolution]:
        pattern = assignment.pattern
        obs.observe("federation.bound_join.input_solutions", len(solutions))
        join_started = time.perf_counter() if stats is not None else 0.0
        candidates = (
            found
            for solution in solutions
            for found in _iter_bound_join(pattern, assignment.endpoints, self.links, solution)
        )
        out: list[ProvenancedSolution] = []
        _dedup_extend(out, candidates)
        if stats is not None:
            seconds = time.perf_counter() - join_started
            stats.note_strategy("bound-join", len(solutions), len(out), seconds)
            stats.note_phase("join", seconds)
        return out

    def _bound_join_group(
        self,
        group: list[SourceAssignment],
        solutions: list[ProvenancedSolution],
        stats: "accounting.QueryStats | None" = None,
    ) -> list[ProvenancedSolution]:
        """Ship a whole exclusive group to its single endpoint at once.

        sameAs rewriting applies to terms bound *before* the group (variables
        carrying entities from other datasets); bindings produced inside the
        group are endpoint-local and need no rewriting. The counterpart
        choice for a variable is made once per solution, consistently across
        all of the group's patterns.
        """
        endpoint = group[0].endpoints[0]
        patterns = [assignment.pattern for assignment in group]
        obs.observe("federation.bound_join.input_solutions", len(solutions))
        join_started = time.perf_counter() if stats is not None else 0.0
        candidates = (
            found
            for solution in solutions
            for found in _iter_bound_join_group(patterns, endpoint, self.links, solution)
        )
        out: list[ProvenancedSolution] = []
        _dedup_extend(out, candidates)
        if stats is not None:
            seconds = time.perf_counter() - join_started
            stats.note_strategy("bound-join-group", len(solutions), len(out), seconds)
            stats.note_phase("join", seconds)
        return out


def _solution_key(bindings: Solution) -> tuple:
    """Canonical dedup key for a merged binding set."""
    return tuple(sorted((v.name, t.n3()) for v, t in bindings.items()))


def _dedup_extend(out: list[ProvenancedSolution], candidates) -> None:
    """Append each first-seen ``(bindings, links, rewrote)`` candidate as a
    :class:`ProvenancedSolution`, counting accepted sameAs rewrites."""
    seen: set[tuple] = set()
    for merged, links, rewrote in candidates:
        key = (_solution_key(merged), links)
        if key not in seen:
            seen.add(key)
            if rewrote:
                obs.inc("federation.sameas.rewrites_hit")
            out.append(ProvenancedSolution(merged, links))


def _counterpart_choices(
    links: LinkSet, term: Term
) -> list[tuple[Term, frozenset[Link]]]:
    """The term itself plus its sameAs counterparts, each with the link
    that justifies the substitution."""
    choices: list[tuple[Term, frozenset[Link]]] = [(term, frozenset())]
    if isinstance(term, URIRef):
        # sorted: counterpart sets iterate in hash order, which varies
        # per process and would make answer (and thus feedback) order
        # nondeterministic
        for right in sorted(links.by_left(term), key=str):
            choices.append((right, frozenset({Link(term, right)})))
        for left in sorted(links.by_right(term), key=str):
            choices.append((left, frozenset({Link(left, term)})))
    if len(choices) > 1:
        obs.inc("federation.sameas.rewrites_attempted", len(choices) - 1)
    return choices


def _iter_bound_join(
    pattern: TriplePattern,
    endpoints: list[Endpoint],
    links: LinkSet,
    solution: ProvenancedSolution,
):
    """One solution's bound-join body: yield every ``(merged_bindings,
    links_used, rewrote)`` candidate, pre-dedup."""
    bound_subject = _resolve(pattern.subject, solution.bindings)
    bound_object = _resolve(pattern.object, solution.bindings)
    subject_choices = (
        _counterpart_choices(links, bound_subject)
        if bound_subject is not None
        else [(None, frozenset())]
    )
    object_choices = (
        _counterpart_choices(links, bound_object)
        if bound_object is not None
        else [(None, frozenset())]
    )
    for endpoint in endpoints:
        for subject_term, subject_links in subject_choices:
            for object_term, object_links in object_choices:
                rewritten = _rewrite_pattern(pattern, subject_term, object_term)
                probe = _strip_bound_vars(rewritten, solution.bindings)
                for extension in endpoint.match(probe, [{}]):
                    merged = dict(solution.bindings)
                    merged.update(extension)
                    used = solution.links_used | subject_links | object_links
                    yield merged, used, bool(subject_links or object_links)


def _iter_bound_join_group(
    patterns: list[TriplePattern],
    endpoint: Endpoint,
    links: LinkSet,
    solution: ProvenancedSolution,
):
    """One solution's exclusive-group body; same contract as
    :func:`_iter_bound_join`."""
    # Every distinct pre-bound term in subject/object positions gets
    # its list of counterpart choices.
    bound_terms: list[Term] = []
    for pattern in patterns:
        for position in (pattern.subject, pattern.object):
            term = _resolve(position, solution.bindings)
            if term is not None and term not in bound_terms:
                bound_terms.append(term)
    choice_lists = [_counterpart_choices(links, term) for term in bound_terms]
    for combination in _product(choice_lists):
        substitution = {
            original: chosen
            for original, (chosen, _) in zip(bound_terms, combination)
        }
        used: frozenset[Link] = solution.links_used
        rewrote = False
        for _, choice_links in combination:
            used |= choice_links
            rewrote = rewrote or bool(choice_links)
        rewritten = [
            _substitute_pattern(pattern, solution.bindings, substitution)
            for pattern in patterns
        ]
        for extension in endpoint.match_group(rewritten, [{}]):
            merged = dict(solution.bindings)
            merged.update(extension)
            yield merged, used, rewrote


def _product(choice_lists: list[list]) -> Iterable[tuple]:
    """Cartesian product that yields one empty tuple for empty input."""
    import itertools

    return itertools.product(*choice_lists)


def _substitute_pattern(
    pattern: TriplePattern, bindings: Solution, substitution: dict
) -> TriplePattern:
    """Lower bound variables to their (possibly counterpart-substituted)
    terms; leave free variables in place."""

    def lower(term):
        if isinstance(term, Var):
            bound = bindings.get(term)
            if bound is None:
                return term
            return substitution.get(bound, bound)
        return substitution.get(term, term)

    return TriplePattern(lower(pattern.subject), lower(pattern.predicate), lower(pattern.object))


def _contains_exists(expression) -> bool:
    """Does the FILTER expression tree contain an EXISTS node?"""
    from repro.sparql.ast import BooleanOp, Comparison, ExistsExpr, FunctionCall, Not

    if isinstance(expression, ExistsExpr):
        return True
    if isinstance(expression, Not):
        return _contains_exists(expression.operand)
    if isinstance(expression, (BooleanOp, Comparison)):
        return _contains_exists(expression.left) or _contains_exists(expression.right)
    if isinstance(expression, FunctionCall):
        return any(_contains_exists(argument) for argument in expression.args)
    return False


def _resolve(term, bindings: Solution) -> Term | None:
    if isinstance(term, Var):
        return bindings.get(term)
    return term


def _rewrite_pattern(
    pattern: TriplePattern, subject_term: Term | None, object_term: Term | None
) -> TriplePattern:
    """Substitute concrete (possibly counterpart) terms into a pattern."""
    return TriplePattern(
        subject_term if subject_term is not None else pattern.subject,
        pattern.predicate,
        object_term if object_term is not None else pattern.object,
    )


def _strip_bound_vars(pattern: TriplePattern, bindings: Solution) -> TriplePattern:
    """Replace bound variables that were *not* substituted (predicates) with
    their terms so the endpoint probe is fully bound where possible."""
    def lower(term):
        if isinstance(term, Var) and term in bindings:
            return bindings[term]
        return term

    return TriplePattern(lower(pattern.subject), lower(pattern.predicate), lower(pattern.object))


def _order_patterns(patterns: list[TriplePattern]) -> list[TriplePattern]:
    """Greedy join order: start with the most-bound pattern, then repeatedly
    pick the pattern sharing variables with the joined prefix that has the
    fewest free variables."""
    if not patterns:
        return []

    def bound_score(pattern: TriplePattern, known: set[Var]) -> tuple[int, int]:
        free = [t for t in (pattern.subject, pattern.predicate, pattern.object)
                if isinstance(t, Var) and t not in known]
        shared = len(pattern.variables() & known)
        return (shared, -len(free))

    remaining = list(patterns)
    known: set[Var] = set()
    ordered: list[TriplePattern] = []
    first = max(remaining, key=lambda p: -len(p.variables()))
    remaining.remove(first)
    ordered.append(first)
    known |= first.variables()
    while remaining:
        best = max(remaining, key=lambda p: bound_score(p, known))
        remaining.remove(best)
        ordered.append(best)
        known |= best.variables()
    return ordered


def _distinct(rows: list[ProvenancedSolution]) -> list[ProvenancedSolution]:
    seen: set[tuple] = set()
    unique: list[ProvenancedSolution] = []
    for row in rows:
        key = tuple(sorted((v.name, t.n3()) for v, t in row.bindings.items()))
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique
