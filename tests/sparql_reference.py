"""Reference SPARQL evaluator: the pre-1.6 term-space nested-loop engine.

This module preserves the original dict-based evaluator — solutions as
``{Var: Term}`` dicts, patterns matched by streaming index nested-loop
joins over term objects, OPTIONAL and UNION evaluated once per incoming
solution — as an *executable specification* of the engine's semantics.

It exists for parity testing: property/fuzz tests evaluate random
queries with both engines and require identical solution multisets
(``tests/test_sparql_hashjoin.py``).

It shares the expression layer (FILTER/BIND evaluation, ordering keys,
aggregation) with :mod:`repro.sparql.eval` so the two engines can only
diverge in the join machinery under test. EXISTS subpatterns delegate to
the main engine in both, for the same reason. Not optimized and not
shipped with the package: it is the test oracle, not the engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import QueryEvaluationError
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql.ast import (
    AskQuery,
    BGP,
    Bind,
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    ValuesClause,
    Var,
)
from repro.sparql.eval import (
    QueryResult,
    Solution,
    _aggregate_rows,
    _as_term,
    _ExpressionError,
    _filter_passes,
    _order_key_for,
    eval_expression,
)
from repro.sparql.parser import parse_query
from repro.sparql.paths import PathExpr, eval_path


def ref_match_pattern(
    graph: Graph, pattern: TriplePattern, solutions: Iterable[Solution]
) -> Iterator[Solution]:
    """Extend each solution with all matches of ``pattern`` (term space)."""
    for solution in solutions:
        if isinstance(pattern.predicate, PathExpr):
            s = pattern.subject if not isinstance(pattern.subject, Var) else solution.get(
                pattern.subject
            )
            o = pattern.object if not isinstance(pattern.object, Var) else solution.get(
                pattern.object
            )
            candidates = (
                (source, pattern.predicate, target)
                for source, target in eval_path(graph, pattern.predicate, s, o)
            )
            positions = (pattern.subject, pattern.object)
            for triple in candidates:
                extended = dict(solution)
                ok = True
                for position, value in zip(positions, (triple[0], triple[2])):
                    if isinstance(position, Var):
                        bound = extended.get(position)
                        if bound is None:
                            extended[position] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    yield extended
            continue
        probe = []
        for position in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(position, Var):
                probe.append(solution.get(position))
            else:
                probe.append(position)
        for triple in graph.triples(*probe):
            extended = dict(solution)
            ok = True
            for position, value in zip(
                (pattern.subject, pattern.predicate, pattern.object), triple
            ):
                if isinstance(position, Var):
                    bound = extended.get(position)
                    if bound is None:
                        extended[position] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                yield extended


def ref_eval_bgp(
    graph: Graph, bgp: BGP, solutions: Iterable[Solution], optimize: bool = True
) -> Iterator[Solution]:
    if optimize and len(bgp.patterns) > 1:
        from repro.sparql.optimizer import reorder_bgp

        bgp = reorder_bgp(graph, bgp)
    streams: Iterator[Solution] = iter(solutions)
    for pattern in bgp.patterns:
        streams = ref_match_pattern(graph, pattern, streams)
    return streams


def ref_eval_group(
    graph: Graph, group: GroupGraphPattern, solutions: list[Solution]
) -> list[Solution]:
    """Evaluate a group the pre-1.6 way: per-solution nested loops."""
    filters = []
    for child in group.children:
        if isinstance(child, BGP):
            solutions = list(ref_eval_bgp(graph, child, solutions))
        elif isinstance(child, Filter):
            filters.append(child.expression)
        elif isinstance(child, GroupGraphPattern):
            solutions = ref_eval_group(graph, child, solutions)
        elif isinstance(child, OptionalPattern):
            next_solutions: list[Solution] = []
            for solution in solutions:
                matched = ref_eval_group(graph, child.pattern, [dict(solution)])
                next_solutions.extend(matched if matched else [solution])
            solutions = next_solutions
        elif isinstance(child, UnionPattern):
            next_solutions = []
            for alternative in child.alternatives:
                next_solutions.extend(
                    ref_eval_group(graph, alternative, [dict(s) for s in solutions])
                )
            solutions = next_solutions
        elif isinstance(child, Bind):
            next_solutions = []
            for solution in solutions:
                if child.var in solution:
                    raise QueryEvaluationError(
                        f"BIND would rebind already-bound variable {child.var}"
                    )
                extended = dict(solution)
                try:
                    value = eval_expression(child.expression, solution, graph)
                except _ExpressionError:
                    value = None
                if value is not None:
                    extended[child.var] = _as_term(value)
                next_solutions.append(extended)
            solutions = next_solutions
        elif isinstance(child, ValuesClause):
            next_solutions = []
            for solution in solutions:
                for vrow in child.rows:
                    extended = dict(solution)
                    compatible = True
                    for var, term in zip(child.variables, vrow):
                        if term is None:
                            continue
                        bound = extended.get(var)
                        if bound is None:
                            extended[var] = term
                        elif bound != term:
                            compatible = False
                            break
                    if compatible:
                        next_solutions.append(extended)
            solutions = next_solutions
        else:
            raise QueryEvaluationError(f"unknown pattern node: {type(child).__name__}")
    if filters:
        solutions = [
            solution
            for solution in solutions
            if all(_filter_passes(expr, solution, graph) for expr in filters)
        ]
    return solutions


def ref_evaluate_select(graph: Graph, query: SelectQuery) -> QueryResult:
    solutions = ref_eval_group(graph, query.where, [{}])
    projected = query.projected()
    if query.is_aggregated:
        rows = _aggregate_rows(query, solutions)
    else:
        rows = [
            {var: solution[var] for var in projected if var in solution}
            for solution in solutions
        ]
    if query.distinct:
        seen = set()
        unique = []
        for row in rows:
            key = tuple(sorted(((v.name, t.n3()) for v, t in row.items())))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
    if query.order_by:
        for condition in reversed(query.order_by):
            def key(row: Solution, cond=condition):
                try:
                    value = eval_expression(cond.expression, row)
                except _ExpressionError:
                    value = None
                return _order_key_for(value)

            rows.sort(key=key, reverse=condition.descending)
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return QueryResult(projected, rows)


def ref_evaluate_ask(graph: Graph, query: AskQuery) -> bool:
    return bool(ref_eval_group(graph, query.where, [{}]))


def ref_evaluate_construct(graph: Graph, query) -> Graph:
    from repro.rdf.triples import Triple

    out = Graph(name="constructed")
    for solution in ref_eval_group(graph, query.where, [{}]):
        for pattern in query.template:
            terms = []
            ok = True
            for position in (pattern.subject, pattern.predicate, pattern.object):
                term = solution.get(position) if isinstance(position, Var) else position
                if term is None:
                    ok = False
                    break
                terms.append(term)
            if not ok:
                continue
            subject, predicate, obj = terms
            if isinstance(subject, Literal) or not isinstance(predicate, URIRef):
                continue
            out.add(Triple(subject, predicate, obj))
    return out


def ref_query(graph: Graph, text: str):
    """Parse and evaluate with the reference engine (no caching, no obs)."""
    parsed = parse_query(text)
    if isinstance(parsed, SelectQuery):
        return ref_evaluate_select(graph, parsed)
    if isinstance(parsed, AskQuery):
        return ref_evaluate_ask(graph, parsed)
    return ref_evaluate_construct(graph, parsed)


__all__ = [
    "ref_eval_bgp",
    "ref_eval_group",
    "ref_evaluate_ask",
    "ref_evaluate_construct",
    "ref_evaluate_select",
    "ref_match_pattern",
    "ref_query",
]
