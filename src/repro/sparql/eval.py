"""Evaluation of the SPARQL subset against a :class:`~repro.rdf.graph.Graph`.

Since v1.6 the evaluator runs **in ID space**: the graph interns every term
to an integer (:mod:`repro.rdf.dictionary`), and BGP execution joins
compact ID tuples — one slot per variable in a shared
:class:`_Layout` — against the graph's int-keyed indexes. Each pattern
stage picks a strategy adaptively:

* ``index-nested-loop`` — few input rows: probe the indexes once per row
  with that row's bindings substituted (the classic bound join);
* ``hash-join`` — many input rows: enumerate the pattern's matches once
  with only its constants bound, bucket them by the shared (join)
  variables, then probe each input row against the hash table.

Terms are decoded back to :class:`~repro.rdf.terms.Term` objects only at
the boundaries that need them: FILTER/BIND expression evaluation, ORDER
BY keys, aggregation, and the final projection. Query-produced terms that
the graph has never seen (BIND results, VALUES constants) intern into a
per-query overlay with *negative* IDs, so equality still works and the
graph's dictionary is never mutated by a read.

The stable entry points are :func:`repro.sparql.prepare` /
:class:`~repro.sparql.prepared.PreparedQuery` and the thin
:func:`query` wrapper. Solutions crossing the public API are still dicts
mapping :class:`Var` to terms.

Per-operator records
--------------------

A caller that passes a ``records`` list to :func:`_execute` gets one tuple
per executed operator appended to it::

    (op, node, strategy, rows_in, rows_out, seconds)

``op`` is ``"pattern"`` (``node`` is the :class:`TriplePattern`,
``strategy`` the join algorithm the executor picked), ``"filter"``
(``node`` is the FILTER expression) or a solution modifier (``project``,
``distinct``, ``order``, ``slice``, ``aggregate``; ``node`` and
``strategy`` are ``None``). One last ``("decode", None, None, 0, n, 0.0)``
record carries the number of ID→term decodes. EXPLAIN ANALYZE
(:mod:`repro.sparql.explain`) and per-query accounting
(:class:`repro.obs.QueryStats`) are both folds over this list. With
``records=None`` — the default everywhere — the executor makes one
``is not None`` check per operator and appends nothing.
"""

from __future__ import annotations

import operator
import re
import time
import weakref
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.errors import QueryEvaluationError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import (
    Literal,
    Term,
    URIRef,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.sparql.ast import (
    AskQuery,
    BGP,
    Bind,
    BooleanOp,
    Comparison,
    ConstructQuery,
    ExistsExpr,
    Expr,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    Not,
    OptionalPattern,
    OrderCondition,
    PatternTerm,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnionPattern,
    ValuesClause,
    Var,
    VarExpr,
)
from repro.sparql.paths import PathExpr, eval_path

Solution = dict[Var, Term]

#: Input-row threshold above which a pattern stage switches from per-row
#: index probes to a build-once hash join.
HASH_JOIN_MIN_ROWS = 8

#: Guard against degenerate hash builds: the build-side scan (the pattern's
#: matches with only constants bound) may be at most this many triples per
#: input row, otherwise nested-loop probing is cheaper.
HASH_JOIN_SCAN_FACTOR = 64


#: Sentinel raised internally when a FILTER expression has an error —
#: per SPARQL semantics an erroring FILTER eliminates the solution.
class _ExpressionError(Exception):
    pass


# --------------------------------------------------------------------- #
# ID-space machinery: codec, slot layout, row helpers
# --------------------------------------------------------------------- #


class _Codec:
    """Per-query term<->ID codec over the graph's dictionary.

    Graph terms keep their non-negative dictionary IDs. Terms produced by
    the query itself (BIND results, VALUES constants, caller bindings) that
    the graph has never interned get *negative* overlay IDs, so equal terms
    always share one ID, probing the graph with them naturally matches
    nothing, and the graph's dictionary is never grown by a read.
    """

    __slots__ = ("base", "_local_ids", "_local_terms", "decodes")

    def __init__(self, base: TermDictionary):
        self.base = base
        self._local_ids: dict[Term, int] = {}
        self._local_terms: list[Term] = []
        #: Decodes performed; only :class:`_CountingCodec` increments it.
        self.decodes = 0

    def encode(self, term: Term) -> int:
        term_id = self.base.lookup(term)
        if term_id is not None:
            return term_id
        term_id = self._local_ids.get(term)
        if term_id is None:
            self._local_terms.append(term)
            term_id = -len(self._local_terms)
            self._local_ids[term] = term_id
        return term_id

    def decode(self, term_id: int) -> Term:
        if term_id >= 0:
            return self.base.decode(term_id)
        return self._local_terms[-term_id - 1]


class _CountingCodec(_Codec):
    """A codec that counts its decodes.

    Substituted for :class:`_Codec` only when the caller collects
    per-operator records, so the default hot path keeps the base class's
    zero-overhead decode.
    """

    __slots__ = ()

    def decode(self, term_id: int) -> Term:
        self.decodes += 1
        return _Codec.decode(self, term_id)


class _Layout:
    """Shared variable-slot layout: maps row keys to tuple positions.

    Keys are :class:`Var` objects plus internal sentinels (e.g. OPTIONAL
    origin markers). Rows are plain tuples, allowed to be *shorter* than
    the layout — missing tail slots read as unbound, so extending a row
    never copies unrelated columns eagerly.
    """

    __slots__ = ("keys", "index")

    def __init__(self) -> None:
        self.keys: list = []
        self.index: dict = {}

    def slot(self, key) -> int:
        position = self.index.get(key)
        if position is None:
            position = len(self.keys)
            self.index[key] = position
            self.keys.append(key)
        return position


def _row_get(row: tuple, slot: int):
    return row[slot] if slot < len(row) else None


def _row_set(row: tuple, slot: int, value) -> tuple:
    width = len(row)
    if slot < width:
        return row[:slot] + (value,) + row[slot + 1:]
    return row + (None,) * (slot - width) + (value,)


def _encode_solution(codec: _Codec, layout: _Layout, solution: Solution) -> tuple:
    if not solution:
        return ()
    assignments = [
        (layout.slot(var), codec.encode(term)) for var, term in solution.items()
    ]
    width = max(slot for slot, _ in assignments) + 1
    row = [None] * width
    for slot, value in assignments:
        row[slot] = value
    return tuple(row)


def _decode_row(
    codec: _Codec, layout: _Layout, row: tuple, variables: Iterable[Var] | None = None
) -> Solution:
    """Row -> solution dict; sentinel (non-Var) slots are skipped.

    ``variables`` restricts decoding to the named variables (the
    expression/aggregation fast path); None decodes every bound Var slot.
    """
    solution: Solution = {}
    if variables is None:
        keys = layout.keys
        for index, value in enumerate(row):
            if value is not None:
                key = keys[index]
                if type(key) is Var:
                    solution[key] = codec.decode(value)
        return solution
    index_of = layout.index
    width = len(row)
    for var in variables:
        slot = index_of.get(var)
        if slot is not None and slot < width:
            value = row[slot]
            if value is not None:
                solution[var] = codec.decode(value)
    return solution


def _expr_vars(expr: Expr) -> set[Var] | None:
    """Variables an expression reads, or None when it needs the full row
    (EXISTS re-evaluates a whole group under the current bindings)."""
    if isinstance(expr, TermExpr):
        return set()
    if isinstance(expr, VarExpr):
        return {expr.var}
    if isinstance(expr, Not):
        return _expr_vars(expr.operand)
    if isinstance(expr, (BooleanOp, Comparison)):
        left = _expr_vars(expr.left)
        right = _expr_vars(expr.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(expr, FunctionCall):
        out: set[Var] = set()
        for arg in expr.args:
            sub = _expr_vars(arg)
            if sub is None:
                return None
            out |= sub
        return out
    return None  # ExistsExpr and anything unknown: decode everything


def _bound_vars(layout: _Layout, rows: list[tuple]) -> set[Var]:
    """Variables bound in (a sample of) the incoming rows.

    Seeds the optimizer's join-order search for nested BGPs: a variable
    the enclosing group has already bound makes patterns mentioning it
    selective probes. Sampling the first few rows is exact for the common
    homogeneous case and merely a heuristic after UNIONs — ordering never
    affects results, only speed.
    """
    if not rows:
        return set()
    sample = rows[:8]
    bound: set[Var] = set()
    for key, slot in layout.index.items():
        if type(key) is Var and all(
            slot < len(row) and row[slot] is not None for row in sample
        ):
            bound.add(key)
    return bound


class _BGPOrderMemo:
    """Per-prepared-query cache of optimizer join orders.

    Keyed by BGP node identity plus the bound-variable context, and
    validated against the target graph's
    :attr:`~repro.rdf.graph.Graph.version`, so a repeated
    ``PreparedQuery.execute`` on an unchanged graph skips
    :func:`~repro.sparql.optimizer.reorder_bgp` entirely.
    """

    __slots__ = ("_orders",)

    def __init__(self) -> None:
        self._orders: dict[int, tuple] = {}

    def ordered(self, graph: Graph, bgp: BGP, bound: set[Var]) -> BGP:
        from repro.sparql.optimizer import reorder_bgp

        key = id(bgp)
        entry = self._orders.get(key)
        if entry is not None:
            graph_ref, version, bound_key, ordered = entry
            if (
                graph_ref() is graph
                and version == graph.version
                and bound_key == bound
            ):
                return ordered
        ordered = reorder_bgp(graph, bgp, bound)
        self._orders[key] = (weakref.ref(graph), graph.version, set(bound), ordered)
        return ordered


# --------------------------------------------------------------------- #
# Pattern stages (ID space)
# --------------------------------------------------------------------- #


def _eval_path_pattern(
    graph: Graph, codec: _Codec, pattern: TriplePattern, layout: _Layout, rows: list[tuple]
) -> list[tuple]:
    """Property-path stage: per-row term-space BFS via :func:`eval_path`."""
    s_var = isinstance(pattern.subject, Var)
    o_var = isinstance(pattern.object, Var)
    s_slot = layout.slot(pattern.subject) if s_var else -1
    o_slot = layout.slot(pattern.object) if o_var else -1
    out: list[tuple] = []
    for row in rows:
        if s_var:
            s_id = _row_get(row, s_slot)
            s = codec.decode(s_id) if s_id is not None else None
        else:
            s = pattern.subject
        if o_var:
            o_id = _row_get(row, o_slot)
            o = codec.decode(o_id) if o_id is not None else None
        else:
            o = pattern.object
        for source, target in eval_path(graph, pattern.predicate, s, o):
            extended = row
            if s_var:
                value = codec.encode(source)
                current = _row_get(extended, s_slot)
                if current is None:
                    extended = _row_set(extended, s_slot, value)
                elif current != value:
                    continue
            if o_var:
                value = codec.encode(target)
                current = _row_get(extended, o_slot)
                if current is None:
                    extended = _row_set(extended, o_slot, value)
                elif current != value:
                    continue
            out.append(extended)
    return out


def _eval_pattern_ids(
    graph: Graph, codec: _Codec, pattern: TriplePattern, layout: _Layout, rows: list[tuple]
) -> tuple[list[tuple], str]:
    """One BGP pattern stage over ID rows; returns (rows, strategy used)."""
    obs.inc("sparql.patterns.matched")
    if isinstance(pattern.predicate, PathExpr):
        return _eval_path_pattern(graph, codec, pattern, layout, rows), "path-scan"

    # Classify positions: (is_var, slot-or-const-id) per s/p/o.
    spec: list[tuple[bool, int]] = []
    var_slots: list[int] = []
    for position in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(position, Var):
            slot = layout.slot(position)
            spec.append((True, slot))
            if slot not in var_slots:
                var_slots.append(slot)
        else:
            term_id = graph.dictionary.lookup(position)
            if term_id is None:
                return [], "index-nested-loop"  # constant the graph never saw
            spec.append((False, term_id))

    if not var_slots:  # fully-constant pattern: a membership probe
        probe = tuple(value for _, value in spec)
        exists = next(graph.triples_ids(*probe), None) is not None
        return (list(rows) if exists else []), "index-nested-loop"

    const_probe = tuple(None if is_var else value for is_var, value in spec)
    out: list[tuple] = []
    strategy = "index-nested-loop"

    # Rows may differ in which pattern variables they bind (e.g. after a
    # UNION); each bound-mask group joins independently. Masks are small
    # bitmask ints (a pattern has at most three variables) rather than
    # tuples — this grouping runs once per input row.
    groups: dict[int, list[tuple]] = {}
    for row in rows:
        width = len(row)
        mask = 0
        bit = 1
        for slot in var_slots:
            if slot < width and row[slot] is not None:
                mask |= bit
            bit <<= 1
        bucket = groups.get(mask)
        if bucket is None:
            groups[mask] = bucket = []
        bucket.append(row)

    for mask, group in groups.items():
        bound = {slot for index, slot in enumerate(var_slots) if mask & (1 << index)}
        # positions contributing to the join key / to new bindings
        key_positions = [
            index for index, (is_var, slot) in enumerate(spec) if is_var and slot in bound
        ]
        free_positions = [
            (index, slot)
            for index, (is_var, slot) in enumerate(spec)
            if is_var and slot not in bound
        ]
        free_slots: list[int] = []
        for _, slot in free_positions:
            if slot not in free_slots:
                free_slots.append(slot)

        use_hash = False
        if len(group) >= HASH_JOIN_MIN_ROWS:
            if not key_positions:
                use_hash = True  # cross product: always enumerate once
            else:
                scan = graph.count_ids(*const_probe)
                use_hash = scan <= HASH_JOIN_SCAN_FACTOR * len(group)

        if use_hash:
            strategy = "hash-join"
            _hash_join_group(
                graph, group, spec, const_probe, key_positions, free_positions, free_slots, out
            )
        else:
            _nested_loop_group(graph, group, spec, free_positions, free_slots, out)
    return out, strategy


def _bind_free(row: tuple, match: tuple, free_positions, free_slots) -> tuple | None:
    """Extend ``row`` with a match's values for the free slots (None when a
    repeated variable disagrees with itself within the match)."""
    if not free_slots:
        return row  # pattern acted as a pure existence filter
    values: dict[int, int] = {}
    for index, slot in free_positions:
        value = match[index]
        previous = values.get(slot)
        if previous is None:
            values[slot] = value
        elif previous != value:
            return None
    width = max(len(row), max(free_slots) + 1)
    extended = list(row) + [None] * (width - len(row))
    for slot, value in values.items():
        extended[slot] = value
    return tuple(extended)


def _nested_loop_group(
    graph: Graph, group: list[tuple], spec, free_positions, free_slots, out: list[tuple]
) -> None:
    """Per-row index probes with the row's bindings substituted; results
    are appended to ``out``."""
    triples_ids = graph.triples_ids
    append = out.append
    if not free_positions:
        # existence filter: every position is bound, so each probe is a
        # fully-constant membership test and the row passes unchanged
        for row in group:
            width = len(row)
            probe = [
                (row[value] if value < width else None) if is_var else value
                for is_var, value in spec
            ]
            if next(triples_ids(*probe), None) is not None:
                append(row)
        return
    if len(free_positions) == 1:
        # fast path for the dominant shape — the pattern introduces exactly
        # one new variable, and a new variable's slot usually sits right at
        # the end of the row, so extending is a plain tuple append
        position, slot = free_positions[0]
        for row in group:
            width = len(row)
            probe = [
                (row[value] if value < width else None) if is_var else value
                for is_var, value in spec
            ]
            if slot == width:
                for match in triples_ids(*probe):
                    append(row + (match[position],))
            else:
                for match in triples_ids(*probe):
                    append(_row_set(row, slot, match[position]))
        return
    for row in group:
        width = len(row)
        probe = [
            (row[value] if value < width else None) if is_var else value
            for is_var, value in spec
        ]
        for match in triples_ids(*probe):
            extended = _bind_free(row, match, free_positions, free_slots)
            if extended is not None:
                append(extended)


def _hash_join_group(
    graph: Graph, group: list[tuple], spec, const_probe, key_positions, free_positions,
    free_slots, out: list[tuple]
) -> None:
    """Build-once hash join: bucket pattern matches by the join key, then
    probe every input row against the table; results are appended to
    ``out``."""
    append = out.append
    if len(key_positions) == 1 and len(free_positions) == 1:
        # fast path for the dominant shape — one join variable, one new
        # variable: scalar keys, scalar bucket values, tuple-append output
        key_position = key_positions[0]
        free_position, free_slot = free_positions[0]
        scalar_table: dict[int, list[int]] = {}
        for match in graph.triples_ids(*const_probe):
            value = match[key_position]
            bucket = scalar_table.get(value)
            if bucket is None:
                scalar_table[value] = [match[free_position]]
            else:
                bucket.append(match[free_position])
        if not scalar_table:
            return
        key_slot = spec[key_position][1]
        table_get = scalar_table.get
        for row in group:
            width = len(row)
            hits = table_get(row[key_slot] if key_slot < width else None)
            if hits is None:
                continue
            if free_slot == width:
                for value in hits:
                    append(row + (value,))
            else:
                for value in hits:
                    append(_row_set(row, free_slot, value))
        return
    table: dict[tuple, list[tuple]] = {}
    free_width = (max(free_slots) + 1) if free_slots else 0
    for match in graph.triples_ids(*const_probe):
        values: dict[int, int] = {}
        consistent = True
        for index, slot in free_positions:
            value = match[index]
            previous = values.get(slot)
            if previous is None:
                values[slot] = value
            elif previous != value:
                consistent = False
                break
        if not consistent:
            continue
        key = tuple(match[index] for index in key_positions)
        table.setdefault(key, []).append(
            tuple(values[slot] for slot in free_slots)
        )
    if not table:
        return
    key_slots = [spec[index][1] for index in key_positions]
    table_get = table.get
    if not free_slots:
        # existence (semi-)join: the pattern binds nothing new, so a row
        # passes through unchanged, once per matching triple
        for row in group:
            width = len(row)
            key = tuple(
                (row[slot] if slot < width else None) for slot in key_slots
            )
            hits = table_get(key)
            if hits is not None:
                for _ in hits:
                    append(row)
        return
    for row in group:
        width = len(row)
        key = tuple((row[slot] if slot < width else None) for slot in key_slots)
        hits = table_get(key)
        if hits is None:
            continue
        padded = max(width, free_width)
        base = list(row) + [None] * (padded - width)
        for values in hits:
            extended = base.copy()
            for slot, value in zip(free_slots, values):
                extended[slot] = value
            append(tuple(extended))


# --------------------------------------------------------------------- #
# Group evaluation (ID space)
# --------------------------------------------------------------------- #


def _eval_group_ids(
    graph: Graph,
    codec: _Codec,
    group: GroupGraphPattern,
    layout: _Layout,
    rows: list[tuple],
    records: list | None = None,
    memo: _BGPOrderMemo | None = None,
) -> list[tuple]:
    filters: list[Expr] = []
    for child in group.children:
        if isinstance(child, BGP):
            bgp = child
            if len(bgp.patterns) > 1:
                seed = _bound_vars(layout, rows)
                if memo is not None:
                    bgp = memo.ordered(graph, bgp, seed)
                else:
                    from repro.sparql.optimizer import reorder_bgp

                    bgp = reorder_bgp(graph, bgp, seed)
            for pattern in bgp.patterns:
                rows_in = len(rows)
                started = time.perf_counter()
                rows, strategy = _eval_pattern_ids(graph, codec, pattern, layout, rows)
                if records is not None:
                    records.append((
                        "pattern", pattern, strategy, rows_in, len(rows),
                        time.perf_counter() - started,
                    ))
        elif isinstance(child, Filter):
            filters.append(child.expression)
        elif isinstance(child, GroupGraphPattern):
            rows = _eval_group_ids(graph, codec, child, layout, rows, records, memo)
        elif isinstance(child, OptionalPattern):
            if rows:
                rows = _eval_optional(graph, codec, child, layout, rows, records, memo)
        elif isinstance(child, UnionPattern):
            next_rows: list[tuple] = []
            for alternative in child.alternatives:
                next_rows.extend(
                    _eval_group_ids(
                        graph, codec, alternative, layout, list(rows), records, memo
                    )
                )
            rows = next_rows
        elif isinstance(child, Bind):
            rows = _eval_bind(graph, codec, child, layout, rows)
        elif isinstance(child, ValuesClause):
            rows = _eval_values(codec, child, layout, rows)
        else:
            raise QueryEvaluationError(f"unknown pattern node: {type(child).__name__}")
    if filters:
        pairs = [(row, _decode_row(codec, layout, row)) for row in rows]
        if records is not None:
            # one pass per FILTER so each gets its own rows in/out; the
            # conjunction is order-independent (an erroring filter is
            # False), so per-filter sequencing preserves `all(...)`.
            for expression in filters:
                rows_in = len(pairs)
                started = time.perf_counter()
                pairs = [
                    (row, solution)
                    for row, solution in pairs
                    if _filter_passes(expression, solution, graph)
                ]
                records.append((
                    "filter", expression, None, rows_in, len(pairs),
                    time.perf_counter() - started,
                ))
        else:
            pairs = [
                (row, solution)
                for row, solution in pairs
                if all(_filter_passes(expr, solution, graph) for expr in filters)
            ]
        rows = [row for row, _ in pairs]
    return rows


def _eval_optional(
    graph: Graph,
    codec: _Codec,
    child: OptionalPattern,
    layout: _Layout,
    rows: list[tuple],
    records: list | None,
    memo: _BGPOrderMemo | None,
) -> list[tuple]:
    """Batched left outer join: tag every input row with its position in a
    sentinel slot, evaluate the optional group over the whole batch once,
    then route extensions back to their origin rows (unmatched rows pass
    through unchanged — and untagged)."""
    origin_slot = layout.slot(object())  # fresh sentinel key, never a Var
    seeded = [_row_set(row, origin_slot, index) for index, row in enumerate(rows)]
    matched = _eval_group_ids(graph, codec, child.pattern, layout, seeded, records, memo)
    by_origin: dict[int, list[tuple]] = {}
    for row in matched:
        by_origin.setdefault(row[origin_slot], []).append(row)
    out: list[tuple] = []
    for index, row in enumerate(rows):
        extensions = by_origin.get(index)
        if extensions:
            out.extend(extensions)
        else:
            out.append(row)
    return out


def _eval_bind(
    graph: Graph, codec: _Codec, child: Bind, layout: _Layout, rows: list[tuple]
) -> list[tuple]:
    slot = layout.slot(child.var)
    needed = _expr_vars(child.expression)
    out: list[tuple] = []
    for row in rows:
        if _row_get(row, slot) is not None:
            raise QueryEvaluationError(
                f"BIND would rebind already-bound variable {child.var}"
            )
        solution = _decode_row(codec, layout, row, needed)
        try:
            value = eval_expression(child.expression, solution, graph)
        except _ExpressionError:
            value = None  # an erroring BIND leaves the var unbound
        if value is not None:
            row = _row_set(row, slot, codec.encode(_as_term(value)))
        out.append(row)
    return out


def _eval_values(
    codec: _Codec, child: ValuesClause, layout: _Layout, rows: list[tuple]
) -> list[tuple]:
    slots = [layout.slot(var) for var in child.variables]
    encoded = [
        tuple(codec.encode(term) if term is not None else None for term in vrow)
        for vrow in child.rows
    ]
    out: list[tuple] = []
    for row in rows:
        for vrow in encoded:
            extended = row
            compatible = True
            for slot, value in zip(slots, vrow):
                if value is None:  # UNDEF leaves the variable free
                    continue
                current = _row_get(extended, slot)
                if current is None:
                    extended = _row_set(extended, slot, value)
                elif current != value:
                    compatible = False
                    break
            if compatible:
                out.append(extended)
    return out


# --------------------------------------------------------------------- #
# Term-space compatibility surface (federation endpoints, EXISTS)
# --------------------------------------------------------------------- #


def _resolve(term: PatternTerm, solution: Solution) -> Term | None:
    """Concrete term for a pattern position under ``solution`` (None = free)."""
    if isinstance(term, Var):
        return solution.get(term)
    return term


def match_pattern(
    graph: Graph, pattern: TriplePattern, solutions: Iterable[Solution]
) -> Iterator[Solution]:
    """Extend each incoming solution with all graph matches of ``pattern``.

    The term-dict streaming surface used by federation endpoints (bound
    joins arrive as solution dicts over the wire); probes run against the
    ID indexes internally.
    """
    obs.inc("sparql.patterns.matched")
    if isinstance(pattern.predicate, PathExpr):
        for solution in solutions:
            s = _resolve(pattern.subject, solution)
            o = _resolve(pattern.object, solution)
            for source, target in eval_path(graph, pattern.predicate, s, o):
                extended = dict(solution)
                ok = True
                for position, value in ((pattern.subject, source), (pattern.object, target)):
                    if isinstance(position, Var):
                        bound = extended.get(position)
                        if bound is None:
                            extended[position] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    yield extended
        return
    dictionary = graph.dictionary
    positions = (pattern.subject, pattern.predicate, pattern.object)
    consts: list[int | None] = []
    for position in positions:
        if isinstance(position, Var):
            consts.append(None)
        else:
            term_id = dictionary.lookup(position)
            if term_id is None:
                return  # a constant the graph has never interned
            consts.append(term_id)
    decode = dictionary.decode
    for solution in solutions:
        probe = list(consts)
        known = True
        for index, position in enumerate(positions):
            if probe[index] is None:
                bound = solution.get(position)
                if bound is not None:
                    bound_id = dictionary.lookup(bound)
                    if bound_id is None:
                        known = False
                        break
                    probe[index] = bound_id
        if not known:
            continue
        for match in graph.triples_ids(*probe):
            extended = dict(solution)
            ok = True
            for index, position in enumerate(positions):
                if isinstance(position, Var):
                    value = decode(match[index])
                    bound = extended.get(position)
                    if bound is None:
                        extended[position] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                yield extended


def eval_group(
    graph: Graph,
    group: GroupGraphPattern,
    solutions: Iterable[Solution] | None = None,
) -> list[Solution]:
    """Evaluate a group pattern over solution dicts.

    A thin boundary over the ID-space engine: encode, join, decode.
    """
    codec = _Codec(graph.dictionary)
    layout = _Layout()
    if solutions is None:
        rows: list[tuple] = [()]
    else:
        rows = [_encode_solution(codec, layout, solution) for solution in solutions]
    rows = _eval_group_ids(graph, codec, group, layout, rows)
    return [_decode_row(codec, layout, row) for row in rows]


def _as_term(value) -> Term:
    """Lower a Python expression result to an RDF term for BIND."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD_DOUBLE)
    if isinstance(value, str):
        return Literal(value)
    raise QueryEvaluationError(f"cannot convert {type(value).__name__} to an RDF term")


def _filter_passes(expr: Expr, solution: Solution, graph: Graph | None = None) -> bool:
    try:
        return _effective_boolean(eval_expression(expr, solution, graph))
    except _ExpressionError:
        return False


# --------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------- #


def eval_expression(expr: Expr, solution: Solution, graph: Graph | None = None):
    """Evaluate a FILTER expression to a Python value or RDF term.

    ``graph`` is required only for EXISTS / NOT EXISTS, which re-evaluate a
    group pattern under the current bindings.
    """
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, VarExpr):
        value = solution.get(expr.var)
        if value is None:
            raise _ExpressionError(f"unbound variable {expr.var}")
        return value
    if isinstance(expr, Not):
        return not _effective_boolean(eval_expression(expr.operand, solution, graph))
    if isinstance(expr, BooleanOp):
        left = _effective_boolean(eval_expression(expr.left, solution, graph))
        if expr.op == "&&":
            return left and _effective_boolean(eval_expression(expr.right, solution, graph))
        return left or _effective_boolean(eval_expression(expr.right, solution, graph))
    if isinstance(expr, Comparison):
        return _compare(
            expr.op,
            eval_expression(expr.left, solution, graph),
            eval_expression(expr.right, solution, graph),
        )
    if isinstance(expr, FunctionCall):
        return _call_function(expr, solution)
    if isinstance(expr, ExistsExpr):
        if graph is None:
            raise QueryEvaluationError(
                "EXISTS/NOT EXISTS requires local graph evaluation"
            )
        matched = bool(eval_group(graph, expr.pattern, [dict(solution)]))
        return (not matched) if expr.negated else matched
    raise QueryEvaluationError(f"unknown expression node: {type(expr).__name__}")


def _effective_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        python = value.to_python()
        if isinstance(python, bool):
            return python
        if isinstance(python, (int, float)):
            return python != 0
        return bool(value.lexical)
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    raise _ExpressionError(f"no effective boolean value for {value!r}")


def _comparable(value):
    """Lower RDF terms to comparable Python values."""
    if isinstance(value, Literal):
        return value.to_python()
    if isinstance(value, URIRef):
        return value.value
    return value


def _compare(op: str, left, right) -> bool:
    # Term equality for =/!= when both are terms of the same kind.
    if op in ("=", "!="):
        if isinstance(left, Term) and isinstance(right, Term) and type(left) is type(right):
            equal = left == right
            if not equal and isinstance(left, Literal) and isinstance(right, Literal):
                lp, rp = left.to_python(), right.to_python()
                if isinstance(lp, (int, float)) and isinstance(rp, (int, float)):
                    equal = lp == rp
            return equal if op == "=" else not equal
    left_value, right_value = _comparable(left), _comparable(right)
    try:
        if op == "=":
            return left_value == right_value
        if op == "!=":
            return left_value != right_value
        if op == "<":
            return left_value < right_value
        if op == "<=":
            return left_value <= right_value
        if op == ">":
            return left_value > right_value
        if op == ">=":
            return left_value >= right_value
    except TypeError as exc:
        raise _ExpressionError(str(exc)) from exc
    raise QueryEvaluationError(f"unknown comparison operator {op!r}")


def _string_of(value) -> str:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, URIRef):
        return value.value
    if isinstance(value, str):
        return value
    raise _ExpressionError(f"not a string-valued argument: {value!r}")


def _call_function(expr: FunctionCall, solution: Solution):
    name = expr.name
    if name == "BOUND":
        if len(expr.args) != 1 or not isinstance(expr.args[0], VarExpr):
            raise QueryEvaluationError("BOUND takes exactly one variable")
        return expr.args[0].var in solution

    args = [eval_expression(arg, solution) for arg in expr.args]
    if name == "STR":
        _require_arity(name, args, 1)
        return _string_of(args[0])
    if name == "LANG":
        _require_arity(name, args, 1)
        if isinstance(args[0], Literal):
            return args[0].language or ""
        raise _ExpressionError("LANG requires a literal")
    if name == "DATATYPE":
        _require_arity(name, args, 1)
        if isinstance(args[0], Literal):
            return URIRef(args[0].datatype) if args[0].datatype else URIRef(
                "http://www.w3.org/2001/XMLSchema#string"
            )
        raise _ExpressionError("DATATYPE requires a literal")
    if name == "REGEX":
        if len(args) not in (2, 3):
            raise QueryEvaluationError("REGEX takes 2 or 3 arguments")
        flags = 0
        if len(args) == 3 and "i" in _string_of(args[2]):
            flags = re.IGNORECASE
        try:
            return re.search(_string_of(args[1]), _string_of(args[0]), flags) is not None
        except re.error as exc:
            raise _ExpressionError(f"bad REGEX pattern: {exc}") from exc
    if name == "CONTAINS":
        _require_arity(name, args, 2)
        return _string_of(args[1]) in _string_of(args[0])
    if name == "STRSTARTS":
        _require_arity(name, args, 2)
        return _string_of(args[0]).startswith(_string_of(args[1]))
    if name == "STRENDS":
        _require_arity(name, args, 2)
        return _string_of(args[0]).endswith(_string_of(args[1]))
    if name == "STRLEN":
        _require_arity(name, args, 1)
        return len(_string_of(args[0]))
    if name == "UCASE":
        _require_arity(name, args, 1)
        return _string_of(args[0]).upper()
    if name == "LCASE":
        _require_arity(name, args, 1)
        return _string_of(args[0]).lower()
    if name == "LANGMATCHES":
        _require_arity(name, args, 2)
        tag = _string_of(args[0]).lower()
        pattern = _string_of(args[1]).lower()
        if pattern == "*":
            return bool(tag)
        return tag == pattern or tag.startswith(pattern + "-")
    if name == "ABS":
        _require_arity(name, args, 1)
        value = _comparable(args[0])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return abs(value)
        raise _ExpressionError("ABS requires a numeric argument")
    if name in ("ISURI", "ISIRI"):
        _require_arity(name, args, 1)
        return isinstance(args[0], URIRef)
    if name == "ISLITERAL":
        _require_arity(name, args, 1)
        return isinstance(args[0], Literal)
    if name == "ISBLANK":
        _require_arity(name, args, 1)
        from repro.rdf.terms import BNode

        return isinstance(args[0], BNode)
    if name == "ISNUMERIC":
        _require_arity(name, args, 1)
        if not isinstance(args[0], Literal):
            return False
        value = args[0].to_python()
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise QueryEvaluationError(f"unknown function {name}")


def _require_arity(name: str, args: list, count: int) -> None:
    if len(args) != count:
        raise QueryEvaluationError(f"{name} takes exactly {count} argument(s)")


# --------------------------------------------------------------------- #
# Query results
# --------------------------------------------------------------------- #


class QueryResult:
    """Result of a SELECT: ordered rows of projected bindings."""

    def __init__(self, variables: list[Var], rows: list[Solution]):
        self.variables = variables
        self.rows = rows
        #: Per-query resource accounting (:class:`repro.obs.QueryStats`)
        #: when accounting or the slowlog is enabled; None otherwise.
        self.stats = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, var: Var | str) -> list[Term | None]:
        """All values of one variable, in row order."""
        if isinstance(var, str):
            var = Var(var.lstrip("?"))
        return [row.get(var) for row in self.rows]

    def as_tuples(self) -> list[tuple]:
        """Rows as tuples in the projected variable order."""
        return [tuple(row.get(v) for v in self.variables) for row in self.rows]

    def __repr__(self):
        return f"<QueryResult {len(self.rows)} rows x {len(self.variables)} vars>"


def _order_key_for(value) -> tuple:
    """Total order across None < literals/numbers < strings < URIs."""
    if value is None:
        return (0, "", "")
    if isinstance(value, Literal):
        python = value.to_python()
        if isinstance(python, bool):
            return (1, "", str(python))
        if isinstance(python, (int, float)):
            return (2, "", f"{float(python):040.10f}")
        return (3, "", str(python))
    if isinstance(value, URIRef):
        return (4, "", value.value)
    return (5, "", str(value))


def _stage(records: list | None, op: str, rows_in: int, stage: Callable[[], list]):
    """Run one solution-modifier stage, appending its record when collecting."""
    if records is None:
        return stage()
    started = time.perf_counter()
    out = stage()
    records.append((op, None, None, rows_in, len(out), time.perf_counter() - started))
    return out


# --------------------------------------------------------------------- #
# Query execution pipelines (internal; PreparedQuery is the public door)
# --------------------------------------------------------------------- #


def _initial_rows(
    codec: _Codec, layout: _Layout, bindings: Solution | None
) -> list[tuple]:
    if not bindings:
        return [()]
    normalized: Solution = {}
    for key, term in bindings.items():
        var = Var(key.lstrip("?")) if isinstance(key, str) else key
        normalized[var] = term
    return [_encode_solution(codec, layout, normalized)]


def _execute(
    graph: Graph,
    plan,
    bindings: Solution | None = None,
    memo: _BGPOrderMemo | None = None,
    records: list | None = None,
) -> QueryResult | bool | Graph:
    """Run a parsed query: a :class:`QueryResult` for SELECT, a bool for
    ASK, a :class:`~repro.rdf.graph.Graph` for CONSTRUCT. ``records``
    collects the per-operator records described in the module docstring."""
    codec = _Codec(graph.dictionary) if records is None else _CountingCodec(graph.dictionary)
    if isinstance(plan, SelectQuery):
        result: QueryResult | bool | Graph = _execute_select(
            graph, codec, plan, bindings, memo, records
        )
    elif isinstance(plan, AskQuery):
        result = _execute_ask(graph, codec, plan, bindings, memo, records)
    elif isinstance(plan, ConstructQuery):
        result = _execute_construct(graph, codec, plan, bindings, memo, records)
    else:
        raise QueryEvaluationError(f"cannot execute query of type {type(plan).__name__}")
    if records is not None:
        records.append(("decode", None, None, 0, codec.decodes, 0.0))
    return result


def _execute_select(
    graph: Graph,
    codec: _Codec,
    query: SelectQuery,
    bindings: Solution | None,
    memo: _BGPOrderMemo | None,
    records: list | None,
) -> QueryResult:
    layout = _Layout()
    id_rows = _initial_rows(codec, layout, bindings)
    id_rows = _eval_group_ids(graph, codec, query.where, layout, id_rows, records, memo)
    if id_rows:
        obs.inc("sparql.solutions.produced", len(id_rows))
    projected = query.projected()

    if query.is_aggregated:
        rows = _stage(
            records,
            "aggregate",
            len(id_rows),
            lambda: _aggregate_rows_ids(query, codec, layout, id_rows),
        )
        return QueryResult(projected, _finalize_term_rows(query, rows, records))

    slots = [layout.index.get(var) for var in projected]

    def project() -> list[tuple]:
        out = []
        if all(slot is not None for slot in slots):
            # fast path: every projected variable has a slot, and joins
            # usually produce full-width rows, so a C-level itemgetter
            # covers the common case
            min_width = max(slots) + 1
            getter = (
                operator.itemgetter(*slots)
                if len(slots) > 1
                else (lambda row, _slot=slots[0]: (row[_slot],))
            )
            for row in id_rows:
                if len(row) >= min_width:
                    out.append(getter(row))
                else:
                    width = len(row)
                    out.append(
                        tuple(row[slot] if slot < width else None for slot in slots)
                    )
            return out
        for row in id_rows:
            width = len(row)
            out.append(
                tuple(
                    row[slot] if (slot is not None and slot < width) else None
                    for slot in slots
                )
            )
        return out

    projected_rows = _stage(records, "project", len(id_rows), project)

    if query.distinct:
        def deduplicate() -> list[tuple]:
            # interning makes ID equality coincide with term equality, so
            # the projected ID tuple is a complete dedup key
            seen: set[tuple] = set()
            unique: list[tuple] = []
            for row in projected_rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            return unique

        projected_rows = _stage(records, "distinct", len(projected_rows), deduplicate)

    def to_solution(id_row: tuple) -> Solution:
        return {
            var: codec.decode(value)
            for var, value in zip(projected, id_row)
            if value is not None
        }

    if query.order_by:
        rows = [to_solution(row) for row in projected_rows]
        rows = _stage(records, "order", len(rows), lambda: _order_rows(query, rows))
        rows = _slice_rows(query, rows, records)
        return QueryResult(projected, rows)

    projected_rows = _slice_rows(query, projected_rows, records)
    return QueryResult(projected, [to_solution(row) for row in projected_rows])


def _finalize_term_rows(
    query: SelectQuery, rows: list[Solution], records: list | None
) -> list[Solution]:
    """DISTINCT / ORDER / slice over term-space rows (the aggregate path)."""
    if query.distinct:
        def deduplicate() -> list[Solution]:
            seen: set[tuple] = set()
            unique: list[Solution] = []
            for row in rows:
                key = tuple(sorted(((v.name, t.n3()) for v, t in row.items())))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            return unique

        rows = _stage(records, "distinct", len(rows), deduplicate)
    if query.order_by:
        rows = _stage(records, "order", len(rows), lambda: _order_rows(query, rows))
    return _slice_rows(query, rows, records)


def _order_rows(query: SelectQuery, rows: list[Solution]) -> list[Solution]:
    for condition in reversed(query.order_by):
        def key(row: Solution, cond: OrderCondition = condition):
            try:
                value = eval_expression(cond.expression, row)
            except _ExpressionError:
                value = None
            return _order_key_for(value)

        rows.sort(key=key, reverse=condition.descending)
    return rows


def _slice_rows(query: SelectQuery, rows: list, records: list | None) -> list:
    if not query.offset and query.limit is None:
        return rows

    def slice_rows() -> list:
        out = rows[query.offset:] if query.offset else rows
        return out[: query.limit] if query.limit is not None else out

    return _stage(records, "slice", len(rows), slice_rows)


def _aggregate_rows_ids(
    query: SelectQuery, codec: _Codec, layout: _Layout, id_rows: list[tuple]
) -> list[Solution]:
    """ID-space GROUP BY: group on raw ID tuples (interning makes ID
    equality coincide with the n3-keyed grouping of
    :func:`~repro.sparql.aggregates.group_solutions`), decoding members
    only for the variables the aggregates actually read."""
    from repro.sparql.aggregates import evaluate_aggregate

    aggregate_vars = {
        aggregate.var for aggregate in query.aggregates if aggregate.var is not None
    }
    slots = [layout.index.get(var) for var in query.group_by]
    groups: dict[tuple, list[Solution]] = {}
    order: list[tuple] = []
    if not query.group_by:
        # aggregate-only SELECT: the whole input is one (possibly empty) group
        groups[()] = [_decode_row(codec, layout, row, aggregate_vars) for row in id_rows]
        order.append(())
    else:
        for row in id_rows:
            width = len(row)
            key = tuple(
                row[slot] if (slot is not None and slot < width) else None
                for slot in slots
            )
            members = groups.get(key)
            if members is None:
                groups[key] = members = []
                order.append(key)
            members.append(_decode_row(codec, layout, row, aggregate_vars))
    rows: list[Solution] = []
    for key in order:
        row_out: Solution = {
            var: codec.decode(value)
            for var, value in zip(query.group_by, key)
            if value is not None
        }
        for aggregate in query.aggregates:
            value = evaluate_aggregate(aggregate, groups[key])
            if value is not None:
                row_out[aggregate.alias] = value
        rows.append(row_out)
    return rows


def _execute_ask(
    graph: Graph,
    codec: _Codec,
    query: AskQuery,
    bindings: Solution | None,
    memo: _BGPOrderMemo | None,
    records: list | None,
) -> bool:
    layout = _Layout()
    rows = _initial_rows(codec, layout, bindings)
    return bool(_eval_group_ids(graph, codec, query.where, layout, rows, records, memo))


def _execute_construct(
    graph: Graph,
    codec: _Codec,
    query: ConstructQuery,
    bindings: Solution | None,
    memo: _BGPOrderMemo | None,
    records: list | None,
) -> Graph:
    """Instantiate the CONSTRUCT template once per solution.

    Template triples with an unbound variable, or whose instantiation would
    be ill-typed (e.g. a literal in subject position), are skipped for that
    solution — SPARQL's standard behaviour.
    """
    from repro.rdf.triples import Triple

    out = Graph(name="constructed")
    layout = _Layout()
    rows = _initial_rows(codec, layout, bindings)
    rows = _eval_group_ids(graph, codec, query.where, layout, rows, records, memo)
    template_vars = {
        position
        for pattern in query.template
        for position in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(position, Var)
    }
    for row in rows:
        solution = _decode_row(codec, layout, row, template_vars)
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


def query(graph: Graph, text: str, strict: bool = False, profile: bool = False):
    """Parse and evaluate SPARQL ``text`` against ``graph``.

    A thin wrapper over :func:`repro.sparql.prepare` — parsing goes through
    the bounded plan cache (``sparql.plan_cache.{hits,misses}``), so
    repeated production queries skip the parser entirely.

    Returns a :class:`QueryResult` for SELECT, a bool for ASK, or a
    :class:`~repro.rdf.graph.Graph` for CONSTRUCT.

    ``strict=True`` runs :func:`repro.sparql.analysis.check_query` on the
    parsed query (with graph statistics available to the analyzer) and
    raises :class:`~repro.errors.QueryAnalysisError` when any error-level
    diagnostic is found, instead of evaluating a query that can only
    return wrong or empty answers.

    ``profile=True`` executes under per-operator instrumentation (EXPLAIN
    ANALYZE, :mod:`repro.sparql.explain`) and returns a ``(result, plan)``
    pair instead of the bare result; the plan carries rows in/out, wall
    time, and join strategy per operator, and — when a tracer is installed
    — emits ``sparql.operator.eval`` trace events.
    """
    from repro.sparql.prepared import prepare

    obs.inc("sparql.queries")
    with obs.region("sparql.query.execute"):
        prepared = prepare(text)
        if strict:
            from repro.sparql.analysis import check_query

            check_query(prepared.plan, graph=graph)
        if profile:
            from repro.sparql.explain import explain

            plan = explain(graph, prepared.plan, analyze=True)
            return plan.result, plan
        return prepared.execute(graph)
