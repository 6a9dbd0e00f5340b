"""Parity and strategy tests for the dictionary-encoded hash-join engine.

The executor in :mod:`repro.sparql.eval` joins integer ID tuples and picks
hash-join vs index-nested-loop per pattern stage; the reference engine in
``tests/sparql_reference.py`` is the preserved pre-1.6 term-space
evaluator. For every query the two must produce identical solution
*multisets* (row order is not part of the contract).
"""

import random
from collections import Counter

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef, XSD_INTEGER
from repro.rdf.triples import Triple
from repro.sparql import Var, prepare, query
from repro.sparql.explain import explain
from tests.sparql_reference import ref_evaluate_ask, ref_evaluate_select, ref_query

EX = "http://x/"
PRE = f"PREFIX ex: <{EX}> "


def build_graph(seed: int, people: int = 30) -> Graph:
    """A seeded synthetic social graph: knows/name/age/team edges."""
    rng = random.Random(seed)
    graph = Graph(name=f"fuzz-{seed}")
    teams = [URIRef(EX + f"team{i}") for i in range(4)]
    nodes = [URIRef(EX + f"p{i}") for i in range(people)]
    knows = URIRef(EX + "knows")
    name = URIRef(EX + "name")
    age = URIRef(EX + "age")
    team = URIRef(EX + "team")
    for i, node in enumerate(nodes):
        if rng.random() < 0.9:
            graph.add(Triple(node, name, Literal(f"Person {i}")))
        if rng.random() < 0.8:
            graph.add(Triple(node, age, Literal(str(rng.randint(18, 70)),
                                                datatype=XSD_INTEGER)))
        graph.add(Triple(node, team, rng.choice(teams)))
        for _ in range(rng.randint(0, 5)):
            other = rng.choice(nodes)
            graph.add(Triple(node, knows, other))
    # a few self-loops so repeated-variable patterns have matches
    for node in rng.sample(nodes, 3):
        graph.add(Triple(node, knows, node))
    return graph


QUERIES = [
    # join-heavy BGPs (the hash-join sweet spot)
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?a }",
    "SELECT ?a ?n WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?c ex:name ?n }",
    "SELECT ?a ?t WHERE { ?a ex:knows ?b . ?a ex:team ?t . ?b ex:team ?t }",
    "SELECT DISTINCT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?c ex:knows ?a }",
    # repeated variable inside one pattern (self-loops)
    "SELECT ?x WHERE { ?x ex:knows ?x }",
    "SELECT ?x ?n WHERE { ?x ex:knows ?x . ?x ex:name ?n }",
    # OPTIONAL, nested and filtered
    "SELECT ?a ?n WHERE { ?a ex:knows ?b OPTIONAL { ?a ex:name ?n } }",
    "SELECT ?a ?n ?g WHERE { ?a ex:team ?t "
    "OPTIONAL { ?a ex:name ?n } OPTIONAL { ?a ex:age ?g FILTER (?g > 40) } }",
    "SELECT ?a ?n WHERE { ?a ex:knows ?b OPTIONAL { ?b ex:knows ?c . ?c ex:name ?n } }",
    # UNION with different bound masks feeding a later join
    "SELECT ?p ?v WHERE { { ?p ex:name ?v } UNION { ?p ex:age ?v } ?p ex:knows ?q }",
    "SELECT ?a WHERE { { ?a ex:knows ?b } UNION { ?b ex:knows ?a } ?a ex:team ex:team0 }",
    # FILTER / BIND / VALUES
    "SELECT ?a ?g WHERE { ?a ex:age ?g FILTER (?g >= 30 && ?g < 60) }",
    "SELECT ?a ?u WHERE { ?a ex:name ?n BIND(UCASE(?n) AS ?u) ?a ex:knows ?b }",
    "SELECT ?a ?t WHERE { VALUES ?t { ex:team0 ex:team1 } ?a ex:team ?t }",
    "SELECT ?a WHERE { ?a ex:name ?n FILTER (EXISTS { ?a ex:knows ?b }) }",
    # solution modifiers
    "SELECT DISTINCT ?t WHERE { ?a ex:team ?t . ?a ex:knows ?b }",
    "SELECT ?n WHERE { ?a ex:name ?n . ?a ex:knows ?b } ORDER BY ?n LIMIT 7",
    # aggregation over a join
    "SELECT ?t (COUNT(?a) AS ?c) WHERE { ?a ex:team ?t . ?a ex:knows ?b } GROUP BY ?t",
    "SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a ex:team ?t . ?a ex:knows ?b } "
    "GROUP BY ?t ORDER BY ?t",
    # property path
    f"SELECT ?x WHERE {{ <{EX}p0> ex:knows+ ?x }}",
]


def canonical(result) -> Counter:
    """Solution multiset, independent of row and variable order."""
    return Counter(
        tuple(sorted((v.name, t.n3()) for v, t in row.items())) for row in result.rows
    )


class TestHashJoinParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("text", QUERIES)
    def test_matches_reference_engine(self, seed, text):
        graph = build_graph(seed)
        fast = prepare(PRE + text).execute(graph)
        slow = ref_query(graph, PRE + text)
        assert canonical(fast) == canonical(slow)

    @pytest.mark.parametrize("seed", range(3))
    def test_order_by_agrees_on_key_sequence(self, seed):
        graph = build_graph(seed)
        text = PRE + "SELECT ?n WHERE { ?a ex:name ?n . ?a ex:knows ?b } ORDER BY ?n"
        fast = prepare(text).execute(graph)
        slow = ref_query(graph, text)
        assert [str(t) for t in fast.column("n")] == [str(t) for t in slow.column("n")]

    @pytest.mark.parametrize("seed", range(3))
    def test_ask_agrees(self, seed):
        graph = build_graph(seed)
        for text in (
            PRE + "ASK { ?a ex:knows ?a }",
            PRE + "ASK { ?a ex:team ex:team9 }",
        ):
            parsed = prepare(text)
            assert parsed.execute(graph) == ref_query(graph, text)

    def test_bound_initial_bindings_match_reference(self):
        graph = build_graph(0)
        node = URIRef(EX + "p1")
        prepared = prepare(PRE + "SELECT ?b WHERE { ?a ex:knows ?b }")
        bound = prepared.execute(graph, bindings={"a": node})
        expected = ref_query(
            graph, PRE + f"SELECT ?b WHERE {{ <{EX}p1> ex:knows ?b }}"
        )
        assert Counter(t.n3() for t in bound.column("b")) == Counter(
            t.n3() for t in expected.column("b")
        )


class TestJoinStrategy:
    def test_analyze_reports_hash_join_on_wide_input(self):
        graph = build_graph(1, people=40)
        plan = explain(
            graph,
            PRE + "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }",
            analyze=True,
        )
        patterns = [n for n in plan.operators() if n.op == "pattern" and n.executed]
        assert len(patterns) == 2
        # the second stage receives one row per knows-edge: far past the
        # hash-join threshold
        strategies = {n.strategy for n in patterns}
        assert "hash-join" in strategies
        for node in patterns:
            assert node.rows_out >= 0 and node.seconds >= 0.0
        assert any(n.rows_in > 8 for n in patterns)
        assert "strategy=hash-join" in plan.render()

    def test_analyze_keeps_nested_loop_on_tiny_input(self):
        graph = Graph()
        knows = URIRef(EX + "knows")
        a, b, c = (URIRef(EX + n) for n in "abc")
        graph.add(Triple(a, knows, b))
        graph.add(Triple(b, knows, c))
        plan = explain(
            graph, PRE + "SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
            analyze=True,
        )
        patterns = [n for n in plan.operators() if n.op == "pattern" and n.executed]
        assert {n.strategy for n in patterns} == {"index-nested-loop"}

    def test_query_results_unaffected_by_strategy_choice(self):
        # same query on the same data, far above and far below the
        # threshold, both validated against the reference engine
        for people in (5, 60):
            graph = build_graph(2, people=people)
            text = PRE + "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }"
            assert canonical(query(graph, text)) == canonical(ref_query(graph, text))


class TestReferenceEngineSelfCheck:
    def test_reference_select_shape(self):
        graph = build_graph(3)
        result = ref_evaluate_select(
            graph,
            prepare(PRE + "SELECT ?a ?n WHERE { ?a ex:name ?n }").plan,
        )
        assert result.variables == [Var("a"), Var("n")]
        assert all(Var("n") in row for row in result.rows)

    def test_reference_ask(self):
        graph = build_graph(3)
        assert ref_evaluate_ask(graph, prepare(PRE + "ASK { ?a ex:knows ?b }").plan)
