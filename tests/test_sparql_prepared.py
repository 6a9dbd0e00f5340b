"""Tests for the prepared-query API, the plan cache, and the facade."""

import warnings

import pytest

import repro
from repro import obs
from repro.rdf import turtle
from repro.sparql import (
    PreparedQuery,
    Var,
    clear_plan_cache,
    prepare,
    query,
)
from repro.sparql.parser import parse_query
from repro.sparql.prepared import PLAN_CACHE_SIZE

PRE = "PREFIX ex: <http://x/> "


@pytest.fixture()
def graph():
    return turtle.load(
        """
        @prefix ex: <http://x/> .
        ex:a ex:name "Alpha" ; ex:knows ex:b .
        ex:b ex:name "Bravo" ; ex:knows ex:c .
        ex:c ex:name "Carol" .
        """
    )


class TestPreparedQuery:
    def test_execute_select(self, graph):
        prepared = prepare(PRE + "SELECT ?n WHERE { ?p ex:name ?n }")
        result = prepared.execute(graph)
        assert {str(v) for v in result.column("n")} == {"Alpha", "Bravo", "Carol"}

    def test_execute_is_repeatable_and_graph_agnostic(self, graph):
        prepared = prepare(PRE + "ASK { ?p ex:knows ?q }")
        assert prepared.execute(graph) is True
        assert prepared.execute(turtle.load("")) is False
        assert prepared.execute(graph) is True

    def test_bindings_parameterize_execution(self, graph):
        prepared = prepare(PRE + "SELECT ?q WHERE { ?p ex:knows ?q }")
        full = prepared.execute(graph)
        assert len(full) == 2
        bound = prepared.execute(graph, bindings={"p": repro.URIRef("http://x/a")})
        assert [str(v) for v in bound.column("q")] == ["http://x/b"]

    def test_explain_static_and_analyze(self, graph):
        prepared = prepare(PRE + "SELECT ?n WHERE { ?p ex:name ?n }")
        static = prepared.explain(graph)
        assert not static.analyzed
        analyzed = prepared.explain(graph, analyze=True)
        assert analyzed.analyzed and len(analyzed.result) == 3

    def test_plan_is_the_parsed_query(self, graph):
        text = PRE + "SELECT ?n WHERE { ?p ex:name ?n }"
        prepared = prepare(text)
        assert type(prepared.plan) is type(parse_query(text))
        assert prepared.text == text


class TestPlanCache:
    def test_repeated_prepare_hits_cache(self):
        clear_plan_cache()
        text = PRE + "SELECT ?n WHERE { ?p ex:name ?n }"
        with obs.use_registry():
            first = prepare(text)
            second = prepare(text)
            snapshot = obs.snapshot()
            assert first is second
            assert obs.counter_total(snapshot, "sparql.plan_cache.misses") == 1
            assert obs.counter_total(snapshot, "sparql.plan_cache.hits") == 1

    def test_query_wrapper_increments_cache_hits(self, graph):
        clear_plan_cache()
        text = PRE + "SELECT ?n WHERE { ?p ex:name ?n }"
        with obs.use_registry():
            query(graph, text)
            query(graph, text)
            snapshot = obs.snapshot()
            assert obs.counter_total(snapshot, "sparql.plan_cache.hits") == 1
            assert obs.counter_total(snapshot, "sparql.queries") == 2

    def test_cache_is_bounded_lru(self):
        clear_plan_cache()
        template = PRE + "SELECT ?n WHERE {{ ?p ex:name ?n FILTER (?n != \"{i}\") }}"
        oldest = prepare(template.format(i="first"))
        for i in range(PLAN_CACHE_SIZE):
            prepare(template.format(i=i))
        with obs.use_registry():
            again = prepare(template.format(i="first"))
            assert obs.counter_total(obs.snapshot(), "sparql.plan_cache.misses") == 1
        assert again is not oldest  # evicted and reparsed

    def test_clear_plan_cache_reports_count(self):
        clear_plan_cache()
        prepare(PRE + "ASK { ?s ?p ?o }")
        assert clear_plan_cache() == 1
        assert clear_plan_cache() == 0


class TestDeprecatedEntryPoints:
    def test_prepared_path_does_not_warn(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            prepare(PRE + "SELECT ?n WHERE { ?p ex:name ?n }").execute(graph)
            query(graph, PRE + "ASK { ?p ex:knows ?q }")


class TestFacadeExports:
    def test_prepare_reachable_from_top_level(self, graph):
        prepared = repro.prepare(PRE + "SELECT ?n WHERE { ?p ex:name ?n }")
        assert isinstance(prepared, repro.PreparedQuery)
        assert isinstance(prepared, PreparedQuery)
        assert len(prepared.execute(graph)) == 3

    def test_term_dictionary_exported(self):
        dictionary = repro.TermDictionary()
        term = repro.URIRef("http://x/a")
        assert dictionary.decode(dictionary.encode(term)) == term

    def test_version_bumped(self):
        assert repro.__version__ == "4.0.0"

    def test_query_result_column_var(self, graph):
        result = query(graph, PRE + "SELECT ?n WHERE { ?p ex:name ?n }")
        assert len(result.column(Var("n"))) == 3
