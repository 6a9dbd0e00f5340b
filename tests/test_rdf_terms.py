"""Unit tests for RDF terms."""

from datetime import date, datetime

import pytest

from repro.errors import TermError
from repro.rdf.terms import (
    BNode,
    Literal,
    URIRef,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
)


class TestURIRef:
    def test_basic(self):
        uri = URIRef("http://example.org/thing")
        assert uri.value == "http://example.org/thing"
        assert uri.n3() == "<http://example.org/thing>"

    def test_empty_rejected(self):
        with pytest.raises(TermError):
            URIRef("")

    def test_forbidden_characters_rejected(self):
        for bad in ("http://x/<y>", "http://x/a b", 'http://x/"q"', "http://x/\n"):
            with pytest.raises(TermError):
                URIRef(bad)

    def test_equality_and_hash(self):
        a = URIRef("http://x/a")
        assert a == URIRef("http://x/a")
        assert a != URIRef("http://x/b")
        assert hash(a) == hash(URIRef("http://x/a"))
        assert len({a, URIRef("http://x/a")}) == 1

    def test_not_equal_to_literal_with_same_text(self):
        assert URIRef("http://x/a") != Literal("http://x/a")

    def test_local_name(self):
        assert URIRef("http://x/path/Name").local_name == "Name"
        assert URIRef("http://x/onto#frag").local_name == "frag"
        assert URIRef("urn:isbn").local_name == "urn:isbn"

    def test_immutable(self):
        uri = URIRef("http://x/a")
        with pytest.raises(TermError):
            uri.value = "other"

    def test_ordering(self):
        assert URIRef("http://x/a") < URIRef("http://x/b")


class TestBNode:
    def test_autogenerated_ids_unique(self):
        assert BNode().id != BNode().id

    def test_explicit_id(self):
        assert BNode("b1").n3() == "_:b1"

    def test_invalid_id(self):
        with pytest.raises(TermError):
            BNode("has space")

    def test_equality(self):
        assert BNode("x") == BNode("x")
        assert BNode("x") != BNode("y")


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype is None
        assert lit.n3() == '"hello"'

    def test_python_int(self):
        lit = Literal(42)
        assert lit.datatype == XSD_INTEGER
        assert lit.to_python() == 42

    def test_python_bool_before_int(self):
        lit = Literal(True)
        assert lit.datatype == XSD_BOOLEAN
        assert lit.to_python() is True

    def test_python_float(self):
        lit = Literal(2.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.to_python() == 2.5

    def test_python_date_and_datetime(self):
        assert Literal(date(1984, 12, 30)).to_python() == date(1984, 12, 30)
        stamp = datetime(2010, 1, 13, 8, 30)
        assert Literal(stamp).to_python() == stamp

    def test_language_tag(self):
        lit = Literal("hello", language="en-US")
        assert lit.language == "en-us"
        assert lit.n3() == '"hello"@en-us'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_invalid_language(self):
        with pytest.raises(TermError):
            Literal("x", language="123")

    def test_escaping_in_n3(self):
        lit = Literal('say "hi"\nnow')
        assert lit.n3() == '"say \\"hi\\"\\nnow"'

    def test_to_python_bad_lexical_falls_back(self):
        lit = Literal("not-a-number", datatype=XSD_INTEGER)
        assert lit.to_python() == "not-a-number"

    def test_is_numeric(self):
        assert Literal(1).is_numeric
        assert Literal(1.5).is_numeric
        assert not Literal("x").is_numeric
        assert not Literal(True).is_numeric

    def test_equality_considers_datatype(self):
        assert Literal("1") != Literal("1", datatype=XSD_INTEGER)
        assert Literal("a", language="en") != Literal("a")

    def test_unsupported_type(self):
        with pytest.raises(TermError):
            Literal([1, 2])  # type: ignore[arg-type]
