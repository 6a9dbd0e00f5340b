"""RDF terms: URI references, literals, and blank nodes.

Terms are immutable, hashable values. A :class:`Literal` carries an optional
datatype URI and language tag, and exposes :meth:`Literal.to_python` which
converts the lexical form to a native Python value according to the XSD
datatype (used by the similarity layer and by SPARQL FILTER evaluation).

Immutability plus value-based hashing is what makes terms *internable*:
:class:`~repro.rdf.dictionary.TermDictionary` maps each distinct term to a
dense integer ID, and :class:`~repro.rdf.graph.Graph` stores and joins
those IDs instead of term objects. Equal terms always intern to the same
ID, so ID equality and term equality coincide everywhere downstream.
"""

from __future__ import annotations

import re
from datetime import date, datetime
from functools import total_ordering
from typing import Union

from repro.errors import TermError

# Common XSD datatype URIs, spelled out once.
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_INT = XSD + "int"
XSD_LONG = XSD + "long"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_FLOAT = XSD + "float"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
XSD_GYEAR = XSD + "gYear"

_NUMERIC_DATATYPES = frozenset(
    {XSD_INTEGER, XSD_INT, XSD_LONG, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}
)

_URI_FORBIDDEN = re.compile(r'[<>"{}|^`\\\x00-\x20]')

_LANG_TAG_RE = re.compile(r"^[a-zA-Z]+(-[a-zA-Z0-9]+)*$")


class Term:
    """Abstract base for all RDF terms."""

    __slots__ = ()

    def n3(self) -> str:
        """Render the term in N-Triples syntax."""
        raise NotImplementedError


@total_ordering
class URIRef(Term):
    """An RDF URI reference (an IRI identifying a resource or predicate)."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not value:
            raise TermError("URIRef must not be empty")
        if _URI_FORBIDDEN.search(value):
            raise TermError(f"URIRef contains forbidden characters: {value!r}")
        object.__setattr__(self, "value", value)
        # terms are dict keys in every graph index and feature matrix;
        # computing the hash once at construction keeps those lookups cheap
        object.__setattr__(self, "_hash", hash(("URIRef", value)))

    def __setattr__(self, name, val):  # immutability guard
        raise TermError("URIRef is immutable")

    def __reduce__(self):  # the setattr guard breaks default slot pickling
        return (URIRef, (self.value,))

    def n3(self) -> str:
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """The fragment or last path segment, e.g. ``name`` in ``…/ontology/name``."""
        for sep in ("#", "/"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value

    def __eq__(self, other):
        return isinstance(other, URIRef) and self.value == other.value

    def __lt__(self, other):
        if isinstance(other, URIRef):
            return self.value < other.value
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"URIRef({self.value!r})"

    def __str__(self):
        return self.value


@total_ordering
class BNode(Term):
    """A blank node with a local identifier."""

    __slots__ = ("id", "_hash")
    _counter = 0

    def __init__(self, id: str | None = None):
        if id is None:
            BNode._counter += 1
            id = f"b{BNode._counter}"
        if not id or not re.match(r"^[A-Za-z0-9_]+$", id):
            raise TermError(f"invalid blank node id: {id!r}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_hash", hash(("BNode", id)))

    def __setattr__(self, name, val):
        raise TermError("BNode is immutable")

    def __reduce__(self):
        return (BNode, (self.id,))

    def n3(self) -> str:
        return f"_:{self.id}"

    def __eq__(self, other):
        return isinstance(other, BNode) and self.id == other.id

    def __lt__(self, other):
        if isinstance(other, BNode):
            return self.id < other.id
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BNode({self.id!r})"

    def __str__(self):
        return f"_:{self.id}"


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


@total_ordering
class Literal(Term):
    """An RDF literal: a lexical form plus optional datatype or language tag.

    A literal may carry a language tag *or* a datatype, never both (per RDF
    1.1 a language-tagged string has datatype ``rdf:langString``; we model
    that by keeping ``datatype=None`` when ``language`` is set).
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")

    def __init__(
        self,
        value: Union[str, int, float, bool, date, datetime],
        datatype: str | None = None,
        language: str | None = None,
    ):
        if language is not None and datatype is not None:
            raise TermError("a literal cannot have both a language tag and a datatype")
        if language is not None and not _LANG_TAG_RE.match(language):
            raise TermError(f"invalid language tag: {language!r}")

        if isinstance(value, bool):  # bool before int: bool is an int subclass
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, datetime):
            lexical = value.isoformat()
            datatype = datatype or XSD_DATETIME
        elif isinstance(value, date):
            lexical = value.isoformat()
            datatype = datatype or XSD_DATE
        elif isinstance(value, str):
            lexical = value
        else:
            raise TermError(f"unsupported literal value type: {type(value).__name__}")

        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language.lower() if language else None)
        object.__setattr__(
            self, "_hash", hash(("Literal", self.lexical, self.datatype, self.language))
        )

    def __setattr__(self, name, val):
        raise TermError("Literal is immutable")

    def __reduce__(self):
        return (Literal, (self.lexical, self.datatype, self.language))

    def n3(self) -> str:
        body = f'"{_escape_literal(self.lexical)}"'
        if self.language:
            return f"{body}@{self.language}"
        if self.datatype and self.datatype != XSD_STRING:
            return f"{body}^^<{self.datatype}>"
        return body

    @property
    def is_numeric(self) -> bool:
        """True when the datatype is an XSD numeric type."""
        return self.datatype in _NUMERIC_DATATYPES

    def to_python(self):
        """Convert to the closest native Python value.

        Falls back to the raw lexical form when the lexical form does not
        actually conform to the declared datatype.
        """
        dt = self.datatype
        text = self.lexical
        try:
            if dt in (XSD_INTEGER, XSD_INT, XSD_LONG):
                return int(text)
            if dt in (XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT):
                return float(text)
            if dt == XSD_BOOLEAN:
                if text in ("true", "1"):
                    return True
                if text in ("false", "0"):
                    return False
                raise ValueError(text)
            if dt == XSD_DATE:
                return date.fromisoformat(text)
            if dt == XSD_DATETIME:
                return datetime.fromisoformat(text)
            if dt == XSD_GYEAR:
                return int(text)
        except (ValueError, TypeError):
            return text
        return text

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __lt__(self, other):
        if isinstance(other, Literal):
            return (self.lexical, self.datatype or "", self.language or "") < (
                other.lexical,
                other.datatype or "",
                other.language or "",
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        extra = ""
        if self.datatype:
            extra = f", datatype={self.datatype!r}"
        elif self.language:
            extra = f", language={self.language!r}"
        return f"Literal({self.lexical!r}{extra})"

    def __str__(self):
        return self.lexical
